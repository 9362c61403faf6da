"""Pure-state coherence conversion under incoherent operations.

For pure states the finite sufficient conditions coincide with the LOCC
trumping families applied to the dephased (diagonal) probability vectors, so
the checker here delegates to the trumping pipeline.  A grid of free
coherence values (the divergence of the state from its dephased version) is
attached as an informational necessary-condition report.

Amplitudes are accepted as nonnegative reals.  Every implemented condition
depends only on their squares, so a pure state is its `ProbVector` of
squared magnitudes (the diagonal of the dephased state), built by
`vectors.make_prob_vector`.  Building it from probabilities directly also
keeps it exact when the squared magnitudes are rational but the amplitudes
are not.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import mpmath
from mpmath import mpf

from .context import DEFAULT_CONTEXT, Context, Number, as_mpf, parse_scalar, workprec
from .errors import InputError, NegativeEntry
from .majorization import GridSpec
from .trumping import TrumpingVerdict, check_trumping
from .vectors import ProbVector, converted, make_prob_vector, pad_pair


def pure_state_from_amplitudes(raw: Sequence[Number],
                               ctx: Context = DEFAULT_CONTEXT) -> ProbVector:
    """A pure state from amplitude magnitudes (complex phases dropped): the
    probability vector of their squares."""
    amps = [parse_scalar(v, ctx) for v in raw]
    for a in amps:
        if a < 0:
            raise NegativeEntry(f"amplitude magnitude {a} is negative")
    with workprec(ctx):
        probs = [a * a for a in amps]
    return make_prob_vector(probs, ctx)


def pure_state_from_probs(raw: Sequence[Number],
                          ctx: Context = DEFAULT_CONTEXT) -> ProbVector:
    """A pure state from its squared magnitudes: their probability vector."""
    return make_prob_vector(raw, ctx)


def free_coherence_pure(psi: ProbVector, p: Number,
                        ctx: Context = DEFAULT_CONTEXT) -> mpf:
    """Divergence of order p of the pure state from its dephased version.

    For a rank-one state this reduces to sign(p)/(p-1) * log2 sum d_i^(2-p)
    over the support of the diagonal d; it is zero exactly for incoherent
    states and nonnegative for all p >= 0.
    """
    if not p >= 0:
        raise InputError("free coherence is defined for p >= 0")
    with workprec(ctx):
        d = [as_mpf(v) for v in psi.entries if v != 0]
        pf = as_mpf(p)
        if pf == 1:
            return -mpmath.fsum(v * mpmath.log(v, 2) for v in d)
        if pf == 0:
            return -mpmath.log(mpmath.fsum(v * v for v in d), 2)
        return mpmath.log(mpmath.fsum(v ** (2 - pf) for v in d), 2) / (pf - 1)


@dataclass(frozen=True)
class CoherenceEntry:
    p: Fraction
    a_psi: mpf
    a_phi: mpf
    non_increasing: bool


@dataclass(frozen=True)
class CoherenceReport:
    """Free-coherence comparison at sampled orders (necessary direction).

    Informational: the verdict status is decided by the dephased trumping
    pipeline alone.  Sampling stays in [0, 2], where the rank-one identity
    ties the comparison to entropy orders in [0, 2] and a coherence increase
    genuinely contradicts convertibility.
    """

    entries: Tuple[CoherenceEntry, ...]
    all_non_increasing: bool


DEFAULT_COHERENCE_GRID = tuple(Fraction(k, 4) for k in range(0, 9))


def coherence_report(psi: ProbVector, phi: ProbVector,
                     p_values: Sequence[Fraction] = DEFAULT_COHERENCE_GRID,
                     ctx: Context = DEFAULT_CONTEXT) -> CoherenceReport:
    # every order evaluates both states again: convert their entries once
    psi, phi = converted(psi, ctx), converted(phi, ctx)
    entries = []
    for p in p_values:
        a_psi = free_coherence_pure(psi, p, ctx)
        a_phi = free_coherence_pure(phi, p, ctx)
        entries.append(CoherenceEntry(p, a_psi, a_phi, bool(a_phi <= a_psi)))
    return CoherenceReport(tuple(entries), all(e.non_increasing for e in entries))


def check_coherent_trumping(psi: ProbVector, phi: ProbVector,
                            ctx: Context = DEFAULT_CONTEXT,
                            with_oracle: bool = True,
                            grid: Optional[GridSpec] = None) -> TrumpingVerdict:
    """Sufficient conditions for psi -> phi with a pure catalyst under
    incoherent operations.

    Runs the LOCC trumping pipeline on the dephased vectors (the condition
    families are identical) and attaches the free-coherence report.
    """
    verdict = check_trumping(*pad_pair(psi, phi), ctx, with_oracle, grid)
    report = coherence_report(psi, phi, ctx=ctx)
    return replace(verdict, coherence=report)
