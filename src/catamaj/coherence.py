"""Pure-state coherence conversion under incoherent operations.

For pure states the finite sufficient conditions coincide with the LOCC
trumping families applied to the dephased (diagonal) probability vectors, so
the checker here delegates to the trumping pipeline.  A grid of free
coherence values (the divergence of the state from its dephased version) is
attached as an informational necessary-condition report.

Amplitudes are accepted as nonnegative reals; every implemented condition
depends only on their squares, so states may equivalently be constructed
from probability vectors (which also preserves exactness when the squared
magnitudes are rational but the amplitudes are not).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import mpmath
from mpmath import mpf

from .context import DEFAULT_CONTEXT, Context, Number, Scalar, parse_scalar, to_mpf, workprec
from .errors import EmptyInput, InputError, NegativeEntry, SumNotOne
from .majorization import GridSpec
from .trumping import TrumpingVerdict, check_trumping
from .vectors import ProbVector, _build, pad_pair


@dataclass(frozen=True)
class PureState:
    """A pure state, stored through its squared magnitudes.

    `probs` are the diagonal entries of the dephased state in the reference
    basis; the amplitudes are their square roots.
    """

    probs: Tuple[Scalar, ...]
    exact: bool

    @property
    def dim(self) -> int:
        return len(self.probs)


def _validate_probs(probs, ctx: Context) -> PureState:
    total = sum(probs)
    if ctx.exact:
        if total != 1:
            raise SumNotOne(total, total - 1)
    elif abs(total - 1) > ctx.sum_tol:
        raise SumNotOne(total, total - 1)
    return PureState(tuple(probs), ctx.exact)


def pure_state_from_amplitudes(raw: Sequence[Number],
                               ctx: Context = DEFAULT_CONTEXT) -> PureState:
    """Build a pure state from amplitude magnitudes (complex phases dropped)."""
    if len(raw) == 0:
        raise EmptyInput("state needs at least one amplitude")
    amps = [parse_scalar(v, ctx) for v in raw]
    for a in amps:
        if a < 0:
            raise NegativeEntry(f"amplitude magnitude {a} is negative")
    with workprec(ctx):
        probs = [a * a for a in amps]
    return _validate_probs(probs, ctx)


def pure_state_from_probs(raw: Sequence[Number],
                          ctx: Context = DEFAULT_CONTEXT) -> PureState:
    """Build a pure state directly from squared magnitudes."""
    if len(raw) == 0:
        raise EmptyInput("state needs at least one probability")
    probs = [parse_scalar(v, ctx) for v in raw]
    for p in probs:
        if p < 0:
            raise NegativeEntry(f"probability {p} is negative")
    return _validate_probs(probs, ctx)


def dephase_pure(psi: PureState, ctx: Context = DEFAULT_CONTEXT) -> ProbVector:
    """Diagonal of the state in the reference basis, sorted descending."""
    return _build(psi.probs, psi.exact, ctx)


def free_coherence_pure(psi: PureState, p: Number,
                        ctx: Context = DEFAULT_CONTEXT) -> mpf:
    """Divergence of order p of the pure state from its dephased version.

    For a rank-one state this reduces to sign(p)/(p-1) * log2 sum d_i^(2-p)
    over the support of the diagonal d; it is zero exactly for incoherent
    states and nonnegative for all p >= 0.
    """
    if not p >= 0:
        raise InputError("free coherence is defined for p >= 0")
    with workprec(ctx):
        d = [to_mpf(v, ctx) for v in psi.probs if v != 0]
        pf = to_mpf(p, ctx)
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


def coherence_report(psi: PureState, phi: PureState,
                     p_values: Sequence[Fraction] = DEFAULT_COHERENCE_GRID,
                     ctx: Context = DEFAULT_CONTEXT) -> CoherenceReport:
    entries = []
    for p in p_values:
        a_psi = free_coherence_pure(psi, p, ctx)
        a_phi = free_coherence_pure(phi, p, ctx)
        entries.append(CoherenceEntry(p, a_psi, a_phi, bool(a_phi <= a_psi)))
    return CoherenceReport(tuple(entries), all(e.non_increasing for e in entries))


def check_coherent_trumping(psi: PureState, phi: PureState,
                            ctx: Context = DEFAULT_CONTEXT,
                            with_oracle: bool = True,
                            grid: Optional[GridSpec] = None) -> TrumpingVerdict:
    """Sufficient conditions for psi -> phi with a pure catalyst under
    incoherent operations.

    Runs the LOCC trumping pipeline on the dephased vectors (the condition
    families are identical) and attaches the free-coherence report.
    """
    x = dephase_pure(psi, ctx)
    y = dephase_pure(phi, ctx)
    x, y = pad_pair(x, y)
    verdict = check_trumping(x, y, ctx, with_oracle, grid)
    report = coherence_report(psi, phi, ctx=ctx)
    return replace(verdict, coherence=report)
