"""Pure-state coherence conversion under incoherent operations.

A pure state is its diagonal d in the incoherent basis: the squared
magnitudes of its amplitudes, the probability vector of its dephased
version.  Under incoherent operations a pure state converts into another
exactly when its diagonal is majorized by the other's (Du, Bai & Guo,
PRA 91, 052120 (2015), in the resource theory of Baumgratz, Cramer &
Plenio, PRL 113, 140401 (2014)), which is the LOCC rule for Schmidt
coefficients.  So the coherence checker is `check_trumping` on the
diagonals, with its verdict and report.  The free coherence of order p of
a pure state is the Renyi entropy H_{2-p} of its diagonal
(`free_coherence_pure`), so the conditions its monotones set are entropy
conditions that the LOCC oracle already checks.

Amplitudes are accepted as nonnegative reals.  Every implemented condition
depends only on their squares, so a pure state is its `ProbVector` of
squared magnitudes, built by `vectors.make_prob_vector`.  Building it from
probabilities directly also keeps it exact when the squared magnitudes are
rational but the amplitudes are not.
"""

from __future__ import annotations

from typing import Optional, Sequence

import mpmath
from mpmath import mpf

from .context import DEFAULT_CONTEXT, Context, Number, parse_scalar, workprec
from .errors import InputError, NegativeEntry
from .majorization import GridSpec
from .trumping import TrumpingVerdict, check_trumping
from .vectors import ProbVector, make_prob_vector, renyi_entropy


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
    """Divergence of order p >= 0 of the pure state from its dephased
    version: H_{2-p}(d) = log2 sum d_i^(2-p) / (p-1) over the support of
    the diagonal d.  It is zero exactly for incoherent states and
    nonnegative.  `renyi_entropy` refuses order 0, so p = 2 is log2 of the
    rank, and it negates orders below 0, so p > 2 negates it back."""
    if not p >= 0:
        raise InputError("free coherence is defined for p >= 0")
    with workprec(ctx):
        if p == 2:
            return mpmath.log(psi.weight, 2)
        h = renyi_entropy([v for v in psi.entries if v != 0], 2 - p, ctx)
        return -h if p > 2 else h


def check_coherent_trumping(psi: ProbVector, phi: ProbVector,
                            ctx: Context = DEFAULT_CONTEXT,
                            grid: Optional[GridSpec] = None) -> TrumpingVerdict:
    """Sufficient conditions for psi -> phi with a pure catalyst under
    incoherent operations: `check_trumping` on the diagonals (see the
    module docstring), whose verdict and report are this checker's."""
    return check_trumping(psi, phi, ctx, grid)
