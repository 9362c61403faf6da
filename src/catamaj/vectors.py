"""Probability vectors with the norm and entropy functionals used throughout.

A ``ProbVector`` is its entries, in the order they were given; its weight
(number of nonzero entries) and whether it is exact (every entry a
``Fraction``) follow from them.  All functionals here are pure; vectors are
immutable and safe to share across threads.

Conventions:

* the scaled p-norm is the power mean ((1/n) sum x_i^p)^(1/p); at p = 0 it is
  the geometric mean; for p < 0 it is 0 whenever the vector has a zero entry,
  which makes it continuous in p;
* entropies are reported in bits (base-2 logarithms) and evaluate to -inf on
  zero entries when the order is negative (or for the Burg entropy);
* 0^p = 0 for every real p in pointwise powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Tuple, Union

import mpmath
from mpmath import mpf

from .context import (
    DEFAULT_CONTEXT,
    FLOAT_SUM_TOL,
    Context,
    Number,
    Scalar,
    as_mpf,
    parse_scalar,
    to_mpf,
    workprec,
)
from .errors import (
    EmptyInput,
    NegativeEntry,
    PZero,
    ReciprocalOfZero,
    SumNotOne,
)

NEG_INF = mpf("-inf")


@dataclass(frozen=True)
class ProbVector:
    """A probability vector in its given entry order.  `weight` and `exact`
    are derived from the entries once, on first use, so no vector can claim
    to be exact while it holds an mpf."""

    entries: Tuple[Scalar, ...]

    @cached_property
    def weight(self) -> int:    # the number of nonzero entries
        return sum(1 for e in self.entries if e != 0)

    @cached_property
    def exact(self) -> bool:    # every entry a Fraction
        return all(isinstance(e, Fraction) for e in self.entries)

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def top(self) -> Scalar:
        return max(self.entries)

    @property
    def min_nonzero(self) -> Scalar:
        """Smallest nonzero entry (the vector must have weight >= 1)."""
        return min(e for e in self.entries if e != 0)

    @property
    def full_weight(self) -> bool:
        return self.weight == self.dim

    def padded(self, dim: int) -> "ProbVector":
        """Zero-pad to `dim` entries; weight is unchanged."""
        if dim <= self.dim:
            return self
        zero = Fraction(0) if self.exact else mpf(0)
        return ProbVector(self.entries + (zero,) * (dim - self.dim))

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def make_prob_vector(raw: Sequence[Number], ctx: Context = DEFAULT_CONTEXT) -> ProbVector:
    """Parse and validate a probability vector, in the order given: the one
    builder of every distribution the toolbox reads, pure states included.

    Raises EmptyInput, NegativeEntry, or SumNotOne when |sum - 1| exceeds
    `ctx.sum_tol` (unset: 0 on the exact backend, `FLOAT_SUM_TOL` on the
    float one).  A tolerance admits published vectors whose printed digits
    do not quite normalize; entries are kept exactly as given, never
    rescaled.
    """
    if len(raw) == 0:
        raise EmptyInput("probability vector needs at least one entry")
    entries = [parse_scalar(v, ctx) for v in raw]
    for e in entries:
        if not e >= 0:    # a NaN mpf is no entry either
            raise NegativeEntry(f"entry {e} is not a nonnegative number")
    total = sum(entries)
    deviation = total - 1
    tol = ctx.sum_tol if ctx.sum_tol is not None else 0 if ctx.exact else FLOAT_SUM_TOL
    if abs(deviation) > parse_scalar(tol, ctx):
        raise SumNotOne(total, deviation)
    return ProbVector(tuple(entries))


def uniform(dim: int, ctx: Context = DEFAULT_CONTEXT) -> ProbVector:
    """The uniform vector u_dim."""
    if dim < 1:
        raise EmptyInput("dimension must be positive")
    if ctx.exact:
        return ProbVector((Fraction(1, dim),) * dim)
    with workprec(ctx):
        return ProbVector((mpf(1) / dim,) * dim)


def pad_pair(x: ProbVector, y: ProbVector) -> Tuple[ProbVector, ProbVector]:
    """Zero-pad the shorter vector so both share a dimension."""
    dim = max(x.dim, y.dim)
    return x.padded(dim), y.padded(dim)


def without_shared_zeros(x: ProbVector, y: ProbVector) -> Tuple[ProbVector, ProbVector]:
    """x and y (one dimension) less their last min(zeros(x), zeros(y)) zeros
    each: zeros in both add only trailing zeros to each catalysed composite."""
    shared = min(x.dim - x.weight, y.dim - y.weight)
    if shared == 0:
        return x, y
    drops = ([i for i, e in enumerate(v.entries) if e == 0][-shared:] for v in (x, y))
    return tuple(ProbVector(tuple(e for i, e in enumerate(v.entries) if i not in drop))
                 for v, drop in zip((x, y), drops))


def common_backend(vectors: Sequence[ProbVector], ctx: Context = DEFAULT_CONTEXT) -> Tuple[ProbVector, ...]:
    """Coerce a family of vectors to one backend (float wins over exact);
    None passes through."""
    if all(v is None or v.exact for v in vectors) or all(v is None or not v.exact for v in vectors):
        return tuple(vectors)
    return tuple(ProbVector(tuple(to_mpf(e, ctx) for e in v.entries))
                 if v is not None and v.exact else v for v in vectors)


def converted(x: ProbVector, ctx: Context = DEFAULT_CONTEXT) -> ProbVector:
    """x with each entry converted to mpf at the context precision once, for
    a functional evaluated at many orders.  `scaled_p_norm`, `renyi_entropy`
    and `thermo.renyi_divergence` convert every entry on every call; on the
    converted vector that returns the entry itself, so they give the same
    mpf as on x."""
    with workprec(ctx):
        return ProbVector(tuple(map(as_mpf, x.entries)))


def tensor(x: ProbVector, y: ProbVector, ctx: Context = DEFAULT_CONTEXT) -> ProbVector:
    """Tensor (Kronecker) product: x_i y_j at index i * dim(y) + j, at the context precision."""
    x, y = common_backend((x, y), ctx)
    with workprec(ctx):
        return ProbVector(tuple(a * b for a in x.entries for b in y.entries))


def pointwise_power(x: ProbVector, m: Number, ctx: Context = DEFAULT_CONTEXT) -> Tuple[Scalar, ...]:
    """Entrywise x^m with 0^m = 0, in x's order; not renormalized.

    Negative m requires full weight (reciprocals of zero are rejected).
    Integer m on an exact vector stays exact; otherwise the result is mpf.
    """
    m_frac = Fraction(m) if isinstance(m, (int, float, Fraction)) else None
    negative = m_frac < 0 if m_frac is not None else to_mpf(m, ctx) < 0
    if negative and not x.full_weight:
        raise ReciprocalOfZero(f"weight {x.weight} < dim {x.dim}")
    if x.exact and m_frac is not None and m_frac.denominator == 1:
        return tuple(e ** m_frac.numerator if e != 0 else Fraction(0) for e in x.entries)
    with workprec(ctx):
        me = to_mpf(m if m_frac is None else m_frac, ctx)
        return tuple(mpf(0) if e == 0 else to_mpf(e, ctx) ** me for e in x.entries)


def _as_entries(x: Union[ProbVector, Sequence[Scalar]]) -> Tuple[Scalar, ...]:
    if isinstance(x, ProbVector):
        return x.entries
    return tuple(x)


def scaled_p_norm(x: Union[ProbVector, Sequence[Scalar]], p: Number,
                  ctx: Context = DEFAULT_CONTEXT) -> mpf:
    """Power mean ((1/n) sum x_i^p)^(1/p), with the degenerate conventions.

    p = 0 gives the geometric mean; p < 0 gives 0 when some entry is zero.
    """
    entries = _as_entries(x)
    with workprec(ctx):
        pf = as_mpf(p)
        if pf <= 0 and 0 in entries:
            return mpf(0)
        values = [as_mpf(e) for e in entries]
        if pf == 0:
            return mpmath.exp(mpmath.fsum(mpmath.ln(v) for v in values) / len(values))
        mean = mpmath.fsum((v ** pf) for v in values if v != 0) / len(values)
        return mean ** (1 / pf)


def renyi_entropy(x: Union[ProbVector, Sequence[Scalar]], p: Number,
                  ctx: Context = DEFAULT_CONTEXT) -> mpf:
    """Renyi entropy of order p in bits; -inf for p < 0 on deficient weight.

    p = 0 is rejected (PZero): use burg_entropy for the p -> 0 condition.
    """
    entries = _as_entries(x)
    with workprec(ctx):
        pf = as_mpf(p)
        if pf == 0:
            raise PZero("Renyi entropy undefined at p=0; use burg_entropy")
        if pf < 0 and 0 in entries:
            return NEG_INF
        values = [as_mpf(e) for e in entries if e != 0]
        if pf == 1:
            return -mpmath.fsum(v * mpmath.log(v, 2) for v in values)
        power_sum = mpmath.fsum(v ** pf for v in values)
        sign = mpf(1) if pf > 0 else mpf(-1)
        return sign / (1 - pf) * mpmath.log(power_sum, 2)


def shannon_entropy(x: Union[ProbVector, Sequence[Scalar]],
                    ctx: Context = DEFAULT_CONTEXT) -> mpf:
    """H_1 in bits (0 log 0 = 0)."""
    return renyi_entropy(x, 1, ctx)


def burg_entropy(x: Union[ProbVector, Sequence[Scalar]],
                 ctx: Context = DEFAULT_CONTEXT) -> mpf:
    """Burg entropy (1/n) sum log2 x_i; -inf when any entry is zero."""
    entries = _as_entries(x)
    if 0 in entries:
        return NEG_INF
    with workprec(ctx):
        return mpmath.fsum(mpmath.log(as_mpf(e), 2) for e in entries) / len(entries)
