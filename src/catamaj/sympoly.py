"""Coefficient families of products of truncated exponentials.

For a nonnegative vector x and a truncation order r, the polynomial

    prod_i (1 + x_i t + (x_i t)^2/2! + ... + (x_i t)^r/r!)

has degree n*r; its t^k coefficient equals the sum over compositions
(k_1..k_n) of k with max k_i <= r of prod_i x_i^{k_i}/k_i!.  Finitely many
strict comparisons of these coefficients certify strict norm inequalities
over continuous ranges of p, which is what the trumping checkers consume.

Exact inputs are convolved in scaled integer arithmetic (one shared
denominator per factor), so the strict comparisons are decided without any
rounding.  Float inputs are convolved in mpmath at the context precision and
comparisons must clear the confirmation margin before they count as holding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Sequence, Tuple, Union

from mpmath import mpf

from .context import (
    DEFAULT_CONTEXT,
    Context,
    Scalar,
    confirmed_greater,
    confirmed_less,
    to_mpf,
    workprec,
)
from .errors import DegreeCapExceeded, KOutOfRange
from .vectors import ProbVector, _as_entries

STRICT_GREATER = "strict_greater"
STRICT_LESS = "strict_less"


@dataclass(frozen=True)
class PolyCoeffs:
    """Coefficients (index k = 0..n*r) of the truncated-exponential product."""

    coeffs: Tuple[Scalar, ...]
    n: int
    r: int

    def __getitem__(self, k: int) -> Scalar:
        return self.coeffs[k]

    def __len__(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class ComparisonEntry:
    k: int
    lhs: Scalar
    rhs: Scalar
    holds: bool


@dataclass(frozen=True)
class ComparisonReport:
    """Per-k evidence for one strict coefficient-family comparison."""

    relation: str
    k_range: Tuple[int, int]
    per_k: Tuple[ComparisonEntry, ...]
    all_hold: bool
    slack: Scalar

    def failing_k(self) -> Tuple[int, ...]:
        return tuple(e.k for e in self.per_k if not e.holds)


def _convolve_int(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _convolve_mpf(a: list, b: list) -> list:
    out = [mpf(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _exact_coeffs(values: Tuple[Fraction, ...], r: int) -> Tuple[Fraction, ...]:
    # Factor i is scaled by den_i^r * r!, making its coefficients integers:
    #   a_i^j * den_i^(r-j) * (r!/j!)  for j = 0..r.
    # The product of the scaled factors is divided out at the end.
    r_fact = factorial(r)
    falling = [r_fact // factorial(j) for j in range(r + 1)]
    product = [1]
    denominator = 1
    for v in values:
        num, den = v.numerator, v.denominator
        poly = [num**j * den ** (r - j) * falling[j] for j in range(r + 1)]
        product = _convolve_int(product, poly)
        denominator *= den**r * r_fact
    return tuple(Fraction(c, denominator) for c in product)


def _float_coeffs(values: Tuple[Scalar, ...], r: int, ctx: Context) -> Tuple[mpf, ...]:
    with workprec(ctx):
        inv_fact = [mpf(1) / factorial(j) for j in range(r + 1)]
        product = [mpf(1)]
        for v in values:
            fv = to_mpf(v, ctx)
            poly = [inv_fact[j] * fv**j for j in range(r + 1)]
            product = _convolve_mpf(product, poly)
        return tuple(product)


@lru_cache(maxsize=128)
def _cached_coeffs(values: Tuple[Scalar, ...], r: int, precision: int) -> Tuple[Scalar, ...]:
    if all(isinstance(v, Fraction) for v in values):
        return _exact_coeffs(values, r)
    return _float_coeffs(values, r, Context(backend="float", precision=precision))


def f_poly_coeffs(x: Union[ProbVector, Sequence[Scalar]], r: int,
                  ctx: Context = DEFAULT_CONTEXT) -> PolyCoeffs:
    """All coefficients of the degree-n*r truncated-exponential product.

    Raises DegreeCapExceeded when n*r goes beyond the configured cap (the
    truncation order diverges as the top entries of two vectors approach
    each other, and failing loudly beats stalling).
    """
    values = _as_entries(x)
    n = len(values)
    if r < 1:
        raise KOutOfRange(f"truncation order r={r} must be >= 1")
    if n < 1:
        raise KOutOfRange("vector must be non-empty")
    if n * r > ctx.degree_cap:
        raise DegreeCapExceeded(n * r, ctx.degree_cap)
    coeffs = _cached_coeffs(values, r, ctx.precision)
    return PolyCoeffs(coeffs, n, r)


def F_coeff(x: Union[ProbVector, Sequence[Scalar]], k: int, r: int,
            ctx: Context = DEFAULT_CONTEXT) -> Scalar:
    """Single coefficient F_{k,r}(x); cached through f_poly_coeffs."""
    poly = f_poly_coeffs(x, r, ctx)
    if not 0 <= k <= poly.n * r:
        raise KOutOfRange(f"k={k} outside 0..{poly.n * r}")
    return poly[k]


def _pad_entries(a: Tuple[Scalar, ...], b: Tuple[Scalar, ...]):
    dim = max(len(a), len(b))
    zero_a = Fraction(0) if all(isinstance(v, Fraction) for v in a) else mpf(0)
    zero_b = Fraction(0) if all(isinstance(v, Fraction) for v in b) else mpf(0)
    return a + (zero_a,) * (dim - len(a)), b + (zero_b,) * (dim - len(b))


def compare_F_family(lhs: Union[ProbVector, Sequence[Scalar]],
                     rhs: Union[ProbVector, Sequence[Scalar]],
                     r: int,
                     k_range: Tuple[int, int],
                     relation: str = STRICT_GREATER,
                     slack: Scalar = 1,
                     ctx: Context = DEFAULT_CONTEXT) -> ComparisonReport:
    """Strictly compare F_{k,r}(lhs) against slack * F_{k,r}(rhs) over k_range.

    Exact rational inputs with rational slack are decided exactly; float
    comparisons only hold when they clear the confirmation margin, so an
    in-margin result can never produce a false pass.
    """
    if not slack > 0:
        raise ValueError("slack must be positive")
    a, b = _pad_entries(_as_entries(lhs), _as_entries(rhs))
    poly_a = f_poly_coeffs(a, r, ctx)
    poly_b = f_poly_coeffs(b, r, ctx)
    lo, hi = k_range
    if not (0 <= lo <= hi <= poly_a.n * r):
        raise KOutOfRange(f"k range {k_range} outside 0..{poly_a.n * r}")

    exact_cmp = (all(isinstance(v, Fraction) for v in a + b)
                 and isinstance(slack, (int, Fraction)))
    entries = []
    for k in range(lo, hi + 1):
        fa, fb = poly_a[k], poly_b[k]
        if exact_cmp:
            target = fb * Fraction(slack)
            holds = fa > target if relation == STRICT_GREATER else fa < target
        else:
            with workprec(ctx):
                fa = to_mpf(fa, ctx)
                fb = to_mpf(fb, ctx)
                target = fb * to_mpf(slack, ctx)
            if relation == STRICT_GREATER:
                holds = confirmed_greater(fa, target, ctx)
            else:
                holds = confirmed_less(fa, target, ctx)
        entries.append(ComparisonEntry(k, fa, fb, holds))
    all_hold = all(e.holds for e in entries)
    return ComparisonReport(relation, (lo, hi), tuple(entries), all_hold, slack)
