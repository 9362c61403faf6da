"""Coefficient families of products of truncated exponentials.

For a nonnegative vector x and a truncation order r, the polynomial

    prod_i (1 + x_i t + (x_i t)^2/2! + ... + (x_i t)^r/r!)

has degree n*r; its t^k coefficient equals the sum over compositions
(k_1..k_n) of k with max k_i <= r of prod_i x_i^{k_i}/k_i!.  Finitely many
strict comparisons of these coefficients certify strict norm inequalities
over continuous ranges of p, which is what the trumping checkers consume.

A family comparison is settled in up to four stages, each taking only the
k the one before left open:

1. float64 logs of both families under the proven error bound of
   `floatpass.log_coeffs`, built in blocks of max(r + 1, 32) orders from one
   set of exponentials and plain dot products each; a margin settled here that
   could be the least but might print other digits than the exact one is
   settled again by the stages below;
2. for mpf entries or slack, a product in mpmath at the context precision
   under the bound of `_mpf_coeffs`;
3. for exact entries with one total and slack 1, at r < k <= 2r + 1, the
   float64 logs of the two tails of `floatpass.log_tails`, whose difference
   is exactly F_k(lhs) - F_k(rhs) and which differ by O(1) where the F_k
   agree to 30 digits and more;
4. integers: every entry of a vector over one shared denominator D (mpf
   entries and slacks are dyadic rationals, so they take the same route),
   the coefficients of prod_i sum_j (D x_i)^j (r!/j!) t^j up to the largest
   open k, compared exactly.

Exact ties always reach stage 4.  Comparisons that involve a float quantity
hold only when they clear the relative confirmation margin, so an in-margin
result can never produce a false pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from operator import mul
from typing import List, Optional, Sequence, Tuple, Union

import mpmath
from mpmath import mpf

from .context import (
    DEFAULT_CONTEXT,
    REL_MARGIN,
    Context,
    Scalar,
    parse_exact,
    summary_field,
    to_mpf,
    workprec,
)
from .errors import DegreeCapExceeded, KOutOfRange
from .floatpass import (
    convolve,
    entry_logs,
    log_coeffs,
    log_entry,
    log_tails,
    prints_alike,
    tail_ratio,
    tightest,
)
from .vectors import ProbVector, _as_entries

STRICT_GREATER = "strict_greater"
STRICT_LESS = "strict_less"
FIRST_FAILING = 8


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
    """Evidence for one strict coefficient-family comparison.

    Compact evidence leaves `per_k` empty and carries the number of failing
    k, the first FIRST_FAILING of them, and the signed log2 margin of the
    comparison closest to flipping (positive on the side that holds; None
    when no comparison has a finite margin).  Full evidence lists every k
    with its exact coefficients and leaves the three summary fields None.
    `all_hold` follows from either: no k fails.
    """

    relation: str
    k_range: Tuple[int, int]
    per_k: Tuple[ComparisonEntry, ...]
    all_hold: bool = field(init=False)
    slack: Scalar
    failure_count: Optional[int] = summary_field()
    first_failing: Optional[Tuple[int, ...]] = summary_field()
    tightest_log2: Optional[float] = summary_field()

    def __post_init__(self):
        object.__setattr__(self, "all_hold", not self.failing_k())

    def failing_k(self) -> Tuple[int, ...]:
        if self.first_failing is not None:
            return self.first_failing
        return tuple(e.k for e in self.per_k if not e.holds)


def _int_dot(a: list, b: list) -> int:
    return sum(map(mul, a, b))


def _scaled(values: Sequence[Fraction]) -> Tuple[int, Tuple[int, ...]]:
    """(D, (D*v for v in values)) with D the lcm of the denominators."""
    d = math.lcm(*(v.denominator for v in values))
    return d, tuple(v.numerator * (d // v.denominator) for v in values)


def _exact_coeffs(nums: Tuple[int, ...], r: int, top: int) -> Tuple[int, ...]:
    """Integer coefficients c_0..c_top of prod_i sum_(j<=r) nums_i^j (r!/j!) t^j
    (zero past the degree; top <= n*r).

    With x_i = nums_i / D, F_k(x) = c_k / (D^k r!^n).
    """
    falling = [1] * (r + 1)
    for j in range(r - 1, -1, -1):
        falling[j] = falling[j + 1] * (j + 1)
    width = min(r, top) + 1
    product = [1]
    for num in nums:
        poly = [falling[0]]
        power = 1
        for j in range(1, width if num else 1):
            power *= num
            poly.append(power * falling[j])
        product = convolve(product, poly, top, _int_dot)
    return tuple(product) + (0,) * (top + 1 - len(product))


def _mpf_coeffs(values: Sequence[Scalar], r: int, top: int) -> List[mpf]:
    """Coefficients 0..top at the working precision P, each within relative
    error (n (3r + 2) + 1) 2^(1-P) of the exact one.

    Entries round once (u = 2^-P); t_j = t_(j-1) x / j adds two roundings per
    j, so a factor's terms carry at most 3r; every coefficient of a product
    is one `mpmath.fdot`, exact products summed exactly (terms below 2^-2P
    of the sum dropped) and rounded once.  All terms are nonnegative, so
    relative errors add along the n factors: (1 + u)^(n(3r + 2)) - 1, which
    the factor 2 in the bound covers.
    """
    width = min(r, top) + 1
    product = [mpf(1)]
    for v in values:
        v = to_mpf(v) if isinstance(v, Fraction) else mpf(v)
        poly = [mpf(1)]
        for j in range(1, width if v else 1):
            poly.append(poly[-1] * v / j)
        product = convolve(product, poly, top, mpmath.fdot)
    return product + [mpf(0)] * (top + 1 - len(product))


def _check_degree(n: int, r: int, ctx: Context) -> None:
    if r < 1:
        raise KOutOfRange(f"truncation order r={r} must be >= 1")
    if n < 1:
        raise KOutOfRange("vector must be non-empty")
    if n * r > ctx.degree_cap:
        raise DegreeCapExceeded(n * r, ctx.degree_cap)


def f_poly_coeffs(x: Union[ProbVector, Sequence[Scalar]], r: int,
                  ctx: Context = DEFAULT_CONTEXT) -> PolyCoeffs:
    """All coefficients of the degree-n*r truncated-exponential product,
    exact for rational entries and rounded to the context precision for mpf
    entries.

    Raises DegreeCapExceeded when n*r goes beyond the configured cap (the
    truncation order diverges as the top entries of two vectors approach
    each other, and failing loudly beats stalling).
    """
    values = _as_entries(x)
    n = len(values)
    _check_degree(n, r, ctx)
    d, nums = _scaled([parse_exact(v) for v in values])
    scale = factorial(r) ** n
    coeffs = tuple(Fraction(c, d**k * scale)
                   for k, c in enumerate(_exact_coeffs(nums, r, n * r)))
    if not all(isinstance(v, Fraction) for v in values):
        coeffs = tuple(to_mpf(c, ctx) for c in coeffs)
    return PolyCoeffs(coeffs, n, r)


def F_coeff(x: Union[ProbVector, Sequence[Scalar]], k: int, r: int,
            ctx: Context = DEFAULT_CONTEXT) -> Scalar:
    """Single coefficient F_{k,r}(x)."""
    poly = f_poly_coeffs(x, r, ctx)
    if not 0 <= k <= poly.n * r:
        raise KOutOfRange(f"k={k} outside 0..{poly.n * r}")
    return poly[k]


def _pad_entries(a: Tuple[Scalar, ...], b: Tuple[Scalar, ...]):
    dim = max(len(a), len(b))
    zero_a = Fraction(0) if all(isinstance(v, Fraction) for v in a) else mpf(0)
    zero_b = Fraction(0) if all(isinstance(v, Fraction) for v in b) else mpf(0)
    return a + (zero_a,) * (dim - len(a)), b + (zero_b,) * (dim - len(b))


def _log2_ratio(num, den) -> float:
    """log2(num/den) for positive integers or fractions of any size."""
    diff = num - den
    if 2 * abs(diff) < den:            # near 1: no cancellation in log1p
        return math.log1p(float(diff / den)) / math.log(2)
    return (math.log2(num.numerator) - math.log2(num.denominator)
            - math.log2(den.numerator) + math.log2(den.denominator))


def _decide(fa, fb, sign: int, margin: Fraction, eps: Fraction = Fraction(0)):
    """(holds, log2 margin) of F_a against F_b (slack included in fb), from
    values within relative error eps of them; None when eps leaves it open.

    STRICT_GREATER holds when F_a (1 - margin) > F_b, STRICT_LESS when
    F_b (1 - margin) > F_a; the log2 margin is that of F_a / F_b, signed so
    that it is positive on the side that holds.
    """
    big, small = (fa, fb) if sign > 0 else (fb, fa)
    ratio = _log2_ratio(big, small) if big and small else None
    big *= margin.denominator - margin.numerator
    small *= margin.denominator
    if not eps:
        return big > small, ratio
    if big * (1 - eps) > small * (1 + eps):
        return True, ratio
    if big * (1 + eps) <= small * (1 - eps):
        return False, ratio
    return None


def _settled_in_mpf(a, b, s: Fraction, r: int, ks, sign: int, margin: Fraction,
                    ctx: Context) -> dict:
    """{k: (holds, log2 margin)} for the k in `ks` that `_mpf_coeffs` at the
    context precision settles."""
    with workprec(ctx):
        coeffs_a = _mpf_coeffs(a, r, ks[-1])
        coeffs_b = _mpf_coeffs(b, r, ks[-1])
    eps = Fraction(len(a) * (3 * r + 2) + 1, 2 ** (ctx.precision - 1))
    settled = {}
    for k in ks:
        verdict = _decide(parse_exact(coeffs_a[k]), s * parse_exact(coeffs_b[k]),
                          sign, margin, eps)
        if verdict is not None:
            settled[k] = verdict
    return settled


def _settled_in_float(a, b, slack, r: int, lo: int, hi: int, sign: int, margin: Fraction
                      ) -> Tuple[dict, dict, Optional[Tuple[List[float], float]]]:
    """({k: (holds, log2 margin)} for the k in lo..hi whose comparison
    sign * (log F_k(a) - log slack - log F_k(b)) > log 1/(1 - margin) float64
    settles, {k: relative error bound of its margin}, (float logs of F_k(b),
    their bound)); ({}, {}, None) when an entry is not a normal float."""
    logs_a = entry_logs(v for v in a if v != 0)
    logs_b = entry_logs(v for v in b if v != 0)
    log_s = log_entry(slack)
    if logs_a is None or logs_b is None or log_s is None:
        return {}, {}, None
    coeffs_a, err_a = log_coeffs(logs_a, r, hi)
    coeffs_b, err_b = log_coeffs(logs_b, r, hi)
    band = 2 * (err_a + err_b + log_s[1])
    mu = -math.log1p(-float(margin))
    settled, rel = {}, {}
    for k in range(lo, hi + 1):
        zero_a, zero_b = k >= len(coeffs_a), k >= len(coeffs_b)
        if zero_a or zero_b:
            # F_k = 0 exactly on a side past its degree r * (nonzero entries)
            settled[k] = ((not zero_a) if sign > 0 else (not zero_b), None)
            continue
        gap = sign * (coeffs_a[k] - log_s[0] - coeffs_b[k])
        if gap and abs(gap - mu) > band:
            settled[k] = (gap > mu, gap / math.log(2))
            rel[k] = band / abs(gap)
    return settled, rel, (coeffs_b, err_b)


def _unsure_of_tightest(settled: dict, rel: dict) -> List[int]:
    """The k settled in float64 whose margins must be made exact before
    `tightest` may run: none when every margin that could be the least
    prints the same digits whatever its exact value, else every inexact one
    of them.  `rel` holds the relative error bound of each inexact margin."""
    if not rel:
        return []
    finite = {k: m for k, (_, m) in settled.items() if m is not None and math.isfinite(m)}
    least = min(abs(m) * (1 + rel.get(k, 0)) for k, m in finite.items())
    near = [k for k, m in finite.items() if abs(m) * (1 - rel.get(k, 0)) <= least]
    loose = [k for k in near if k in rel]
    if (len({tightest([finite[k]]) for k in near}) == 1
            and all(prints_alike(finite[k], rel[k]) for k in loose)):
        return []
    return loose


def _tail_logs(values, total: Fraction) -> Optional[List[Tuple[float, Optional[float]]]]:
    """(log v, log(total - v), None at a point mass) per nonzero entry, or
    None when one of them is not a normal float."""
    pairs = []
    for v in values:
        if v:
            rest = total - v
            logs = entry_logs((v, rest) if rest else (v,))
            if logs is None:
                return None
            pairs.append((logs[0], logs[1] if rest else None))
    return pairs


def _settled_by_tails(a, b, total: Fraction, r: int, ks, sign: int,
                      family_b: Tuple[List[float], float]) -> dict:
    """{k: (holds, log2 margin)} for the k in `ks` (each r < k <= 2r + 1)
    that the tails of `floatpass.log_tails` settle.  `a` and `b` are exact
    with one total, so F_k(a) - F_k(b) = T_k(b) - T_k(a); `family_b` holds
    the float logs of F_k(b) and their bound, which scale the margin.  A k
    whose margin might print other digits than the exact one is left open,
    so `tightest_log2` is the one the integers give."""
    pairs_a, pairs_b = _tail_logs(a, total), _tail_logs(b, total)
    if pairs_a is None or pairs_b is None:
        return {}
    logs_fb, err_fb = family_b
    tails_a, err_a = log_tails(pairs_a, r, ks)
    tails_b, err_b = log_tails(pairs_b, r, ks)
    err = err_a + err_b
    settled = {}
    for k, t_a, t_b in zip(ks, tails_a, tails_b):
        if abs(t_b - t_a) > 2 * err:
            ratio, rel_err = tail_ratio(t_a, t_b, err, logs_fb[k], err_fb)
            if prints_alike(ratio, rel_err):
                settled[k] = (sign * (t_b - t_a) > 0, sign * ratio)
    return settled


def compare_F_family(lhs: Union[ProbVector, Sequence[Scalar]],
                     rhs: Union[ProbVector, Sequence[Scalar]],
                     r: int,
                     k_range: Tuple[int, int],
                     relation: str = STRICT_GREATER,
                     slack: Scalar = 1,
                     ctx: Context = DEFAULT_CONTEXT) -> ComparisonReport:
    """Strictly compare F_{k,r}(lhs) against slack * F_{k,r}(rhs) over k_range.

    Exact rational inputs with rational slack are decided exactly; when an
    entry or the slack is an mpf, a comparison holds only when it clears the
    relative confirmation margin `REL_MARGIN`.  Under compact evidence
    (the default) the certified stages settle what they can, in order:
    float64 logs of both families, the bounded mpf product (mpf entries or
    slack), the float64 tails (exact entries, one total, slack 1,
    r < k <= 2r + 1), and integers for the rest.  Under full evidence every
    k is compared in integers and reported with its coefficients.
    """
    if not slack > 0:
        raise ValueError("slack must be positive")
    a, b = _pad_entries(_as_entries(lhs), _as_entries(rhs))
    n = len(a)
    _check_degree(n, r, ctx)
    lo, hi = k_range
    if not (0 <= lo <= hi <= n * r):
        raise KOutOfRange(f"k range {k_range} outside 0..{n * r}")

    exact_entries = all(isinstance(v, Fraction) for v in a + b)
    exact_cmp = exact_entries and isinstance(slack, (int, Fraction))
    margin = Fraction(0) if exact_cmp else Fraction(REL_MARGIN)
    sign = 1 if relation == STRICT_GREATER else -1
    s = parse_exact(slack)
    ks = range(lo, hi + 1)
    if ctx.full_evidence:
        families = _integer_families(a, b, r, hi)
        settled = _settled_in_integers(families, s, ks, sign, margin)
        (d_a, coeffs_a), (d_b, coeffs_b) = families
        scale = factorial(r) ** n

        def value(c, d, k):
            f = Fraction(c, d**k * scale)
            return f if exact_cmp else to_mpf(f, ctx)

        per_k = tuple(ComparisonEntry(k, value(coeffs_a[k], d_a, k),
                                      value(coeffs_b[k], d_b, k), settled[k][0]) for k in ks)
        return ComparisonReport(relation, (lo, hi), per_k, slack)

    settled, rel, family_b = _settled_in_float(a, b, slack, r, lo, hi, sign, margin)

    def settle(pending: List[int]) -> None:
        """Stages 2-4 for the k in `pending`, in place of what stage 1 said."""
        if pending and not exact_entries:
            # Exact integers from P-bit mantissas grow by P bits per order k:
            # settle what the bounded mpf product can first.
            by_mpf = _settled_in_mpf(a, b, s, r, pending, sign, margin, ctx)
            settled.update(by_mpf)
            pending = [k for k in pending if k not in by_mpf]
        tail_ks = [k for k in pending if r < k <= 2 * r + 1]
        if tail_ks and family_b is not None and exact_cmp and s == 1:
            total = sum(a)
            if total == sum(b):
                # One total and slack 1: below 2r + 2 the families differ by
                # their tails, which float64 settles where the F_k agree to
                # 30 digits.
                by_tails = _settled_by_tails(a, b, total, r, tail_ks, sign, family_b)
                settled.update(by_tails)
                pending = [k for k in pending if k not in by_tails]
        if pending:
            settled.update(_settled_in_integers(_integer_families(a, b, r, pending[-1]),
                                                s, pending, sign, margin))

    settle([k for k in ks if k not in settled])
    unsure = _unsure_of_tightest(settled, rel)
    while unsure:
        for k in unsure:
            del rel[k]
        settle(unsure)
        unsure = _unsure_of_tightest(settled, rel)
    failing = [k for k in ks if not settled[k][0]]
    return ComparisonReport(relation, (lo, hi), (), slack, len(failing),
                            tuple(failing[:FIRST_FAILING]),
                            tightest(m for _, m in settled.values()))


def _integer_families(a, b, r: int, top: int):
    """((D_a, integer coefficients of a), (D_b, those of b)) up to `top`, as
    `_exact_coeffs` gives them over each vector's shared denominator."""
    families = []
    for values in (a, b):
        d, nums = _scaled([parse_exact(v) for v in values])
        families.append((d, _exact_coeffs(nums, r, top)))
    return families


def _settled_in_integers(families, s: Fraction, ks, sign: int, margin: Fraction) -> dict:
    """{k: (holds, log2 margin)} for the k in `ks`, decided exactly."""
    (d_a, coeffs_a), (d_b, coeffs_b) = families
    # F_k(a) / (slack F_k(b)) = lhs_k / rhs_k, both integers
    return {k: _decide(s.denominator * coeffs_a[k] * d_b**k,
                       s.numerator * coeffs_b[k] * d_a**k, sign, margin) for k in ks}
