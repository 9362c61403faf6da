"""Float64 pre-pass for the p-grid scans, with a proven error bound.

Both necessary-condition scans compare, point by point, Renyi measures
+-log2 S_p(a) / |1 - p| of power sums ``S_p(a) = sum_i a_i^p g_i^(1-p)``
over the nonzero entries of a: the entropy oracle with unit weights, the
divergence scan against the Gibbs vector g.
At nearly every grid point the two sides differ by many orders of magnitude
more than float64 rounding, so the comparison is settled in float and only
the remaining points are evaluated in mpmath, in the manner of
adaptive-precision predicates (Shewchuk 1997).

`log_power_sums` returns a float L of log S_p(a) at every point of a p-grid,
S_p taken exactly on the stored entries (rationals or mpf).  The bound
``|L - log S_p(a)| <= err`` at one point derived here is dominated by
`err_coefficients` (below), the scans' only bound.  It assumes IEEE binary64
arithmetic with round-to-nearest and a libm whose ``log`` and ``exp`` err by
at most 2 ulps; u = 2^-53 below.  Per entry:

* conversion to float is correctly rounded for rationals and truncated to
  53 bits for mpf: relative error <= 2u, so log(a_hat) is within 2.1u of
  log(a);
* ``l = fl(log a_hat)`` adds <= 4.1u |l|;
* p_hat = fl(p) is within u|p| of p, since k/20 is not exact in binary, and
  the product fl(p_hat l) adds u|p_hat l|; with the above,
  |fl(p_hat l) - p log a| <= u |p| (3 + 7|l|).  The ``(1-p) log g`` term is
  bounded the same way with q_hat = fl(1 - p);
* the sum of the two terms adds u|t|.  The term bounds are absolute, so they
  hold however much the two terms cancel.

With every exponent t_i within E of its exact value, log sum exp(t_i) moves
by at most E.  The log-sum-exp itself subtracts the maximum m (so the
largest term is exp(0) = 1 and the sum s lies in [1, n]): each d_i = t_i - m
carries u|d_i|, each exp 4u, and exp(d)|d| <= 1/e, so the summed terms are
within u(0.4n + 4.1s) of their exact value plus n 2^-1000 for underflow;
``math.fsum`` rounds once more (u s), ``log`` adds 4.1u log s and the final
addition u|L|.  The constants carry slack for the bound's own rounding, and
a relative 2^-90 covers the mpmath reference at >= 128 bits, so a point
settled here is one the reference also passes.

The whole grid is evaluated at once: one column of exponents per entry
(and per Gibbs weight), the grid's maxima taken across the columns, and one
``fsum`` per point over the exponentiated columns.  Each point still gets
the same floating-point operations in the same order as a point taken on
its own (``fsum`` is correctly rounded, so the order of its terms does not
matter either), hence the same float on any subset of the grid.

Between grid points the scans certify instead of evaluating.  Write
``phi(p) = log S_p(a) = log sum_i g_i e^(p l_i)`` with ``l_i = log(a_i/g_i)``
(g_i = 1 for unit weights).  Its derivative ``phi'(p) = sum_i w_i l_i``,
``w_i`` proportional to ``g_i e^(p l_i)``, is a positively weighted mean of
the l_i, so ``min l <= phi' <= max l`` and, from an evaluated point p0,

    phi(p0) + (p - p0) min l  <=  phi(p)  <=  phi(p0) + (p - p0) max l   (p > p0),

with min and max swapped for p < p0: four lines, two per end of a stretch of
grid, pin phi between two evaluated points.  In floats:

* the slopes: each ``fl(fl(log a_hat) - fl(log g_hat))`` is within
  u(4.2 + 4.1(|log a| + |log g|) + |l|) of l_i (as above, plus the
  difference); `slope_range` widens min and max by u(5 + 6(max|log a| +
  max|log g|)), and that widening times |p - p0| is what the slopes' rounding
  can cost;
* the end values: at every point p0, evaluated or not, phi(p0) lies within
  the a-priori bound of `err_coefficients` of L: with M = max|log a|, M_g =
  max|log g| and n entries, every exponent has |t_i| <= T = |p| M +
  |1 - p| M_g, the shifted sum s lies in [1, n], log s <= log n and
  |L| <= T + log n, so the err above is at most
  ``c0 + cp |p| + cq |1 - p|`` with cp = u(4 + 12 M) + 2^-90 M, cq the
  same in M_g (0 for unit weights), and c0 = u(6.5n + 7 log n) +
  n 2^-1000 + 2^-90 (1 + log n), all taken 1% larger for the rounding of
  p, of the exponents and of the bound itself, so it dominates the err above.

The needed gap of a scan (the difference of the two sides' phi, signed by
its orientation region) is therefore bounded below, along a run of points
on one side of one evaluated point, by a line in p minus the errors; the
a-priori band is linear in |p| and |1 - p|, which keep their signs within a
region, so checking the two end points of the run certifies all of it.  A
run whose lower bound clears the band everywhere holds: float, and mpmath at
any precision the reference allows, would find it holding.  A run whose
bound on minus the gap clears it fails.  Its margins, (bound - band) /
(|1 - p| ln 2), are a line over a line that does not vanish on the run, hence monotone, and again bounded by the two end points; a
margin taken from the floats or from mpmath at such a point is at least this
bound, because the band holds twice the errors and those hold the roundings
of the difference and of the quotient.

So `log_power_sums` runs only on the points `majorization._bracket` and
`scan` cannot certify, and an evaluated point whose gap stays inside the
band goes to mpmath, which decides it as an all-mpmath scan would: a wider
band moves points to mpmath, never a verdict.

A point stays inside the band when a term both vectors share (a tied top
entry at large p) dominates both power sums.  Shared terms cancel from the
difference exactly, S_p(a) - S_p(b) = R_p(a) - R_p(b) over the entries
that the other vector lacks, so `majorization._cancelled` runs
`log_power_sums` on those residual entries, whose logs carry the same
a-priori bound, and reads the margin through `tail_ratio` (below) against
log S_p(b): the same identity as F_x - F_y = T_y - T_x.  Such a margin
can lie far below the 2^-90 the reference is allowed above, so there the
reference's own error at its precision bounds it (see `_cancelled`); a
point is settled that way only when it holds and its margin, with that
error, prints the same digits as mpmath's.

The coefficient families get the same treatment.  Every coefficient
``F_k(a) = sum over k_1+..+k_w = k, k_i <= r of prod_i a_i^k_i / k_i!`` is a
sum of nonnegative terms, so nothing cancels and float64 logs of it carry a
small absolute error (Higham, ch. 3-4, for sums of nonnegative terms).
`log_coeffs` returns ``(L, err)`` with ``|L[k] - log F_k| <= err`` for every
k it returns, F_k taken exactly on the stored nonzero entries:

* log j! is the exact sum of fl(log m), m <= j, rounded once: each fl(log m)
  with m >= 2 is at least log 2 > 1/2, hence a multiple of 2^-53, so the
  running sum is kept as an integer in units of 2^-53.  With 2 ulps (4u
  relative) per log and u for the final rounding, |lambda_j - log j!| <=
  5.1u lambda_j.  ``math.lgamma`` is not used: libm does not bound its error;
* a factor's term logs tau_j = fl(fl(j l) - lambda_j), j <= r, start from
  l = fl(log a_hat), within (2.1 + 4.1|l|)u of log a (as above); the product
  with the exact integer j adds u j|l| and the difference u|tau_j|, so every
  term is within e_i = u (2.1 r + 6.2 (r|l| + lambda_r)) of its exact value;
* the first factor's coefficients are its term logs.  Each further factor
  is convolved with the previous product P in blocks of output orders
  k0..k1, k0 a multiple of the width max(r + 1, 32), so that exponentials
  are taken once per block rather than once per term (shift-then-exponentiate, as for
  log-sum-exp in Blanchard, Higham & Higham, IMA J. Numer. Anal. 41, 2021).
  A block takes one slope theta, that of tau at the dominant term of its
  middle anti-diagonal (of P when that term sits at an end of tau only),
  rounded to 53 - bitlen(k1 + r) bits so that theta m is exact for every
  m <= k1 + r.  With v_m = fl(P_m - theta m) over the block's window of P,
  w_j = fl(tau_j - theta j), A = max v and C = max w, the terms
  p_m = exp(fl(v_m - A)) and t_j = exp(fl(w_j - C)) are at most 1, and
  L_k = fl(fl(theta k + fl(A + C)) + log s_k) with the dot product
  s_k = sum_j fl(p_(k-j) t_j), summed left to right.  For exact arithmetic
  this is log sum_j exp(P_(k-j) + tau_j) whatever theta, A and C are, and
  log-sum-exp is 1-Lipschitz in the largest argument error, so the error E
  carried by P and e_i pass through unchanged; the roundings add
  - u|v_m| + u|v_m - A| <= 3u V to each argument, V = max |v|, and 3u W to
    the t_j, W = max |w|: relative error e^d - 1 <= 1.01 d, d = 3u(V + W),
    in a term; 4u for each exp (2 ulps) and u for the product; a subnormal
    exp or product errs instead by at most 2^-1071 absolute per term;
  - (N - 1)u(1 + (N - 1)u) relative for recursive summation of the
    N <= r + 1 nonnegative terms (Higham, ch. 4; the compensated ``sum`` of
    Python 3.12 only tightens it);
  - so s_k is within relative rho = 1.01 d + (N + 10)u + N 2^-170 of its
    exact value, the underflowed terms being below N 2^-1071 against a sum
    of at least 2^-901 where the computed s_k exceeds 2^-900; log s_k is
    then within 1.02 rho for rho < 0.01 (a larger rho gives an infinite
    bound);
  - 4u|log s_k| for log, u|A + C| for the shift and u|theta k + A + C| +
    u|L_k| for the two additions, where |theta k + A + C| <= |L_k| + |log
    s_k|: at most 1.01u(5 Lambda + |A + C| + 2 max |L_k|) over the block,
    Lambda = max |log s_k|.
  A k whose computed s_k is 0 or at most 2^-900 (its terms lie far below
  the block's slope) takes the log-sum-exp anti-diagonal instead:
  s_j = fl(P_(k-j) + tau_j), m = max s_j, L_k = m + log fsum(exp(s_j - m)).
  The rounding of s_j adds u|s_j| <= u W', with W' the largest |P| plus the
  largest |tau| of the block; the rest is the log-sum-exp above with
  N <= r + 1 terms and s in [1, N]: u(0.41N + 5.2 + 5.1 log N + |L_k|) plus
  N 2^-1000 for underflow, and |L_k| <= W' + log N, in all at most
  u(2.1W' + 0.5N + 6 + 6 log N) + N 2^-999.  Per factor the bound grows by
  e_i plus the largest of these block terms.

Zero entries contribute the factor 1 and are left out, so F_k > 0 exactly
for k <= r w (w nonzero entries) and F_k = 0 beyond: the caller decides
those k without a bound.

Near a tie two families agree to far more digits than float64 holds, but
for r < k <= 2r + 1 their difference is a difference of two short tails.
With S = sum_i v_i, the unrestricted sum over compositions of k is S^k / k!,
and a composition of k <= 2r + 1 has at most one part above r, so by
inclusion-exclusion F_k(v) = S^k / k! - T_k(v) with

    T_k(v) = sum_i sum_(j=r+1..k) v_i^j (S - v_i)^(k-j) / (j! (k-j)!)

(the parts other than the i-th sum to k - j <= r, so none of them is capped).
For two vectors with the same exact total, F_k(x) - F_k(y) = T_k(y) - T_k(x)
exactly, and the tails differ by O(1) relative to their size where the F_k
agree to 30 digits and more.  `log_tails` returns ``(L, err)`` with
``|L[i] - log T_k| <= err`` for the k it is given; T_k is again a sum of
nonnegative terms.  Per nonzero entry l = fl(log v_hat) and
m = fl(log w_hat), w = S - v computed exactly before it is rounded to float,
are each within (2.1 + 4.1|.|)u of the exact logs (as above).  A term
t = fl(fl(fl(j l) + fl((k-j) m)) - fl(lambda_j + lambda_(k-j))) then errs by
at most

* u(2.1 j + 5.1 j|l|) + u(2.1(k-j) + 5.1(k-j)|m|) in the two products (the
  logs' error times the exact integers, plus one rounding each);
* u P for their sum, P = j|l| + (k-j)|m|;
* 5.1u Lambda for the two log factorials and u Lambda for their sum,
  Lambda = log j! + log (k-j)! <= log k!;
* u(P + Lambda) for the final difference,

in all u(2.1k + 7.1P + 7.2 Lambda) <= u(2.1k + 7.2(k B + lambda_k)), B the
largest |l| or |m|; the bound takes u(2.2k + 8(k B + lambda_k)) to cover
second-order terms and its own rounding.  A point mass (w = 0) has the single
term j = k, fl(fl(k l) - lambda_k), which the same bound covers.  The
N <= w (k - r) terms of T_k go through one log-sum-exp, which passes the
term error through and adds u(0.41N + 5.2 + 5.1 log N + |L|) + N 2^-1000,
as in the convolution above.

The tails also give the margin log2(F_k(x) / F_k(y)) = log2(1 +- rho) with
rho = |T_k(y) - T_k(x)| / F_k(y).  `tail_ratio` takes
log rho = L_big + log(1 - e^-g) - log F_k(y), g = |L_y - L_x| > 2E for tail
logs within E together.  g is within E of its exact value and the slope of
log(1 - e^-g) is 1/expm1(g), falling in g, so that term errs by at most
E / expm1(g - E); with E for L_big, the bound of log F_k(y) and
u(8 + 2|L_big| + 2|log F_k(y)| + 6|log rho|) for the roundings, log rho is
within d of its exact value.  For d < 0.01 and rho in [2^-1022, 1/2)
(below that, exp loses bits to underflow), exp turns d into a relative
error below 1.006d + 2u and log1p(+-rho) has condition number at most
1/(1 - rho) <= 2, so the margin is within relative 3d + 8u.  A margin whose
whole interval prints the same digits (`prints_alike`) matches the exact
one in `tightest`.
"""

from __future__ import annotations

import math
import sys
from itertools import repeat
from operator import add, mul, sub
from typing import Iterable, List, Optional, Sequence, Tuple

from .context import Scalar

_U = 2.0 ** -53
_TINY = sys.float_info.min
_REFERENCE = 2.0 ** -90
_SCALE = 2 ** 53
_FLOOR = 2.0 ** -900


def entry_logs(values: Iterable[Scalar]) -> Optional[Tuple[float, ...]]:
    """Float natural logs of the values, or None unless every value
    converts to a normal finite float (an exact 1e-400 does not)."""
    logs = []
    for value in values:
        try:
            f = float(value)
        except OverflowError:
            return None
        if not _TINY <= f < math.inf:
            return None
        logs.append(math.log(f))
    return tuple(logs)


def log_entry(value: Scalar) -> Optional[Tuple[float, float]]:
    """(l, err) with |l - log value| <= err, or None as in `entry_logs`."""
    logs = entry_logs([value])
    if logs is None:
        return None
    return logs[0], _U * (2.1 + 4.1 * abs(logs[0]))


def log_power_sums(logs_a: Sequence[float], logs_g: Optional[Sequence[float]],
                   ps: Sequence[float], qs: Sequence[float]) -> List[float]:
    """L[i] within the `err_coefficients` bound of log sum_j a_j^p g_j^(1-p) at p = ps[i].

    `logs_a` and `logs_g` come from `entry_logs` on index-aligned entries;
    `logs_g` None stands for unit weights.  `logs_a` must be nonempty.
    ps[i] and qs[i] are the correctly rounded floats of p and 1 - p.  One
    column of exponents per entry runs down the whole grid, so the
    per-point work is a handful of `map` calls over the columns.
    """
    if logs_g is None:
        cols = [list(map(mul, ps, repeat(la))) for la in logs_a]
    else:
        cols = [list(map(add, map(mul, ps, repeat(la)), map(mul, qs, repeat(lg))))
                for la, lg in zip(logs_a, logs_g)]
    # max() of a single float is an error, so one entry is its own maximum
    tops = cols[0] if len(cols) == 1 else list(map(max, *cols))
    sums = map(math.fsum, zip(*[map(math.exp, map(sub, col, tops)) for col in cols]))
    return list(map(add, tops, map(math.log, sums)))


def slope_range(logs_a: Sequence[float], logs_g: Optional[Sequence[float]]) -> Tuple[float, float]:
    """(lo, hi) with lo <= log(a_i/g_i) <= hi for every entry (log a_i for
    unit weights), hence lo <= d/dp log S_p(a) <= hi at every p."""
    if logs_g is None:
        slopes, big = logs_a, max(map(abs, logs_a))
    else:
        slopes = list(map(sub, logs_a, logs_g))
        big = max(map(abs, logs_a)) + max(map(abs, logs_g))
    widen = _U * (5 + 6 * big)
    return min(slopes) - widen, max(slopes) + widen


def err_coefficients(logs_a: Sequence[float],
                     logs_g: Optional[Sequence[float]]) -> Tuple[float, float, float]:
    """(c0, cp, cq) such that `log_power_sums` errs by at most c0 + cp |p| +
    cq |1 - p| at every p (the a-priori bound of the module docstring)."""
    n = len(logs_a)
    big_a = max(map(abs, logs_a))
    big_g = 0.0 if logs_g is None else max(map(abs, logs_g))
    cp = _U * (4 + 12 * big_a) + _REFERENCE * big_a
    cq = 0.0 if logs_g is None else _U * (4 + 12 * big_g) + _REFERENCE * big_g
    c0 = _U * (6.5 * n + 7 * math.log(n)) + n * 2.0 ** -1000 + _REFERENCE * (1 + math.log(n))
    return 1.01 * c0, 1.01 * cp, 1.01 * cq


def log_sum(logs: Sequence[float]) -> Tuple[float, float]:
    """(S, err) with |S - sum_i log a_i| <= err, also against the mpmath
    reference: each log within u(2.1 + 4.1|l|), one correctly rounded fsum,
    2^-90 relative for mpmath at >= 128 bits."""
    total = math.fsum(logs)
    size = sum(map(abs, logs))
    return total, _U * (2.2 * len(logs) + 4.2 * size + abs(total)) + _REFERENCE * (1 + size)


def relative_entropy(logs_a: Sequence[float], logs_g: Sequence[float]) -> Tuple[float, float]:
    """(K, err) with |K - sum_i a_i log(a_i/g_i)| <= err, also against the
    mpmath reference.  a_i is taken as exp(log a_hat_i), within relative
    u(6.1 + 4.1|log a|) of a_i (the log's error plus exp's 4u); the
    difference l of the logs errs by u(4.2 + 4.1(|log a| + |log g|) + |l|),
    the product adds u relative, so a term errs by at most
    a u((6.2 + 4.2|log a|)|l| + 4.3 + 4.2(|log a| + |log g|) + |l|); one fsum
    adds u|K|."""
    terms, errs = [], []
    for la, lg in zip(logs_a, logs_g):
        a, l = math.exp(la), la - lg
        terms.append(a * l)
        errs.append(a * ((8 + 5 * abs(la)) * abs(l) + 5 + 5 * (abs(la) + abs(lg))))
    total = math.fsum(terms)
    size = math.fsum(map(abs, terms))
    return total, _U * (math.fsum(errs) + 2 * abs(total)) + _REFERENCE * (1 + size)


def surely_greater(lhs: Tuple[float, float], rhs: Tuple[float, float]) -> bool:
    """Whether the exact value behind (value, err) `lhs` exceeds the one
    behind `rhs`: by more than twice both bounds, the factor absorbing the
    rounding of the comparison, as the scans settle their points."""
    return lhs[0] - rhs[0] > 2 * (lhs[1] + rhs[1])


def log_factorials(r: int) -> Tuple[float, ...]:
    """log j! for j = 0..r, each within 5.1u log j! of the exact value."""
    out = [0.0]
    units = 0
    for m in range(1, r + 1):
        units += int(math.ldexp(math.log(m), 53))
        out.append(units / _SCALE)
    return tuple(out)


def log_coeffs(logs: Sequence[float], r: int, top: int) -> Tuple[List[float], float]:
    """(L, err) with |L[k] - log F_k| <= err for k = 0..min(top, r*len(logs)).

    `logs` come from `entry_logs` on the nonzero entries; F_k is the t^k
    coefficient of prod_i sum_(j<=r) (a_i t)^j / j!.  Every factor is
    carried to the end of the block that holds `top`, so the returned
    prefix does not depend on `top`.
    """
    lf = log_factorials(r)
    width = _block_width(r)
    end = min(top // width * width + width - 1, r * len(logs))
    coeffs, err = [0.0], 0.0
    for i, la in enumerate(logs):
        tau = [j * la - lf[j] for j in range(r + 1)]
        err += _U * (2.1 * r + 6.2 * (r * abs(la) + lf[r]))
        if i == 0:
            coeffs = tau
            continue
        coeffs, step = _convolve_logs(coeffs, tau, min(end, (i + 1) * r))
        err += step
    return coeffs[:top + 1], err


def _convolve_logs(p: List[float], tau: List[float], last: int) -> Tuple[List[float], float]:
    """Logs 0..last of the product of the coefficients behind `p` and `tau`,
    and the rounding error the step adds (see the module docstring)."""
    r = len(tau) - 1
    top_p = len(p) - 1
    width = _block_width(r)
    out, err = [], 0.0
    for k0 in range(0, last + 1, width):
        k1 = min(k0 + width - 1, last)
        m0, m1 = max(0, k0 - r), min(k1, top_p)
        j0, j1 = max(0, k0 - top_p), min(r, k1)
        theta = _coarse(_block_slope(p, tau, (k0 + k1) // 2), k1 + r)
        xs = [p[m] - theta * m for m in range(m0, m1 + 1)]
        ys = [tau[j] - theta * j for j in range(j1, j0 - 1, -1)]
        a, c = max(xs), max(ys)
        # zero-padded to m in k0 - r..k1 and j in r..0, so that anti-diagonal
        # k is the slice of ps from k - k0 against all of ts
        ps = ([0.0] * (m0 - k0 + r) + list(map(math.exp, [x - a for x in xs]))
              + [0.0] * (k1 - m1))
        ts = [0.0] * (r - j1) + list(map(math.exp, [y - c for y in ys])) + [0.0] * j0
        shift = a + c
        sums = [sum(map(mul, ps[i:i + r + 1], ts)) for i in range(k1 - k0 + 1)]
        big_log = 0.0
        for k, s in zip(range(k0, k1 + 1), sums):
            if s > _FLOOR:
                log_s = math.log(s)
                big_log = max(big_log, abs(log_s))
                out.append(theta * k + shift + log_s)
            else:
                lo, hi = max(0, k - top_p), min(k, r)
                out.append(_log_sum_exp(list(map(add, p[k - hi:k - lo + 1],
                                                 tau[lo:hi + 1][::-1]))))
                err = max(err, _lse_step(p, tau, m0, m1, j0, j1))
        n = j1 - j0 + 1
        arg = 3 * _U * (max(map(abs, xs)) + max(map(abs, ys)))
        rel = 1.01 * arg + _U * (n + 10) + n * 2.0 ** -170
        big_out = max(map(abs, out[k0:]))
        step = 1.02 * rel + 1.01 * _U * (5 * big_log + abs(shift) + 2 * big_out)
        err = max(err, step if rel < 0.01 else math.inf)
    return out, err


def _block_width(r: int) -> int:
    """Orders per block: r + 1, and at least 32 so that a short factor
    does not pay a block's set-up for every two or three orders."""
    return max(r + 1, 32)


def _block_slope(p: List[float], tau: List[float], k: int) -> float:
    """The slope of `tau` at the dominant term of anti-diagonal k, or that
    of `p` when the term sits at an end of `tau` but not of `p`."""
    top_p, r = len(p) - 1, len(tau) - 1
    j = max(range(max(0, k - top_p), min(k, r) + 1), key=lambda j: p[k - j] + tau[j])
    if 0 < j < r or not 0 < k - j < top_p:
        return _slope(tau, j)
    return _slope(p, k - j)


def _coarse(theta: float, m: int) -> float:
    """theta rounded to 53 - bitlen(m) significant bits, so that its
    product with any integer up to m is exact."""
    e = math.frexp(theta)[1] - 53 + m.bit_length()
    return math.ldexp(round(math.ldexp(theta, -e)), e)


def _slope(seq: List[float], i: int) -> float:
    lo, hi = max(i - 1, 0), min(i + 1, len(seq) - 1)
    return (seq[hi] - seq[lo]) / (hi - lo) if hi > lo else 0.0


def _lse_step(p: List[float], tau: List[float], m0: int, m1: int, j0: int, j1: int) -> float:
    """The rounding error of a log-sum-exp anti-diagonal in a block."""
    n = j1 - j0 + 1
    w = max(map(abs, p[m0:m1 + 1])) + max(map(abs, tau[j0:j1 + 1]))
    return _U * (2.1 * w + 0.5 * n + 6 + 6 * math.log(n)) + n * 2.0 ** -999


def log_tails(pairs: Sequence[Tuple[float, Optional[float]]], r: int,
              ks: Sequence[int]) -> Tuple[List[float], float]:
    """(L, err) with |L[i] - log T_k| <= err for k = ks[i], each r < k, where
    T_k = sum_i sum_(j=r+1..k) v_i^j (S - v_i)^(k-j) / (j! (k-j)!).

    `pairs` holds, per nonzero entry v_i, its float log and that of S - v_i
    from `entry_logs`; the second is None for a point mass (v_i = S), whose
    only term is j = k.
    """
    lf = log_factorials(max(ks))
    big = max(max(abs(l), abs(m or 0.0)) for l, m in pairs)
    out, err = [], 0.0
    for k in ks:
        terms = []
        for l, m in pairs:
            if m is None:
                terms.append(k * l - lf[k])
            else:
                terms.extend([j * l + (k - j) * m - (lf[j] + lf[k - j])
                              for j in range(r + 1, k + 1)])
        total = _log_sum_exp(terms)
        n = len(terms)
        err = max(err, _U * (2.2 * k + 8 * (k * big + lf[k]) + 0.41 * n + 5.2
                             + 5.1 * math.log(n) + abs(total)) + n * 2.0 ** -1000)
        out.append(total)
    return out, err


def tail_ratio(log_tail_x: float, log_tail_y: float, err: float,
               log_f_y: float, err_f: float) -> Tuple[float, float]:
    """(log2(F_x / F_y), a bound on its relative error), where
    F_x - F_y = T_y - T_x, from tail logs within `err` together that differ
    by more than 2 err and from log F_y within `err_f` of `log_f_y`.

    Outside the range of the module docstring the bound is infinite, and a
    ratio F_x / F_y = 1 - rho <= 0, which only float error can give, reads
    -inf: the range is checked before log1p or exp could raise."""
    gap = abs(log_tail_y - log_tail_x)
    big = max(log_tail_x, log_tail_y)
    log_rho = big + math.log(-math.expm1(-gap)) - log_f_y
    rho = math.exp(log_rho) if log_rho < 700 else math.inf    # exp overflows past ~709
    shift = rho if log_tail_y > log_tail_x else -rho
    ratio = math.log1p(shift) / math.log(2) if shift > -1 else -math.inf
    d = (err + err / math.expm1(gap - err) + err_f
         + _U * (8 + 2 * (abs(big) + abs(log_f_y)) + 6 * abs(log_rho)))
    if d >= 0.01 or not _TINY <= rho < 0.5:
        return ratio, math.inf
    return ratio, 3 * d + 8 * _U


def _log_sum_exp(s: List[float]) -> float:
    m = max(s)
    return m + math.log(math.fsum([math.exp(v - m) for v in s]))


def convolve(a: list, b: list, top: int, dot) -> list:
    """Coefficients 0..top of the product of two polynomials, each one
    `dot` of an anti-diagonal: a_(k-j) against b_j."""
    rev = a[::-1]
    last = len(a) - 1
    out = []
    for k in range(min(last + len(b) - 1, top) + 1):
        lo, hi = max(0, k - last), min(k, len(b) - 1)
        out.append(dot(rev[last - k + lo:last - k + hi + 1], b[lo:hi + 1]))
    return out


def tightest(margins: Iterable[Optional[float]]) -> Optional[float]:
    """The finite margin of least magnitude to 6 significant digits (margins
    settled in float are estimates), or None."""
    finite = [m for m in margins if m is not None and math.isfinite(m)]
    return float(_digits(min(finite, key=abs))) if finite else None


def prints_alike(margin: float, rel_err: float) -> bool:
    """True when every value within relative error `rel_err` of `margin`
    has the digits `tightest` gives `margin`."""
    spread = rel_err + 4 * _U
    return _digits(margin * (1 - spread)) == _digits(margin * (1 + spread))


def _digits(margin: float) -> str:
    return f"{margin:.6g}"

