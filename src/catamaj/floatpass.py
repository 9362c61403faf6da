"""Float64 pre-pass for the p-grid scans, with a proven error bound.

Both necessary-condition scans compare, point by point, power sums of the
form ``S_p(a) = sum_i a_i^p g_i^(1-p)`` over the nonzero entries of a: the
norm oracle with unit weights (the uniform vector up to the factor
n^(p-1), which is common to both sides and cancels), the divergence scan
against the Gibbs vector g.  At nearly every grid point the two sides differ
by many orders of magnitude more than float64 rounding, so the comparison is
settled in float and only the remaining points are evaluated in mpmath, in
the manner of adaptive-precision predicates (Shewchuk 1997).

`log_power_sum` returns ``(L, err)`` with ``|L - log S_p(a)| <= err``, where
S_p is taken exactly on the stored entries (rationals or mpf).  The bound
assumes IEEE binary64 arithmetic with round-to-nearest and a libm whose
``log`` and ``exp`` err by at most 2 ulps; u = 2^-53 below.  Per entry:

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
* the first factor's coefficients are its term logs.  Each further factor is
  convolved per anti-diagonal: s_j = fl(P_(k-j) + tau_j), m = max s_j, and
  L_k = m + log fsum(exp(s_j - m)).  Log-sum-exp is 1-Lipschitz in the
  largest argument error, so the error E carried by P and e_i pass through
  unchanged.  The rounding of s_j adds u|s_j| <= u W, with W the largest
  |P| plus the largest |tau|; the rest is the log-sum-exp above with
  N <= r + 1 terms and s in [1, N]: u(0.41N + 5.2 + 5.1 log N + |L_k|) plus
  N 2^-1000 for underflow, and |L_k| <= W + log N.  Per factor the bound
  grows by e_i + u(2.1W + 0.5(r + 1) + 6 + 6 log(r + 1)) + (r + 1) 2^-999.

Zero entries contribute the factor 1 and are left out, so F_k > 0 exactly
for k <= r w (w nonzero entries) and F_k = 0 beyond: the caller decides
those k without a bound.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from operator import add
from typing import Iterable, List, Optional, Sequence, Tuple

from .context import Scalar

_U = 2.0 ** -53
_TINY = sys.float_info.min
_REFERENCE = 2.0 ** -90
_SCALE = 2 ** 53


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


def log_power_sum(logs_a: Sequence[float], logs_g: Optional[Sequence[float]],
                  p: Fraction) -> Tuple[float, float]:
    """(L, err) with |L - log sum_i a_i^p g_i^(1-p)| <= err.

    `logs_a` and `logs_g` come from `entry_logs` on index-aligned entries;
    `logs_g` None stands for unit weights.  `logs_a` must be nonempty.
    """
    p_hat = float(p)
    ts = [p_hat * la for la in logs_a]
    term_err = abs(p_hat) * (4 + 8 * max(map(abs, logs_a)))
    if logs_g is not None:
        q_hat = float(1 - p)
        ts = [t + q_hat * lg for t, lg in zip(ts, logs_g)]
        term_err += abs(q_hat) * (4 + 8 * max(map(abs, logs_g)))
    m = max(ts)
    s = math.fsum([math.exp(t - m) for t in ts])
    log_s = math.log(s)
    total = m + log_s
    n = len(ts)
    err = (_U * (term_err + 2 * max(abs(m), abs(min(ts)))
                + 0.5 * n + 6 * s + 5 * log_s + 2 * abs(total))
           + n * 2.0 ** -1000 + _REFERENCE * (1 + abs(total)))
    return total, err


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
    coefficient of prod_i sum_(j<=r) (a_i t)^j / j!.
    """
    lf = log_factorials(r)
    width = min(r, top) + 1
    coeffs, err = [0.0], 0.0
    for i, la in enumerate(logs):
        tau = [j * la - lf[j] for j in range(width)]
        term_err = _U * (2.1 * r + 6.2 * (r * abs(la) + lf[r]))
        if i == 0:
            coeffs, err = tau, term_err
            continue
        w = max(map(abs, coeffs)) + max(map(abs, tau))
        coeffs = convolve(coeffs, tau, top, _log_sum_exp_dot)
        err += (term_err + _U * (2.1 * w + 0.5 * width + 6 + 6 * math.log(width))
                + width * 2.0 ** -999)
    return coeffs, err


def _log_sum_exp_dot(p: List[float], t: List[float]) -> float:
    s = list(map(add, p, t))
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
    return float(f"{min(finite, key=abs):.6g}") if finite else None


def surely_less(lo: Tuple[float, float], hi: Tuple[float, float]) -> bool:
    """True when the exact value behind `hi` exceeds the one behind `lo` by
    more than twice both bounds (the factor absorbs the rounding of this
    comparison)."""
    return hi[0] - lo[0] > 2 * (lo[1] + hi[1])
