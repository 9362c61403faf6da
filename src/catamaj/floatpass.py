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
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple

from .context import Scalar

_U = 2.0 ** -53
_TINY = sys.float_info.min
_REFERENCE = 2.0 ** -90


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


def surely_less(lo: Tuple[float, float], hi: Tuple[float, float]) -> bool:
    """True when the exact value behind `hi` exceeds the one behind `lo` by
    more than twice both bounds (the factor absorbs the rounding of this
    comparison)."""
    return hi[0] - lo[0] > 2 * (lo[1] + hi[1])
