"""Finite sufficient-condition checker for catalytic majorization under LOCC.

The pipeline is three-valued on top of a one-directional theorem: violated
necessary conditions (top entry, Shannon entropy, or a dense-grid norm
sample) give a provable "refuted"; the strict coefficient families give
"closure-sufficient" or "trumping-sufficient"; everything else is
"inconclusive" with the failing conditions listed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import mpmath
from mpmath import mpf

from .context import DEFAULT_CONTEXT, Context, confirmed_greater, to_mpf, workprec
from .errors import DegreeCapExceeded
from .majorization import GridSpec, OracleReport, oracle_scan
from .sympoly import STRICT_GREATER, STRICT_LESS, ComparisonReport, compare_F_family
from .vectors import ProbVector, pad_pair, pointwise_power, shannon_entropy

if TYPE_CHECKING:
    from .coherence import CoherenceReport

TRUMPING_SUFFICIENT = "trumping_sufficient"
CLOSURE_SUFFICIENT = "closure_sufficient"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"

WEIGHT_LESS = "weight_less"
FULL_WEIGHT = "full_weight"


@dataclass(frozen=True)
class ExponentPair:
    """Truncation exponents from the top-entry and min-entry log ratios.

    r is defined only when the target's top entry strictly exceeds the
    source's (otherwise the log ratio is non-positive); s additionally needs
    the target at full weight.  The integer orders are floor(.+1).
    """

    r: Optional[mpf]
    r_bar: Optional[int]
    s: Optional[mpf]
    s_bar: Optional[int]

    @property
    def r_defined(self) -> bool:
        return self.r is not None

    @property
    def s_defined(self) -> bool:
        return self.s is not None


def _bar(value: mpf) -> int:
    return int(mpmath.floor(value + 1))


def compute_exponents(x: ProbVector, y: ProbVector,
                      ctx: Context = DEFAULT_CONTEXT) -> ExponentPair:
    """Exponents r = log n / (log y_1 - log x_1), s = log n / (log x_min - log y_min)."""
    x, y = pad_pair(x, y)
    n = x.dim
    r = r_bar = s = s_bar = None
    with workprec(ctx):
        log_n = mpmath.log(n, 2)
        if n > 1 and y.top > x.top:
            r = log_n / (mpmath.log(to_mpf(y.top, ctx), 2) - mpmath.log(to_mpf(x.top, ctx), 2))
            r_bar = _bar(r)
        if n > 1 and y.full_weight and x.min_nonzero > y.min_nonzero:
            s = log_n / (mpmath.log(to_mpf(x.min_nonzero, ctx), 2)
                         - mpmath.log(to_mpf(y.min_nonzero, ctx), 2))
            s_bar = _bar(s)
    return ExponentPair(r, r_bar, s, s_bar)


@dataclass(frozen=True)
class H1Evidence:
    x_bits: mpf
    y_bits: mpf
    holds: bool  # strictly greater, confirmed beyond the margin


@dataclass(frozen=True)
class TrumpingVerdict:
    status: str
    reasons: Tuple[str, ...]
    exponents: Optional[ExponentPair]
    closure_report: Optional[ComparisonReport]
    negative_report: Optional[ComparisonReport]
    h1: H1Evidence
    weight_branch: str
    oracle: Optional[OracleReport]
    cap_hit: bool = False
    coherence: Optional[CoherenceReport] = None  # attached by the coherence checker

    @property
    def sufficient(self) -> bool:
        return self.status in (TRUMPING_SUFFICIENT, CLOSURE_SUFFICIENT)


def mass_mismatch(x: ProbVector, y: ProbVector) -> Optional[str]:
    """Why no refutation of x -> y can stand, or None: on exact inputs
    (read in through a sum tolerance) the two totals differ, and every
    necessary condition presumes equal masses."""
    if not (x.exact and y.exact):
        return None
    total_x, total_y = sum(x.entries), sum(y.entries)
    if total_x == total_y:
        return None
    return (f"unequal masses {total_x} and {total_y}: "
            "a refutation needs equal totals, so the verdict stays inconclusive")


def check_trumping(x: ProbVector, y: ProbVector,
                   ctx: Context = DEFAULT_CONTEXT,
                   with_oracle: bool = True,
                   grid: Optional[GridSpec] = None) -> TrumpingVerdict:
    """Decide what the finite condition families certify about x -> y.

    Pipeline: pad to a common dimension; refute on x_1 > y_1 or
    H1(x) <= H1(y); compute exponents (undefined r is inconclusive); check
    the closure family at order r_bar over k in {r_bar..n*r_bar}; upgrade to
    trumping-sufficient when the target lacks full weight, or when the
    reciprocal family at order s_bar holds; attach the dense-grid oracle,
    which can still refute an otherwise inconclusive instance.  A
    refutation of two exact vectors with different totals is reported as
    inconclusive.
    """
    x, y = pad_pair(x, y)
    n = x.dim
    weight_branch = FULL_WEIGHT if y.full_weight else WEIGHT_LESS
    unequal = mass_mismatch(x, y)

    h1_x = shannon_entropy(x, ctx)
    h1_y = shannon_entropy(y, ctx)
    h1 = H1Evidence(h1_x, h1_y, confirmed_greater(h1_x, h1_y, ctx))

    oracle = oracle_scan(x, y, grid, ctx) if with_oracle else None

    def verdict(status, reasons, exponents=None, closure=None, negative=None, cap=False):
        final = status
        final_reasons = list(reasons)
        if status == INCONCLUSIVE and oracle is not None and not oracle.consistent:
            final = REFUTED
            final_reasons.append(f"oracle grid refutes a necessary condition at {oracle.refuted_at}")
        if final == REFUTED and unequal:
            final = INCONCLUSIVE
            final_reasons.append(unequal)
        return TrumpingVerdict(final, tuple(final_reasons), exponents, closure,
                               negative, h1, weight_branch, oracle, cap)

    if x.top > y.top:
        return verdict(REFUTED, (f"x_1 = {x.top} > y_1 = {y.top} violates the p->inf limit",))
    if not h1_x > h1_y:
        return verdict(REFUTED, ("H1(x) <= H1(y) violates the p=1 condition",))

    exponents = compute_exponents(x, y, ctx)
    if not exponents.r_defined:
        return verdict(INCONCLUSIVE, ("r undefined",), exponents)

    # The strict family starts at k = r_bar + 1: the k = r_bar coefficient is
    # 1/r_bar! for every probability vector, so strictness there is vacuous
    # and the generating-function argument only needs the higher coefficients.
    r_bar = exponents.r_bar
    try:
        closure = compare_F_family(x, y, r_bar, (r_bar + 1, n * r_bar), STRICT_GREATER, 1, ctx)
    except DegreeCapExceeded as exc:
        return verdict(INCONCLUSIVE, (f"degree cap: {exc}",), exponents, cap=True)
    if not closure.all_hold:
        return verdict(INCONCLUSIVE,
                       (f"closure family fails at k in {closure.failing_k()[:8]}",),
                       exponents, closure)

    reasons = []
    if not x.full_weight:
        return verdict(CLOSURE_SUFFICIENT,
                       ("x lacks full weight, so only closure membership is claimed",),
                       exponents, closure)
    if not h1.holds:
        return verdict(CLOSURE_SUFFICIENT,
                       ("H1 comparison not confirmed beyond margin",),
                       exponents, closure)

    if weight_branch == WEIGHT_LESS:
        return verdict(TRUMPING_SUFFICIENT, reasons, exponents, closure)

    if not exponents.s_defined:
        return verdict(CLOSURE_SUFFICIENT, ("s undefined",), exponents, closure)
    s_bar = exponents.s_bar
    recip_x = pointwise_power(x, -s_bar, ctx)
    recip_y = pointwise_power(y, -s_bar, ctx)
    negative = compare_F_family(recip_x, recip_y, 1, (1, n), STRICT_LESS, 1, ctx)
    if not negative.all_hold:
        return verdict(CLOSURE_SUFFICIENT,
                       (f"reciprocal family fails at k in {negative.failing_k()[:8]}",),
                       exponents, closure, negative)
    return verdict(TRUMPING_SUFFICIENT, reasons, exponents, closure, negative)
