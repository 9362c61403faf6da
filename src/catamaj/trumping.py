"""Finite sufficient-condition checker for catalytic majorization under LOCC,
and the condition pipeline that the thermal checker runs on embedded vectors.

The pipeline is three-valued on top of a one-directional theorem: plain
majorization of exact vectors gives "trumping-sufficient" before any scan;
violated necessary conditions (top entry, smallest entry, Shannon entropy,
or a dense-grid Renyi-entropy sample) give a provable "refuted"; the strict
coefficient families give "closure-sufficient" or "trumping-sufficient";
everything else is "inconclusive" with the failing conditions listed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import mpmath
from mpmath import mpf

from .context import (DEFAULT_CONTEXT, Context, Scalar, confirmed_greater, parse_exact, to_mpf,
                      workprec)
from .errors import DegreeCapExceeded
from .majorization import GridSpec, ScanReport, both_branches, majorizes, oracle_scan
from .sympoly import STRICT_GREATER, STRICT_LESS, ComparisonReport, compare_F_family
from .vectors import ProbVector, pad_pair, pointwise_power, shannon_entropy, without_shared_zeros

if TYPE_CHECKING:
    from .coherence import CoherenceReport

TRUMPING_SUFFICIENT = "trumping_sufficient"
CLOSURE_SUFFICIENT = "closure_sufficient"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"

SAME_ENTRIES = "x and y have the same entries up to order: no catalyst is needed"
MAJORIZED = "x is majorized by y: no catalyst is needed"
TOP_LIMIT = "x_1 = {} > y_1 = {} violates the p->inf limit"
LEAST_LIMIT = "x_min = {} < y_min = {} violates the p->-inf limit"

WEIGHT_LESS = "weight_less"
FULL_WEIGHT = "full_weight"


@dataclass(frozen=True)
class ExponentPair:
    """Truncation exponents from the top-entry and min-entry log ratios.

    r is defined only when the more concentrated vector's top entry strictly
    exceeds the flatter one's (otherwise the log ratio is non-positive); s
    additionally needs both vectors at full weight.  The integer orders are
    floor(.+1).
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


def compute_exponents(x: ProbVector, y: ProbVector,
                      ctx: Context = DEFAULT_CONTEXT, ratio: Scalar = 1) -> ExponentPair:
    """Exponents r = log n / (log y_1 - log(ratio x_1)) and
    s = log n / (log x_min - log(ratio y_min)), x the flatter vector and n
    the larger dimension (the shorter vector counts as zero-padded).

    `ratio` >= 1 is the thermal loosening (1 + eps/g_min)^2.  At 1 the
    comparisons that define r and s are exact, and so are the orders up to
    degree_cap + 1, whatever n, so a capped verdict names the true order:
    r_bar is the least k with y_1^k > n x_1^k, one step from the rounded
    floor(r + 1) (r = 3 for y_1 = 2 x_1, n = 8 rounds either way); s_bar
    likewise.  Only `dim`, `weight`, `top` and `min_nonzero` are
    read, so the thermal checker passes its embedded vectors as `Blocks`.
    """
    n = max(x.dim, y.dim)
    with workprec(ctx):
        log_n = mpmath.log(n, 2)

        def order(a, b):
            """log n / (log a - log(ratio b)) and its floor + 1, when n > 1
            and a > ratio b."""
            if n == 1 or not (a > b if ratio == 1 else to_mpf(a, ctx) > to_mpf(b, ctx) * ratio):
                return None, None
            value = log_n / (mpmath.log(to_mpf(a, ctx), 2) - mpmath.log(to_mpf(b, ctx) * ratio, 2))
            k = int(mpmath.floor(value + 1))
            if ratio == 1 and k <= ctx.degree_cap + 1:
                a, b = parse_exact(a), parse_exact(b)
                k = (k - 1 if k > 1 and a ** (k - 1) > n * b ** (k - 1)
                     else k if a ** k > n * b ** k else k + 1)
            return value, k

        r, r_bar = order(y.top, x.top)
        s, s_bar = (order(x.min_nonzero, y.min_nonzero) if x.weight == y.weight == n
                    else (None, None))
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
    oracle: Optional[ScanReport]
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


def settle_status(status: str, reasons, scan, scan_name: str,
                  unequal: Optional[str]) -> Tuple[str, Tuple[str, ...]]:
    """A checker's final status and reasons: an inconclusive verdict whose
    necessary-condition scan fails becomes refuted, and a refutation stays
    inconclusive when the exact totals differ (`unequal`, see
    `mass_mismatch`).  A closure-sufficient verdict stays one (membership in
    the closure does not contradict the refutation of exact trumping), but
    with equal totals its reasons name the refuting point."""
    reasons = list(reasons)
    if scan is not None and not scan.consistent:
        refutation = f"{scan_name} refutes a necessary condition at {scan.refuted_at}"
        if status == INCONCLUSIVE:
            status = REFUTED
            reasons.append(refutation)
        elif status == CLOSURE_SUFFICIENT and not unequal:
            reasons.append(f"{refutation}: no catalyst gives the exact transformation; "
                           "only membership in the closure is certified")
    if status == REFUTED and unequal:
        status = INCONCLUSIVE
        reasons.append(unequal)
    return status, tuple(reasons)


@dataclass(frozen=True)
class FamilyWords:
    """A checker's reasons for the stages at which its families stop; the
    closure wording takes the first failing k."""

    closure: str
    h1: str
    s_undefined: str


LOCC_WORDS = FamilyWords("closure family fails at k in {}",
                         "H1 comparison not confirmed beyond margin", "s undefined")


@dataclass(frozen=True)
class FamilyOutcome:
    """The families that ran and why they stopped (no reasons: every
    condition holds)."""

    closure: Optional[ComparisonReport]
    negative: Optional[ComparisonReport]
    reasons: Tuple[str, ...]
    cap_hit: bool = False


NO_FAMILIES = FamilyOutcome(None, None, ())
_OPPOSITE = {STRICT_GREATER: STRICT_LESS, STRICT_LESS: STRICT_GREATER}


def degree_capped(n: int, r_bar: int, ctx: Context = DEFAULT_CONTEXT) -> Optional[FamilyOutcome]:
    """The outcome of a closure family whose degree n*r_bar exceeds the
    degree cap, or None when it fits.  It needs only n, so the thermal
    checker applies it before it builds the N embedded entries.  The cap
    marks a verdict `cap_hit` only when the verdict stays inconclusive."""
    if n * r_bar <= ctx.degree_cap:
        return None
    exc = DegreeCapExceeded(n * r_bar, ctx.degree_cap)
    return FamilyOutcome(None, None, (f"degree cap: {exc}",), cap_hit=True)


def run_families(lhs: ProbVector, rhs: ProbVector, relation: str,
                 exponents: ExponentPair, h1_holds: bool, words: FamilyWords,
                 slack: Tuple[Scalar, Scalar] = (1, 1),
                 ctx: Context = DEFAULT_CONTEXT) -> FamilyOutcome:
    """The closure family F_k(lhs) `relation` slack[0] F_k(rhs) at r_bar over
    k in r_bar+1..n*r_bar; then, when it holds, H1 is confirmed and both
    vectors have full weight, the reciprocal family at s_bar over k in 1..n
    in the opposite relation with slack[1].  Callers first check the closure
    family's degree n*r_bar with `degree_capped`.

    LOCC passes the flatter vector first with STRICT_GREATER; the thermal
    checker passes the embedded source first with STRICT_LESS.  Once the
    closure family holds, only the more concentrated vector can lack full
    weight (the flatter one's F_{n r_bar} would be 0), and then the strict
    negative-order conditions hold for free: the reciprocal family is skipped.
    """
    n = lhs.dim
    r_bar = exponents.r_bar
    # The strict family starts at k = r_bar + 1: the k = r_bar coefficient is
    # 1/r_bar! for every probability vector, so strictness there is vacuous
    # and the generating-function argument only needs the higher coefficients.
    closure = compare_F_family(lhs, rhs, r_bar, (r_bar + 1, n * r_bar), relation, slack[0], ctx)
    if not closure.all_hold:
        return FamilyOutcome(closure, None, (words.closure.format(closure.failing_k()[:8]),))
    if not h1_holds:
        return FamilyOutcome(closure, None, (words.h1,))
    if not (lhs.full_weight and rhs.full_weight):
        return FamilyOutcome(closure, None, ())
    if not exponents.s_defined:
        return FamilyOutcome(closure, None, (words.s_undefined,))
    s_bar = exponents.s_bar
    negative = compare_F_family(pointwise_power(lhs, -s_bar, ctx), pointwise_power(rhs, -s_bar, ctx),
                                1, (1, n), _OPPOSITE[relation], slack[1], ctx)
    if not negative.all_hold:
        return FamilyOutcome(closure, negative,
                             (f"reciprocal family fails at k in {negative.failing_k()[:8]}",))
    return FamilyOutcome(closure, negative, ())


def majorization_exit(x: ProbVector, y: ProbVector, unequal: Optional[str],
                      ctx: Context = DEFAULT_CONTEXT) -> Optional[Tuple[str, str]]:
    """(status, reason) when plain majorization decides x -> y before any
    scan, exponent or family, else None.  x and y share one dimension n,
    and at most one of them has a zero (`without_shared_zeros`).

    It runs only on exact entries with equal totals, where `majorizes` is
    one `_dominates` call in integers with no slack.  If y majorizes x, no
    catalyst is needed (Nielsen, PRL 83, 436 (1999)): trumping-sufficient.
    On mpf entries the exit is not taken: a stored mpf decides a touching
    Lorenz breakpoint only up to its read-in rounding (`majorization._keep`),
    and no slack-based "sufficient" is a proof.  Unequal totals are not
    taken either: majorization then says nothing about trumping.

    For n <= 3 a pair that is not majorized is refuted: no catalyst helps in
    dimension 3 or less (Jonathan & Plenio, PRL 83, 3566 (1999)).  Proof.
    Let y (x) c majorize x (x) c.  c may be taken without zeros: dropping
    them drops as many trailing zeros from both composites, which keeps
    majorization at equal totals.  Comparing the largest and the smallest
    composite entries gives x_1 c_1 <= y_1 c_1 and x_min c_min >= y_min c_min
    (minima over all n entries, zeros included), so x_1 <= y_1 and
    x_min >= y_min are necessary: the p -> inf and p -> -inf limits.  With
    the entries sorted descending and equal totals T, y majorizes x in three
    entries iff x_1 <= y_1 and x_1 + x_2 <= y_1 + y_2, and the second reads
    T - x_3 <= T - y_3, i.e. x_min >= y_min (in one or two entries only
    x_1 <= y_1 is left).  So the two limits already give majorization, and
    a pair that is not majorized fails one of them, exactly.
    """
    if not (x.exact and y.exact) or unequal:
        return None
    if majorizes(y, x, ctx):
        return TRUMPING_SUFFICIENT, MAJORIZED
    if x.dim > 3:
        return None
    if x.top > y.top:
        return REFUTED, TOP_LIMIT.format(x.top, y.top)
    return REFUTED, LEAST_LIMIT.format(min(x.entries), min(y.entries))


def check_trumping(x: ProbVector, y: ProbVector,
                   ctx: Context = DEFAULT_CONTEXT,
                   grid: Optional[GridSpec] = None) -> TrumpingVerdict:
    """Decide what the finite condition families certify about x -> y.

    Pipeline: pad to a common dimension and drop the zeros both vectors
    share (`without_shared_zeros`); x equal to y up to order is
    trumping-sufficient before any scan; so is, on exact entries with equal
    totals, x majorized by y, and there a pair of dimension <= 3 that is not
    majorized is refuted by its largest or smallest entry
    (`majorization_exit`; these exits carry no oracle, exponents or
    families); refute on x_1 > y_1 or H1(x) <= H1(y); compute exponents
    (undefined r is inconclusive); check the closure family at order r_bar
    over k in {r_bar+1..n*r_bar}; upgrade to trumping-sufficient when the
    target lacks full weight, or when the reciprocal family at order s_bar
    holds (`run_families`); every verdict past the exits carries the oracle
    grid, which can still refute an otherwise inconclusive instance.  A
    refutation of two exact vectors with different totals reads inconclusive.
    The grid must pass `both_branches`, used or not.
    """
    grid = both_branches(grid)
    x, y = without_shared_zeros(*pad_pair(x, y))
    weight_branch = FULL_WEIGHT if y.full_weight else WEIGHT_LESS
    unequal = mass_mismatch(x, y)

    h1_x = shannon_entropy(x, ctx)
    h1_y = shannon_entropy(y, ctx)
    h1 = H1Evidence(h1_x, h1_y, confirmed_greater(h1_x, h1_y))

    if sorted(x.entries) == sorted(y.entries):
        return TrumpingVerdict(TRUMPING_SUFFICIENT, (SAME_ENTRIES,), None, None, None, h1,
                               weight_branch, None)
    decided = majorization_exit(x, y, unequal, ctx)
    if decided:
        status, reason = decided
        return TrumpingVerdict(status, (reason,), None, None, None, h1, weight_branch, None)
    oracle = oracle_scan(x, y, grid, ctx, (h1_x, h1_y))

    def verdict(status, reasons, exponents=None, families=NO_FAMILIES):
        status, reasons = settle_status(status, reasons, oracle, "oracle grid", unequal)
        return TrumpingVerdict(status, reasons, exponents, families.closure, families.negative,
                               h1, weight_branch, oracle,
                               families.cap_hit and status == INCONCLUSIVE)

    if x.top > y.top:
        return verdict(REFUTED, (TOP_LIMIT.format(x.top, y.top),))
    if not h1_x > h1_y:
        return verdict(REFUTED, ("H1(x) <= H1(y) violates the p=1 condition",))

    exponents = compute_exponents(x, y, ctx)
    if not exponents.r_defined:
        return verdict(INCONCLUSIVE, ("r undefined",), exponents)

    families = degree_capped(x.dim, exponents.r_bar, ctx) or run_families(
        x, y, STRICT_GREATER, exponents, h1.holds, LOCC_WORDS, ctx=ctx)
    if families.cap_hit or not families.closure.all_hold:
        status = INCONCLUSIVE
    else:
        status = CLOSURE_SUFFICIENT if families.reasons else TRUMPING_SUFFICIENT
    return verdict(status, families.reasons, exponents, families)
