"""Finite sufficient-condition checker for catalytic majorization under LOCC,
and the one condition pipeline (`_decide`) that it and the thermal checker
call.

The pipeline is three-valued on top of a one-directional theorem: plain
majorization of exact vectors gives "trumping-sufficient" before any scan;
violated necessary conditions (top entry, smallest entry, Shannon entropy,
or a dense-grid Renyi-entropy sample) give a provable "refuted"; the strict
coefficient families give "closure-sufficient" or "trumping-sufficient";
everything else is "inconclusive" with the failing conditions listed.  The
thermal checker runs the same stages on its embedded vectors, loosened by
its slack; what differs between the two checkers is data, a `_Kind`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Tuple

import mpmath
from mpmath import mpf

from .context import (DEFAULT_CONTEXT, Context, Scalar, confirmed_greater, parse_exact, to_mpf,
                      workprec)
from .errors import DegreeCapExceeded
from .majorization import (GridSpec, ScanReport, both_branches, majorizes, oracle_scan,
                           thermo_majorizes)
from .sympoly import FIRST_FAILING, STRICT_GREATER, STRICT_LESS, ComparisonReport, compare_F_family
from .vectors import ProbVector, pad_pair, pointwise_power, shannon_entropy, without_shared_zeros

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


def _settle_status(status: str, reasons, scan, scan_name: str,
                   unequal: Optional[str]) -> Tuple[str, Tuple[str, ...]]:
    """A verdict's final status and reasons: an inconclusive verdict whose
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
class _Kind:
    """What sets a checker apart in `_decide`: its words, its status names,
    the steps only it takes and the order of its sides.  The families
    compare F_k(source) `relation` F_k(target), and the flatter vector has
    the greater F_k: STRICT_GREATER (LOCC) makes the source the flatter
    side, STRICT_LESS (thermal, F(rho) < F(sigma)/A_r) the target."""

    scan: str                   # the scan's name in a refutation
    sufficient: str
    # inconclusive for the thermal checker: with no verdict of its own there,
    # it skips a refuted pair's families under compact evidence
    closure_sufficient: str
    same: str
    majorized: str
    r_undefined: str
    closure: str
    h1: str
    s_undefined: str
    relation: str
    limits: bool = False            # LOCC: n <= 3 exit, top/H1 refutations, H1 on every verdict
    # thermal: past a failing closure family, an unconfirmed H1 and (in
    # these words) a target without full weight are named too
    weightless: Optional[str] = None


_LOCC = _Kind("oracle grid", TRUMPING_SUFFICIENT, CLOSURE_SUFFICIENT, SAME_ENTRIES, MAJORIZED,
              "r undefined", "closure family fails at k in {}",
              "H1 comparison not confirmed beyond margin", "s undefined", STRICT_GREATER,
              limits=True)
_UNIT = (Fraction(1), Fraction(1))
_OPPOSITE = {STRICT_GREATER: STRICT_LESS, STRICT_LESS: STRICT_GREATER}


class _Families(NamedTuple):
    """The families that ran and why they stopped (none: all hold)."""

    closure: ComparisonReport
    negative: Optional[ComparisonReport]
    reasons: Tuple[str, ...]


def _run_families(source: ProbVector, target: ProbVector, exponents: ExponentPair,
                  h1_holds: bool, kind: _Kind, slack: Tuple[Scalar, Scalar] = _UNIT,
                  ctx: Context = DEFAULT_CONTEXT) -> _Families:
    """The closure family F_k(source) `kind.relation` slack[0] F_k(target)
    at r_bar over k in r_bar+1..n*r_bar; then, when it holds, H1 is
    confirmed and both vectors have full weight, the reciprocal family at
    s_bar over k in 1..n in the opposite relation with slack[1].

    Once the closure family holds, only the more concentrated vector can
    lack full weight (the flatter one's F_{n r_bar} would be 0), and then the
    strict negative-order conditions hold for free: the reciprocal family is
    skipped.
    """
    n = source.dim
    r_bar = exponents.r_bar
    # The strict family starts at k = r_bar + 1: the k = r_bar coefficient is
    # 1/r_bar! for every probability vector, so strictness there is vacuous
    # and the generating-function argument only needs the higher coefficients.
    closure = compare_F_family(source, target, r_bar, (r_bar + 1, n * r_bar), kind.relation,
                               slack[0], ctx)
    if not closure.all_hold:
        return _Families(closure, None, (kind.closure.format(closure.failing_k()[:FIRST_FAILING]),))
    if not h1_holds:
        return _Families(closure, None, (kind.h1,))
    if not (source.full_weight and target.full_weight):
        return _Families(closure, None, ())
    if not exponents.s_defined:
        return _Families(closure, None, (kind.s_undefined,))
    s_bar = exponents.s_bar
    negative = compare_F_family(pointwise_power(source, -s_bar, ctx),
                                pointwise_power(target, -s_bar, ctx),
                                1, (1, n), _OPPOSITE[kind.relation], slack[1], ctx)
    if not negative.all_hold:
        failing = negative.failing_k()[:FIRST_FAILING]
        return _Families(closure, negative, (f"reciprocal family fails at k in {failing}",))
    return _Families(closure, negative, ())


def majorization_exit(kind: _Kind, flat: ProbVector, conc: ProbVector,
                      g: Optional[ProbVector], unequal: Optional[str],
                      ctx: Context = DEFAULT_CONTEXT) -> Optional[Tuple[str, str]]:
    """(status, reason) when plain majorization decides a pair before any
    scan, exponent or family, else None.  `flat` is the flatter state, `conc`
    the more concentrated one: x and y under LOCC (g None, at most one of
    them with a zero, `without_shared_zeros`), q_sigma and q_rho for the
    thermal checker.

    It runs only on exact entries (g's too) with equal totals, where
    `majorizes` and `thermo_majorizes` are one `_dominates` call in integers
    with no slack.  If y majorizes x, x -> y needs no catalyst (Nielsen,
    PRL 83, 436 (1999)); if q_rho thermo-majorizes q_sigma relative to g, a
    thermal operation converts q_rho into q_sigma with no catalyst
    (Horodecki & Oppenheim, Nat. Commun. 4, 2059 (2013)).  On mpf entries
    (a Gibbs vector from energies at beta != 0, every entry of the float
    backend) the exit is not taken: a stored mpf decides a touching Lorenz
    breakpoint only up to its read-in rounding (`majorization._keep`), and
    no slack-based "sufficient" is a proof.  Unequal totals are not taken
    either: majorization then says nothing about trumping.

    Under LOCC (`kind.limits`) a pair of dimension n <= 3 that is not
    majorized is refuted: no catalyst helps in dimension 3 or less (Jonathan
    & Plenio, PRL 83, 3566 (1999)).  Proof.  Let y (x) c majorize x (x) c.
    c may be taken without zeros: dropping them drops as many trailing zeros
    from both composites, which keeps majorization at equal totals.
    Comparing the largest and the smallest composite entries gives
    x_1 c_1 <= y_1 c_1 and x_min c_min >= y_min c_min (minima over all n
    entries, zeros included), so x_1 <= y_1 and x_min >= y_min are
    necessary: the p -> inf and p -> -inf limits.  With the entries sorted
    descending and equal totals T, y majorizes x in three entries iff
    x_1 <= y_1 and x_1 + x_2 <= y_1 + y_2, and the second reads
    T - x_3 <= T - y_3, i.e. x_min >= y_min (in one or two entries only
    x_1 <= y_1 is left).  So the two limits already give majorization, and
    a pair that is not majorized fails one of them, exactly.
    """
    if unequal or not all(v.exact for v in (flat, conc, g) if v is not None):
        return None
    if majorizes(conc, flat, ctx) if g is None else thermo_majorizes(conc, flat, g, ctx):
        return kind.sufficient, kind.majorized
    if not kind.limits or flat.dim > 3:
        return None
    if flat.top > conc.top:
        return REFUTED, TOP_LIMIT.format(flat.top, conc.top)
    return REFUTED, LEAST_LIMIT.format(min(flat.entries), min(conc.entries))


def _decide(kind: _Kind, states: Tuple[ProbVector, ProbVector], g: Optional[ProbVector],
            scan: Callable[[], ScanReport], entropies: Callable[[tuple], Tuple[mpf, mpf]],
            ctx: Context, sides: Optional[Callable[[], tuple]] = None,
            loosening: Optional[Callable[[], Scalar]] = None,
            slack: Optional[Callable[[int, int], Tuple[mpf, mpf]]] = None,
            embedded: Optional[Callable[[], Tuple[ProbVector, ProbVector]]] = None):
    """The condition pipeline of both checkers, once a checker has checked
    its input: the verdict's fields, and the slack (A_r, A_s) it used.
    Every pair is in (source, target) order.

    The exits and `scan` read the `states`, with the Gibbs vector g (None
    under LOCC).  The exponents, H1 (`entropies(sides)`, in bits, loosened
    by 2 log2 of the loosening, the exponents by its square) and the degree
    cap read the sides: the states by default, the thermal checker's
    embedded blocks.  `sides()` and `loosening()` (default 1) are called
    once the exits have not decided the pair.  `slack(r_bar, s_bar)` gives
    the slack factors, and `embedded()` the vectors the families compare
    (default: the sides), built only for a family that runs.  A failing or
    capped closure family is inconclusive, one that holds short of the
    reciprocal family `kind.closure_sufficient`, and all conditions holding
    `kind.sufficient`; `_settle_status` has the last word.
    """
    def flatter_first(pair):
        return pair if kind.relation == STRICT_GREATER else pair[::-1]

    def evidence(sides, loosening):    # (H1 evidence, weight branch)
        h_source, h_target = entropies(sides)
        h_flat, h_conc = flatter_first((h_source, h_target))
        with workprec(ctx):
            holds = confirmed_greater(h_flat - 2 * mpmath.log(loosening, 2), h_conc)
        branch = FULL_WEIGHT if flatter_first(sides)[1].full_weight else WEIGHT_LESS
        return H1Evidence(h_source, h_target, holds), branch

    source, target = states
    unequal = mass_mismatch(source, target)
    shown = evidence(states, 1) if kind.limits else (None, None)
    report, slack_used = None, _UNIT

    def verdict(status, reasons, exponents=None, families=None, capped=False):
        status, reasons = _settle_status(status, reasons, report, kind.scan, unequal)
        closure, negative = (families.closure, families.negative) if families else (None, None)
        return dict(status=status, reasons=reasons, exponents=exponents, closure_report=closure,
                    negative_report=negative, h1=shown[0], weight_branch=shown[1], oracle=report,
                    cap_hit=capped and status == INCONCLUSIVE), slack_used

    weights = (g.entries,) if g else ()    # a state's entries pair with g's
    if sorted(zip(source.entries, *weights)) == sorted(zip(target.entries, *weights)):
        return verdict(kind.sufficient, (kind.same,))
    decided = majorization_exit(kind, *flatter_first(states), g, unequal, ctx)
    if decided:
        status, reason = decided
        return verdict(status, (reason,))
    report = scan()
    if kind.limits:
        if source.top > target.top:
            return verdict(REFUTED, (TOP_LIMIT.format(source.top, target.top),))
        if not shown[0].x_bits > shown[0].y_bits:
            return verdict(REFUTED, ("H1(x) <= H1(y) violates the p=1 condition",))
    if kind.closure_sufficient == INCONCLUSIVE and not (
            report.consistent or unequal or ctx.full_evidence):
        return verdict(INCONCLUSIVE, ("condition families skipped: the pair is refuted",))
    sides = sides() if sides else states
    loosening = loosening() if loosening else 1
    if shown[0] is None:
        shown = evidence(sides, loosening)
    h1 = shown[0]

    with workprec(ctx):
        exponents = compute_exponents(*flatter_first(sides), ctx, loosening ** 2)
    if not exponents.r_defined:
        return verdict(INCONCLUSIVE, (kind.r_undefined,), exponents)
    family_slack = _UNIT
    if slack:
        slack_used = slack(exponents.r_bar, exponents.s_bar or 1)
        with workprec(ctx):
            family_slack = (1 / slack_used[0], slack_used[1])
    # the cap needs only n, so the thermal N entries are not built past it
    degree = sides[0].dim * exponents.r_bar
    if degree > ctx.degree_cap:
        return verdict(INCONCLUSIVE, (f"degree cap: {DegreeCapExceeded(degree, ctx.degree_cap)}",),
                       exponents, capped=True)

    families = _run_families(*(embedded() if embedded else sides), exponents, h1.holds, kind,
                             family_slack, ctx)
    reasons = list(families.reasons)
    if not families.closure.all_hold:
        status = INCONCLUSIVE
        if kind.weightless and not h1.holds:
            reasons.append(kind.h1)
        if kind.weightless and not sides[1].full_weight:
            reasons.append(kind.weightless)
    else:
        status = kind.closure_sufficient if reasons else kind.sufficient
    return verdict(status, reasons, exponents, families)


def check_trumping(x: ProbVector, y: ProbVector,
                   ctx: Context = DEFAULT_CONTEXT,
                   grid: Optional[GridSpec] = None) -> TrumpingVerdict:
    """Decide what the finite condition families certify about x -> y.

    Pads to a common dimension, drops the zeros both vectors share
    (`without_shared_zeros`) and runs `_decide` with the oracle grid as its
    scan.  Pairs equal up to order, or that majorization decides
    (`majorization_exit`), exit before any oracle, exponents or families;
    past them x_1 > y_1 or H1(x) <= H1(y) refutes, and the closure family at
    order r_bar over k in {r_bar+1..n*r_bar}, then the reciprocal family at
    order s_bar, certify.  The grid must pass `both_branches`, used or not.
    """
    grid = both_branches(grid)
    x, y = without_shared_zeros(*pad_pair(x, y))
    h1 = (shannon_entropy(x, ctx), shannon_entropy(y, ctx))
    fields, _ = _decide(_LOCC, (x, y), None, lambda: oracle_scan(x, y, grid, ctx, h1),
                        lambda _: h1, ctx)
    return TrumpingVerdict(**fields)
