"""Ground-truth relations and the brute-force machinery around them.

Everything in this module is independent of the polynomial sufficient
conditions: Nielsen majorization, Lorenz-curve dominance against a Gibbs
vector, direct verification of a proposed catalyst, exhaustive catalyst
search over a simplex grid, and the p-grid scan of necessary conditions
with its norm/entropy oracle.  The checkers cite these as corroboration;
tests use them as the source of truth.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from operator import add, itemgetter
from fractions import Fraction
from typing import Iterator, List, NamedTuple, Optional, Tuple

import mpmath
from mpmath import mpf

from .context import DEFAULT_CONTEXT, Context, Scalar, parse_exact, summary_field, workprec
from .errors import DimMismatch, GibbsZeroEntry, GridTooLarge, InputError
from .floatpass import (
    entry_logs,
    err_coefficients,
    log_power_sums,
    log_sum,
    slope_range,
    surely_greater,
    tightest,
)
from .vectors import (
    ProbVector,
    _build,
    burg_entropy,
    common_backend,
    converted,
    pad_pair,
    scaled_p_norm,
    shannon_entropy,
    tensor,    # not called here; perfbench's tracer counts tensor calls under this name
)

LOCC = "locc"
THERMO = "thermo"

CONSISTENT = "consistent"
REFUTED = "refuted"


def majorizes(y: ProbVector, x: ProbVector, ctx: Context = DEFAULT_CONTEXT) -> bool:
    """True iff x is majorized by y (descending partial sums of y dominate).

    Vectors of different dimension are zero-padded.  Exact inputs are
    compared exactly; float inputs allow the Lorenz tolerance as slack.
    """
    x, y = common_backend(pad_pair(x, y), ctx)
    with workprec(ctx):
        return _dominates(*_sides(x, y, LOCC, None, x.exact), _TRIVIAL,
                          0 if x.exact else ctx.lorenz_tol)


def _values(entries: tuple, exact: bool) -> list:
    """Exact entries as integer numerators over their least common
    denominator, one positive scale that no comparison below can see; mpf
    entries as they are."""
    if not exact:
        return list(entries)
    d = math.lcm(*(e.denominator for e in entries))
    return [e.numerator * (d // e.denominator) for e in entries]


def _ranked(masses, weights, exact: bool) -> List[tuple]:
    """The (key, mass, weight) triples of aligned masses and positive
    weights, keys ordered like mass/weight: mass * (L // weight) for integer
    weights, L their lcm, so the ranking is exact; mass / weight on mpf."""
    if exact:
        lcm = math.lcm(*weights)
        keys = [m * (lcm // w) for m, w in zip(masses, weights)]
    else:
        keys = [m / w for m, w in zip(masses, weights)]
    return list(zip(keys, masses, weights))


_TRIVIAL = [(1, 1, 1)]    # the catalyst (1) against the Gibbs weight (1)


def _dominates(p, q, catalyst, slack) -> bool:
    """Whether the Lorenz curve of p (x) catalyst lies nowhere below that of
    q (x) catalyst less `slack`: the one check behind `verify_catalyst`,
    `thermo_majorizes` and every candidate of `search_catalyst`.

    p, q and catalyst are lists of (key, mass, weight) triples, weights
    positive and keys ordered like mass/weight (`_ranked`); an entry of a
    composite is the componentwise product of one triple of each factor.  A
    curve ranks its entries by key, descending, and runs through the
    cumulative (weight, mass) points from (0, 0), so its slopes fall and it
    is concave.  On each linear piece of q's curve the difference p - q is
    then concave too, and takes its least value at an end of the piece:
    comparing at q's breakpoints decides dominance at every abscissa.  One
    pass walks them in order with a pointer into p's pieces, and compares
    p's value at a breakpoint (a, v), on its piece from (a0, v0) to
    (a1, v1), cross-multiplied: v0 (a1 - a0) + (a - a0)(v1 - v0) against
    (v - slack)(a1 - a0), so integer inputs stay integers.  With unit
    weights the breakpoints are 1, 2, ... and this compares the prefix sums
    of the entries sorted descending: majorization.
    """
    def curve(side):
        return sorted([(ka * kb, ma * mb, wa * wb) for ka, ma, wa in side
                       for kb, mb, wb in catalyst], key=itemgetter(0), reverse=True)

    pieces = iter(curve(p))
    a0 = v0 = a1 = v1 = a = v = 0
    for _, mass, weight in curve(q):
        a += weight
        v += mass
        while a1 < a:
            piece = next(pieces, None)
            if piece is None:
                break
            a0, v0 = a1, v1
            a1 += piece[2]
            v1 += piece[1]
        if a1 < a:
            # past p's last breakpoint, which only rounding puts before q's:
            # p's curve is flat at its total there
            if v1 < v - slack:
                return False
        elif v0 * (a1 - a0) + (a - a0) * (v1 - v0) < (v - slack) * (a1 - a0):
            return False
    return True


def _gibbs_pair(mode: str, dim: int, g: Optional[ProbVector], g_cat: Optional[ProbVector],
                cat_dim: int):
    """The validated Gibbs vectors (g, g_cat) of a catalyst problem on
    `dim`-entry states with `cat_dim`-entry catalysts; (None, None) in LOCC
    mode, g_cat None for the trivial catalyst Hamiltonian."""
    if mode == LOCC:
        return None, None
    if mode != THERMO:
        raise InputError(f"unknown catalyst mode {mode!r}")
    if g is None:
        raise InputError("thermo mode requires the system Gibbs vector g")
    if g.dim != dim:
        raise DimMismatch(f"Gibbs dim {g.dim} != state dim {dim}")
    if not g.full_weight:
        raise GibbsZeroEntry("Gibbs vector must have full weight")
    if g_cat is not None:
        if g_cat.dim != cat_dim:
            raise DimMismatch(f"catalyst Gibbs dim {g_cat.dim} != catalyst dim {cat_dim}")
        if not g_cat.full_weight:
            raise GibbsZeroEntry("catalyst Gibbs vector must have full weight")
    return g, g_cat


def _weights(v: Optional[ProbVector], dim: int, exact: bool) -> list:
    """The Gibbs weights of a factor, unit weights for None (uniform, up to
    a scale)."""
    return [1] * dim if v is None else _values(v.entries, exact)


def _sides(x: ProbVector, y: ProbVector, mode: str, g: Optional[ProbVector], exact: bool):
    """(p, q): the ranked triples of the state that must dominate once
    catalysed, y in LOCC mode and x in thermo mode, and of the other one.
    Exact masses are integers over one common denominator."""
    masses = _values(x.entries + y.entries, exact)
    weights = _weights(g, x.dim, exact)
    xs = _ranked(masses[:x.dim], weights, exact)
    ys = _ranked(masses[x.dim:], weights, exact)
    return (ys, xs) if mode == LOCC else (xs, ys)


def thermo_majorizes(p: ProbVector, q: ProbVector, g: ProbVector,
                     ctx: Context = DEFAULT_CONTEXT) -> bool:
    """True iff p thermo-majorizes q relative to the Gibbs vector g.

    Entry i of p and of q pairs with entry i of g.  With uniform g this
    reduces to plain majorization.  `tensor` keeps the pairing, so
    `thermo_majorizes(tensor(x, c), tensor(y, c), tensor(g, g_cat))` is
    `verify_catalyst(x, y, c, "thermo", g, g_cat)`.
    """
    if not (p.dim == q.dim == g.dim):
        raise DimMismatch(f"dims {p.dim}, {q.dim}, {g.dim} must agree")
    if not g.full_weight:
        raise GibbsZeroEntry("Gibbs vector must have full weight")
    p, q, g = common_backend((p, q, g), ctx)
    exact = p.exact
    with workprec(ctx):
        upper, lower = _sides(p, q, THERMO, g, exact)
        return _dominates(upper, lower, _TRIVIAL, 0 if exact else ctx.lorenz_tol)


def verify_catalyst(x: ProbVector, y: ProbVector, c: ProbVector,
                    mode: str = LOCC,
                    g: Optional[ProbVector] = None,
                    g_cat: Optional[ProbVector] = None,
                    ctx: Context = DEFAULT_CONTEXT) -> bool:
    """Check a proposed catalyst c for the transformation x -> y.

    LOCC mode: does y (x) c majorize x (x) c?  Thermo mode: does x (x) c
    thermo-majorize y (x) c relative to g (x) g_cat?  The catalyst Gibbs
    vector defaults to uniform (trivial catalyst Hamiltonian).  Composite
    entries stay index-aligned with their Gibbs weights (`_dominates`);
    exact inputs are compared in integers.
    """
    x, y = pad_pair(x, y)
    g, g_cat = _gibbs_pair(mode, x.dim, g, g_cat, c.dim)
    x, y, c, g, g_cat = common_backend((x, y, c, g, g_cat), ctx)
    exact = x.exact
    with workprec(ctx):
        catalyst = _ranked(_values(c.entries, exact), _weights(g_cat, c.dim, exact), exact)
        return _dominates(*_sides(x, y, mode, g, exact), catalyst, 0 if exact else ctx.lorenz_tol)


def _count_sorted_points(m: int, parts: int, budget: int) -> int:
    """Partitions of m into at most `parts` parts (the sorted points of the
    1/m grid with that many nonzero entries), or a lower bound above `budget`.
    Up to three parts the count has a closed form, which also bounds it from
    below for more, so the table exists only for m <= ~sqrt(12 * budget)."""
    count = (1, m // 2 + 1, ((m + 3) ** 2 + 6) // 12)[min(parts, 3) - 1]
    if parts <= 3 or count > budget:
        return count
    ways = [1] + [0] * m    # ways[t]: partitions of t into parts of size <= k
    for k in range(1, parts + 1):
        for total in range(k, m + 1):
            ways[total] += ways[total - k]
        if ways[m] > budget:
            break
    return ways[m]


def _descending_compositions(m: int, dim: int, cap: int) -> Iterator[Tuple[int, ...]]:
    """All (k_1..k_dim), k_1 >= ... >= k_dim >= 0, sum m, k_1 <= cap.

    Emitted in lexicographically descending order.
    """
    if dim == 1:
        if m <= cap:
            yield (m,)
        return
    lo = -(-m // dim)  # ceil(m/dim) keeps the remainder packable
    for first in range(min(m, cap), lo - 1, -1):
        for rest in _descending_compositions(m - first, dim - 1, first):
            yield (first,) + rest


def _grid_vector(ks: Tuple[int, ...], m: int, ctx: Context) -> ProbVector:
    with workprec(ctx):
        return _build([Fraction(k, m) if ctx.exact else mpf(k) / m for k in ks], ctx.exact)


def search_catalyst(x: ProbVector, y: ProbVector, dim: int, resolution,
                    mode: str = LOCC,
                    g: Optional[ProbVector] = None,
                    g_cat: Optional[ProbVector] = None,
                    ctx: Context = DEFAULT_CONTEXT) -> Optional[ProbVector]:
    """Exhaustive catalyst search on the sorted simplex grid.

    Enumerates descending-ordered grid points of the (dim-1)-simplex with
    entries that are multiples of `resolution`, in lexicographically
    descending order, and returns the first (hence lexicographically
    greatest) point that verifies, or None.  The trivial catalyst (1) is
    tested first, against the Gibbs weight 1 in thermo mode (that is,
    `thermo_majorizes(x, y, g)`), so an already-majorized pair returns it
    immediately.

    Only descending catalysts are walked.  That is exhaustive up to
    permutation in LOCC mode and in thermo mode with a uniform (or absent)
    `g_cat`, where permuting the catalyst only permutes the composite.  A
    non-uniform `g_cat` pairs its entries with the catalyst's index-wise,
    so a catalyst that verifies only in another order is not found.

    x, y and the Gibbs weights become integers over common denominators
    once per call, so a candidate's composite entries are the integer
    products of those with its grid numerators, and each candidate costs
    one `_dominates` pass; only the catalyst returned becomes a ProbVector.
    """
    if dim < 1:
        raise InputError("catalyst dimension must be >= 1")
    res = Fraction(resolution) if not isinstance(resolution, Fraction) else resolution
    if not 0 < res <= Fraction(1, 2):
        raise InputError("resolution must lie in (0, 1/2]")
    inv = 1 / res
    if inv.denominator != 1:
        raise InputError("1/resolution must be an integer grid count")
    m = inv.numerator

    x, y = pad_pair(x, y)
    g, g_cat = _gibbs_pair(mode, x.dim, g, g_cat, dim)
    trivial = _grid_vector((1,), 1, ctx)
    # the catalysts' backend joins the coercion: a float context makes every factor mpf
    x, y, _, g, g_cat = common_backend((x, y, trivial, g, g_cat), ctx)
    exact = x.exact
    slack = 0 if exact else ctx.lorenz_tol
    with workprec(ctx):
        p, q = _sides(x, y, mode, g, exact)
        if _dominates(p, q, _TRIVIAL, slack):
            return trivial
        if dim == 1:
            return None

        if dim > ctx.point_budget:
            raise GridTooLarge(dim, ctx.point_budget, "entries per point")
        parts = min(dim, m)    # a point of the 1/m grid has at most m nonzero entries
        points = _count_sorted_points(m, parts, ctx.point_budget)
        if points > ctx.point_budget:
            raise GridTooLarge(points, ctx.point_budget)

        weights = _weights(g_cat, dim, exact)
        pad = (0,) * (dim - parts)
        for ks in _descending_compositions(m, parts, m):
            masses = ks + pad if exact else [mpf(k) / m for k in ks + pad]
            if _dominates(p, q, _ranked(masses, weights, exact), slack):
                return _grid_vector(ks + pad, m, ctx)
    return None


@dataclass(frozen=True)
class GridSpec(Sequence):
    """p-grid [p_min, p_max] in steps of `step`, always excluding {0, 1}.

    The oracle additionally requires the grid to straddle both branches
    (p_min < 0 and p_max > 1); plotting scans may use any range.

    A spec is also the ascending sequence of its points: `len`, iteration,
    `grid[i]` and `grid.index(p)` give the Fractions without building the
    others.  `str` is the spec in the `--grid` syntax, which `parse` reads
    back.
    """

    p_min: Fraction = Fraction(-20)
    p_max: Fraction = Fraction(20)
    step: Fraction = Fraction(1, 20)

    def __post_init__(self):
        if not (self.p_min <= self.p_max and self.step > 0):
            raise InputError("grid needs p_min <= p_max and step > 0")

    @property
    def straddles_both_branches(self) -> bool:
        return self.p_min < 0 and self.p_max > 1

    @property
    def table(self) -> Tuple[int, Tuple[int, ...]]:
        """(d, ms): the grid points are m/d for m in ms, ascending, over one
        common denominator d, built once per distinct spec.  The scans
        compare integers instead of Fractions: m < 0 is p < 0 and m > d is
        p > 1, and m / d is the correctly rounded float of p."""
        return _grid_table(self)

    @property
    def size(self) -> int:
        """The number of grid points, counted without building them."""
        d, steps = _grid_steps(self)
        # len(steps) overflows past 2^63 points
        count = (steps.stop - steps.start - 1) // steps.step + 1
        return count - (0 in steps) - (d in steps)

    def within(self, budget: int) -> "GridSpec":
        """The spec, or GridTooLarge before anything is built when the grid
        has more than `budget` points."""
        if self.size > budget:
            raise GridTooLarge(self.size, budget)
        return self

    def points(self) -> List[Fraction]:
        return list(self)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> Fraction:
        d, ms = self.table
        return Fraction(ms[i], d)

    def __iter__(self) -> Iterator[Fraction]:
        d, ms = self.table
        return (Fraction(m, d) for m in ms)

    def index(self, p) -> int:
        d, ms = self.table
        m = Fraction(p) * d
        i = bisect_left(ms, m)
        if i == len(ms) or ms[i] != m:
            raise ValueError(f"{p} is not in the grid {self}")
        return i

    def __str__(self) -> str:
        return ":".join(str(Fraction(v)) for v in (self.p_min, self.p_max, self.step))

    @staticmethod
    def parse(text: str) -> "GridSpec":
        if not isinstance(text, str):
            raise InputError(f"grid spec {text!r} must be a string min:max:step")
        try:
            lo, hi, step = (parse_exact(part) for part in text.split(":"))
        except ValueError as exc:
            raise InputError(f"bad grid spec {text!r}: {exc}") from None
        return GridSpec(lo, hi, step)


def _grid_steps(spec: GridSpec) -> Tuple[int, range]:
    """(d, the numerators of p_min..p_max in steps of `step` over d), {0, 1}
    still in."""
    lo, hi, step = (Fraction(v) for v in (spec.p_min, spec.p_max, spec.step))
    d = math.lcm(lo.denominator, hi.denominator, step.denominator)
    return d, range(lo.numerator * (d // lo.denominator),
                    hi.numerator * (d // hi.denominator) + 1,
                    step.numerator * (d // step.denominator))


@lru_cache(maxsize=8)
def _grid_table(spec: GridSpec) -> Tuple[int, Tuple[int, ...]]:
    d, steps = _grid_steps(spec)
    ms = list(steps)
    for m in (d, 0):    # d first: it sits after 0, whose index it leaves alone
        if m in steps:
            del ms[steps.index(m)]
    return d, tuple(ms)


@dataclass(frozen=True)
class OracleFailure:
    p: Optional[Fraction]  # None for the dedicated H1/Burg checks
    lhs: Scalar
    rhs: Scalar
    which: str


@dataclass(frozen=True)
class ScanReport:
    """Sampled necessary conditions of a transformation: strict comparisons
    on a p-grid and at dedicated points (H1 and Burg for `oracle_scan`, KL
    for `divergence_scan`).  Any failure refutes the transformation.

    `grid` is the scanned `GridSpec`.  A failing dedicated point is a row
    with p = None.  Compact evidence lists only the first failing grid
    point and the dedicated rows, and counts every failure in
    `failure_count`; `tightest_log2` is the signed margin, in bits, of the
    grid point closest to flipping, positive where the needed inequality
    holds.
    """

    grid: GridSpec
    failures: Tuple[OracleFailure, ...]
    verdict: str
    refuted_at: Optional[str] = None
    failure_count: Optional[int] = summary_field()
    tightest_log2: Optional[float] = summary_field()

    @property
    def consistent(self) -> bool:
        return self.verdict == CONSISTENT


# the float pass starts on every BRACKET-th point of an orientation region;
# most runs between those points certify whole or split a few times, so a
# wider start evaluates fewer points (16 -> 64: 7308 -> 6532 points and
# 8015 -> 6826 certificates over the benchmark's locc_thermal seeds 1801-2)
BRACKET = 64
_LN2 = math.log(2)


class _Run(NamedTuple):
    """Grid points up to index `last` that one evaluated point certifies:
    all hold, or all fail, and every margin is at least `bound` in size."""

    last: int
    holds: bool
    bound: float


def _float_points(d: int, ms, sides, by_q: bool, idx) -> dict:
    """(gap, band, scale) at the grid indices `idx`: the needed gap (b - a at
    p > 1 and p < 0, a - b between) of the two sides' `log_power_sums`, twice
    both error bounds, and the margin's divisor |p| ln 2 (|1 - p| ln 2 with
    `by_q`).  `log_power_sums` gives every point the same floats on any
    subset of the grid, so these are the whole-grid pass's floats."""
    if not idx:
        return {}
    ps = [ms[i] / d for i in idx]
    qs = [(d - ms[i]) / d for i in idx]
    (a, err_a), (b, err_b) = (log_power_sums(logs, logs_g, ps, qs) for logs, logs_g in sides)
    out = {}
    for i, p, q, x, ex, y, ey in zip(idx, ps, qs, a, err_a, b, err_b):
        gap = x - y if 0 < ms[i] < d else y - x
        out[i] = (gap, 2 * (ex + ey), abs(q if by_q else p) * _LN2)
    return out


def _bracket(d: int, ms, sides, full: bool, by_q: bool):
    """(floats, owner): the `_float_points` of the grid points the float
    pass evaluates, by index, and the `_Run` certifying each other point
    (None where a point is evaluated or keeps a zero-entry convention).

    Each orientation region that float may settle (p < 0 only when both
    vectors have full weight) is evaluated at its two ends and at every
    BRACKET-th point.  The points between two evaluated ones split at the
    middle, and each half is certified from its nearer evaluated point by
    the four lines of `floatpass` (slopes from `slope_range`, the band from
    `err_coefficients`) at its two end points.  Where a half stays open the
    middle point is evaluated and both new stretches are tried again; a
    stretch of at most three points left open is evaluated whole."""
    size = len(ms)
    neg, mid = bisect_left(ms, 0), bisect_left(ms, d)
    regions = [(lo, hi) for lo, hi in ((0 if full else neg, neg), (neg, mid), (mid, size))
               if lo < hi]
    ends = [sorted({*range(lo, hi, BRACKET), hi - 1}) for lo, hi in regions]
    floats = _float_points(d, ms, sides, by_q, [i for anchors in ends for i in anchors])
    (lo_a, hi_a), (lo_b, hi_b) = (slope_range(*side) for side in sides)
    c0, cp, cq = map(add, *(err_coefficients(*side) for side in sides))
    stretches = []    # (left, right, line): two evaluated points of one region
    for anchors in ends:
        m = ms[anchors[0]]
        # |p| = sp p and |1 - p| = sq (1 - p) throughout the region
        sp, sq = (-1 if m < 0 else 1), (-1 if m > d else 1)
        # the slopes of the needed gap: of b - a, or of a - b in 0 < p < 1
        low, high = (lo_b - hi_a, hi_b - lo_a) if sp != sq else (lo_a - hi_b, hi_a - lo_b)
        # the a-priori band 2 (c0 + cp |p| + cq |1 - p|) and the margin's
        # divisor as lines in the numerator m
        line = (d, low, high, max(-low, high), 2 * (c0 + cq * sq), 2 * (cp * sp - cq * sq) / d,
                _LN2 * sq if by_q else 0.0, -_LN2 * sq / d if by_q else _LN2 * sp / d)
        stretches += [(left, right, line) for left, right in zip(anchors, anchors[1:])]
    owner, rest = [None] * size, []
    while stretches:
        split = []
        for left, right, line in stretches:
            half = (left + right) // 2
            runs = []
            for anchor, first, last in ((left, left + 1, half), (right, half + 1, right - 1)):
                if first > last:
                    continue
                cert = _certify(floats[anchor], ms[anchor], ms[first], ms[last], line)
                if cert is None:
                    break
                runs.append((first, last, _Run(last, *cert)))
            else:
                for first, last, run in runs:
                    owner[first:last + 1] = [run] * (last - first + 1)
                continue
            if right - left <= 4:
                rest.extend(range(left + 1, right))
            else:
                split.append((left, half, right, line))
        floats.update(_float_points(d, ms, sides, by_q, [half for _, half, _, _ in split]))
        stretches = [(a, b, line) for left, half, right, line in split
                     for a, b in ((left, half), (half, right)) if b - a > 1]
    floats.update(_float_points(d, ms, sides, by_q, rest))
    return floats, owner


def _certify(anchor, m0: int, m1: int, m2: int, line) -> Optional[Tuple[bool, float]]:
    """(holds, bound) of a `_Run` of the grid points with numerators m1..m2
    (over d) from the evaluated point m0 / d with `_float_points` `anchor`,
    or None when the lines leave them open.  `line` (from `_bracket`) holds
    d, the slopes of the needed gap, the larger of their sizes, the
    a-priori band and the margin's divisor as lines in the numerator."""
    gap, band, _ = anchor
    err = band / 2
    if -err <= gap <= err:
        return None
    d, low, high, tilt, band0, band1, scale0, scale1 = line
    if m1 < m0:
        # moving left the gap falls by at most `high` per unit of p
        low, high = high, low
    # a positive gap can only hold, a negative one only fail: the bound on
    # the needed gap, or on minus it, falls by at most `fall` per unit of p
    start, fall = (gap - err, low) if gap > 0 else (-gap - err, -high)
    bounds = []
    for m in (m1, m2):
        delta = (m - m0) / d
        far = band0 + band1 * m
        # the rounding of these few operations, far below the bands
        far += 2.0 ** -48 * (start + 2 * err + abs(delta) * tilt + far)
        bound = start + delta * fall - far
        if bound <= 0:
            return None
        bounds.append(bound / (scale0 + scale1 * m))
    # the factor covers the rounding of the divisor
    return gap > 0, min(bounds) * (1 - 2.0 ** -40)


def scan(grid: GridSpec, sides, full_weight: Tuple[bool, bool], evaluate, dedicated,
         ctx: Context, by_q: bool = False) -> ScanReport:
    """The report of a p-grid, walked in order over its `table`, and of the
    `dedicated` comparisons.

    A scan compares the power sums sum_i a_i^p g_i^(1-p) of two vectors,
    whose full weights `full_weight` gives: the first's must be the smaller
    where p > 1 or p < 0 and the larger where 0 < p < 1.  `sides` holds
    their float logs from `entry_logs` (nonzero entries, each with its
    Gibbs weights or None for unit weights), or is None when the float
    pre-pass cannot run.  `_bracket` runs `log_power_sums` on a sixth or so
    of the grid and certifies the rest in runs; a point it evaluates and
    settles gets the margin (difference of the log sums) / (|p| ln 2), the
    log2 norm ratio, or with `by_q` / (|1 - p| ln 2), the difference of the
    divergences in bits.  At p < 0 a zero entry makes its power sum
    infinite, so the point holds when only the second vector has one; with
    any other zero entry it goes to `evaluate`, like every point float does
    not settle.  `evaluate(p, m)` returns (margin or None, an OracleFailure
    or None); only the points it gets, and so only failure rows, build
    their Fraction p.  Under compact evidence a failure after the first one
    that float, a certificate or the convention proves is only counted.

    A certified holding run adds nothing, and a failing one is evaluated
    point by point until the first failure is recorded (every point under
    full evidence).  Under compact evidence the runs whose margin bound does
    not exceed the least margin found are then evaluated as above, so
    `tightest_log2` comes from the floats (or mpmath values) the whole-grid
    walk would give it.

    Each dedicated triple (which, lhs, rhs) needs lhs > rhs and fails as
    the row (None, lhs, rhs, which) after the grid's.  `refuted_at` is the
    first row's p=..., or the first word of its `which`.
    """
    d, ms = grid.table
    compact = not ctx.full_evidence
    first_full, second_full = full_weight
    full = first_full and second_full
    holds_below_zero = first_full and not second_full
    if sides is None:
        floats, owner = {}, [None] * len(ms)
    else:
        floats, owner = _bracket(d, ms, sides, full, by_q)
    failures, count = [], 0
    margins = {}    # grid index -> margin, of the points that have one
    waiting = []    # (run, first index) of certified points whose margins were not taken
    with workprec(ctx):
        i = 0
        while i < len(ms):
            run = owner[i]
            if run is not None and (run.holds or (compact and failures)):
                count += 0 if run.holds else run.last - i + 1
                waiting.append((run, i))
                i = run.last + 1
                continue
            m, f = ms[i], floats.get(i)
            i += 1
            if m < 0 and holds_below_zero:
                continue
            if f is not None:
                gap, band, scale = f
                settled = gap > band
                if settled or (compact and failures and -gap > band):
                    margins[i - 1] = gap / scale
                    count += not settled
                    continue
            elif compact and failures and m < 0 and not full:
                count += 1
                continue
            margin, failure = evaluate(Fraction(m, d), m)
            if margin is not None:
                margins[i - 1] = margin
            if failure is not None:
                count += 1
                if not (compact and failures):
                    failures.append(failure)
        if compact:
            _take_margins(waiting, margins, d, ms, sides, by_q, evaluate)
    for which, lhs, rhs in dedicated:
        if not lhs > rhs:
            failures.append(OracleFailure(None, lhs, rhs, which))
            count += 1
    refuted_at = None
    if failures:
        first = failures[0]
        refuted_at = f"p={first.p}" if first.p is not None else first.which.split(" ")[0]
    verdict = REFUTED if failures else CONSISTENT
    if not compact:
        return ScanReport(grid, tuple(failures), verdict, refuted_at)
    # in grid order, so that ties on |margin| go to the first point
    in_order = (margins[i] for i in sorted(margins))
    return ScanReport(grid, tuple(failures), verdict, refuted_at, count, tightest(in_order))


def _take_margins(waiting, margins: dict, d: int, ms, sides, by_q: bool, evaluate):
    """Fill in the margins of the `waiting` certified points that could be
    the least one: every run whose bound does not exceed the least margin
    found (a margin taken here can only lower that least one, so one batch
    holds them all).  Each point takes the margin the walk would have given
    it: the floats' where they settle it (it holds or fails, so one of
    gap > band and -gap > band is its test), else `evaluate`'s."""
    least = min((abs(v) for v in margins.values() if math.isfinite(v)), default=math.inf)
    idx = [i for run, first in waiting if run.bound <= least for i in range(first, run.last + 1)]
    for i, (gap, band, scale) in _float_points(d, ms, sides, by_q, idx).items():
        margin = gap / scale if abs(gap) > band else evaluate(Fraction(ms[i], d), ms[i])[0]
        if margin is not None:
            margins[i] = margin


def oracle_scan(x: ProbVector, y: ProbVector,
                grid: Optional[GridSpec] = None,
                ctx: Context = DEFAULT_CONTEXT,
                h1: Optional[Tuple[Scalar, Scalar]] = None) -> ScanReport:
    """Sample the strict norm and entropy conditions on a dense p-grid.

    Checks ||x||_p < ||y||_p for sampled p > 1, ||x||_p > ||y||_p for sampled
    p < 1 (p != 0), H1(x) > H1(y), and Burg(x) > Burg(y); `scan` walks the
    grid, and a compact report's margin is the log2 norm ratio.  `h1` is
    (H1(x), H1(y)) when the caller has them already.  Burg is decided from
    the float logs (`floatpass.log_sum`) and reaches mpmath only when they do
    not confirm it: its row is printed only when it fails.
    """
    grid = GridSpec() if grid is None else grid
    if not grid.straddles_both_branches:
        raise InputError("oracle grid needs p_min < 0 and p_max > 1")
    x, y = pad_pair(x, y)
    compact = not ctx.full_evidence
    d = grid.within(ctx.point_budget).table[0]
    logs_x = entry_logs(e for e in x.entries if e != 0)
    logs_y = entry_logs(e for e in y.entries if e != 0)
    # The norm order needed at p > 1 and p < 0 is sum x^p < sum y^p.
    sides = ((logs_x, None), (logs_y, None)) if logs_x and logs_y else None
    pair = []    # x and y converted once, at the first point mpmath evaluates

    def evaluate(p, m):
        if not pair:
            pair.extend((converted(x, ctx), converted(y, ctx)))
        lhs = scaled_p_norm(pair[0], p, ctx)
        rhs = scaled_p_norm(pair[1], p, ctx)
        margin = None
        if compact and lhs and rhs:
            # log2 of the needed norm ratio: ||y||/||x|| at p > 1, ||x||/||y|| below
            ratio = float(mpmath.log(rhs / lhs, 2))
            margin = ratio if m > d else -ratio
        holds = lhs < rhs if m > d else lhs > rhs
        if holds:
            return margin, None
        which = "norm p>1 (need <)" if m > d else "norm p<1 (need >)"
        return margin, OracleFailure(p, lhs, rhs, which)

    if h1 is None:
        h1 = shannon_entropy(x, ctx), shannon_entropy(y, ctx)
    dedicated = [("H1 (need >)", *h1)]
    if not (sides and x.full_weight and y.full_weight
            and surely_greater(log_sum(logs_x), log_sum(logs_y))):
        dedicated.append(("Burg (need >)", burg_entropy(x, ctx), burg_entropy(y, ctx)))
    return scan(grid, sides, (x.full_weight, y.full_weight), evaluate, dedicated, ctx)
