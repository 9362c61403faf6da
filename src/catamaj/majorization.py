"""Ground-truth relations and the brute-force machinery around them.

Everything in this module is independent of the polynomial sufficient
conditions: Nielsen majorization, Lorenz-curve dominance against a Gibbs
vector, direct verification of a proposed catalyst, exhaustive catalyst
search over a simplex grid, and the p-grid scan of necessary conditions
with its entropy oracle.  The checkers cite these as corroboration;
tests use them as the source of truth.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
from operator import add, itemgetter
from fractions import Fraction
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple

import mpmath
from mpmath import mpf

from .context import (DEFAULT_CONTEXT, POINT_BUDGET, Context, Scalar, common_denominator,
                      parse_exact, summary_field, workprec)
from .errors import DimMismatch, GibbsZeroEntry, GridTooLarge, InputError
from .floatpass import (
    entry_logs,
    err_coefficients,
    log_power_sums,
    log_sum,
    prints_alike,
    slope_range,
    surely_greater,
    tail_ratio,
    tightest,
)
from .vectors import (
    ProbVector,
    burg_entropy,
    converted,
    pad_pair,
    renyi_entropy,
    shannon_entropy,
)

LOCC = "locc"
THERMO = "thermo"

CONSISTENT = "consistent"
REFUTED = "refuted"


def majorizes(y: ProbVector, x: ProbVector, ctx: Context = DEFAULT_CONTEXT) -> bool:
    """True iff x is majorized by y (descending partial sums of y dominate,
    zero-padded): `verify_catalyst` with the catalyst (1)."""
    return verify_catalyst(x, y, _ONE, ctx=ctx)


def _ranked(masses, weights) -> List[tuple]:
    """The (key, mass, weight) triples of aligned integer masses and positive
    weights, keys ordered like mass/weight: mass * (L // weight), L the lcm
    of the weights, so the ranking is exact."""
    lcm = math.lcm(*weights)
    return [(m * (lcm // w), m, w) for m, w in zip(masses, weights)]


_ONE = ProbVector((Fraction(1),))    # the trivial catalyst


def _dominates(p, q, keep: Tuple[int, int], catalyst) -> bool:
    """Whether the Lorenz curve of p (x) catalyst lies nowhere below that of
    q (x) catalyst scaled by keep[0] / 2^keep[1]: the one check behind
    `verify_catalyst` and every candidate of `search_catalyst`.

    p, q and catalyst are lists of integer (key, mass, weight) triples,
    weights positive and keys ordered like mass/weight (`_ranked`), p's
    weights those of q.  An entry of a composite is the componentwise
    product of one triple of each factor.  A curve ranks its entries by key,
    descending, and runs through the cumulative (weight, mass) points from
    (0, 0), so its slopes fall and it is concave.  On each linear piece of
    q's curve the difference p - q is then concave too, and takes its least
    value at an end of the piece: comparing at q's breakpoints decides
    dominance at every abscissa.  One pass walks them in order with a
    pointer into p's pieces, and compares p's value at a breakpoint (a, v),
    on its piece from (a0, v0) to (a1, v1), cross-multiplied: 2^shift (v0 (a1
    - a0) + (a - a0)(v1 - v0)) against v num (a1 - a0), all in integers.
    With unit weights the breakpoints are 1, 2, ... and this compares the
    prefix sums of the entries sorted descending: majorization.
    """
    def curve(side):
        return sorted([(ka * kb, ma * mb, wa * wb) for ka, ma, wa in side
                       for kb, mb, wb in catalyst], key=itemgetter(0), reverse=True)

    num, shift = keep
    pieces = iter(curve(p))
    a0 = v0 = a1 = v1 = a = v = 0
    for _, mass, weight in curve(q):
        a += weight
        v += mass
        while a1 < a:
            _, piece_mass, piece_weight = next(pieces)
            a0, v0 = a1, v1
            a1 += piece_weight
            v1 += piece_mass
        if (v0 * (a1 - a0) + (a - a0) * (v1 - v0)) << shift < v * num * (a1 - a0):
            return False
    return True


def _keep(inputs, ctx: Context) -> Tuple[int, int]:
    """(num, shift) for `_dominates`: (1, 0) when every vector of `inputs`
    is exact, else q's curve scaled by 1 - 2^(7-P), P = `ctx.precision`.

    Proof: a stored entry errs by a relative delta <= 2^(3-P), eight roundings
    (`parse_float` rounds at most thrice, `gibbs_vector` once after guard
    bits, an amplitude square or a `tensor` product of two such entries at
    most seven times), a composite mass or weight by eps = 2 delta + delta^2.
    Suppose the ideal Lorenz curves dominate.  The entries under a breakpoint
    (a, v) of q's stored curve give an ideal point (a', v') within factors
    1 +- eps, which p's ideal curve reaches; the same t (share of each
    entry) gives on p's stored values an abscissa within 1 +- eps of a' and
    at least (1 - eps) v'.  A stored curve is concave through 0 and
    nondecreasing, so p's is at a at least (1 - eps)^2 (1 - 2 eps) v >= (1 -
    4 eps) v ~ (1 - 2^(6-P)) v.  Twice that margin covers the second-order
    terms, relative at every breakpoint however far apart the weights lie.
    """
    if all(v is None or v.exact for v in inputs):
        return 1, 0
    return (1 << ctx.precision) - 128, ctx.precision


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


def _weights(v: Optional[ProbVector], dim: int):
    """The Gibbs weights of a factor, unit weights for None (uniform, up to
    a scale)."""
    return [1] * dim if v is None else common_denominator(v.entries)[1]


def _sides(x: ProbVector, y: ProbVector, mode: str, g: Optional[ProbVector]):
    """(p, q): the ranked triples of the state that must dominate once
    catalysed, y in LOCC mode and x in thermo mode, and of the other one.
    Masses are integers over one common denominator."""
    _, masses = common_denominator(x.entries + y.entries)
    weights = _weights(g, x.dim)
    xs = _ranked(masses[:x.dim], weights)
    ys = _ranked(masses[x.dim:], weights)
    return (ys, xs) if mode == LOCC else (xs, ys)


def thermo_majorizes(p: ProbVector, q: ProbVector, g: ProbVector,
                     ctx: Context = DEFAULT_CONTEXT) -> bool:
    """True iff p thermo-majorizes q relative to the Gibbs vector g: thermo
    `verify_catalyst` with the catalyst (1).  Entry i of p and of q pairs
    with entry i of g.  With uniform g this reduces to plain majorization.
    `tensor` keeps the pairing, so
    `thermo_majorizes(tensor(x, c), tensor(y, c), tensor(g, g_cat))` is
    `verify_catalyst(x, y, c, "thermo", g, g_cat)`.
    """
    if not (p.dim == q.dim == g.dim):
        raise DimMismatch(f"dims {p.dim}, {q.dim}, {g.dim} must agree")
    return verify_catalyst(p, q, _ONE, THERMO, g, ctx=ctx)


def verify_catalyst(x: ProbVector, y: ProbVector, c: ProbVector,
                    mode: str = LOCC,
                    g: Optional[ProbVector] = None,
                    g_cat: Optional[ProbVector] = None,
                    ctx: Context = DEFAULT_CONTEXT) -> bool:
    """Check a proposed catalyst c for the transformation x -> y.

    LOCC mode: does y (x) c majorize x (x) c?  Thermo mode: does x (x) c
    thermo-majorize y (x) c relative to g (x) g_cat?  The catalyst Gibbs
    vector defaults to uniform (trivial catalyst Hamiltonian).  Composite
    entries stay index-aligned with their Gibbs weights (`_dominates`); all
    compare in integers, float inputs with the slack of `_keep`.
    """
    x, y = pad_pair(x, y)
    g, g_cat = _gibbs_pair(mode, x.dim, g, g_cat, c.dim)
    catalyst = _ranked(common_denominator(c.entries)[1], _weights(g_cat, c.dim))
    return _dominates(*_sides(x, y, mode, g), _keep((x, y, c, g, g_cat), ctx), catalyst)


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
        return ProbVector(tuple(Fraction(k, m) if ctx.exact else mpf(k) / m for k in ks))


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

    Past the input checks, the trivial catalyst and the grid budget, the
    p -> +-inf limits (Jonathan & Plenio, PRL 83, 3566 (1999)) end a search
    that no catalyst can win before its first candidate.  Write
    (p, q) for the `_sides`, p the side that must dominate, and slopes for
    mass / weight, which the keys order.

    * Top: a catalyst fails if p's largest key shifted by keep[1] is below
      q's largest key times keep[0].  Proof.  p (x) c has the top slope
      s_p s_c (s_c > 0, the catalyst's largest slope), and its curve is
      concave through 0, so it lies at or below s_p s_c a at every abscissa
      a.  q (x) c's first breakpoint is (w, s_q s_c w), w the weight of its
      top entry.  There p's curve is at most s_p s_c w, and `_dominates`
      needs 2^keep[1] times that to reach keep[0] s_q s_c w: s_c w cancels,
      leaving 2^keep[1] s_p >= keep[0] s_q, the comparison above in keys
      (the two sides share their weights, so one scale L for their keys).
    * Bottom: with exact inputs (keep (1, 0)) and equal integer totals, a
      catalyst fails if p's least key exceeds q's.  Proof.  Zero catalyst
      entries add the same zero-mass stretch to the end of both curves,
      which then share the endpoint (W, M): drop them, as in
      `trumping.majorization_exit`, so s_c > 0 is the catalyst's least
      slope.  Both curves end at (W, M) with last slopes t_p s_c and t_q s_c
      (t the least slopes, zeros included).  Just left of W, p's curve lies
      at or above q's only if t_p s_c <= t_q s_c, i.e. t_p <= t_q.
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
    if verify_catalyst(x, y, _ONE, mode, g, None, ctx):
        return _grid_vector((1,), 1, ctx)
    if dim == 1:
        return None

    if dim > POINT_BUDGET:
        raise GridTooLarge(dim, POINT_BUDGET, "entries per point")
    parts = min(dim, m)    # a point of the 1/m grid has at most m nonzero entries
    points = _count_sorted_points(m, parts, POINT_BUDGET)
    if points > POINT_BUDGET:
        raise GridTooLarge(points, POINT_BUDGET)

    weights = _weights(g_cat, dim)
    p, q = _sides(x, y, mode, g)
    keep = _keep((x, y, g, g_cat), ctx)
    num, shift = keep
    if (max(p)[0] << shift < max(q)[0] * num    # the limits above: no candidate can pass
            or keep == (1, 0) and sum(map(itemgetter(1), p)) == sum(map(itemgetter(1), q))
            and min(p)[0] > min(q)[0]):
        return None
    pad = (0,) * (dim - parts)
    for ks in _descending_compositions(m, parts, m):
        if _dominates(p, q, keep, _ranked(ks + pad, weights)):
            return _grid_vector(ks + pad, m, ctx)
    return None


@dataclass(frozen=True)
class GridSpec(Sequence):
    """p-grid [p_min, p_max] in steps of `step`, always excluding {0, 1}, of
    at most `POINT_BUDGET` points: a larger spec is refused as it is built.
    The checkers also need a point below 0 and one above 1 (`both_branches`);
    `divergence_scan` and plotting scans take any range.

    A spec is also the ascending sequence of its points: `len`, iteration,
    `grid[i]` and `grid.index(p)` give the Fractions without building the
    others, and specs with the same points are equal.  `str` is the spec as
    given, in the `--grid` syntax, which `parse` reads back.
    """

    p_min: Fraction = Fraction(-20)
    p_max: Fraction = Fraction(20)
    step: Fraction = Fraction(1, 20)

    def __post_init__(self):
        if not (self.p_min <= self.p_max and self.step > 0):
            raise InputError("grid needs p_min <= p_max and step > 0")
        if self.size > POINT_BUDGET:
            raise GridTooLarge(self.size, POINT_BUDGET)

    @cached_property
    def _steps(self) -> Tuple[int, range]:
        """`_grid_steps`, worked out once per spec."""
        return _grid_steps(self)

    @property
    def straddles_both_branches(self) -> bool:
        d, steps = self._steps
        return steps[0] < 0 and steps[-1] > d

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
        d, steps = self._steps
        # len(steps) overflows past 2^63 points
        count = (steps.stop - steps.start - 1) // steps.step + 1
        return count - (0 in steps) - (d in steps)

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

    def __eq__(self, other) -> bool:
        return isinstance(other, GridSpec) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    @cached_property
    def _key(self) -> tuple:
        """(count, points) up to three points, else (count, first, last,
        step), without the table: past three points a 0 or 1 between the ends
        widens at most two of the gaps, so the points fix the step."""
        d, steps = self._steps
        ends = sorted({Fraction(m, d) for m in (*steps[:3], *steps[-3:]) if m not in (0, d)})
        if self.size > 3:
            ends = ends[0], ends[-1], Fraction(steps.step, d)
        return (self.size, *ends)

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
        except (InputError, ValueError) as exc:
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
    d, steps = spec._steps
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
    with p = None.  `verdict` and `refuted_at` follow from the rows: refuted
    at the first row's p=..., or at the first word of its `which`.  Compact
    evidence lists only the first failing grid point and the dedicated rows,
    and counts every failure in `failure_count`; `tightest_log2` is the
    signed margin, in bits, of the grid point closest to flipping, positive
    where the needed inequality holds.
    """

    grid: GridSpec
    failures: Tuple[OracleFailure, ...]
    verdict: str = field(init=False)
    refuted_at: Optional[str] = field(init=False)
    failure_count: Optional[int] = summary_field()
    tightest_log2: Optional[float] = summary_field()

    def __post_init__(self):
        first = self.failures[0] if self.failures else None
        at = first and (f"p={first.p}" if first.p is not None else first.which.split(" ")[0])
        object.__setattr__(self, "verdict", CONSISTENT if first is None else REFUTED)
        object.__setattr__(self, "refuted_at", at)

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


def _float_points(d: int, ms, sides, coeffs, idx) -> dict:
    """(gap, band, scale, log S_p(b)) at the grid indices `idx`: the needed
    gap (b - a at p > 1 and p < 0, a - b between) of the two sides'
    `log_power_sums` a and b, the band 2 (c0 + cp |p| + cq |1 - p|) of their
    summed `err_coefficients` `coeffs`, the margin's divisor |1 - p| ln 2
    (the gap over it is lhs - rhs in bits), and b itself.  These are the
    whole-grid pass's floats on any subset of the grid."""
    if not idx:
        return {}
    ps = [ms[i] / d for i in idx]
    qs = [(d - ms[i]) / d for i in idx]
    a, b = (log_power_sums(logs, logs_g, ps, qs) for logs, logs_g in sides)
    c0, cp, cq = coeffs
    out = {}
    for i, p, q, x, y in zip(idx, ps, qs, a, b):
        gap = x - y if 0 < ms[i] < d else y - x
        out[i] = (gap, 2 * (c0 + cp * abs(p) + cq * abs(q)), abs(q) * _LN2, y)
    return out


def _bracket(d: int, ms, sides, coeffs, full: bool):
    """(floats, owner): the `_float_points` of the grid points the float
    pass evaluates, by index, and the `_Run` certifying each other point
    (None where a point is evaluated or keeps a zero-entry convention).

    Each orientation region that float may settle (p < 0 only when both
    vectors have full weight) is evaluated at its two ends and at every
    BRACKET-th point.  The points between two evaluated ones split at the
    middle, and each half is certified from its nearer evaluated point by
    the four lines of `floatpass` (slopes from `slope_range`, the band from
    `coeffs`) at its two end points.  Where a half stays open the
    middle point is evaluated and both new stretches are tried again; a
    stretch of at most three points left open is evaluated whole."""
    size = len(ms)
    neg, mid = bisect_left(ms, 0), bisect_left(ms, d)
    regions = [(lo, hi) for lo, hi in ((0 if full else neg, neg), (neg, mid), (mid, size))
               if lo < hi]
    ends = [sorted({*range(lo, hi, BRACKET), hi - 1}) for lo, hi in regions]
    floats = _float_points(d, ms, sides, coeffs, [i for anchors in ends for i in anchors])
    (lo_a, hi_a), (lo_b, hi_b) = (slope_range(*side) for side in sides)
    c0, cp, cq = coeffs
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
                _LN2 * sq, -_LN2 * sq / d)
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
        floats.update(_float_points(d, ms, sides, coeffs, [h for _, h, _, _ in split]))
        stretches = [(a, b, line) for left, half, right, line in split
                     for a, b in ((left, half), (half, right)) if b - a > 1]
    floats.update(_float_points(d, ms, sides, coeffs, rest))
    return floats, owner


def _certify(anchor, m0: int, m1: int, m2: int, line) -> Optional[Tuple[bool, float]]:
    """(holds, bound) of a `_Run` of the grid points with numerators m1..m2
    (over d) from the evaluated point m0 / d with `_float_points` `anchor`,
    or None when the lines leave them open.  `line` (from `_bracket`) holds
    d, the slopes of the needed gap, the larger of their sizes, the
    a-priori band and the margin's divisor as lines in the numerator."""
    gap, band, *_ = anchor
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


def scan(grid: GridSpec, pair, measure, label: str, dedicated, ctx: Context) -> ScanReport:
    """The report of a p-grid, walked in order over its `table`, and of the
    `dedicated` comparisons.

    At each point `measure(p)` gives a Renyi measure of two vectors, (lhs,
    rhs) in bits: the point holds when lhs > rhs, its margin is lhs - rhs,
    and a failure is the row (p, lhs, rhs, `label`).  Each measure is
    monotone in one power sum sum_i a_i^p g_i^(1-p): the first vector's must
    be the smaller where p > 1 or p < 0, the larger between.  `pair` gives
    the two vectors in that order as their items, (a_i,) for unit weights
    or (a_i, g_i), and `_float_side` reads each into float; when both read,
    `_bracket` runs `log_power_sums` on a sixth or so of the grid and
    certifies the rest in runs.  One map {grid index: margin} takes the
    evaluated points whose gap clears the band (margin: the difference of
    the log sums over |1 - p| ln 2) and those `_cancelled` settles.  A
    positive margin there is taken at once, a negative one (a proven
    failure) once the first failure row exists under compact evidence;
    every other point goes to `measure`, whose value replaces or removes
    its entry, so only failure rows build their Fraction p.  At p < 0 a
    zero entry makes its power sum infinite, so the point holds whenever
    the second vector has one (two infinite sums refute nothing); with a
    zero in the first alone it goes to `measure`.  Under compact evidence a
    failure after the first one that float, a certificate or the convention
    proves is only counted.

    A certified holding run adds nothing, and a failing one is evaluated
    point by point until the first failure is recorded (every point under
    full evidence).  Under compact evidence the runs whose margin bound does
    not exceed the least margin found are then evaluated as above, so
    `tightest_log2` comes from the floats (or mpmath values) the whole-grid
    walk would give it.

    When both vectors have full weight, the items they share cancel: S_p(a)
    - S_p(b) = R_p(a) - R_p(b), with R_p the power sums over the items
    `residual_sides` leaves, which are read at most once, at the first
    point float leaves open.  The open points are tried on them first, all
    of a batch's at once (`_cancelled`), before they reach `measure`.

    `dedicated(sides)`, given the two float sides (None when float cannot
    read them), gives triples (which, lhs, rhs); each needs lhs > rhs and
    fails as the row (None, lhs, rhs, which) after the grid's.
    """
    d, ms = grid.table
    compact = not ctx.full_evidence
    pair = [list(items) for items in pair]
    full = all(item[0] != 0 for items in pair for item in items)
    holds_below_zero = any(item[0] == 0 for item in pair[1])
    sides = [_float_side(items) for items in pair]
    sides = None if None in sides else sides
    residual = cache(lambda: residual_sides(*pair)) if sides and full else None
    margins = {}    # grid index -> margin, of the points that have one

    def settle(floats):    # the points of `floats` that float or the residual settles
        margins.update((i, gap / scale) for i, (gap, band, scale, _) in floats.items()
                       if abs(gap) > band)
        if residual is not None:
            margins.update(_cancelled(d, ms, floats, sides[1], residual, ctx.precision))

    def evaluate(i):    # an OracleFailure or None, in mpmath; i's margin becomes mpmath's, if any
        p = Fraction(ms[i], d)
        lhs, rhs = measure(p)
        margins.pop(i, None)
        if compact and mpmath.isfinite(lhs) and mpmath.isfinite(rhs):
            margins[i] = float(lhs - rhs)
        return None if lhs > rhs else OracleFailure(p, lhs, rhs, label)

    coeffs, owner = None, [None] * len(ms)
    if sides is not None:    # one band for every point: both sides' a-priori bounds
        coeffs = tuple(map(add, *(err_coefficients(*side) for side in sides)))
        floats, owner = _bracket(d, ms, sides, coeffs, full)
        settle(floats)
    failures, count = [], 0
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
            m, margin = ms[i], margins.get(i)
            i += 1
            if m < 0 and holds_below_zero:
                continue
            if margin is not None and (margin > 0 or (compact and failures)):
                count += margin < 0
                continue
            if compact and failures and m < 0 and not full:
                count += 1
                continue
            failure = evaluate(i - 1)
            if failure is not None:
                count += 1
                if not (compact and failures):
                    failures.append(failure)
        if compact:
            # the runs whose bound does not exceed the least margin found (a
            # margin taken here can only lower it, so one batch holds them all)
            least = min((abs(v) for v in margins.values() if math.isfinite(v)),
                        default=math.inf)
            idx = [i for run, first in waiting if run.bound <= least
                   for i in range(first, run.last + 1)]
            settle(_float_points(d, ms, sides, coeffs, idx))
            for i in idx:
                if i not in margins:
                    evaluate(i)
    for which, lhs, rhs in dedicated(sides):
        if not lhs > rhs:
            failures.append(OracleFailure(None, lhs, rhs, which))
            count += 1
    if not compact:
        return ScanReport(grid, tuple(failures))
    # in grid order, so that ties on |margin| go to the first point
    in_order = (margins[i] for i in sorted(margins))
    return ScanReport(grid, tuple(failures), count, tightest(in_order))


def _float_side(items: Iterable[tuple]) -> Optional[tuple]:
    """One side of `log_power_sums` for a vector given as its items, (entry,)
    or (entry, Gibbs weight): the float logs of its nonzero entries and of
    their Gibbs weights (None for unit weights), or None when no entry is
    nonzero or float cannot read one (`entry_logs`)."""
    kept = [item for item in items if item[0] != 0]
    logs = [entry_logs(column) for column in zip(*kept)]
    if not logs or None in logs:
        return None
    return logs[0], logs[1] if len(logs) > 1 else None


def residual_sides(a: Iterable[tuple], b: Iterable[tuple]) -> Optional[tuple]:
    """The `_float_side`s of the items of two vectors that the other does
    not share, in their order, or None when they share none or all of them,
    or float cannot read the rest.  Items are shared as exact stored values,
    counted with multiplicity."""
    count_a, count_b = Counter(a), Counter(b)
    rest = count_a - count_b, count_b - count_a
    if not rest[0] or rest[0] == count_a:
        return None
    sides = tuple(_float_side(items.elements()) for items in rest)
    return None if None in sides else sides


def _cancelled(d: int, ms, floats: dict, side_b, residual, precision: int) -> dict:
    """{index: margin} of the points of `floats` that float leaves open
    (|gap| <= band) and the residual power sums (of `residual()`) settle,
    all evaluated in one batch of `log_power_sums` on the two residual
    sides.

    R_p(a) - R_p(b) is S_p(a) - S_p(b) exactly, so when the residual logs
    differ by more than twice their summed `err_coefficients` bounds (as
    `surely_greater`), the sign of S_p(a) - S_p(b) is known, and
    log2(S_p(a) / S_p(b)) is `floatpass.tail_ratio` of the residual logs
    against log S_p(b), which `_float_points` keeps with each point (within
    the bound of `side_b`, the second float side): the identity F_x - F_y =
    T_y - T_x with F = S and T = R, swapped.  The margin is that ratio over
    |1 - p|, negated outside 0 < p < 1 (the needed gap's sign); its
    relative bound also covers the division (2u) and `measure`.  At
    `precision` P bits mpmath takes each log S_p within 2^(8-P) (1 + log n
    + |p| M + |q| M_g), which rounding each entry, power, sum and log within
    an ulp or two gives with room to spare (M, M_g and n as in
    `err_coefficients`, whose float terms exceed that sum times u per side),
    so its error in log S_p(a) - log S_p(b) is below 2^(60-P) of the band.
    A point is settled only when it holds and its margin `prints_alike`:
    then `measure` would find it holding, with a margin that prints the
    same digits.
    """
    idx = [i for i, (gap, band, *_) in floats.items() if -band <= gap <= band]
    residual = residual() if idx else None
    if residual is None:
        return {}
    ps = [ms[i] / d for i in idx]
    qs = [(d - ms[i]) / d for i in idx]
    res_a, res_b = (log_power_sums(*side, ps, qs) for side in residual)
    r0, rp, rq = map(add, *(err_coefficients(*side) for side in residual))
    b0, bp, bq = err_coefficients(*side_b)
    out = {}
    for i, p, q, ra, rb in zip(idx, ps, qs, res_a, res_b):
        err = r0 + rp * abs(p) + rq * abs(q)
        if not abs(ra - rb) > 2 * err:
            continue
        _, band, _, fb = floats[i]
        ratio, rel_err = tail_ratio(rb, ra, err, fb, b0 + bp * abs(p) + bq * abs(q))
        margin = ratio / abs(q) if 0 < ms[i] < d else -ratio / abs(q)
        if margin > 0 and prints_alike(
                margin, rel_err + 2.0 ** (60 - precision) * band / abs(ratio * _LN2)
                + 2.0 ** -52):
            out[i] = margin
    return out


def both_branches(grid: Optional[GridSpec]) -> GridSpec:
    """The grid (the default for None), or InputError unless it has a point
    below 0 and one above 1: the checkers' check on entry, whatever the pair."""
    grid = GridSpec() if grid is None else grid
    if not grid.straddles_both_branches:
        raise InputError("the grid needs a point below 0 and one above 1")
    return grid


def oracle_scan(x: ProbVector, y: ProbVector,
                grid: Optional[GridSpec] = None,
                ctx: Context = DEFAULT_CONTEXT,
                h1: Optional[Tuple[Scalar, Scalar]] = None) -> ScanReport:
    """Sample the strict entropy conditions on a dense p-grid.

    Checks H_p(x) > H_p(y) at sampled p (`renyi_entropy`, in bits; the norm
    condition ||x||_p < ||y||_p at p > 1, > at p < 1, as both are monotone in
    sum x_i^p), H1(x) > H1(y), and Burg(x) > Burg(y); `scan` walks the grid,
    and a compact report's margin is H_p(x) - H_p(y) in bits.  `h1` is
    (H1(x), H1(y)) when the caller has them already.  Burg is decided from
    the float logs (`floatpass.log_sum`) and reaches mpmath only when they do
    not confirm it: its row is printed only when it fails.  When both have
    full weight, the entries they share cancel before a point reaches
    mpmath (`residual_sides`).
    """
    grid = both_branches(grid)
    x, y = pad_pair(x, y)
    pair = []    # x and y converted once, at the first point mpmath evaluates

    def measure(p):
        pair[:] = pair or (converted(x, ctx), converted(y, ctx))
        return tuple(renyi_entropy(v, p, ctx) for v in pair)

    if h1 is None:
        h1 = shannon_entropy(x, ctx), shannon_entropy(y, ctx)

    def dedicated(sides):
        rows = [("H1 (need >)", *h1)]
        if not (sides and x.full_weight and y.full_weight
                and surely_greater(log_sum(sides[0][0]), log_sum(sides[1][0]))):
            rows.append(("Burg (need >)", burg_entropy(x, ctx), burg_entropy(y, ctx)))
        return rows

    # H_p falls with the power sum at p > 1 and p < 0, rises at 0 < p < 1.
    return scan(grid, (zip(x.entries), zip(y.entries)), measure, "renyi (need >)", dedicated, ctx)
