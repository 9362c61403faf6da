"""Ground-truth relations: Nielsen ordering, Lorenz dominance, catalyst
verification and search, and the dense p-grid oracle."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mpf

from catamaj import (
    Context,
    DimMismatch,
    GibbsZeroEntry,
    InputError,
    GridTooLarge,
    GridSpec,
    check_trumping,
    gibbs_vector,
    majorizes,
    make_prob_vector,
    oracle_scan,
    pad_pair,
    search_catalyst,
    tensor,
    thermo_majorizes,
    uniform,
    verify_catalyst,
)
import catamaj.majorization as majorization
from catamaj.context import POINT_BUDGET, workprec
from catamaj.majorization import OracleFailure, ScanReport
from catamaj.vectors import common_backend
from catamaj.majorization import _count_sorted_points, _descending_compositions
from conftest import mixed_toward_uniform, random_prob_vector


# ----------------------------------------------------------------------
# Reference verification: the Fraction/mpf Lorenz interpolation and the
# tensor + prefix-sum comparison that the integer kernel replaced, kept
# here as an independent oracle for it.
# ----------------------------------------------------------------------

# the reference's slack on float inputs: the draws below have small integer
# weights, so every crossing of their exact values lies far above it
REFERENCE_TOL = 1e-12


def _lorenz_points(pairs, exact):
    """Breakpoints of the Lorenz curve of aligned (mass, gibbs-mass) pairs.

    Pairs are ranked by mass/gibbs-mass descending; the curve runs through
    the cumulative (gibbs-mass, mass) points from (0,0) onward and is concave.
    """
    order = sorted(range(len(pairs)), key=lambda i: pairs[i][0] / pairs[i][1],
                   reverse=True)
    zero = Fraction(0) if exact else mpf(0)
    points = [(zero, zero)]
    cum_g, cum_v = zero, zero
    for i in order:
        cum_g = cum_g + pairs[i][1]
        cum_v = cum_v + pairs[i][0]
        points.append((cum_g, cum_v))
    return points


def _curve_value(points, a):
    """Piecewise-linear interpolation of a Lorenz curve at abscissa a."""
    g_last, v_last = points[-1]
    if a >= g_last:
        return v_last
    for (g0, v0), (g1, v1) in zip(points, points[1:]):
        if a <= g1:
            if g1 == g0:
                return v1
            return v0 + (a - g0) * (v1 - v0) / (g1 - g0)
    return v_last


def _lorenz_dominates(pairs_p, pairs_q, exact, ctx):
    """Dominance of two piecewise-linear Lorenz curves, decided at the union
    of their breakpoints (exact for rational inputs)."""
    with workprec(ctx):
        curve_p = _lorenz_points(pairs_p, exact)
        curve_q = _lorenz_points(pairs_q, exact)
        abscissae = sorted({pt[0] for pt in curve_p} | {pt[0] for pt in curve_q})
        slack = 0 if exact else REFERENCE_TOL
        for a in abscissae:
            if _curve_value(curve_p, a) < _curve_value(curve_q, a) - slack:
                return False
    return True


def _prefix_majorizes(y, x, ctx):
    """Nielsen's comparison: the prefix sums of y, sorted descending, bound
    those of x (with `REFERENCE_TOL` as slack on the float backend)."""
    x, y = common_backend(pad_pair(x, y), ctx)
    slack = 0 if (x.exact and y.exact) else REFERENCE_TOL
    sum_x = 0
    sum_y = 0
    for xi, yi in zip(sorted(x.entries, reverse=True), sorted(y.entries, reverse=True)):
        sum_x += xi
        sum_y += yi
        if sum_x > sum_y + slack:
            return False
    return True


def reference_thermo_majorizes(p, q, g, ctx=Context()):
    p, q, g = common_backend((p, q, g), ctx)
    exact = p.exact and q.exact and g.exact
    return _lorenz_dominates(list(zip(p.entries, g.entries)), list(zip(q.entries, g.entries)),
                             exact, ctx)


def reference_verify_catalyst(x, y, c, mode="locc", g=None, g_cat=None, ctx=Context()):
    x, y = pad_pair(x, y)
    if mode == "locc":
        return _prefix_majorizes(tensor(y, c, ctx), tensor(x, c, ctx), ctx)
    if g_cat is None:
        g_cat = uniform(c.dim)
    x, y, c, g, g_cat = common_backend((x, y, c, g, g_cat), ctx)
    exact = all(v.exact for v in (x, y, c, g, g_cat))
    pairs_x = [(xi * cj, gi * hj) for xi, gi in zip(x.entries, g.entries)
               for cj, hj in zip(c.entries, g_cat.entries)]
    pairs_y = [(yi * cj, gi * hj) for yi, gi in zip(y.entries, g.entries)
               for cj, hj in zip(c.entries, g_cat.entries)]
    return _lorenz_dominates(pairs_x, pairs_y, exact, ctx)


class TestMajorizes:
    def test_reflexive(self):
        rng = random.Random(2)
        for _ in range(10):
            v = random_prob_vector(rng, 4)
            assert majorizes(v, v)

    def test_top_element(self):
        top = make_prob_vector(["1", "0"])
        for v in (make_prob_vector([0.5, 0.5]), make_prob_vector(["0.9", "0.1"])):
            assert majorizes(top, v)

    def test_uniform_is_minimal(self):
        rng = random.Random(4)
        u = uniform(5)
        for _ in range(10):
            assert majorizes(random_prob_vector(rng, 5), u)

    def test_worked_example_incomparable(self, locc_pair):
        x, y = locc_pair
        assert not majorizes(y, x)
        assert not majorizes(x, y)

    def test_transitive_on_mixes(self):
        rng = random.Random(6)
        for _ in range(10):
            z = random_prob_vector(rng, 4)
            y = mixed_toward_uniform(rng, z)
            x = mixed_toward_uniform(rng, y)
            assert majorizes(z, y) and majorizes(y, x) and majorizes(z, x)

    def test_padding_mismatched_dims(self):
        assert majorizes(make_prob_vector(["1"]), make_prob_vector([0.5, 0.5]))


class TestThermoMajorizes:
    def test_uniform_gibbs_reduces_to_majorization(self):
        rng = random.Random(8)
        u = uniform(4)
        for _ in range(25):
            p = random_prob_vector(rng, 4)
            q = random_prob_vector(rng, 4)
            assert thermo_majorizes(p, q, u) == majorizes(p, q)

    def test_gibbs_state_is_minimal(self):
        rng = random.Random(10)
        spec = gibbs_vector([0, 1, 2], "0.7")
        for _ in range(10):
            p = random_prob_vector(rng, 3)
            assert thermo_majorizes(p, spec.g, spec.g)

    def test_gibbs_self_dominance(self):
        spec = gibbs_vector([0, 1, 2, 3], "1.2")
        assert thermo_majorizes(spec.g, spec.g, spec.g)

    def test_worked_example_not_convertible(self, thermo_pair):
        q_rho, q_sigma = thermo_pair
        spec = gibbs_vector([0, 1, 2, 3], "1.2")
        assert not thermo_majorizes(q_rho, q_sigma, spec.g)

    def test_zero_gibbs_entry_rejected(self):
        g = make_prob_vector(["0.5", "0.5", "0"])
        v = uniform(3)
        with pytest.raises(GibbsZeroEntry):
            thermo_majorizes(v, v, g)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimMismatch):
            thermo_majorizes(uniform(3), uniform(3), uniform(4))

    def test_exact_rational_gibbs_path(self):
        g = make_prob_vector(["0.5", "0.25", "0.25"])
        p = make_prob_vector(["0.7", "0.2", "0.1"])
        assert thermo_majorizes(p, g, g)
        assert not thermo_majorizes(g, p, g)


class TestVerifyCatalyst:
    def test_worked_example_locc(self, locc_pair, locc_catalyst):
        x, y = locc_pair
        assert verify_catalyst(x, y, locc_catalyst)

    def test_trivial_catalyst_changes_nothing(self, locc_pair):
        x, y = locc_pair
        one = make_prob_vector(["1"])
        assert not verify_catalyst(x, y, one)

    def test_thermo_mode_needs_gibbs(self, locc_pair, locc_catalyst):
        x, y = locc_pair
        with pytest.raises(Exception):
            verify_catalyst(x, y, locc_catalyst, "thermo")

    def test_thermo_mode_uniform_gibbs_matches_locc(self, locc_pair, locc_catalyst):
        x, y = locc_pair
        # with uniform system and catalyst Gibbs vectors, thermal dominance of
        # x over y equals plain majorization of the composites
        direct = majorizes(tensor(x, locc_catalyst), tensor(y, locc_catalyst))
        thermo = verify_catalyst(x, y, locc_catalyst, "thermo", g=uniform(4))
        assert thermo == direct


class TestSearchCatalyst:
    def test_already_majorized_returns_trivial(self):
        y = make_prob_vector(["0.7", "0.3"])
        x = make_prob_vector([0.5, 0.5])
        found = search_catalyst(x, y, 3, Fraction(1, 10))
        assert found is not None and found.entries == (Fraction(1),)

    def test_equal_vectors_return_trivial(self):
        x = make_prob_vector(["0.4", "0.3", "0.3"])
        found = search_catalyst(x, x, 2, Fraction(1, 10))
        assert found.entries == (Fraction(1),)

    def test_counterexample_pair_two_dim_catalyst(self, counterexample_pair):
        x, y = counterexample_pair
        found = search_catalyst(x, y, 2, Fraction(1, 1000))
        assert found is not None
        assert verify_catalyst(x, y, found)
        # lexicographically greatest passing grid point: nothing above passes
        step = Fraction(1, 1000)
        for bump in (1, 2, 3):
            higher = found.entries[0] + bump * step
            if higher <= 1:
                c = make_prob_vector([higher, 1 - higher])
                assert not verify_catalyst(x, y, c)

    def test_budget_guard(self):
        # trivial catalyst must fail first, then the budget is enforced: the
        # sorted 1/2000 grid in four entries has 55973223 points, counted
        # without walking them
        x = make_prob_vector(["0.5", "0.4", "0.1"])
        y = make_prob_vector(["0.4", "0.3", "0.3"])
        assert _count_sorted_points(2000, 4, POINT_BUDGET) > POINT_BUDGET
        with pytest.raises(GridTooLarge):
            search_catalyst(x, y, 4, Fraction(1, 2000))

    def test_none_when_grid_has_no_catalyst(self, thermo_pair):
        q_rho, q_sigma = thermo_pair
        spec = gibbs_vector([0, 1, 2, 3], "1.2")
        found = search_catalyst(q_rho, q_sigma, 2, Fraction(1, 10), "thermo", g=spec.g)
        assert found is None


class TestSearchBounds:
    """The search counts and walks at most min(dim, m) nonzero entries on
    the 1/m grid and pads with zeros: the same points in the same order."""

    @staticmethod
    def sorted_points(m, dim):
        """Every descending point of the 1/m grid in `dim` entries (as
        numerators), lexicographically descending, by brute force."""
        return sorted((ks for ks in itertools.combinations_with_replacement(range(m, -1, -1), dim)
                       if sum(ks) == m), reverse=True)

    @pytest.mark.parametrize("m, dim", [(2, 2), (4, 3), (3, 5), (5, 5), (4, 7), (8, 4), (7, 9)])
    def test_count_and_order(self, m, dim):
        points = self.sorted_points(m, dim)
        parts = min(dim, m)
        assert _count_sorted_points(m, parts, 10**7) == len(points)
        walked = [ks + (0,) * (dim - parts) for ks in _descending_compositions(m, parts, m)]
        assert walked == points

    def test_count_over_the_budget_is_a_lower_bound(self):
        # the count stops once it passes the budget: above it, never beyond the true count
        assert 10**4 < _count_sorted_points(60, 15, 10**4) <= _count_sorted_points(60, 15, 10**7)

    @pytest.mark.parametrize("m, dim, mode, g_cat, found", [
        pytest.param(6, 8, "locc", None, False, id="6-8"),
        pytest.param(7, 9, "locc", None, True, id="7-9"),
        pytest.param(8, 5, "locc", None, True, id="8-5"),
        pytest.param(10, 12, "locc", None, True, id="10-12"),
        # thermo mode, the LOCC pair reversed against a non-uniform g; a
        # skewed g_cat pairs its entries with the catalyst's index-wise
        pytest.param(7, 9, "thermo", None, True, id="thermo-7-9"),
        pytest.param(7, 9, "thermo", "skewed", False, id="thermo-7-9-skewed"),
        pytest.param(8, 5, "thermo", "skewed", True, id="thermo-8-5-skewed"),
        pytest.param(10, 12, "thermo", None, False, id="thermo-10-12"),
        pytest.param(10, 12, "thermo", "skewed", True, id="thermo-10-12-skewed"),
    ])
    def test_found_catalyst_matches_brute_force(self, locc_pair, m, dim, mode, g_cat, found):
        x, y = locc_pair
        g = None
        if mode == "thermo":
            x, y = y, x
            g = make_prob_vector(["0.3", "0.25", "0.25", "0.2"])
            if g_cat == "skewed":
                g_cat = make_prob_vector([Fraction(dim - j, dim * (dim + 1) // 2)
                                          for j in range(dim)])
        expected = None
        for ks in self.sorted_points(m, dim):
            c = make_prob_vector([Fraction(k, m) for k in ks])
            if reference_verify_catalyst(x, y, c, mode, g, g_cat):
                expected = c.entries
                break
        catalyst = search_catalyst(x, y, dim, Fraction(1, m), mode, g, g_cat)
        assert (catalyst and catalyst.entries) == expected
        assert (expected is not None) == found


class TestOracleScan:
    def test_equal_vectors_refuted_at_first_point(self):
        v = make_prob_vector(["0.5", "0.3", "0.2"])
        report = oracle_scan(v, v)
        assert report.verdict == "refuted"
        assert report.refuted_at == f"p={report.grid[0]}"
        dedicated = [f.which for f in report.failures if f.p is None]
        assert dedicated == ["H1 (need >)", "Burg (need >)"]

    def test_verdict_and_refuted_at_follow_from_the_rows(self):
        grid = GridSpec.parse("-2:2:1")
        kl = OracleFailure(None, mpf(0), mpf(1), "KL (need >)")
        assert (ScanReport(grid, ()).verdict, ScanReport(grid, ()).refuted_at) == (
            "consistent", None)
        assert ScanReport(grid, (kl,), 1, 0.5).refuted_at == "KL"
        report = ScanReport(grid, (OracleFailure(Fraction(-2), mpf(0), mpf(1), "x"), kl))
        assert (report.verdict, report.refuted_at) == ("refuted", "p=-2")

    def test_worked_example_consistent(self, locc_pair):
        x, y = locc_pair
        report = oracle_scan(x, y)
        assert report.verdict == "consistent"
        assert not report.failures

    def test_a_tiny_entry_is_no_zero_on_either_backend(self):
        # 1e-16 is an entry like any other: x has full weight, so every p < 0
        # point holds against y's zero on both backends
        reports = []
        for ctx in (Context(), Context(backend="float")):
            x = make_prob_vector(["0.5", "0.4999999999999999", "0.0000000000000001"], ctx)
            y = make_prob_vector(["0.6", "0.4", "0"], ctx)
            assert x.full_weight and not y.full_weight
            reports.append(oracle_scan(x, y, ctx=ctx))
            assert check_trumping(x, y, ctx).status == "trumping_sufficient"
        exact, floating = reports
        assert exact.consistent and exact.failure_count == 0
        assert (floating.verdict, floating.failure_count, floating.tightest_log2) == (
            exact.verdict, exact.failure_count, exact.tightest_log2)

    def test_default_grid_excludes_zero_and_one(self):
        grid = GridSpec()
        pts = grid.points()
        assert Fraction(0) not in pts and Fraction(1) not in pts
        assert len(pts) == 801 - 2

    def test_grid_parse(self):
        grid = GridSpec.parse("-5:5:0.1")
        assert len(grid.points()) == 99

    def test_grid_is_the_sequence_of_its_points(self, locc_pair):
        # a report's grid is its spec; perfbench's tracer reads
        # len(report.grid) and report.grid.index(p)
        grid = GridSpec()
        points = grid.points()
        assert len(grid) == 799 and list(grid) == points == sorted(points)
        assert [grid.index(p) for p in points] == list(range(799))
        assert (grid[0], grid[399], grid[400], grid[-1]) == (-20, Fraction(-1, 20),
                                                             Fraction(1, 20), 20)
        for p in (0, 1, Fraction(1, 40), 21, -21):
            with pytest.raises(ValueError):
                grid.index(p)
        report = oracle_scan(*locc_pair)
        assert report.grid == grid and len(report.grid) == 799
        for text in ("-20:20:1/20", "-5:5:1/10", "1/3:7/3:1/3", "1:1:1"):
            assert str(GridSpec.parse(text)) == text
            assert GridSpec.parse(str(GridSpec.parse(text))) == GridSpec.parse(text)
        assert len(GridSpec.parse("1:1:1")) == 0

    def test_specs_are_equal_exactly_when_their_points_are(self):
        # 0 and 1 are no points, so ranges that differ there can still agree
        texts = ["-20:20:1/20", "-20:20.01:1/20", "-20:41/2:1/20", "-1:2:1", "-1:2:3",
                 "-1/2:3/2:1/2", "-1/2:3/2:1", "0:1:1", "1:1:1", "0:2:1", "2:2:1",
                 "0:2:2", "-1:0:1", "-1:1:2", "-1:3:1", "-1:3:2", "-1:3:4", "1/2:1/2:1/3",
                 "1/2:1/2:1", "0:5/2:1/2", "1/2:5/2:1/2", "-2:2:1", "-2:2.5:1", "-3:3:1/2"]
        specs = [GridSpec.parse(text) for text in texts]
        for a in specs:
            for b in specs:
                assert (a == b) == (a.points() == b.points())
                if a == b:
                    assert hash(a) == hash(b)
        assert GridSpec.parse("-20:20.01:1/20") == GridSpec()
        # str still prints the spec as it was given
        assert str(GridSpec.parse("-1:2:3")) == "-1:2:3"
        # equal without building the table, also at the point budget
        at = GridSpec.parse("-5000:5000.001:1/1000")
        assert at == GridSpec.parse("-5000:5000.0019:1/1000") != GridSpec()
        # a spec past 2^63 points is refused as it is built, so none is compared
        with pytest.raises(GridTooLarge):
            GridSpec.parse("-1:2.0000000000000000000000000000001:1e-30")
        assert GridSpec() != "-20:20:1/20"

    def test_equal_specs_straddle_alike(self):
        # -1/2:6/5:1 has the points of -1/2:1/2:1, none of them above 1
        x = make_prob_vector(["0.5", "0.3", "0.2"])
        y = make_prob_vector(["0.6", "0.3", "0.1"])
        for text in ("-1/2:6/5:1", "-1/2:1/2:1", "1/2:3:1/2"):
            assert not GridSpec.parse(text).straddles_both_branches
            with pytest.raises(InputError, match="a point below 0 and one above 1"):
                oracle_scan(x, y, GridSpec.parse(text))
        assert GridSpec.parse("-1/2:3/2:1").straddles_both_branches

    def test_grid_table_built_once_per_spec(self):
        # every scan with the default or an equal parsed grid reuses one table
        assert GridSpec().table is GridSpec().table
        assert GridSpec.parse("-20:20:1/20").table is GridSpec().table
        assert GridSpec.parse("-5:5:0.1").table is not GridSpec().table
        # and once for equal specs: the same points over one denominator
        assert GridSpec.parse("-20:20.01:1/20").table is GridSpec().table

    def test_grid_steps_worked_out_once_per_spec(self, monkeypatch):
        import catamaj.majorization as majorization

        calls = []
        steps = majorization._grid_steps
        monkeypatch.setattr(majorization, "_grid_steps",
                            lambda spec: calls.append(spec) or steps(spec))
        grid = GridSpec.parse("-7:9:1/3")
        for _ in range(2):
            assert majorization.both_branches(grid) is grid
        hash(grid)
        assert len(calls) == 1

    @pytest.mark.parametrize("text", ["-20:20:1/20", "-5:5:0.1", "2:3:1", "1/3:7/3:1/3",
                                      "0:1:1", "-1:2:3/7", "5:5:1", "1:1:1"])
    def test_grid_size_counts_the_points(self, text):
        grid = GridSpec.parse(text)
        assert grid.size == len(grid.points())

    def test_oversized_grid_is_refused_before_it_is_built(self):
        from catamaj.majorization import _grid_table

        x = make_prob_vector(["0.5", "0.3", "0.2"])
        y = make_prob_vector(["0.6", "0.3", "0.1"])
        grid = GridSpec.parse("-7:7:1/13")     # 181 points, in no other test
        assert grid.size == 181
        # POINT_BUDGET points pass and one more is refused as the spec is
        # built, so no scan can be handed it; no table is built
        misses = _grid_table.cache_info().misses
        assert GridSpec.parse("-5000:5000.001:1/1000").size == POINT_BUDGET
        for text, size in (("-5000:5000.002:1/1000", POINT_BUDGET + 1),
                           ("-1e3:1e3:1/100000", 2 * 10**8 - 1),
                           ("-1:2:1e-30", 3 * 10**30 - 1)):
            with pytest.raises(GridTooLarge) as refused:
                GridSpec.parse(text)
            assert (refused.value.points, refused.value.budget) == (size, POINT_BUDGET)
        with pytest.raises(GridTooLarge):
            GridSpec(Fraction(-5000), Fraction(5001), Fraction(1, 1000))
        assert _grid_table.cache_info().misses == misses
        # within the budget the scan runs
        report = oracle_scan(x, y, grid)
        assert tuple(report.grid) == tuple(grid.points())

    def test_counterexample_pair_oracle_outcome(self, counterexample_pair):
        # recorded outcome: with the printed (under-normalized) source vector,
        # the strict conditions fail just below order 1, where the missing
        # 2.63e-4 of total mass dominates the norm comparison
        x, y = counterexample_pair
        report = oracle_scan(x, y)
        assert report.verdict == "refuted"
        assert report.refuted_at == "p=19/20"
        assert all(f.p is None or f.p < 1 for f in report.failures)

    def test_catalysis_never_violates_nonstrict_conditions(self, locc_pair, locc_catalyst):
        # catalysis implies the necessary family non-strictly, so any strict
        # failure recorded by the oracle must be an exact tie
        x, y = locc_pair
        assert verify_catalyst(x, y, locc_catalyst)
        report = oracle_scan(x, y)
        for failure in report.failures:
            # every row, grid or dedicated, needs lhs > rhs
            assert failure.which.endswith("(need >)")
            assert not failure.lhs < failure.rhs


# ----------------------------------------------------------------------
# The integer kernel against the reference
# ----------------------------------------------------------------------

def _vector(counts, ctx):
    """The distribution proportional to nonnegative integer counts."""
    return make_prob_vector([Fraction(k, sum(counts)) for k in counts], ctx)


@st.composite
def catalyst_problems(draw):
    """(x, y, c, g, g_cat, ctx) with small integer weights, so ratios tie
    often: zero entries, x and y of unequal dimension (padded), catalysts
    with trailing zeros, g irrational (mpf, from energies) or rational, and
    g_cat absent or rational, on either backend."""
    ctx = Context(backend=draw(st.sampled_from(["exact", "float"])))
    counts = st.lists(st.integers(0, 6), min_size=1, max_size=4).filter(any)
    xs = draw(counts)
    relation = draw(st.sampled_from(["free", "equal", "flatter"]))
    if relation == "free":
        ys = draw(counts)
    elif relation == "equal":
        ys = list(xs)
    else:    # y is x mixed halfway toward uniform
        ys = [len(xs) * k + sum(xs) for k in xs]
    cs = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3).filter(any))
    cs = cs + [0] * draw(st.integers(0, 2))
    n = max(len(xs), len(ys))
    if draw(st.booleans()):
        g = gibbs_vector(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), "0.7", ctx).g
    else:
        g = _vector(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), ctx)
    g_cat = draw(st.none() | st.lists(st.integers(1, 4), min_size=len(cs), max_size=len(cs)))
    g_cat = None if g_cat is None else _vector(g_cat, ctx)
    return _vector(xs, ctx), _vector(ys, ctx), _vector(cs, ctx), g, g_cat, ctx


class TestKernelAgainstReference:
    """`verify_catalyst` and `thermo_majorizes` run one integer (or mpf)
    kernel; the Fraction/mpf interpolation above must give the same answer."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(problem=catalyst_problems())
    def test_verification_matches_the_reference(self, problem):
        x, y, c, g, g_cat, ctx = problem
        assert majorizes(y, x, ctx) == _prefix_majorizes(y, x, ctx)
        assert verify_catalyst(x, y, c, ctx=ctx) == reference_verify_catalyst(x, y, c, ctx=ctx)
        assert (verify_catalyst(x, y, c, "thermo", g, g_cat, ctx)
                == reference_verify_catalyst(x, y, c, "thermo", g, g_cat, ctx))
        a, b = pad_pair(x, y)
        assert thermo_majorizes(a, b, g, ctx) == reference_thermo_majorizes(a, b, g, ctx)
        assert thermo_majorizes(b, a, g, ctx) == reference_thermo_majorizes(b, a, g, ctx)

    def test_worked_examples_match_the_reference(self, locc_pair, locc_catalyst, thermo_pair,
                                                 counterexample_pair):
        spec = gibbs_vector([0, 1, 2, 3], "1.2")
        for (x, y), c, mode, g in ((locc_pair, locc_catalyst, "locc", None),
                                   (thermo_pair, locc_catalyst, "thermo", spec.g),
                                   (counterexample_pair, make_prob_vector(["0.634", "0.366"]),
                                    "locc", None)):
            assert verify_catalyst(x, y, c, mode, g) == reference_verify_catalyst(x, y, c, mode, g)


def _decimals(draw, size: int, positive: bool = False) -> list:
    """A distribution on `size` entries as decimal strings on the 1/1000 grid,
    in steps of a drawn multiple of 1/1000, so that coarse steps tie often;
    zeros unless `positive`."""
    step = draw(st.sampled_from([1, 8, 40, 125, 200]))
    units = 1000 // step
    cuts = st.integers(1, units - 1) if positive else st.integers(0, units)
    cuts = sorted(draw(st.lists(cuts, min_size=size - 1, max_size=size - 1, unique=positive)))
    parts = [(b - a) * step for a, b in zip([0] + cuts, cuts + [units])]
    return [f"{k // 1000}.{k % 1000:03d}" for k in parts]


@st.composite
def decimal_problems(draw):
    """(mode, [x, y, c, g, g_cat]) of decimal strings: x and y of 1-4 entries
    (y a permutation of x a fifth of the time), a catalyst of 1-3, g of
    max(dim x, dim y) positive entries and g_cat absent or positive."""
    x = _decimals(draw, draw(st.integers(1, 4)))
    y = (draw(st.permutations(x)) if draw(st.integers(0, 4)) == 0
         else _decimals(draw, draw(st.integers(1, 4))))
    c = _decimals(draw, draw(st.integers(1, 3)))
    g = _decimals(draw, max(len(x), len(y)), positive=True)
    g_cat = _decimals(draw, len(c), positive=True) if draw(st.booleans()) else None
    return draw(st.sampled_from(["locc", "thermo"])), [x, y, c, g, g_cat]


class TestBackendsAgree:
    """Every relation reads each entry as the rational it stores: the float
    backend, with its rounding slack, answers as the exact one on decimal
    inputs, exact ties and zeros included."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(problem=decimal_problems())
    @example(problem=("locc", [["0.5", "0.5"], ["0.6", "0.4"], ["1.000"], ["0.5", "0.5"], None]))
    def test_float_answers_as_exact(self, problem):
        mode, raw = problem
        answers = []
        for ctx in (Context(), Context(backend="float")):
            x, y, c, g, g_cat = (None if v is None else make_prob_vector(v, ctx) for v in raw)
            a, b = pad_pair(x, y)
            answers.append((verify_catalyst(x, y, c, mode, g, g_cat, ctx),
                            majorizes(y, x, ctx), majorizes(x, y, ctx),
                            thermo_majorizes(a, b, g, ctx), thermo_majorizes(b, a, g, ctx)))
        assert answers[0] == answers[1]


@st.composite
def trumping_pairs(draw):
    """Exact full-weight pairs (x, y) of one dimension 2-4, mostly 4, where
    catalysis can beat majorization.  A third are free; the rest move mass
    from y by the prefix differences -d1, +d2, -d3 with d2 <= min(d1, d3)/4,
    so x is not majorized by y beyond dimension 2 yet often catalysable."""
    n = draw(st.sampled_from([2, 3, 4, 4, 4]))
    ys = sorted(draw(st.lists(st.integers(5, 40), min_size=n, max_size=n, unique=True)),
                reverse=True)
    den = 40 * sum(ys)
    y = [Fraction(40 * k, den) for k in ys]
    if draw(st.sampled_from([True, False, False])):
        xs = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))
        x = [Fraction(k, sum(xs)) for k in xs]
    else:
        far = draw(st.lists(st.integers(4, 40), min_size=2, max_size=2))
        near = draw(st.integers(1, min(far) // 4))
        prefix = [-far[0], near, -far[1]][:n - 1] + [0]
        prefix = [Fraction(d, den) for d in prefix]
        x = [y[i] + prefix[i] - (prefix[i - 1] if i else 0) for i in range(n)]
    return x, y


class TestSearchAgainstTheChecker:
    """ROADMAP item 5's differential property: for x != y of equal dimension
    with full weight and equal totals, x (x) c majorized by y (x) c implies
    the strict conditions (strict Schur-convexity carries them through the
    composite), so a pair with a found catalyst is never refuted."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(pair=trumping_pairs(), dim=st.sampled_from([2, 3]), m=st.sampled_from([50, 60, 100]))
    @example(pair=([Fraction(1361, 3480), Fraction(503, 1740), Fraction(106, 435),
                    Fraction(53, 696)],
                   [Fraction(35, 87), Fraction(8, 29), Fraction(22, 87), Fraction(2, 29)]),
             dim=2, m=50)
    def test_found_catalyst_is_never_refuted(self, pair, dim, m):
        entries = [e for v in pair for e in v]
        assume(min(entries) > 0)
        x, y = (make_prob_vector(v) for v in pair)
        assume(x.entries != y.entries)
        if search_catalyst(x, y, dim, Fraction(1, m)) is None:
            return
        # The families only ever decide sufficiency; capping them leaves every
        # refuting route (top entry, H1, the oracle) in place, and shows an
        # oracle refutation that a closure-sufficient verdict would only note.
        verdict = check_trumping(x, y, Context(degree_cap=1))
        assert verdict.status != "refuted", verdict.reasons
        # a pair decided before any scan (y majorizes x) gets its scan here
        assert (verdict.oracle or oracle_scan(*pad_pair(x, y))).consistent


def reference_search(x, y, dim, m, mode, g, g_cat, ctx):
    """The numerators of the catalyst `search_catalyst` must return, walked
    with no pruning: the trivial catalyst ((m,), one entry), then every
    sorted grid point in order, each checked with `verify_catalyst`."""
    if verify_catalyst(x, y, make_prob_vector([1], ctx), mode, g, None, ctx):
        return (m,)
    if dim == 1:
        return None
    parts = min(dim, m)
    for ks in _descending_compositions(m, parts, m):
        ks += (0,) * (dim - parts)
        if verify_catalyst(x, y, make_prob_vector([Fraction(k, m) for k in ks], ctx),
                           mode, g, g_cat, ctx):
            return ks
    return None


def _numerators(found, m):
    return None if found is None else tuple(round(e * m) for e in found.entries)


@st.composite
def search_problems(draw):
    """(x, y, dim, m, mode, g, g_cat, ctx) of small integer counts, zeros
    allowed: y free, equal to x, x mixed toward uniform, or x with one unit
    moved between two entries (which often fails one limit alone); g
    rational or from energies, g_cat absent or non-uniform, either backend."""
    ctx = Context(backend=draw(st.sampled_from(["exact", "float"])))
    n = draw(st.integers(2, 4))
    counts = st.lists(st.integers(0, 6), min_size=n, max_size=n).filter(any)
    xs = draw(counts)
    relation = draw(st.sampled_from(["free", "equal", "flatter", "moved", "moved"]))
    if relation == "free":
        ys = draw(counts)
    elif relation == "equal":
        ys = list(xs)
    elif relation == "flatter":
        ys = [n * k + sum(xs) for k in xs]
    else:
        i, j = draw(st.permutations(range(n)))[:2]
        assume(xs[i] > 0)
        ys = list(xs)
        ys[i] -= 1
        ys[j] += 1
    dim, m = draw(st.integers(1, 4)), draw(st.integers(2, 6))
    if draw(st.booleans()):
        g = gibbs_vector(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), "0.7", ctx).g
    else:
        g = _vector(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), ctx)
    g_cat = draw(st.none() | st.lists(st.integers(1, 4), min_size=dim, max_size=dim))
    g_cat = None if g_cat is None else _vector(g_cat, ctx)
    mode = draw(st.sampled_from(["locc", "thermo"]))
    return _vector(xs, ctx), _vector(ys, ctx), dim, m, mode, g, g_cat, ctx


# (x, y) counts of pairs that exactly one limit of `search_catalyst` rules
# out: under LOCC y must dominate, in thermo mode (g = (2, 1, 1)/4) x
ONE_LIMIT = {
    "locc top": ([6, 2, 2], [5, 3, 2]),
    "locc bottom": ([5, 4, 1], [5, 3, 2]),
    "thermo top": ([11, 5, 4], [12, 4, 4]),
    "thermo bottom": ([6, 2, 2], [6, 3, 1]),
}
EXACT, FLOAT = Context(), Context(backend="float")


def _one_limit(case, ctx):
    """(x, y, mode, g) of a `ONE_LIMIT` case."""
    xs, ys = ONE_LIMIT[case]
    mode = case.split()[0]
    g = _vector([2, 1, 1], ctx) if mode == "thermo" else None
    return _vector(xs, ctx), _vector(ys, ctx), mode, g


class TestFutileSearch:
    """The p -> +-inf limits end a search that no catalyst can win: the
    same answer as a walk over every grid point, with no candidate tried."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(problem=search_problems())
    @example(problem=(*_one_limit("locc top", EXACT)[:2], 3, 5, "locc", None, None, EXACT))
    @example(problem=(*_one_limit("locc bottom", EXACT)[:2], 3, 5, "locc", None, None, EXACT))
    @example(problem=(*_one_limit("locc top", FLOAT)[:2], 2, 6, "locc", None, None, FLOAT))
    @example(problem=(*_one_limit("thermo top", EXACT)[:2], 3, 4, "thermo",
                      _vector([2, 1, 1], EXACT), _vector([3, 2, 1], EXACT), EXACT))
    @example(problem=(*_one_limit("thermo bottom", EXACT)[:2], 3, 4, "thermo",
                      _vector([2, 1, 1], EXACT), _vector([3, 2, 1], EXACT), EXACT))
    def test_search_equals_the_unpruned_walk(self, problem):
        x, y, dim, m, mode, g, g_cat, ctx = problem
        found = search_catalyst(x, y, dim, Fraction(1, m), mode, g, g_cat, ctx)
        assert _numerators(found, m) == reference_search(x, y, dim, m, mode, g, g_cat, ctx)

    @pytest.mark.parametrize("case", ONE_LIMIT)
    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_a_futile_search_tries_no_candidate(self, monkeypatch, case, backend):
        ctx = Context(backend=backend)
        x, y, mode, g = _one_limit(case, ctx)
        p, q = majorization._sides(x, y, mode, g)
        top_fails = max(p)[0] < max(q)[0]
        assert top_fails == case.endswith("top")
        assert (min(p)[0] > min(q)[0]) == case.endswith("bottom")
        calls = []
        real = majorization._dominates
        monkeypatch.setattr(majorization, "_dominates",
                            lambda *args: calls.append(args) or real(*args))
        found = search_catalyst(x, y, 3, Fraction(1, 20), mode, g, ctx=ctx)
        assert found is None
        # the bottom limit needs exact inputs; the float backend walks the grid
        walked = backend == "float" and not top_fails
        assert (len(calls) > 1) == walked
        if not walked:
            assert len(calls) == 1    # the trivial catalyst
        monkeypatch.undo()
        assert reference_search(x, y, 3, 20, mode, g, None, ctx) is None

    @pytest.mark.parametrize("xs, ys", [
        ([20, 8, 8, 2, 2], [20, 10, 5, 5, 0]),            # tied tops
        ([10, 10, 5, 5, 1], [12, 7, 7, 4, 1]),            # tied least entries
    ], ids=["top", "bottom"])
    def test_a_tied_limit_leaves_the_search_running(self, xs, ys):
        # Jonathan & Plenio's pair, and one found on the 1/30 grid, with an
        # entry both share: (3/5, 2/5) still catalyses, and nothing above it
        x, y = (_vector(v, EXACT) for v in (xs, ys))
        assert not majorizes(y, x)
        found = search_catalyst(x, y, 2, Fraction(1, 5))
        assert found.entries == (Fraction(3, 5), Fraction(2, 5))
        assert _numerators(found, 5) == reference_search(x, y, 2, 5, "locc", None, None, EXACT)

    @pytest.mark.parametrize("case", ONE_LIMIT)
    def test_an_over_budget_futile_search_still_raises(self, case):
        x, y, mode, g = _one_limit(case, EXACT)
        with pytest.raises(GridTooLarge):
            search_catalyst(x, y, 4, Fraction(1, 2000), mode, g)
