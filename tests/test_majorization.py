"""Ground-truth relations: Nielsen ordering, Lorenz dominance, catalyst
verification and search, and the dense p-grid oracle."""

import itertools
import random
from fractions import Fraction

import pytest

from catamaj import (
    Context,
    DimMismatch,
    GibbsZeroEntry,
    GridTooLarge,
    GridSpec,
    divergence_scan,
    gibbs_vector,
    majorizes,
    make_prob_vector,
    oracle_scan,
    search_catalyst,
    tensor,
    thermo_majorizes,
    uniform,
    verify_catalyst,
)
from catamaj.majorization import _count_sorted_points, _descending_compositions
from conftest import mixed_toward_uniform, random_prob_vector


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
        # trivial catalyst must fail first, then the budget is enforced
        ctx = Context(point_budget=100)
        x = make_prob_vector(["0.5", "0.4", "0.1"])
        y = make_prob_vector(["0.4", "0.3", "0.3"])
        with pytest.raises(GridTooLarge):
            search_catalyst(x, y, 4, Fraction(1, 100), ctx=ctx)

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

    @pytest.mark.parametrize("m, dim", [(6, 8), (7, 9), (8, 5), (10, 12)])
    def test_found_catalyst_matches_brute_force(self, locc_pair, m, dim):
        x, y = locc_pair
        expected = None
        for ks in self.sorted_points(m, dim):
            c = make_prob_vector([Fraction(k, m) for k in ks])
            if verify_catalyst(x, y, c):
                expected = c.entries
                break
        found = search_catalyst(x, y, dim, Fraction(1, m))
        assert (found and found.entries) == expected
        assert (expected is None) == (m == 6)


class TestOracleScan:
    def test_equal_vectors_refuted_at_first_point(self):
        v = make_prob_vector(["0.5", "0.3", "0.2"])
        report = oracle_scan(v, v)
        assert report.verdict == "refuted"
        assert report.refuted_at == f"p={report.grid[0]}"
        dedicated = [f.which for f in report.failures if f.p is None]
        assert dedicated == ["H1 (need >)", "Burg (need >)"]

    def test_worked_example_consistent(self, locc_pair):
        x, y = locc_pair
        report = oracle_scan(x, y)
        assert report.verdict == "consistent"
        assert not report.failures

    def test_default_grid_excludes_zero_and_one(self):
        grid = GridSpec()
        pts = grid.points()
        assert Fraction(0) not in pts and Fraction(1) not in pts
        assert len(pts) == 801 - 2

    def test_grid_parse(self):
        grid = GridSpec.parse("-5:5:0.1")
        assert len(grid.points()) == 99

    def test_grid_table_built_once_per_spec(self):
        # every scan with the default or an equal parsed grid reuses one table
        assert GridSpec().table is GridSpec().table
        assert GridSpec.parse("-20:20:1/20").table is GridSpec().table
        assert GridSpec.parse("-5:5:0.1").table is not GridSpec().table

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
        assert GridSpec.parse("-1e3:1e3:1/100000").size == 2 * 10**8 - 1
        assert GridSpec.parse("-1:2:1e-30").size == 3 * 10**30 - 1
        misses = _grid_table.cache_info().misses
        ctx = Context(point_budget=180)
        with pytest.raises(GridTooLarge):
            oracle_scan(x, y, grid, ctx)
        with pytest.raises(GridTooLarge):
            divergence_scan(x, y, uniform(3), grid, ctx)
        assert _grid_table.cache_info().misses == misses
        # at the budget the scan runs
        assert oracle_scan(x, y, grid, Context(point_budget=181)).grid == tuple(grid.points())

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
            if failure.which.startswith("norm p>1"):
                assert not failure.lhs > failure.rhs
            if failure.which.startswith("norm p<1"):
                assert not failure.lhs < failure.rhs
