"""The finite sufficient-condition checker for LOCC trumping."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from mpmath import mpf

from catamaj import (
    Context,
    check_trumping,
    compute_exponents,
    make_prob_vector,
    search_catalyst,
    shannon_entropy,
    verify_catalyst,
)
from catamaj.majorization import majorizes
from catamaj.trumping import MAJORIZED, SAME_ENTRIES, _LOCC, _run_families, _settle_status
from conftest import locc_families, mixed_toward_uniform, random_prob_vector

FLOAT_CTX = Context(backend="float")


class TestExponents:
    def test_worked_example_values(self, locc_pair):
        x, y = locc_pair
        e = compute_exponents(x, y)
        assert abs(e.r - mpf("7.632")) < mpf("0.01")
        assert e.r_bar == 8
        assert abs(e.s - mpf("0.966")) < mpf("0.01")
        assert e.s_bar == 1

    def test_equal_vectors_leave_r_undefined(self):
        v = make_prob_vector(["0.5", "0.3", "0.2"])
        e = compute_exponents(v, v)
        assert not e.r_defined and e.r_bar is None
        assert not e.s_defined

    def test_deterministic_target(self):
        x = make_prob_vector([0.5, 0.5])
        y = make_prob_vector(["1", "0"])
        e = compute_exponents(x, y)
        assert abs(e.r - 1) < mpf("1e-30")
        assert e.r_bar == 2
        assert not e.s_defined  # target lacks full weight

    def test_s_needs_both_vectors_at_full_weight(self):
        # x_min (0.25 among the nonzero entries) exceeds y_min, but the
        # reciprocal family cannot take x's zero entry to a negative power
        x = make_prob_vector(["0.4", "0.35", "0.25", "0"])
        y = make_prob_vector(["0.7", "0.2", "0.05", "0.05"])
        e = compute_exponents(x, y)
        assert e.r_defined and not e.s_defined and e.s_bar is None

    def test_integer_r_rounds_up(self):
        # floor(r + 1) with r exactly 1 gives 2
        x = make_prob_vector([0.5, 0.5])
        y = make_prob_vector(["1", "0"])
        assert compute_exponents(x, y).r_bar == 2

    @pytest.mark.parametrize("precision", [192, 256])
    @pytest.mark.parametrize("n, x_1, y_1, r_bar", [
        (8, Fraction(7, 40), Fraction(7, 20), 4),
        (25, Fraction(6, 125), Fraction(6, 25), 3),
        (32, Fraction(3, 80), Fraction(3, 40), 6),
    ])
    def test_integer_r_orders_decided_exactly(self, n, x_1, y_1, r_bar, precision):
        # y_1 / x_1 is an integer root of n, so r is an integer, and its mpf
        # may round below it, where floor(r + 1) would be r
        def with_top(top):
            count = int(1 / top)
            entries = [top] * count + [1 - count * top]
            return make_prob_vector(entries + [0] * (n - len(entries)))

        exponents = compute_exponents(with_top(x_1), with_top(y_1), Context(precision=precision))
        assert exponents.r_bar == r_bar
        assert y_1 ** r_bar > n * x_1 ** r_bar and not y_1 ** (r_bar - 1) > n * x_1 ** (r_bar - 1)

    def test_capped_verdict_names_the_least_order(self):
        # n = 8 and y_1 = 2 x_1: r = 3 exactly and r_bar = 4, degree 32,
        # past a cap of 15 as under the default cap; y does not majorize x
        # (x's first four entries sum to 7/10, y's to 13/20)
        x = make_prob_vector(["7/40"] * 4 + ["3/40"] * 4)
        y = make_prob_vector(["7/20"] + ["1/10"] * 6 + ["1/20"])
        assert not majorizes(y, x)
        verdict = check_trumping(x, y, Context(degree_cap=15))
        assert verdict.exponents.r_bar == check_trumping(x, y).exponents.r_bar == 4
        assert verdict.cap_hit and any("degree 32 exceeds cap 15" in r for r in verdict.reasons)

    def test_integer_s_orders_decided_exactly(self):
        # x_min / y_min = 2 and n = 8: s = 3 exactly, so s_bar = 4 (the
        # rounded s lies below 3 at 256 bits)
        x = make_prob_vector(["4/11"] + ["1/11"] * 7)
        y = make_prob_vector(["15/22"] + ["1/22"] * 7)
        for precision in (192, 256):
            assert compute_exponents(x, y, Context(precision=precision)).s_bar == 4


class TestSharedPipeline:
    def test_unconfirmed_h1_stops_before_the_reciprocal_family(self, locc_pair):
        x, y = locc_pair
        families = _run_families(x, y, compute_exponents(x, y), False, _LOCC)
        assert families.closure.all_hold and families.negative is None
        assert families.reasons == ("H1 comparison not confirmed beyond margin",)

    def test_scan_refutes_only_an_inconclusive_verdict(self):
        scan = SimpleNamespace(consistent=False, refuted_at="p=2")
        assert _settle_status("inconclusive", ("a",), scan, "oracle grid", None) == (
            "refuted", ("a", "oracle grid refutes a necessary condition at p=2"))
        assert _settle_status("closure_sufficient", ("s undefined",), scan, "oracle grid",
                              None) == (
            "closure_sufficient",
            ("s undefined", "oracle grid refutes a necessary condition at p=2: no catalyst "
             "gives the exact transformation; only membership in the closure is certified"))
        assert _settle_status("closure_sufficient", (), scan, "oracle grid", "unequal") == (
            "closure_sufficient", ())
        assert _settle_status("refuted", ("b",), None, "oracle grid", "unequal") == (
            "inconclusive", ("b", "unequal"))


class TestCheckTrumping:
    def test_worked_example_sufficient(self, locc_pair):
        x, y = locc_pair
        v = check_trumping(x, y)
        assert v.status == "trumping_sufficient"
        assert v.exponents.r_bar == 8 and v.exponents.s_bar == 1
        assert v.closure_report.all_hold and v.negative_report.all_hold
        assert v.oracle.verdict == "consistent"
        assert v.weight_branch == "full_weight"

    def test_counterexample_not_sufficient(self, counterexample_pair):
        x, y = counterexample_pair
        v = check_trumping(x, y)
        assert v.status != "trumping_sufficient"
        # the printed source vector is short of total mass 1 by 2.63e-4 and
        # the embedded family genuinely fails
        assert v.status == "inconclusive"
        assert not v.closure_report.all_hold

    def test_closure_sufficient_names_a_refuting_oracle(self):
        # the closure family holds and s is undefined (x_min < y_min), while
        # the oracle refutes at p = -20: closure membership stands (exit 0),
        # and the reasons say exact trumping does not
        x = make_prob_vector(["1/20", "13/40", "19/40", "3/20"])
        y = make_prob_vector(["29/40", "3/40", "1/10", "1/10"])
        verdict = check_trumping(x, y)
        assert verdict.status == "closure_sufficient"
        assert verdict.oracle.refuted_at == "p=-20"
        assert verdict.reasons == (
            "s undefined",
            "oracle grid refutes a necessary condition at p=-20: no catalyst gives the exact "
            "transformation; only membership in the closure is certified")
        assert locc_families(x, y)[1].reasons == ("s undefined",)

    def test_three_entries_are_decided_by_their_limits(self):
        # in dimension 3 trumping is majorization: a pair that is not
        # majorized is refuted by x_1 > y_1 or x_min < y_min, with no grid
        for xs, ys, reason in (
                (["199/360", "59/144", "3/80"], ["641/720", "47/720", "2/45"],
                 "x_min = 3/80 < y_min = 2/45 violates the p->-inf limit"),
                (["1/2", "1/2", "0"], ["4/5", "1/10", "1/10"],
                 "x_min = 0 < y_min = 1/10 violates the p->-inf limit"),
                (["4/5", "1/10", "1/10"], ["7/10", "1/5", "1/10"],
                 "x_1 = 4/5 > y_1 = 7/10 violates the p->inf limit")):
            x, y = make_prob_vector(xs), make_prob_vector(ys)
            assert not majorizes(y, x)
            verdict = check_trumping(x, y)
            assert verdict.status == "refuted" and verdict.reasons == (reason,)
            assert verdict.oracle is None and verdict.exponents is None

    def test_equal_vectors_refuted(self):
        # x -> x needs no catalyst: the strict conditions, H1 among them,
        # are necessary only when x and y differ after sorting
        v = make_prob_vector(["0.5", "0.3", "0.2"])
        w = make_prob_vector(["0.2", "0.5", "0.3"])
        for verdict in (check_trumping(v, v), check_trumping(v, w)):
            assert verdict.status == "trumping_sufficient"
            assert verdict.reasons == (SAME_ENTRIES,)
            assert verdict.oracle is None

    def test_larger_top_entry_refuted(self):
        x = make_prob_vector(["0.8", "0.1", "0.1"])
        y = make_prob_vector(["0.7", "0.2", "0.1"])
        verdict = check_trumping(x, y)
        assert verdict.status == "refuted"
        assert any("x_1" in r for r in verdict.reasons)

    def test_equal_top_entries_inconclusive_r_undefined(self):
        # y does not majorize x (x_1 + x_2 = 7/10 > 69/100), and the oracle
        # finds no failing point
        x = make_prob_vector(["2/5", "3/10", "3/20", "3/20"])
        y = make_prob_vector(["2/5", "29/100", "29/100", "1/50"])
        verdict = check_trumping(x, y)
        assert verdict.status == "inconclusive"
        assert "r undefined" in verdict.reasons

    def test_majorized_pairs_are_sufficient_before_any_stage(self):
        # tied tops, and a pair whose closure family fails at k in
        # (10, 11, 12)
        for xs, ys in ((["0.5", "0.3", "0.2"], ["0.5", "0.4", "0.1"]),
                       (["0", "2/5", "1/5", "2/5"], ["1/7", "5/7", "0", "1/7"])):
            verdict = check_trumping(make_prob_vector(xs), make_prob_vector(ys))
            assert verdict.status == "trumping_sufficient"
            assert verdict.reasons == (MAJORIZED,)
            assert verdict.oracle is None and verdict.exponents is None
            assert verdict.closure_report is None and verdict.negative_report is None

    def test_deficient_target_branch(self):
        # frozen outcome: the closure family holds and the target lacks full
        # weight, so the strict negative-order conditions come for free
        x = make_prob_vector([0.5, 0.5])
        y = make_prob_vector(["1", "0"])
        verdict = check_trumping(x, y)
        assert shannon_entropy(x) > shannon_entropy(y)
        assert verdict.weight_branch == "weight_less"
        assert verdict.status == "trumping_sufficient"
        assert verdict.negative_report is None

    def test_degree_cap_yields_inconclusive(self, locc_pair):
        x, y = locc_pair
        verdict = check_trumping(x, y, Context(degree_cap=16))
        assert verdict.status == "inconclusive"
        assert verdict.cap_hit
        assert any("degree cap" in r for r in verdict.reasons)

    def test_deficient_source_cannot_pass_strict_family(self):
        # a source with a zero entry has F_{n r_bar}(x) = 0 (the one composition
        # gives every entry r_bar), so the strict closure family fails there.
        # The three-entry pair runs on the float backend: exact, it is refuted
        # by x_min < y_min before any family.
        for xs, ys, backend in [
                (["0.5", "0.5", "0"], ["0.8", "0.1", "0.1"], "float"),
                (["0.35", "0.35", "0.3", "0"], ["0.7", "0.1", "0.1", "0.1"], "exact"),
                (["0.3", "0.3", "0.2", "0.2", "0"], ["0.5", "0.2", "0.1", "0.1", "0.1"], "exact"),
                (["1/3", "1/3", "1/3", "0", "0"], ["0.9", "0.04", "0.03", "0.02", "0.01"],
                 "exact")]:
            ctx = Context(backend=backend, evidence="full")
            x, y = make_prob_vector(xs, ctx), make_prob_vector(ys, ctx)
            verdict = check_trumping(x, y, ctx)
            # the closure family leaves it inconclusive, and the oracle then
            # refutes at p < 0, where x's zero gives it the smaller norm
            assert verdict.status == "refuted"
            assert verdict.reasons[0].startswith("closure family fails at k in")
            closure = verdict.closure_report
            assert not closure.all_hold
            last = closure.per_k[-1]
            assert last.k == x.dim * verdict.exponents.r_bar
            assert last.lhs == 0 and not last.holds

    def test_shared_zeros_drop_before_the_families(self):
        # both vectors have a zero: the pipeline runs on the pair without it,
        # where x has full weight; y majorizes x in the second pair only,
        # which is decided before the families
        for xs, ys, status in (
                (["9/20", "1/3", "2/15", "1/12", "0"], ["8/15", "13/60", "11/60", "1/15", "0"],
                 "closure_sufficient"),
                (["0.5", "0.3", "0.2", "0"], ["0.6", "0.2", "0.2", "0"], "trumping_sufficient")):
            x, y = make_prob_vector(xs), make_prob_vector(ys)
            x_less, y_less = (make_prob_vector(v[:-1]) for v in (xs, ys))
            for ctx in (Context(), Context(evidence="full")):
                assert check_trumping(x, y, ctx) == check_trumping(x_less, y_less, ctx)
            assert check_trumping(x, y).status == status

    def test_shared_zeros_are_not_refuted(self):
        # y majorizes x, and both have a zero, where the oracle's p < 0
        # points compare two infinite power sums.  Exact, the pair is
        # sufficient before any scan; the float backend runs the oracle.
        for xs, ys in [(["1/2", "0", "1/2"], ["1/6", "0", "5/6"]),
                       (["0", "3/8", "5/8"], ["1", "0", "0"])]:
            x, y = make_prob_vector(xs), make_prob_vector(ys)
            assert verify_catalyst(x, y, make_prob_vector(["1"]))
            assert check_trumping(x, y).reasons == (MAJORIZED,)
            x, y = make_prob_vector(xs, FLOAT_CTX), make_prob_vector(ys, FLOAT_CTX)
            verdict = check_trumping(x, y, FLOAT_CTX)
            assert verdict.status == "trumping_sufficient", verdict.reasons
            assert verdict.oracle.consistent and verdict.oracle.failure_count == 0

    def test_reciprocal_family_failure(self):
        x = make_prob_vector(["9/20", "1/3", "2/15", "1/12"])
        y = make_prob_vector(["8/15", "13/60", "11/60", "1/15"])
        verdict = check_trumping(x, y)
        assert verdict.status == "closure_sufficient"
        assert verdict.reasons == ("reciprocal family fails at k in (2,)",)
        assert verdict.closure_report.all_hold and not verdict.negative_report.all_hold

    def test_equal_minima_stop_at_closure(self):
        # s needs x_min > y_min; with equal minima only closure is claimed.
        # y majorizes x, so the pair runs the families on the float backend.
        x = make_prob_vector(["0.4", "0.35", "0.25"], FLOAT_CTX)
        y = make_prob_vector(["0.5", "0.25", "0.25"], FLOAT_CTX)
        verdict = check_trumping(x, y, FLOAT_CTX)
        assert verdict.status == "closure_sufficient"
        assert "s undefined" in verdict.reasons
        assert verdict.closure_report.all_hold
        assert verdict.oracle.consistent

    def test_determinism(self, locc_pair):
        x, y = locc_pair
        assert check_trumping(x, y) == check_trumping(x, y)


class TestSoundness:
    def test_sufficient_implies_oracle_consistent(self, locc_pair):
        x, y = locc_pair
        v = check_trumping(x, y)
        assert v.status == "trumping_sufficient" and v.oracle.consistent

    def test_never_refuted_when_catalyst_exists(self, locc_pair, locc_catalyst):
        x, y = locc_pair
        assert verify_catalyst(x, y, locc_catalyst)
        assert check_trumping(x, y).status != "refuted"

    def test_search_success_means_no_refutation(self):
        rng = random.Random(17)
        hits = 0
        for _ in range(20):
            y = random_prob_vector(rng, 3)
            x = mixed_toward_uniform(rng, y)
            found = search_catalyst(x, y, 2, Fraction(1, 8))
            if found is None:
                continue
            hits += 1
            assert check_trumping(x, y).status != "refuted"
        assert hits >= 10

    def test_sufficient_implies_closure_holds(self):
        # y majorizes every x drawn: exact, the pairs are sufficient before
        # the families; on the float backend the families decide them
        rng = random.Random(23)
        seen = 0
        for _ in range(30):
            y = random_prob_vector(rng, 4)
            x = mixed_toward_uniform(rng, y)
            assert check_trumping(x, y).reasons == (MAJORIZED,)
            x, y = (make_prob_vector(v.entries, FLOAT_CTX) for v in (x, y))
            v = check_trumping(x, y, FLOAT_CTX)
            if v.status == "trumping_sufficient":
                seen += 1
                assert v.closure_report.all_hold
                assert v.h1.holds
        assert seen >= 10
