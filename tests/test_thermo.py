"""Gibbs vectors, embedding, divergences, slack factors, and the thermal
sufficient-condition checker."""

import json
import random
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from catamaj import (
    Context,
    DimMismatch,
    ProbVector,
    EpsNonPositive,
    GibbsZeroEntry,
    GridSpec,
    SupportViolation,
    check_thermo,
    check_trumping,
    compute_exponents,
    thermo_majorizes,
    continuity_bound,
    divergence_scan,
    embed,
    embedding_from_rational,
    free_energy,
    gibbs_vector,
    make_prob_vector,
    rational_approx,
    renyi_divergence,
    renyi_entropy,
    shannon_entropy,
    slack_factors,
    thermal_from_gibbs,
    uniform,
)
from catamaj.cli import main
from catamaj.thermo import SAME_PAIRS, THERMO_MAJORIZED, EmbeddingSpec, embedded_blocks
from conftest import mixed_toward_uniform, random_prob_vector

FLOAT_CTX = Context(backend="float")


class TestGibbs:
    def test_infinite_temperature_is_uniform(self):
        spec = gibbs_vector([0, 1, 2, 3], 0)
        assert spec.g.entries == (Fraction(1, 4),) * 4
        assert spec.Z == 4

    def test_single_level(self):
        spec = gibbs_vector([5], "2.5")
        assert spec.g.dim == 1 and abs(spec.g.entries[0] - 1) < mpf("1e-70")

    def test_worked_example_partition_function(self):
        spec = gibbs_vector([0, 1, 2, 3], "1.2")
        z = 1 + mpmath.exp(mpf("-1.2")) + mpmath.exp(mpf("-2.4")) + mpmath.exp(mpf("-3.6"))
        assert abs(spec.Z - z) < mpf("1e-70")
        assert abs(spec.Z - mpf("1.4192")) < mpf("5e-5")
        assert spec.g.entries[0] > spec.g.entries[-1] > 0

    def test_unsorted_energies_pair_with_their_weights(self):
        spec = gibbs_vector([2, 0, 1], 1)
        for e, g in zip(spec.energies, spec.g.entries):
            assert abs(g * spec.Z - mpmath.exp(-e)) < mpf("1e-70")
        assert spec.g.entries[1] > spec.g.entries[2] > spec.g.entries[0]

    @pytest.mark.parametrize("energies, beta", [([0, 40], 1), ([0, 1, 2, 3], "1.2"),
                                                ([3, -50, 700], "0.9"), ([0, 5000], 1)])
    def test_entries_err_by_under_two_ulps(self, energies, beta):
        # the relative bound the ground truth's slack takes for a Gibbs entry
        for precision in (128, 256):
            g = gibbs_vector(energies, beta, Context(precision=precision)).g
            reference = gibbs_vector(energies, beta, Context(precision=4 * precision)).g
            for entry, ideal in zip(g.entries, reference.entries):
                assert abs(entry - ideal) < ideal * mpf(2) ** (1 - precision)

    def test_a_wide_spectrum_keeps_full_weight(self):
        # exp(-40) ~ 4e-18 is a weight like any other: the pair gets a verdict,
        # and q_rho -> q_sigma would raise D(q || g)
        spec = gibbs_vector([0, 40], 1)
        assert spec.g.full_weight
        q_rho, q_sigma = make_prob_vector(["3/4", "1/4"]), make_prob_vector(["1/2", "1/2"])
        assert renyi_divergence(q_rho, spec.g, 1) < renyi_divergence(q_sigma, spec.g, 1)
        assert check_thermo(q_rho, q_sigma, spec).status == "refuted"

    def test_a_spectrum_past_the_span_is_refused(self):
        with pytest.raises(GibbsZeroEntry, match="span|below"):
            gibbs_vector([0, 10**5], 1)


class TestRationalApprox:
    def test_already_rational_is_reduced_exactly(self):
        g = make_prob_vector(["0.5", "0.25", "0.25"])
        em = rational_approx(g, Fraction(1, 2))
        assert em.nu == (2, 1, 1) and em.N == 4
        assert em.eps == 0

    def test_uniform(self):
        em = rational_approx(uniform(5), Fraction(1, 10))
        assert em.nu == (1, 1, 1, 1, 1) and em.N == 5

    def test_irrational_gibbs_meets_target(self):
        spec = gibbs_vector([0, 1, 2, 3], "1.2")
        eps = Fraction(1, 1000)
        em = rational_approx(spec.g, eps)
        assert sum(em.nu) == em.N
        assert all(v >= 1 for v in em.nu)
        achieved = mpmath.fsum(abs(mpf(a.numerator) / a.denominator - b)
                               for a, b in zip(em.g_eps.entries, spec.g.entries))
        assert achieved <= mpf(1) / 1000
        assert abs(em.eps - achieved) < mpf("1e-60")

    def test_eps_must_be_positive(self):
        with pytest.raises(EpsNonPositive):
            rational_approx(uniform(3), 0)


class TestEmbed:
    def test_identity_multiplicities(self):
        em = embedding_from_rational(uniform(3))
        v = make_prob_vector(["0.5", "0.3", "0.2"])
        assert embed(v, em).entries == v.entries

    def test_gibbs_vector_maps_to_uniform(self):
        g = make_prob_vector(["0.5", "0.25", "0.25"])
        em = embedding_from_rational(g)
        assert embed(g, em).entries == (Fraction(1, 4),) * 4

    def test_point_mass_spreads_uniformly(self):
        from catamaj import EmbeddingSpec
        em = EmbeddingSpec((5,), Fraction(0))
        spread = embed(make_prob_vector(["1"]), em)
        assert spread.entries == (Fraction(1, 5),) * 5

    def test_n_and_g_eps_follow_from_the_multiplicities(self):
        em = EmbeddingSpec((4, 2, 2), Fraction(1, 10))
        assert em.N == 8 and em.g_eps == make_prob_vector(["1/2", "1/4", "1/4"])
        with pytest.raises(TypeError):
            EmbeddingSpec((4, 2, 2), 8, make_prob_vector(["1/2", "1/4", "1/4"]), 0)

    def test_dim_mismatch(self):
        em = embedding_from_rational(uniform(3))
        with pytest.raises(DimMismatch):
            embed(uniform(4), em)


@st.composite
def block_cases(draw):
    """(ctx, [(q, spec), (q', spec')]): two states whose multiplicities are
    one draw of d = 2-5 values nu_i in 1..60, each state paired with them in
    its own order.  Entry i is m_i nu_i / S, so its block value is m_i / S:
    a repeated m gives equal values across blocks, m = 0 a zero entry, and
    under the float backend a zero can become 1e-18 per part, which counts
    in the weight like any entry other than 0."""
    d = draw(st.integers(2, 5))
    nu = draw(st.lists(st.integers(1, 60), min_size=d, max_size=d))
    exact = draw(st.booleans())
    ctx = Context() if exact else FLOAT_CTX
    states = []
    for _ in range(2):
        m = draw(st.lists(st.sampled_from([0, 1, 1, 2, 3, 5]), min_size=d, max_size=d)
                 .filter(any))
        total = sum(mi * vi for mi, vi in zip(m, nu))
        tiny = not exact and draw(st.booleans())
        pairs = sorted(((Fraction(mi * vi, total) if mi or not tiny else Fraction(vi, 10**18), vi)
                        for mi, vi in zip(m, nu)), key=lambda pair: pair[0], reverse=True)
        q = make_prob_vector([e for e, _ in pairs], ctx)
        states.append((q, EmbeddingSpec(tuple(vi for _, vi in pairs), Fraction(0))))
    return ctx, states


class TestBlocks:
    """The checker's block quantities equal those of the N written-out
    entries, built and measured as the N-entry embedding did."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(case=block_cases())
    def test_block_quantities_match_the_entries(self, case):
        ctx, states = case
        pairs = []
        for q, spec in states:
            with mpmath.workprec(ctx.precision):
                entries = [qi / vi for qi, vi in zip(q.entries, spec.nu) for _ in range(vi)]
            reference = ProbVector(tuple(sorted(entries, reverse=True)))
            blocks = embedded_blocks(q, spec, ctx)
            assert embed(q, spec, ctx) == reference
            assert blocks.dim == reference.dim == spec.N
            assert blocks.weight == reference.weight
            assert blocks.full_weight == reference.full_weight
            assert blocks.top == reference.top
            assert blocks.min_nonzero == reference.min_nonzero
            assert blocks.entropy(ctx)._mpf_ == shannon_entropy(reference, ctx)._mpf_
            pairs.append((blocks, reference))
        (x_blocks, x), (y_blocks, y) = pairs
        with mpmath.workprec(ctx.precision):
            loosening = (1 + mpf(1) / 100) ** 2
        for ratio in (1, loosening):
            for a, b, ref_a, ref_b in ((y_blocks, x_blocks, y, x), (x_blocks, y_blocks, x, y)):
                assert (compute_exponents(a, b, ctx, ratio)
                        == compute_exponents(ref_a, ref_b, ctx, ratio))

    def test_block_values_at_the_context_precision(self):
        # the CLI leaves mpmath at 53 bits; the blocks keep the context's
        spec = gibbs_vector([0, 3, 4], "0.8", FLOAT_CTX)
        embedding = rational_approx(spec.g, Fraction(1, 500), FLOAT_CTX)
        assert embedding.nu == (1327, 120, 54)
        q = make_prob_vector(["317/719", "220/719", "182/719"], FLOAT_CTX)
        with mpmath.workprec(53):
            blocks = embedded_blocks(q, embedding, FLOAT_CTX)
        with mpmath.workprec(FLOAT_CTX.precision):
            quotients = [qi / vi for qi, vi in zip(q.entries, embedding.nu)]
        assert blocks.values == tuple(sorted(quotients, reverse=True))


class TestRenyiDivergence:
    def test_self_divergence_vanishes(self):
        rng = random.Random(13)
        for p in (Fraction(-2), Fraction(1, 2), 1, 2):
            v = random_prob_vector(rng, 4)
            assert abs(renyi_divergence(v, v, p)) < mpf("1e-60")

    def test_against_uniform_is_log_n_minus_entropy(self):
        rng = random.Random(15)
        u = uniform(4)
        for p in (Fraction(1, 2), 1, 2, 3):
            v = random_prob_vector(rng, 4)
            lhs = renyi_divergence(v, u, p)
            rhs = 2 - renyi_entropy(v, p)
            assert abs(lhs - rhs) < mpf("1e-60")

    def test_kl_worked_value(self):
        x = make_prob_vector([0.5, 0.5])
        g = make_prob_vector(["0.75", "0.25"])
        val = renyi_divergence(x, g, 1)
        expected = mpf("0.5") * mpmath.log(mpf(2) / 3, 2) + mpf("0.5")
        assert abs(val - expected) < mpf("1e-60")
        assert abs(val - mpf("0.2075")) < mpf("1e-4")

    def test_support_violation(self):
        x = make_prob_vector(["0.5", "0.5"])
        g = make_prob_vector(["1", "0"])
        with pytest.raises(SupportViolation):
            renyi_divergence(x, g, 2)

    def test_negative_p_deficient_source_is_infinite(self):
        x = make_prob_vector(["0.5", "0.5", "0"])
        assert renyi_divergence(x, uniform(3), -2) == mpf("inf")

    def test_order_zero_is_minus_log_the_g_mass_of_the_support(self):
        g = make_prob_vector(["1/2", "1/4", "1/4"])
        val = renyi_divergence(make_prob_vector(["1/2", "1/2", "0"]), g, 0)
        assert abs(val - (2 - mpmath.log(3, 2))) < mpf("1e-70")
        assert renyi_divergence(make_prob_vector(["1/3", "1/3", "1/3"]), g, 0) == 0


class TestFreeEnergy:
    def test_gibbs_state_minimizes(self):
        spec = gibbs_vector([0, 1, 2, 3], "1.2")
        val = free_energy(spec.g, spec, 2)
        assert abs(val + mpmath.log(spec.Z, 2)) < mpf("1e-60")

    def test_zero_temperature_factor(self):
        spec = gibbs_vector([0, 1], "0.5")
        assert free_energy(spec.g, spec, 2, kT=0) == 0

    def test_order_zero(self):
        # Z = 3 and D_0 = log2(3/2): F_0 = log2(3/2) - log2(3) = -1
        spec = gibbs_vector([0, 0, 0], 0)
        x = make_prob_vector(["1/2", "1/2", "0"])
        assert abs(free_energy(x, spec, 0) + 1) < mpf("1e-70")
        assert abs(free_energy(x, spec, 0, kT=3) + 3) < mpf("1e-70")

    def test_worked_thermo_state_value(self, thermo_pair):
        q_rho, _ = thermo_pair
        spec = gibbs_vector([0, 1, 2, 3], "1.2")
        val = free_energy(q_rho, spec, 1)
        direct = renyi_divergence(q_rho, spec.g, 1) - mpmath.log(spec.Z, 2)
        assert abs(val - direct) < mpf("1e-60")
        assert abs(val - mpf("-0.255959")) < mpf("1e-6")


class TestContinuityBound:
    def test_zero_eps(self):
        for p in (Fraction(1, 2), 1, 2, 5):
            assert continuity_bound(p, 0, Fraction(1, 10)) == 0

    def test_kl_form(self):
        val = continuity_bound(1, Fraction(1, 10), Fraction(1, 5))
        assert abs(val - mpmath.log(mpf("1.5"), 2)) < mpf("1e-60")

    def test_forced_arithmetic(self):
        # p = 2 with eps equal to g_min gives max(1, 2) * log2(2) = 2 bits
        assert abs(continuity_bound(2, Fraction(1, 5), Fraction(1, 5)) - 2) < mpf("1e-60")


class TestSlackFactors:
    def test_zero_eps_gives_unit_slack(self):
        a_r, a_s = slack_factors(0, Fraction(1, 10), 4, 3, 1)
        assert a_r == 1 and a_s == 1

    def test_forced_arithmetic(self):
        # eps/g_min = 1, N = 4, r_bar = 2: 1/A_r = max(2^-4, 2^-1/2) = 2^-1/2
        a_r, _ = slack_factors(Fraction(1, 10), Fraction(1, 10), 4, 2, 1)
        assert abs(a_r - mpmath.sqrt(2)) < mpf("1e-60")

    def test_slack_grows_with_eps(self):
        a1, s1 = slack_factors(Fraction(1, 100), Fraction(1, 10), 4, 2, 1)
        a2, s2 = slack_factors(Fraction(1, 10), Fraction(1, 10), 4, 2, 1)
        assert a2 > a1 >= 1 and s2 > s1 >= 1


class TestCheckThermo:
    def test_rational_path_sufficient(self, locc_pair):
        # uniform Gibbs vector: the embedded conditions reduce to the LOCC
        # example with the roles of the two vectors exchanged
        x, y = locc_pair
        spec = gibbs_vector([0, 0, 0, 0], 0)
        verdict = check_thermo(y, x, spec)
        assert verdict.status == "sufficient"
        assert verdict.path == "rational_exact"
        assert verdict.slack_used == (Fraction(1), Fraction(1))
        assert verdict.embedding.N == 4
        assert verdict.oracle.consistent

    @pytest.mark.parametrize("eps", [0, -1, Fraction(-1, 10)])
    @pytest.mark.parametrize("route", ["exact g", "g_eps", "approximated g"])
    def test_nonpositive_eps_is_refused_on_every_route(self, route, eps):
        # eps is checked on entry, also where the embedding never reads it
        q_rho, q_sigma = (make_prob_vector(v) for v in (["0.7", "0.2", "0.1"],
                                                         ["0.5", "0.3", "0.2"]))
        quarters = make_prob_vector(["1/2", "1/4", "1/4"])
        spec = thermal_from_gibbs(quarters) if route == "exact g" else gibbs_vector(
            [0, 1, 2], Fraction(1, 3))
        g_eps = quarters if route == "g_eps" else None
        with pytest.raises(EpsNonPositive):
            check_thermo(q_rho, q_sigma, spec, g_eps=g_eps, eps=eps)

    def test_an_exact_g_with_another_exact_g_eps_takes_the_slack_path(self):
        # eps is the exact l1 distance, and the embedded families still hold
        q_rho = make_prob_vector(["1/60", "11/60", "1/3", "7/15"])
        q_sigma = make_prob_vector(["1/3", "7/15", "1/15", "2/15"])
        g = make_prob_vector(["249/1000", "251/1000", "3/8", "1/8"])
        g_eps = make_prob_vector(["1/4", "1/4", "3/8", "1/8"])
        verdict = check_thermo(q_rho, q_sigma, thermal_from_gibbs(g), g_eps=g_eps)
        assert verdict.status == "sufficient" and verdict.path == "slack_adjusted"
        assert verdict.embedding.eps == Fraction(1, 500) and verdict.embedding.N == 8
        assert all(isinstance(a, mpf) and a > 1 for a in verdict.slack_used)
        assert verdict.closure_report.all_hold and verdict.closure_report.slack < 1

    def test_slack_path_families_certify(self):
        # an irrational g within eps = 1/10: both loosened families hold
        verdict = check_thermo(make_prob_vector(["3/15", "12/15"]),
                               make_prob_vector(["10/13", "3/13"]),
                               gibbs_vector([0, 3], 1), eps=Fraction(1, 10))
        assert verdict.status == "sufficient" and verdict.reasons == ()
        assert verdict.path == "slack_adjusted" and verdict.slack_used != (1, 1)
        assert verdict.closure_report.all_hold and verdict.negative_report.all_hold

    def test_slack_path_reciprocal_family_fails(self):
        verdict = check_thermo(make_prob_vector(["5/18", "1/18", "12/18"]),
                               make_prob_vector(["7/24", "10/24", "7/24"]),
                               gibbs_vector([0, 1, 3], 1), eps=Fraction(1, 10))
        assert verdict.status == "inconclusive"
        assert verdict.reasons == ("reciprocal family fails at k in (1, 2, 3, 4, 5, 6)",)
        assert verdict.path == "slack_adjusted" and verdict.slack_used != (1, 1)
        assert verdict.closure_report.all_hold and not verdict.negative_report.all_hold

    def test_equal_states_refuted(self):
        # q -> q needs no catalyst
        v = make_prob_vector(["0.5", "0.3", "0.2"])
        spec = gibbs_vector([0, 1, 2], "0.4")
        verdict = check_thermo(v, v, spec)
        assert verdict.status == "sufficient"

    def test_levels_where_both_states_vanish_drop_out(self):
        # both states vanish on the second level, where the scan's p < 0
        # points compare two infinite divergences; q_rho does not
        # thermo-majorize q_sigma, so the families decide
        q_rho = make_prob_vector(["0.7315", "0", "0.1211", "0.1374", "0.0100"])
        q_sigma = make_prob_vector(["0.6100", "0", "0.3045", "0.0435", "0.0420"])
        for g, reduced in ((["1/5"] * 5, ["1/4"] * 4),
                           (["1/6", "1/3", "1/6", "1/6", "1/6"], ["1/4"] * 4),
                           (["11/50", "1/5", "9/50", "1/5", "1/5"],
                            ["11/40", "9/40", "1/4", "1/4"])):
            g = make_prob_vector(g)
            assert not thermo_majorizes(q_rho, q_sigma, g)
            verdict = check_thermo(q_rho, q_sigma, thermal_from_gibbs(g))
            assert verdict.status == "sufficient", verdict.reasons
            assert verdict.oracle.consistent and verdict.oracle.failure_count == 0
            # the families run on the four levels where a state lives
            twin = check_thermo(*(make_prob_vector(v.entries[:1] + v.entries[2:])
                                  for v in (q_rho, q_sigma)),
                                thermal_from_gibbs(make_prob_vector(reduced)))
            assert verdict.exponents == twin.exponents
            assert verdict.closure_report == twin.closure_report
            assert verdict.negative_report == twin.negative_report
            assert verdict.weight_branch == twin.weight_branch == "full_weight"

    def test_thermo_majorized_pairs_are_sufficient_before_any_scan(self):
        # an exact g and equal totals: one Lorenz comparison decides, and no
        # scan, exponent or family runs
        for rho, sigma, g in ((["1", "0"], ["0", "1"], ["1/3", "2/3"]),
                              (["1/6", "0", "5/6"], ["1/2", "0", "1/2"], ["1/3", "1/6", "1/2"]),
                              (["0.7", "0.3", "0", "0"], ["0.4", "0.3", "0.2", "0.1"],
                               ["1/4"] * 4)):
            q_rho, q_sigma, g = (make_prob_vector(v) for v in (rho, sigma, g))
            verdict = check_thermo(q_rho, q_sigma, thermal_from_gibbs(g))
            assert verdict.status == "sufficient" and verdict.reasons == (THERMO_MAJORIZED,)
            assert verdict.oracle is None and verdict.exponents is None
            assert verdict.closure_report is None and verdict.path == "rational_exact"

    def test_the_exits_build_no_embedded_blocks(self, monkeypatch):
        # the sides are built once the exits have not decided the pair
        import catamaj.thermo as thermo

        built, real = [], thermo.embedded_blocks
        monkeypatch.setattr(thermo, "embedded_blocks",
                            lambda *args: built.append(args) or real(*args))
        g = make_prob_vector(["1/3", "1/6", "1/2"])
        q_rho, q_sigma = make_prob_vector(["1/6", "0", "5/6"]), make_prob_vector(["1/2", "0", "1/2"])
        for target, reason in ((q_sigma, THERMO_MAJORIZED), (q_rho, SAME_PAIRS)):
            verdict = check_thermo(q_rho, target, thermal_from_gibbs(g))
            assert verdict.reasons == (reason,) and built == []
        verdict = check_thermo(make_prob_vector(["0.5", "0.25", "0.25", "0"]),
                               make_prob_vector(["0.4", "0.4", "0.1", "0.1"]),
                               gibbs_vector([0, 0, 0, 0], 0))
        assert verdict.status == "sufficient" and verdict.exponents is not None
        assert len(built) == 4    # the two sides, then `embed` for the families

    def test_an_mpf_gibbs_vector_keeps_the_pipeline(self):
        # energies at beta != 0 give an mpf g, which decides a touching
        # breakpoint only up to its rounding: the scan still runs
        q_rho = make_prob_vector(["0.7", "0.3", "0", "0"])
        q_sigma = make_prob_vector(["0.4", "0.3", "0.2", "0.1"])
        spec = gibbs_vector([0, 0, 0, 0], "1/2")
        assert thermo_majorizes(q_rho, q_sigma, spec.g)
        verdict = check_thermo(q_rho, q_sigma, spec)
        assert verdict.oracle is not None and THERMO_MAJORIZED not in verdict.reasons

    def test_deficient_source_weight_branch(self):
        # source with a zero entry: negative orders hold for free, so the
        # reciprocal family is skipped (q_rho does not thermo-majorize
        # q_sigma: 1/2 + 1/4 < 4/5)
        q_rho = make_prob_vector(["0.5", "0.25", "0.25", "0"])
        q_sigma = make_prob_vector(["0.4", "0.4", "0.1", "0.1"])
        spec = gibbs_vector([0, 0, 0, 0], 0)
        verdict = check_thermo(q_rho, q_sigma, spec)
        assert verdict.status == "sufficient"
        assert verdict.weight_branch == "weight_less"
        assert verdict.negative_report is None
        assert verdict.oracle.consistent

    def test_deficient_target_cannot_be_sufficient(self):
        q_rho = make_prob_vector(["0.4", "0.3", "0.2", "0.1"])
        q_sigma = make_prob_vector(["0.7", "0.3", "0", "0"])
        spec = gibbs_vector([0, 0, 0, 0], 0)
        verdict = check_thermo(q_rho, q_sigma, spec)
        assert verdict.status == "refuted"  # divergences at p < 0 go to +inf

    def test_failing_family_lists_every_failed_condition(self):
        # the target's zero entry fails the closure family at k = n r_bar, and
        # H(rho) > H(sigma): the report names all three, in this order.  The
        # divergence scan refutes at p < 0 (sigma's zero), so the families
        # run only under full evidence, and the refutation comes last
        verdict = check_thermo(make_prob_vector(["0.6", "0.2", "0.2"]),
                               make_prob_vector(["0.5", "0.5", "0"]),
                               gibbs_vector([0, 0, 0], 0), ctx=Context(evidence="full"))
        assert verdict.status == "refuted" and verdict.negative_report is None
        assert verdict.reasons == (
            "embedded family fails at k in (13, 14, 15, 16, 17, 18, 19, 20)",
            "H1 condition (with slack margin) not confirmed",
            "target lacks full weight after embedding; strict negative-order "
            "conditions cannot hold",
            "divergence scan refutes a necessary condition at p=-20")

    def test_worked_example_with_uniform_approximation(self, thermo_pair):
        # the published run chooses the maximally mixed rational approximation,
        # which drives eps to ~0.909 and kills the adjusted exponent; the
        # checker reports this honestly instead of certifying
        q_rho, q_sigma = thermo_pair
        spec = gibbs_vector([0, 1, 2, 3], "1.2")
        verdict = check_thermo(q_rho, q_sigma, spec, g_eps=uniform(4))
        assert verdict.path == "slack_adjusted"
        assert abs(verdict.embedding.eps - mpf("0.90921")) < mpf("1e-4")
        assert verdict.status == "inconclusive"
        assert any("r undefined" in r for r in verdict.reasons)
        assert verdict.oracle.consistent  # the transformation itself is feasible

    def test_embedding_cap(self, thermo_pair):
        q_rho, q_sigma = thermo_pair
        spec = gibbs_vector([0, 1, 2, 3], "1.2")
        verdict = check_thermo(q_rho, q_sigma, spec, eps=Fraction(1, 1000))
        assert verdict.status == "inconclusive"
        assert verdict.cap_hit
        assert verdict.reasons[0].startswith("degree cap: polynomial degree")

    def test_direct_gibbs_input(self):
        g = make_prob_vector(["0.5", "0.25", "0.25"])
        spec = thermal_from_gibbs(g)
        q_rho = make_prob_vector(["0.6", "0.25", "0.15"])
        # relaxing toward the free state: every divergence is strictly above
        # D_p(g||g) = 0, so the checker can certify it
        toward = check_thermo(q_rho, g, spec)
        assert toward.status == "sufficient"
        assert toward.path == "rational_exact"
        # the reverse direction is forbidden outright
        away = check_thermo(g, q_rho, spec)
        assert away.status == "refuted"


class TestDivergenceScan:
    def test_worked_pair_consistent(self, thermo_pair):
        q_rho, q_sigma = thermo_pair
        spec = gibbs_vector([0, 1, 2, 3], "1.2")
        scan = divergence_scan(q_rho, q_sigma, spec.g)
        assert scan.verdict == "consistent"
        assert not any(f.p is None for f in scan.failures)

    def test_reverse_direction_refuted(self, thermo_pair):
        q_rho, q_sigma = thermo_pair
        spec = gibbs_vector([0, 1, 2, 3], "1.2")
        scan = divergence_scan(q_sigma, q_rho, spec.g)
        assert scan.verdict == "refuted"


class TestStopsAfterProof:
    def test_families_skipped_once_the_scan_refutes(self):
        # the divergence scan refutes at p = -20; the embedded families
        # (r_bar 69, N 21) would take seconds and cannot change the verdict
        start = time.monotonic()
        verdict = check_thermo(make_prob_vector(["1/2", "1/2"]), make_prob_vector(["3/4", "1/4"]),
                               gibbs_vector([0, 1], "1/2"), eps=Fraction(1, 10))
        assert time.monotonic() - start < 2.0
        assert verdict.status == "refuted" and verdict.oracle.refuted_at == "p=-20"
        assert verdict.closure_report is None and verdict.negative_report is None
        assert verdict.reasons[0] == "condition families skipped: the pair is refuted"

    def test_unequal_masses_do_not_refute(self, thermo_pair):
        # printed to six figures, the two states differ in total mass
        q_rho, q_sigma = thermo_pair
        assert sum(q_rho.entries) != sum(q_sigma.entries)
        spec = gibbs_vector([0, 1, 2, 3], "1.2")
        verdict = check_thermo(q_sigma, q_rho, spec, eps=Fraction(1, 10))
        assert not verdict.oracle.consistent
        assert verdict.status == "inconclusive"
        assert verdict.reasons[-1].startswith(
            f"unequal masses {sum(q_sigma.entries)} and {sum(q_rho.entries)}")


class TestCapBeforeEmbedding:
    """A family beyond the degree cap is decided from the blocks: the N
    entries are never built, and the verdict is the one the families gave
    when they hit the cap."""

    IRRATIONAL = {"q_rho": ["317/719", "220/719", "182/719"],
                  "q_sigma": ["201491047/359500000", "88084613/359500000", "3496217/17975000"],
                  "energies": [0, 3, 4], "beta": "0.8", "eps": "1/500"}

    @pytest.fixture
    def no_embedding(self, monkeypatch):
        import catamaj.thermo as thermo

        def refuse(*args, **kwargs):
            raise AssertionError("the N entries were built")

        monkeypatch.setattr(thermo, "embed", refuse)

    def test_worked_example_at_eps_1_1000(self, thermo_pair, no_embedding):
        q_rho, q_sigma = thermo_pair
        verdict = check_thermo(q_rho, q_sigma, gibbs_vector([0, 1, 2, 3], "1.2"),
                               eps=Fraction(1, 1000))
        assert verdict.embedding.N == 4001 and verdict.exponents.r_bar == 121
        assert verdict.status == "inconclusive" and verdict.cap_hit
        assert verdict.reasons == ("degree cap: polynomial degree 484121 exceeds cap 4096",)

    def test_irrational_pair(self, no_embedding):
        problem = self.IRRATIONAL
        verdict = check_thermo(make_prob_vector(problem["q_rho"]),
                               make_prob_vector(problem["q_sigma"]),
                               gibbs_vector(problem["energies"], problem["beta"]),
                               eps=Fraction(problem["eps"]))
        assert verdict.embedding.N == 1501 and verdict.exponents.r_bar == 32
        assert verdict.status == "inconclusive" and verdict.cap_hit
        assert verdict.reasons == ("degree cap: polynomial degree 48032 exceeds cap 4096",)

    @pytest.mark.parametrize("evidence", ["compact", "full"])
    def test_command_line_exits_5(self, tmp_path, no_embedding, evidence):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(self.IRRATIONAL))
        out = tmp_path / "report.json"
        assert main(["check-thermo", str(path), "--out", str(out), "--evidence", evidence]) == 5
        assert json.loads(out.read_text())["cap_hit"]


class TestContextPrecision:
    """The slack path computes at the context precision, whatever mpmath's
    ambient precision is: the command line leaves it at 53 bits."""

    @pytest.fixture
    def ambient_53_bits(self):
        saved = mpmath.mp.prec
        mpmath.mp.prec = 53
        yield
        mpmath.mp.prec = saved

    def test_h1_margin_is_not_rounded_to_the_ambient_precision(self, ambient_53_bits):
        top = Fraction(171768539934543, 219902325555200)
        spec = gibbs_vector([0, 1], Fraction(1, 2))
        verdict = check_thermo(make_prob_vector([top, 1 - top]),
                               make_prob_vector(["51/100", "49/100"]), spec,
                               eps=Fraction(1, 10), ctx=Context(degree_cap=4, evidence="full"))
        with mpmath.workprec(256):
            margin = 2 * mpmath.log(1 + verdict.embedding.eps / spec.g.min_nonzero, 2)
            gap = verdict.h1.x_bits - (verdict.h1.y_bits - margin)
        # H(embedded rho) misses H(embedded sigma) - margin by a hair, so H1 fails
        assert 0 < gap < mpf("1e-16")
        assert verdict.h1.holds is False

    def test_closure_slack_keeps_the_context_precision(self, ambient_53_bits):
        verdict = check_thermo(make_prob_vector(["7/10", "1/5", "1/10"]),
                               make_prob_vector(["1/2", "3/10", "1/5"]),
                               gibbs_vector([0, 1, 2], Fraction(1, 3)), eps=Fraction(1, 10))
        with mpmath.workprec(256):
            assert verdict.closure_report.slack == 1 / verdict.slack_used[0]


class TestUniformGibbsIsLocc:
    """Under a uniform Gibbs vector the embedding is the identity and the
    thermal conditions on (y, x) are the LOCC conditions on (x, y)."""

    def test_orders_families_and_verdicts_agree(self):
        rng = random.Random(59)
        for trial in range(120):
            n = rng.randint(2, 5)
            y = random_prob_vector(rng, n, zeros=rng.choice([0, 0, rng.randint(0, n - 2)]))
            draw = rng.random()
            if draw < 0.4:
                x = mixed_toward_uniform(rng, y)
            elif draw < 0.6:
                # mixed, then the last entry pushed below y's: the curves cross
                e = list(mixed_toward_uniform(rng, y).entries)
                shift = e[-1] * Fraction(rng.randint(50, 95), 100)
                e[-2:] = [e[-2] + shift, e[-1] - shift]
                x = make_prob_vector(e)
            else:
                x = random_prob_vector(rng, n, zeros=rng.choice([0, rng.randint(0, n - 2)]))
            if trial % 4 == 3:
                x, y = y, x
            # under full evidence the thermal families run on refuted pairs
            # too; a coarse grid keeps its scans, which list every failing
            # point, small (the families do not read the grid)
            full = trial % 3 == 2
            ctx = Context(evidence="full") if full else Context()
            grid = GridSpec.parse("-2:3:1/2") if full else None
            locc = check_trumping(x, y, ctx, grid)
            thermal = check_thermo(y, x, gibbs_vector([0] * n, 0), ctx=ctx, grid=grid)
            label = f"trial {trial}: {x.entries} -> {y.entries}"
            if locc.exponents is not None and thermal.exponents is not None:
                assert thermal.exponents.r_bar == locc.exponents.r_bar, label
                if x.full_weight and y.full_weight:
                    assert thermal.exponents.s_bar == locc.exponents.s_bar, label
            for ours, theirs in ((thermal.closure_report, locc.closure_report),
                                 (thermal.negative_report, locc.negative_report)):
                if ours is not None and theirs is not None:
                    assert ours.all_hold == theirs.all_hold, label
                    assert ours.failing_k() == theirs.failing_k(), label
            assert (locc.status == "trumping_sufficient") == thermal.sufficient, label
            # closure membership alone does not rule out a refuting scan
            assert not (locc.status == "trumping_sufficient" and thermal.status == "refuted"), label
            assert not (thermal.sufficient and locc.status == "refuted"), label
