"""Cross-module invariants on randomized inputs (seeded, deterministic)."""

import random
from fractions import Fraction

import mpmath
from mpmath import mpf

from catamaj import (
    Context,
    burg_entropy,
    check_trumping,
    divergence_scan,
    embed,
    embedding_from_rational,
    free_coherence_pure,
    gibbs_vector,
    majorizes,
    make_prob_vector,
    pointwise_power,
    pure_state_from_probs,
    rational_approx,
    renyi_divergence,
    renyi_entropy,
    scaled_p_norm,
    search_catalyst,
    tensor,
    thermo_majorizes,
    uniform,
    verify_catalyst,
)
from conftest import mixed_toward_uniform, random_prob_vector

P_SAMPLES = [Fraction(-3), Fraction(-1), Fraction(1, 2), Fraction(3, 2), Fraction(4)]


class TestNormIdentities:
    def test_power_composition(self):
        # ||x||_(pm) equals ||x^m||_p ^ (1/m) on full-weight vectors
        rng = random.Random(41)
        for _ in range(40):
            x = random_prob_vector(rng, rng.randint(2, 5))
            p = Fraction(rng.randint(1, 8), rng.randint(1, 4))
            m = Fraction(rng.randint(1, 6), rng.randint(1, 3))
            lhs = scaled_p_norm(x, p * m)
            inv_m = mpf(m.denominator) / mpf(m.numerator)
            rhs = scaled_p_norm(pointwise_power(x, m), p) ** inv_m
            assert abs(lhs - rhs) < mpf("1e-40")

    def test_reciprocal_inversion(self):
        rng = random.Random(43)
        for _ in range(40):
            x = random_prob_vector(rng, rng.randint(2, 5))
            p = Fraction(rng.randint(1, 10), rng.randint(1, 3))
            prod = scaled_p_norm(x, p) * scaled_p_norm(pointwise_power(x, -1), -p)
            assert abs(prod - 1) < mpf("1e-50")

    def test_power_mean_monotonicity(self):
        rng = random.Random(47)
        for _ in range(30):
            x = random_prob_vector(rng, 4)
            values = [scaled_p_norm(x, p) for p in
                      (Fraction(1, 4), Fraction(1, 2), 1, 2, 4, 8)]
            assert all(a <= b + mpf("1e-70") for a, b in zip(values, values[1:]))

    def test_renyi_monotone_nonincreasing_in_p(self):
        rng = random.Random(53)
        for _ in range(30):
            x = random_prob_vector(rng, 4)
            values = [renyi_entropy(x, p) for p in
                      (Fraction(1, 4), Fraction(1, 2), 1, 2, 4, 8)]
            assert all(a >= b - mpf("1e-70") for a, b in zip(values, values[1:]))

    def test_tensor_additivity(self):
        rng = random.Random(59)
        for _ in range(20):
            x = random_prob_vector(rng, 3)
            y = random_prob_vector(rng, 2)
            xy = tensor(x, y)
            for p in P_SAMPLES + [Fraction(1)]:
                lhs = renyi_entropy(xy, p)
                rhs = renyi_entropy(x, p) + renyi_entropy(y, p)
                assert abs(lhs - rhs) < mpf("1e-45")
            assert abs(burg_entropy(xy) - burg_entropy(x) - burg_entropy(y)) < mpf("1e-45")


class TestMajorizationProperties:
    def test_tensor_monotone(self):
        rng = random.Random(61)
        for _ in range(20):
            y = random_prob_vector(rng, 3)
            x = mixed_toward_uniform(rng, y)
            z = random_prob_vector(rng, 3)
            assert majorizes(y, x)
            assert majorizes(tensor(y, z), tensor(x, z))

    def test_search_result_always_verifies(self):
        rng = random.Random(67)
        found_any = False
        for _ in range(15):
            y = random_prob_vector(rng, 3)
            x = mixed_toward_uniform(rng, y)
            c = search_catalyst(x, y, 2, Fraction(1, 6))
            if c is not None:
                found_any = True
                assert verify_catalyst(x, y, c)
        assert found_any

    def test_thermo_uniform_gibbs_equals_majorization(self):
        rng = random.Random(71)
        u = uniform(4)
        for _ in range(30):
            p = random_prob_vector(rng, 4)
            q = random_prob_vector(rng, 4)
            assert thermo_majorizes(p, q, u) == majorizes(p, q)


class TestEmbeddingProperties:
    def test_divergence_preserved_under_embedding(self):
        rng = random.Random(73)
        for _ in range(25):
            dim = rng.randint(2, 4)
            nu = tuple(rng.randint(1, 5) for _ in range(dim))
            total = sum(nu)
            g_eps = make_prob_vector([Fraction(v, total) for v in nu])
            em = embedding_from_rational(g_eps)
            q = random_prob_vector(rng, dim)
            lifted = embed(q, em)
            u = uniform(em.N)
            for p in P_SAMPLES + [Fraction(1)]:
                lhs = renyi_divergence(q, g_eps, p)
                rhs = renyi_divergence(lifted, u, p)
                assert abs(lhs - rhs) < mpf("1e-45")

    def test_data_processing_equality_under_embedding(self):
        # the channel replicates entry i of both arguments the same way, so
        # the divergence of the aligned images equals the original divergence;
        # computed pairwise here because sorting would scramble the alignment
        rng = random.Random(79)

        def div_pairs(pairs, p):
            pf = mpf(p.numerator) / p.denominator
            total = mpmath.fsum((mpf(a.numerator) / a.denominator) ** pf
                                * (mpf(b.numerator) / b.denominator) ** (1 - pf)
                                for a, b in pairs)
            return mpmath.log(total, 2) / (pf - 1)

        for _ in range(20):
            dim = rng.randint(2, 4)
            nu = tuple(rng.randint(1, 4) for _ in range(dim))
            q = random_prob_vector(rng, dim)
            w = random_prob_vector(rng, dim)
            aligned = [(qi / v, wi / v)
                       for qi, wi, v in zip(q.entries, w.entries, nu)
                       for _ in range(v)]
            for p in (Fraction(1, 2), Fraction(2), Fraction(3)):
                lhs = div_pairs(aligned, p)
                rhs = renyi_divergence(q, w, p)
                assert abs(lhs - rhs) < mpf("1e-45")

    def test_rational_approx_always_meets_target(self):
        rng = random.Random(83)
        for _ in range(15):
            dim = rng.randint(2, 5)
            energies = sorted(rng.uniform(0, 3) for _ in range(dim))
            spec = gibbs_vector([f"{e:.6f}" for e in energies], f"{rng.uniform(0.1, 2):.4f}")
            eps = Fraction(1, rng.choice([100, 500, 1000]))
            em = rational_approx(spec.g, eps)
            l1 = mpmath.fsum(abs(mpf(a.numerator) / a.denominator - b)
                             for a, b in zip(em.g_eps.entries, spec.g.entries))
            assert l1 <= mpf(eps.numerator) / eps.denominator
            assert sum(em.nu) == em.N and all(v >= 1 for v in em.nu)

    def test_divergence_vs_uniform_is_log_n_minus_entropy(self):
        rng = random.Random(89)
        for _ in range(20):
            x = random_prob_vector(rng, 4)
            for p in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5)):
                lhs = renyi_divergence(x, uniform(4), p)
                rhs = 2 - renyi_entropy(x, p)
                assert abs(lhs - rhs) < mpf("1e-45")


class TestCheckerSoundness:
    def test_sufficient_verdicts_never_contradict_the_oracle(self):
        rng = random.Random(97)
        confirmed = 0
        for _ in range(30):
            y = random_prob_vector(rng, rng.randint(3, 4))
            x = mixed_toward_uniform(rng, y)
            verdict = check_trumping(x, y)
            if verdict.status == "trumping_sufficient":
                confirmed += 1
                assert verdict.oracle.consistent
        assert confirmed >= 10

    def test_refuted_instances_fail_catalysis_spot_check(self):
        rng = random.Random(101)
        for _ in range(10):
            x = random_prob_vector(rng, 3)
            y = mixed_toward_uniform(rng, x)  # y below x: refuted direction
            verdict = check_trumping(x, y, with_oracle=False)
            if verdict.status == "refuted":
                assert search_catalyst(x, y, 2, Fraction(1, 5)) is None
        # inputs read in through a sum tolerance, short of mass by 0 or 1/1000
        # each: a refutation needs equal totals, and then no catalyst exists
        held_back = 0
        for _ in range(12):
            x = random_prob_vector(rng, 3)
            y = mixed_toward_uniform(rng, x)
            a, b = (make_prob_vector([e * (1 - rng.choice([0, Fraction(1, 1000)]))
                                      for e in v.entries], Context(sum_tol=Fraction(1, 100)))
                    for v in (x, y))
            verdict = check_trumping(a, b)
            if sum(a.entries) != sum(b.entries):
                assert verdict.status != "refuted"
                held_back += any(r.startswith("unequal masses") for r in verdict.reasons)
            elif verdict.status == "refuted":
                assert search_catalyst(a, b, 2, Fraction(1, 5)) is None
        assert held_back > 0

    def test_thermo_sufficient_matches_divergence_scan(self):
        rng = random.Random(103)
        from catamaj import check_thermo
        spec = gibbs_vector([0, 0, 0, 0], 0)
        confirmed = 0
        for _ in range(15):
            q_sigma = random_prob_vector(rng, 4)
            q_rho = mixed_toward_uniform(rng, q_sigma)
            # toward uniform means entropy grows, i.e. divergence drops:
            # rho -> sigma is the refutable direction, sigma -> rho certifiable
            verdict = check_thermo(q_sigma, q_rho, spec)
            if verdict.status == "sufficient":
                confirmed += 1
                assert verdict.oracle.consistent
        assert confirmed >= 5


class TestCoherenceProperties:
    def test_free_coherence_matches_entropy_orders_inside_window(self):
        # for pure states, the order-p coherence equals the order-(2-p)
        # entropy of the dephased vector on 0 < p < 2
        rng = random.Random(107)
        for _ in range(15):
            probs = random_prob_vector(rng, 4)
            state = pure_state_from_probs(probs.entries)
            for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 2), Fraction(7, 4)):
                lhs = free_coherence_pure(state, p)
                rhs = renyi_entropy(state, 2 - p)
                assert abs(lhs - rhs) < mpf("1e-45")

    def test_free_coherence_nonnegative(self):
        rng = random.Random(109)
        for _ in range(15):
            state = pure_state_from_probs(random_prob_vector(rng, 3).entries)
            for p in (0, Fraction(1, 2), 1, 2, 3, 5):
                assert free_coherence_pure(state, p) >= -mpf("1e-60")


class TestDeterminism:
    def test_identical_runs_identical_verdicts(self):
        rng = random.Random(113)
        y = random_prob_vector(rng, 4)
        x = mixed_toward_uniform(rng, y)
        assert check_trumping(x, y) == check_trumping(x, y)
        spec = gibbs_vector([0, 1, 2, 3], "0.9")
        assert (divergence_scan(x, y, spec.g) == divergence_scan(x, y, spec.g))
