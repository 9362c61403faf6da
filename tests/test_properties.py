"""Cross-module invariants on randomized inputs (seeded, deterministic)."""

import json
import random
from fractions import Fraction

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from catamaj import (
    Context,
    GridSpec,
    burg_entropy,
    check_thermo,
    check_trumping,
    divergence_scan,
    embed,
    embedding_from_rational,
    free_coherence_pure,
    gibbs_vector,
    majorizes,
    make_prob_vector,
    oracle_scan,
    pointwise_power,
    pure_state_from_probs,
    rational_approx,
    renyi_divergence,
    renyi_entropy,
    scaled_p_norm,
    search_catalyst,
    tensor,
    thermal_from_gibbs,
    thermo_majorizes,
    uniform,
    verify_catalyst,
)
from catamaj.reports import thermo_verdict_to_json, trumping_verdict_to_json
from catamaj.thermo import SAME_PAIRS, THERMO_MAJORIZED
from catamaj.trumping import MAJORIZED, SAME_ENTRIES
from conftest import mixed_toward_uniform, random_prob_vector
from test_majorization import reference_thermo_majorizes

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
                # y majorizes x: decided before any scan, so scanned here
                assert (verdict.oracle or oracle_scan(x, y)).consistent
        assert confirmed >= 10

    def test_refuted_instances_fail_catalysis_spot_check(self):
        rng = random.Random(101)
        for _ in range(10):
            x = random_prob_vector(rng, 3)
            y = mixed_toward_uniform(rng, x)  # y below x: refuted direction
            verdict = check_trumping(x, y)
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
                # q_sigma thermo-majorizes q_rho: decided before any scan
                scan = verdict.oracle or divergence_scan(q_sigma, q_rho, spec.g)
                assert scan.consistent
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


def _permuted(v, order, ctx=Context()):
    return make_prob_vector([v.entries[i] for i in order], ctx)


@st.composite
def small_vectors(draw, dim, max_total=12):
    """An exact distribution m / sum(m) on `dim` entries, in the order
    drawn, with 0 < sum(m) <= max_total."""
    m = draw(st.lists(st.integers(0, max_total), min_size=dim, max_size=dim)
             .filter(lambda m: 0 < sum(m) <= max_total))
    return make_prob_vector([Fraction(mi, sum(m)) for mi in m])


@st.composite
def gibbs_mixes(draw):
    """(q_rho, q_sigma, g): g = nu / N with N <= 12, q_rho != g in any order
    relative to g, and q_sigma = lam q_rho + (1 - lam) g, which q_rho
    thermo-majorizes (the mix is a Gibbs-preserving map)."""
    d = draw(st.integers(2, 4))
    g = draw(small_vectors(d).filter(lambda v: v.full_weight))
    q_rho = draw(small_vectors(d, 30).filter(lambda v: v != g))
    lam = Fraction(draw(st.integers(1, 5)), 6)
    q_sigma = make_prob_vector([lam * a + (1 - lam) * b for a, b in zip(q_rho.entries, g.entries)])
    return q_rho, q_sigma, g


CAPPED = Context(degree_cap=600)


class TestGivenBasisOrder:
    """Every vector keeps the order it was given: thermal states pair with g
    index-wise, and LOCC verdicts do not see the order at all."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=gibbs_mixes(), data=st.data())
    def test_thermal_mixes_are_never_refuted(self, case, data):
        q_rho, q_sigma, g = case
        assert reference_thermo_majorizes(q_rho, q_sigma, g)
        verdict = check_thermo(q_rho, q_sigma, thermal_from_gibbs(g), ctx=CAPPED)
        assert verdict.status != "refuted"
        # a joint permutation of the levels changes only the embedding's order
        order = data.draw(st.permutations(range(g.dim)))
        moved = check_thermo(*(_permuted(v, order) for v in case[:2]),
                             thermal_from_gibbs(_permuted(g, order)), ctx=CAPPED)
        report, moved_report = thermo_verdict_to_json(verdict), thermo_verdict_to_json(moved)
        embedding, moved_embedding = report.pop("embedding"), moved_report.pop("embedding")
        assert moved_report == report
        assert moved_embedding["nu"] == [embedding["nu"][i] for i in order]
        assert moved_embedding["g_eps"] == [embedding["g_eps"][i] for i in order]

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_tensor_composites_agree_with_catalyst_verification(self, data):
        d, k = data.draw(st.integers(2, 3)), data.draw(st.integers(1, 3))
        x, y, c = (data.draw(small_vectors(n)) for n in (d, d, k))
        g, g_cat = (data.draw(small_vectors(n).filter(lambda v: v.full_weight)) for n in (d, k))
        # on the float backend too, where each product rounds once more
        ctx = data.draw(st.sampled_from([Context(), Context(backend="float")]))
        x, y, c, g, g_cat = (make_prob_vector(v.entries, ctx) for v in (x, y, c, g, g_cat))
        assert (verify_catalyst(x, y, c, "thermo", g, g_cat, ctx)
                == thermo_majorizes(tensor(x, c, ctx), tensor(y, c, ctx), tensor(g, g_cat, ctx), ctx))
        assert verify_catalyst(x, y, c, ctx=ctx) == majorizes(tensor(y, c, ctx), tensor(x, c, ctx), ctx)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_locc_reports_ignore_the_entry_order(self, data):
        d = data.draw(st.integers(2, 5))
        y = data.draw(small_vectors(d, 30))
        lam = Fraction(data.draw(st.integers(1, 9)), 10)
        x = make_prob_vector([lam * e + (1 - lam) / d for e in y.entries])
        if data.draw(st.booleans()):
            x = data.draw(small_vectors(d, 30))
        ctx = data.draw(st.sampled_from([CAPPED, Context(degree_cap=600, backend="float"),
                                         Context(degree_cap=600, evidence="full")]))
        orders = [data.draw(st.permutations(range(d))) for _ in range(2)]

        def report(order_x, order_y):
            verdict = check_trumping(_permuted(x, order_x, ctx), _permuted(y, order_y, ctx), ctx)
            return json.dumps(trumping_verdict_to_json(verdict))

        assert report(range(d), range(d)) == report(*orders)


SUFFICIENT_STATUSES = {"trumping_sufficient", "closure_sufficient", "sufficient"}


class TestBackendsNeverSplit:
    """The same exact pair on the exact and the float backend never ends
    sufficient on one and refuted on the other."""

    @staticmethod
    def _split(exact_verdict, float_verdict):
        statuses = {exact_verdict.status, float_verdict.status}
        return "refuted" in statuses and bool(statuses & SUFFICIENT_STATUSES)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_check_trumping(self, data):
        d = data.draw(st.integers(2, 4))
        y = data.draw(small_vectors(d, 30))
        x = data.draw(small_vectors(d, 30))
        if data.draw(st.booleans()):
            lam = Fraction(data.draw(st.integers(1, 9)), 10)
            x = make_prob_vector([lam * e + (1 - lam) / d for e in y.entries])
        exact, floating = (check_trumping(*(make_prob_vector(v.entries, ctx) for v in (x, y)), ctx)
                           for ctx in (CAPPED, Context(degree_cap=600, backend="float")))
        assert not self._split(exact, floating)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(case=gibbs_mixes(), swap=st.booleans())
    def test_check_thermo(self, case, swap):
        q_rho, q_sigma, g = case
        if swap:
            q_rho, q_sigma = q_sigma, q_rho
        exact, floating = (
            check_thermo(*(make_prob_vector(v.entries, ctx) for v in (q_rho, q_sigma)),
                         thermal_from_gibbs(make_prob_vector(g.entries, ctx)), ctx=ctx)
            for ctx in (CAPPED, Context(degree_cap=600, backend="float")))
        assert not self._split(exact, floating)


ONE = make_prob_vector(["1"])
SHORT = Context(degree_cap=64)
SHORT_GRID = GridSpec(Fraction(-5), Fraction(5), Fraction(1, 4))


def _moved(v, i, j, share):
    """v with the pair (v_i, v_j) replaced by its `share` mix into
    (v_i + v_j) share, (v_i + v_j)(1 - share): a doubly stochastic step when
    share lies between the two shares of v, a Gibbs-preserving one when it
    is the Gibbs share g_i / (g_i + g_j) mixed in."""
    entries = list(v.entries)
    total = entries[i] + entries[j]
    entries[i], entries[j] = total * share, total * (1 - share)
    return make_prob_vector(entries)


@st.composite
def zero_padded(draw, v):
    """v with up to two zeros inserted at drawn places."""
    entries = list(v.entries)
    for _ in range(draw(st.integers(0, 2))):
        entries.insert(draw(st.integers(0, len(entries))), Fraction(0))
    return make_prob_vector(entries)


class TestMajorizedPairsAreNeverRefuted:
    """A pair that converts with the catalyst (1) is never refuted, whatever
    zeros the two vectors have: on both sides, on one, or none, with
    supports of unequal size.  Exact with equal totals, as drawn here, it is
    sufficient before any scan, exponent or family, tied tops included; and
    a pair of at most three nonzero entries a side is decided either way."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_check_trumping(self, data):
        d = data.draw(st.integers(2, 4))
        y = data.draw(small_vectors(d))
        if data.draw(st.booleans()):
            x = data.draw(small_vectors(data.draw(st.integers(2, 4))))
        else:    # a few Robin Hood steps between y's entries keep x below y
            x = y
            for _ in range(data.draw(st.integers(1, 3))):
                i, j = data.draw(st.permutations(range(d)))[:2]
                lam = Fraction(data.draw(st.integers(0, 4)), 4)
                x = _moved(x, i, j, lam * x.entries[i] / ((x.entries[i] + x.entries[j]) or 1)
                           + (1 - lam) / 2)
        x, y = data.draw(zero_padded(x)), data.draw(zero_padded(y))
        if not verify_catalyst(x, y, ONE):
            return
        verdict = check_trumping(x, y, SHORT, grid=SHORT_GRID)
        assert verdict.status != "refuted", (x.entries, y.entries, verdict.reasons)
        assert verdict.status == "trumping_sufficient" and verdict.oracle is None
        assert verdict.reasons in ((MAJORIZED,), (SAME_ENTRIES,))
        assert verdict.exponents is None and verdict.closure_report is None

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_three_entries_are_decided(self, data):
        # supports of at most 3 entries: what is left once the shared zeros
        # drop has at most 3 entries, where trumping is majorization
        x, y = (data.draw(zero_padded(data.draw(small_vectors(data.draw(st.integers(1, 3))))))
                for _ in range(2))
        verdict = check_trumping(x, y, SHORT, grid=SHORT_GRID)
        assert verdict.status in ("trumping_sufficient", "refuted"), verdict.reasons
        assert (verdict.status == "trumping_sufficient") == majorizes(y, x)
        assert verdict.oracle is None and len(verdict.reasons) == 1

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_check_thermo(self, data):
        d = data.draw(st.integers(2, 4))
        g = data.draw(small_vectors(d).filter(lambda v: v.full_weight))
        q_rho = data.draw(small_vectors(d))
        if data.draw(st.booleans()):
            q_sigma = data.draw(small_vectors(d))
        else:    # Gibbs-preserving mixes on two levels keep q_rho above q_sigma
            q_sigma = q_rho
            for _ in range(data.draw(st.integers(1, 3))):
                i, j = data.draw(st.permutations(range(d)))[:2]
                lam = Fraction(data.draw(st.integers(0, 4)), 4)
                total = q_sigma.entries[i] + q_sigma.entries[j]
                own = q_sigma.entries[i] / total if total else 0
                q_sigma = _moved(q_sigma, i, j, lam * own
                                 + (1 - lam) * g.entries[i] / (g.entries[i] + g.entries[j]))
        if data.draw(st.booleans()):    # one more level, where both states vanish
            at, weight = data.draw(st.integers(0, d)), Fraction(data.draw(st.integers(1, 6)), 6)

            def inserted(v, entry):
                return v.entries[:at] + (entry,) + v.entries[at:]

            q_rho, q_sigma = (make_prob_vector(inserted(v, Fraction(0))) for v in (q_rho, q_sigma))
            g = make_prob_vector([e / (1 + weight) for e in inserted(g, weight)])
        if not verify_catalyst(q_rho, q_sigma, ONE, "thermo", g):
            return
        verdict = check_thermo(q_rho, q_sigma, thermal_from_gibbs(g), ctx=SHORT, grid=SHORT_GRID)
        assert verdict.status != "refuted", (q_rho.entries, q_sigma.entries, g.entries,
                                             verdict.reasons)
        assert verdict.status == "sufficient" and verdict.oracle is None
        assert verdict.reasons in ((THERMO_MAJORIZED,), (SAME_PAIRS,))
        assert verdict.exponents is None and verdict.closure_report is None
