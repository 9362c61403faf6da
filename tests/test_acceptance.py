"""Acceptance suite: one test per criterion, each printing a live verdict.

Criterion 3 includes a reference claim -- that the four-dimensional catalyst
(0.48, 0.24, 0.16, 0.12) makes the thermal worked example thermo-majorize --
which fails direct numerical verification (the composite Lorenz curves cross
by margins around 1e-3, confirmed independently via hockey-stick dominance
and across every pairing convention).  That single assertion is kept as
stated and fails honestly; see README "Known discrepancies" and the
surrounding tests for the verified behaviour.
"""

import random
import time
from fractions import Fraction

import mpmath
from mpmath import mpf

from catamaj import (
    Context,
    STRICT_GREATER,
    check_coherent_trumping,
    check_thermo,
    check_trumping,
    compare_F_family,
    continuity_bound,
    embed,
    embedding_from_rational,
    f_poly_coeffs,
    gibbs_vector,
    majorizes,
    make_prob_vector,
    oracle_scan,
    pointwise_power,
    pure_state_from_probs,
    renyi_divergence,
    scaled_p_norm,
    search_catalyst,
    thermo_majorizes,
    uniform,
    verify_catalyst,
)
from conftest import (
    kl_terms,
    mixed_toward_uniform,
    power_sum_terms,
    random_prob_vector,
)

FLOAT256 = Context(backend="float", precision=256)


def test_acceptance_1_locc_worked_example(announce, locc_pair, locc_catalyst):
    """Exact-mode checker certifies the LOCC example and its catalyst."""
    x, y = locc_pair
    start = time.monotonic()
    verdict = check_trumping(x, y)
    catalyzed = verify_catalyst(x, y, locc_catalyst)
    elapsed = time.monotonic() - start

    ok = (verdict.status == "trumping_sufficient"
          and verdict.exponents.r_bar == 8
          and verdict.exponents.s_bar == 1
          and abs(verdict.exponents.r - mpf("7.63")) < mpf("0.01")
          and abs(verdict.exponents.s - mpf("0.97")) < mpf("0.01")
          and catalyzed
          and elapsed < 5.0)
    announce("criterion 1 (LOCC worked example)", ok,
             f"status={verdict.status}, r_bar={verdict.exponents.r_bar}, "
             f"s_bar={verdict.exponents.s_bar}, catalyst={catalyzed}, {elapsed:.2f}s")
    assert verdict.status == "trumping_sufficient"
    assert verdict.exponents.r_bar == 8 and verdict.exponents.s_bar == 1
    assert abs(verdict.exponents.r - mpf("7.63")) < mpf("0.01")
    assert abs(verdict.exponents.s - mpf("0.97")) < mpf("0.01")
    assert catalyzed
    assert elapsed < 5.0


def test_acceptance_2_counterexample_pair(announce, counterexample_pair):
    """Criterion stays silent on the incomparable pair, yet a two-dimensional
    catalyst exists on the published grid."""
    x, y = counterexample_pair
    start = time.monotonic()
    verdict = check_trumping(x, y)
    found = search_catalyst(x, y, 2, Fraction(1, 1000))
    elapsed = time.monotonic() - start

    ok = (verdict.status != "trumping_sufficient"
          and found is not None
          and verify_catalyst(x, y, found)
          and elapsed < 60.0)
    announce("criterion 2 (counterexample pair)", ok,
             f"status={verdict.status}, catalyst={tuple(str(e) for e in found.entries) if found else None}, "
             f"{elapsed:.1f}s")
    assert verdict.status != "trumping_sufficient"
    assert found is not None
    assert verify_catalyst(x, y, found)
    assert elapsed < 60.0


def test_acceptance_3_thermal_example_verified_clauses(announce, thermo_pair):
    """The verifiable clauses of the thermal worked example."""
    q_rho, q_sigma = thermo_pair
    spec = gibbs_vector([0, 1, 2, 3], "1.2")

    no_catalyst = thermo_majorizes(q_rho, q_sigma, spec.g)
    verdict = check_thermo(q_rho, q_sigma, spec, g_eps=uniform(4))

    logged = (f"slack-adjusted checker outcome: status={verdict.status}, "
              f"path={verdict.path}, eps={mpmath.nstr(verdict.embedding.eps, 6)}, "
              f"reasons={verdict.reasons}")
    mismatch_note = (
        "NOTE: the reference run claims the maximally mixed approximation "
        "certifies this transformation; with eps ~ 0.909 the adjusted "
        "exponent is undefined, so the checker honestly reports "
        "inconclusive. The divergence scan stays consistent, so the "
        "transformation itself remains plausible.")

    ok = (no_catalyst is False
          and verdict.status == "inconclusive"
          and any("r undefined" in r for r in verdict.reasons)
          and verdict.oracle.consistent)
    announce("criterion 3 (thermal example, verified clauses)", ok,
             f"no-catalyst dominance={no_catalyst}; {logged}")
    announce("criterion 3 (reference-claim mismatch report)", True, mismatch_note)

    assert no_catalyst is False
    assert verdict.status == "inconclusive"
    assert any("r undefined" in r for r in verdict.reasons)
    assert verdict.oracle.consistent


def test_acceptance_3_quoted_thermal_catalyst(announce, thermo_pair, locc_catalyst):
    """The quoted catalyst claim, asserted as stated.

    Direct Lorenz verification shows composite curves crossing by ~1e-3
    (independent hockey-stick dominance agrees, and no state-to-level pairing
    or catalyst Hamiltonian convention repairs it), so this assertion fails;
    it is retained unweakened because the suite pins the reference claim.
    """
    q_rho, q_sigma = thermo_pair
    spec = gibbs_vector([0, 1, 2, 3], "1.2")
    verified = verify_catalyst(q_rho, q_sigma, locc_catalyst, "thermo", g=spec.g)
    announce("criterion 3 (quoted thermal catalyst)", verified,
             f"verify_catalyst(thermo, trivial catalyst Hamiltonian) = {verified}; "
             "reference claim expects True -- see README 'Known discrepancies'")
    assert verified, ("quoted catalyst (0.48, 0.24, 0.16, 0.12) does not make "
                      "the thermal composite thermo-majorize; curves cross by "
                      "~1e-3 (see decisions ledger / README)")


def test_acceptance_4_coherence_worked_example(announce):
    """Pure-state coherence example certifies, and its catalyst checks exactly."""
    psi = pure_state_from_probs(["0.4", "0.4", "0.1", "0.1"])
    phi = pure_state_from_probs(["0.5", "0.25", "0.25"])
    chi = pure_state_from_probs(["0.6", "0.4"])

    verdict = check_coherent_trumping(psi, phi)
    nielsen = verify_catalyst(psi, phi, chi)

    ok = verdict.status == "trumping_sufficient" and nielsen
    announce("criterion 4 (coherence worked example)", ok,
             f"status={verdict.status}, dephased Nielsen with catalyst={nielsen}")
    assert verdict.status == "trumping_sufficient"
    assert nielsen


class TestAcceptance5PropertySuites:
    CASES = 200

    def test_5a_coefficients_below_truncation_are_factorial(self, announce):
        rng = random.Random(201)
        from math import factorial
        checked = 0
        for _ in range(self.CASES):
            dim = rng.randint(2, 6)
            r = rng.randint(1, 6)
            v = random_prob_vector(rng, dim)
            poly = f_poly_coeffs(v, r)
            for k in range(0, r + 1):
                assert poly[k] == Fraction(1, factorial(k))
            checked += 1
        announce("criterion 5a (coefficients = 1/k! for k <= r)", True,
                 f"{checked} randomized cases, exact")
        assert checked >= self.CASES

    def test_5b_norm_identities_float256(self, announce):
        rng = random.Random(203)
        checked = 0
        for _ in range(self.CASES):
            dim = rng.randint(2, 5)
            raw = [rng.uniform(0.05, 1.0) for _ in range(dim)]
            total = sum(raw)
            x = make_prob_vector([v / total for v in raw], FLOAT256)
            p = mpf(f"{rng.uniform(0.1, 4.0):.6f}")
            m = mpf(f"{rng.uniform(0.2, 3.0):.6f}")
            lhs = scaled_p_norm(x, p * m, FLOAT256)
            rhs = scaled_p_norm(pointwise_power(x, m, FLOAT256), p, FLOAT256) ** (1 / m)
            assert abs(lhs - rhs) < mpf("1e-12")
            prod = (scaled_p_norm(x, p, FLOAT256)
                    * scaled_p_norm(pointwise_power(x, -1, FLOAT256), -p, FLOAT256))
            assert abs(prod - 1) < mpf("1e-12")
            checked += 1
        announce("criterion 5b (norm identities, float-256)", True,
                 f"{checked} randomized cases at 1e-12")
        assert checked >= self.CASES

    def test_5c_embedding_divergence_preservation_exact(self, announce):
        rng = random.Random(205)
        orders = [Fraction(-3), Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(3)]
        checked = 0
        for _ in range(self.CASES):
            dim = rng.randint(2, 4)
            nu = tuple(rng.randint(1, 5) for _ in range(dim))
            total = sum(nu)
            g_eps = make_prob_vector([Fraction(v, total) for v in nu])
            em = embedding_from_rational(g_eps)
            q = random_prob_vector(rng, dim, denom=rng.choice([60, 360, 720]))
            lifted = embed(q, em)
            u_entries = [Fraction(1, em.N)] * em.N
            for p in orders:
                lhs = power_sum_terms(q.entries, g_eps.entries, p)
                rhs = power_sum_terms(lifted.entries, u_entries, p)
                assert lhs == rhs
            assert kl_terms(q.entries, g_eps.entries) == kl_terms(lifted.entries, u_entries)
            checked += 1
        announce("criterion 5c (embedding preserves divergences, exact)", True,
                 f"{checked} randomized cases, orders {{-3,-1,1/2,2,3,KL}}, zero tolerance")
        assert checked >= self.CASES

    def test_5d_continuity_bound_never_violated(self, announce):
        rng = random.Random(207)
        orders = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5)]
        checked = 0
        for _ in range(self.CASES):
            dim = rng.randint(3, 5)
            x = random_prob_vector(rng, dim)
            g = random_prob_vector(rng, dim)
            delta = Fraction(rng.randint(1, 100), 1000)  # l1 shift up to 0.2
            donor = max(range(dim), key=lambda i: g.entries[i])
            taker = min(range(dim), key=lambda i: g.entries[i])
            move = min(delta, g.entries[donor] / 2)
            entries = list(g.entries)
            entries[donor] -= move
            entries[taker] += move
            g_eps = make_prob_vector(entries)
            l1 = 2 * move
            if l1 > Fraction(1, 5):
                continue
            g_min = min(g.entries)
            for p in orders:
                gap = abs(renyi_divergence(x, g_eps, p) - renyi_divergence(x, g, p))
                bound = continuity_bound(p, l1, g_min)
                assert gap <= bound + mpf("1e-30")
            checked += 1
        announce("criterion 5d (continuity bound holds)", True,
                 f"{checked} randomized perturbations, orders {{1/2,1,2,5}}")
        assert checked >= self.CASES

    def test_5e_family_implies_norm_inequalities(self, announce):
        rng = random.Random(209)
        qualifying = 0
        attempts = 0
        step = Fraction(1, 50)
        while qualifying < self.CASES and attempts < 20 * self.CASES:
            attempts += 1
            dim = rng.randint(3, 5)
            r = rng.choice([2, 3])
            y = random_prob_vector(rng, dim)
            x = mixed_toward_uniform(rng, y)
            family = compare_F_family(x, y, r, (r + 1, dim * r), STRICT_GREATER)
            if not family.all_hold:
                continue
            qualifying += 1
            p = step
            while p < 1:
                assert scaled_p_norm(x, p) > scaled_p_norm(y, p), f"p={p}"
                p += step
            p = 1 + step
            while p < r + 1:
                assert scaled_p_norm(x, p) < scaled_p_norm(y, p), f"p={p}"
                p += step
        announce("criterion 5e (family implies norm inequalities)",
                 qualifying >= self.CASES,
                 f"{qualifying} qualifying pairs out of {attempts} sampled")
        assert qualifying >= self.CASES

    def test_5f_sufficient_verdicts_pass_the_oracle(self, announce):
        rng = random.Random(211)
        sufficient = 0
        attempts = 0
        while sufficient < self.CASES and attempts < 4 * self.CASES:
            attempts += 1
            dim = rng.randint(3, 5)
            y = random_prob_vector(rng, dim)
            x = mixed_toward_uniform(rng, y, Fraction(rng.randint(30, 85), 100))
            verdict = check_trumping(x, y)
            if verdict.status != "trumping_sufficient":
                continue
            sufficient += 1
            # y majorizes x: the verdict comes before any scan, so the oracle
            # is run here
            assert verdict.oracle is None and majorizes(y, x)
            assert oracle_scan(x, y).consistent
        announce("criterion 5f (sufficient verdicts oracle-consistent)",
                 sufficient >= self.CASES,
                 f"{sufficient} sufficient verdicts out of {attempts} sampled")
        assert sufficient >= self.CASES


def test_acceptance_6_degenerate_handling(announce):
    """Equal vectors convert without a catalyst; larger top entry refutes;
    tied tops stay open unless y majorizes x."""
    v = make_prob_vector(["0.5", "0.3", "0.2"])
    equal = check_trumping(v, v)

    x_big = make_prob_vector(["0.8", "0.1", "0.1"])
    y_small = make_prob_vector(["0.7", "0.2", "0.1"])
    bigger_top = check_trumping(x_big, y_small)

    # x_1 + x_2 = 7/10 > 69/100: y does not majorize x
    tied = check_trumping(make_prob_vector(["2/5", "3/10", "3/20", "3/20"]),
                          make_prob_vector(["2/5", "29/100", "29/100", "1/50"]))
    tied_majorized = check_trumping(make_prob_vector(["0.5", "0.3", "0.2"]),
                                    make_prob_vector(["0.5", "0.4", "0.1"]))

    ok = (equal.status == "trumping_sufficient"
          and bigger_top.status == "refuted"
          and tied.status == "inconclusive"
          and "r undefined" in tied.reasons)
    announce("criterion 6 (degenerate handling)", ok,
             f"x=y: {equal.status}; x1>y1: {bigger_top.status}; "
             f"x1=y1: {tied.status} {tied.reasons}")
    assert equal.status == "trumping_sufficient"
    assert bigger_top.status == "refuted"
    assert tied.status == "inconclusive"
    assert "r undefined" in tied.reasons
    assert tied_majorized.status == "trumping_sufficient"
