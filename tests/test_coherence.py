"""Pure-state coherence conversion: dephasing, free coherence, checker."""

import json
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from catamaj import (
    Context,
    GridSpec,
    InputError,
    NegativeEntry,
    SumNotOne,
    check_coherent_trumping,
    check_trumping,
    free_coherence_pure,
    make_prob_vector,
    majorizes,
    pad_pair,
    pure_state_from_amplitudes,
    pure_state_from_probs,
    renyi_entropy,
    tensor,
    verify_catalyst,
)
from catamaj.reports import trumping_verdict_to_json

# The orders of the entropy conditions that free coherence of order
# p in [0, 2) sets: H_a with a = 2 - p (a = 0, the rank, is left out, as
# renyi_entropy refuses it; see TestLoccOnTheDiagonal for that row).
ALPHAS = tuple(Fraction(k, 4) for k in range(1, 9))


def entropies_non_increasing(psi, phi):
    """H_a(psi) >= H_a(phi) at every a in ALPHAS."""
    return all(renyi_entropy(psi, a) >= renyi_entropy(phi, a) for a in ALPHAS)


@pytest.fixture
def psi():
    return pure_state_from_probs(["0.4", "0.4", "0.1", "0.1"])


@pytest.fixture
def phi():
    return pure_state_from_probs(["0.5", "0.25", "0.25"])


@pytest.fixture
def chi():
    return pure_state_from_probs(["0.6", "0.4"])


class TestConstruction:
    def test_amplitudes_are_squared(self):
        s = pure_state_from_amplitudes(["0.5", "0.5", "0.5", "0.5"])
        assert s.entries == (Fraction(1, 4),) * 4

    def test_squares_at_the_context_precision(self):
        # the CLI leaves mpmath at 53 bits, where 0.6^2 rounds to 0.35999...
        ctx = Context(backend="float")
        with mpmath.workprec(53):
            s = pure_state_from_amplitudes(["0.8", "0.6"], ctx)
        with mpmath.workprec(ctx.precision):
            assert s.entries == (mpf("0.8") ** 2, mpf("0.6") ** 2)

    def test_probability_flag_preserves_exactness(self, psi):
        assert psi.entries == (Fraction(2, 5), Fraction(2, 5),
                             Fraction(1, 10), Fraction(1, 10))
        assert psi.exact

    def test_normalization_enforced(self):
        with pytest.raises(SumNotOne):
            pure_state_from_amplitudes(["0.9", "0.9"])
        with pytest.raises(NegativeEntry):
            pure_state_from_probs(["1.5", "-0.5"])


class TestDephase:
    def test_basis_state(self):
        s = pure_state_from_probs(["0", "1", "0"])
        assert s.entries == (Fraction(0), Fraction(1), Fraction(0))

    def test_uniform_superposition(self):
        s = pure_state_from_amplitudes(["0.5"] * 4)
        assert s.entries == (Fraction(1, 4),) * 4

    def test_worked_example(self, psi):
        assert psi.entries == (Fraction(2, 5), Fraction(2, 5),
                               Fraction(1, 10), Fraction(1, 10))


class TestFreeCoherence:
    def test_incoherent_state_has_none(self):
        s = pure_state_from_probs(["1", "0"])
        for p in (0, Fraction(1, 2), 1, 2, 3):
            assert abs(free_coherence_pure(s, p)) < mpf("1e-60")

    def test_balanced_superposition_order_two(self):
        plus = pure_state_from_probs(["0.5", "0.5"])
        assert abs(free_coherence_pure(plus, 2) - 1) < mpf("1e-60")

    def test_balanced_superposition_kl(self):
        plus = pure_state_from_probs(["0.5", "0.5"])
        assert abs(free_coherence_pure(plus, 1) - 1) < mpf("1e-60")

    def test_negative_p_rejected(self):
        with pytest.raises(InputError):
            free_coherence_pure(pure_state_from_probs(["0.5", "0.5"]), -1)

    def test_nonnegative_on_grid(self, psi, phi):
        for state in (psi, phi):
            for k in range(0, 9):
                assert free_coherence_pure(state, Fraction(k, 4)) >= 0


class TestChecker:
    def test_worked_example_sufficient(self, psi, phi, chi):
        verdict = check_coherent_trumping(psi, phi)
        assert verdict.status == "trumping_sufficient"
        assert verdict.oracle.consistent
        assert entropies_non_increasing(psi, phi)
        # the dephased tensor products pass the exact Nielsen check
        assert verify_catalyst(psi, phi, chi)
        x2, y2 = pad_pair(psi, phi)
        assert not majorizes(y2, x2)

    def test_equal_states_refuted(self, psi):
        # psi -> psi needs no catalyst
        verdict = check_coherent_trumping(psi, psi)
        assert verdict.status == "trumping_sufficient"
        assert entropies_non_increasing(psi, psi)

    def test_basis_state_target(self):
        src = pure_state_from_probs(["0.25"] * 4)
        dst = pure_state_from_probs(["1", "0", "0", "0"])
        verdict = check_coherent_trumping(src, dst)
        # refutation tier passes (H1 drops to zero) and the family decides
        assert verdict.status == "trumping_sufficient"
        assert verdict.weight_branch == "weight_less"

    def test_dephasing_commutes_with_tensor(self, psi, chi):
        left = tensor(psi, chi)
        joint = [a * b for a in psi.entries for b in chi.entries]
        right = pure_state_from_probs(joint)
        assert left.entries == right.entries


# Small exact diagonals: ties and zeros come often.  The degree cap keeps
# a near tie of the tops from running the exact kernel for seconds; both
# checkers get the same context and grid.
SMALL_CTX = Context(degree_cap=64)
SMALL_GRID = GridSpec.parse("-4:4:1/4")
_weights = st.lists(st.integers(0, 4), min_size=2, max_size=4).filter(any)
# t in Q^(n-1) maps to the rational unit vector (2t, 1 - |t|^2)/(1 + |t|^2)
# (inverse stereographic projection): amplitudes whose squares are exact
_ts = st.lists(st.fractions(0, 2, max_denominator=3), min_size=1, max_size=3)


def _diagonal(weights):
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def _amplitudes(ts):
    norm = 1 + sum(t * t for t in ts)
    return [abs(2 * t / norm) for t in ts] + [abs((2 - norm) / norm)]


def _same_report(psi, phi, d_psi, d_phi):
    coherent = check_coherent_trumping(psi, phi, SMALL_CTX, SMALL_GRID)
    locc = check_trumping(make_prob_vector(d_psi), make_prob_vector(d_phi), SMALL_CTX,
                          SMALL_GRID)
    return (json.dumps(trumping_verdict_to_json(coherent))
            == json.dumps(trumping_verdict_to_json(locc)))


class TestLoccOnTheDiagonal:
    """check-coherence is check_trumping on the diagonals, report and all."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_weights, _weights)
    def test_from_probabilities(self, a, b):
        d_psi, d_phi = _diagonal(a), _diagonal(b)
        assert _same_report(pure_state_from_probs(d_psi), pure_state_from_probs(d_phi),
                            d_psi, d_phi)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_ts, _ts)
    def test_from_amplitudes(self, s, t):
        amps_psi, amps_phi = _amplitudes(s), _amplitudes(t)
        psi, phi = pure_state_from_amplitudes(amps_psi), pure_state_from_amplitudes(amps_phi)
        d_psi, d_phi = [a * a for a in amps_psi], [a * a for a in amps_phi]
        assert psi.entries == tuple(d_psi) and phi.entries == tuple(d_phi)
        assert _same_report(psi, phi, d_psi, d_phi)

    @pytest.mark.parametrize("backend", ["exact", "float"])
    @pytest.mark.parametrize("psi, phi", [
        (["1/2", "1/4", "1/4", "0"], ["1/2", "1/6", "1/6", "1/6"]),
        (["1/3", "1/3", "1/3", "0"], ["7/10", "1/10", "1/10", "1/10"]),
        (["1/2", "1/2", "0"], ["3/5", "1/5", "1/5"]),
    ])
    def test_a_rank_that_grows_is_never_sufficient(self, psi, phi, backend):
        # the alpha = 0 row the free-coherence report carried: psi's
        # diagonal has a zero that phi's lacks, so H_0(psi) < H_0(phi)
        ctx = Context(backend=backend)
        psi, phi = pure_state_from_probs(psi, ctx), pure_state_from_probs(phi, ctx)
        assert free_coherence_pure(psi, 2) < free_coherence_pure(phi, 2)
        assert not check_coherent_trumping(psi, phi, ctx).sufficient
