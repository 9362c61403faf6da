"""Pure-state coherence conversion: dephasing, free coherence, checker."""

from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from catamaj import (
    Context,
    InputError,
    NegativeEntry,
    SumNotOne,
    check_coherent_trumping,
    free_coherence_pure,
    majorizes,
    pad_pair,
    pure_state_from_amplitudes,
    pure_state_from_probs,
    tensor,
    verify_catalyst,
)


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
        assert verdict.coherence is not None
        assert verdict.coherence.all_non_increasing
        # the dephased tensor products pass the exact Nielsen check
        assert verify_catalyst(psi, phi, chi)
        x2, y2 = pad_pair(psi, phi)
        assert not majorizes(y2, x2)

    def test_equal_states_refuted(self, psi):
        # psi -> psi needs no catalyst
        verdict = check_coherent_trumping(psi, psi)
        assert verdict.status == "trumping_sufficient"
        assert verdict.coherence.all_non_increasing

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
