"""Probability-vector construction, norms, and entropies."""

import dataclasses
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from catamaj import (
    Context,
    InputError,
    NegativeEntry,
    ProbVector,
    PZero,
    ReciprocalOfZero,
    SumNotOne,
    EmptyInput,
    burg_entropy,
    majorizes,
    make_prob_vector,
    pad_pair,
    pointwise_power,
    renyi_entropy,
    scaled_p_norm,
    shannon_entropy,
    tensor,
    uniform,
)
from conftest import random_prob_vector

FLOAT_CTX = Context(backend="float")


class TestConstruction:
    def test_symmetric_pair(self):
        v = make_prob_vector([0.5, 0.5])
        assert v.entries == (Fraction(1, 2), Fraction(1, 2))
        assert v.weight == 2

    def test_unsorted_input_keeps_its_order(self):
        v = make_prob_vector(["0.0435", "0.042", "0.61", "0.3045"])
        assert v.entries == (Fraction("0.0435"), Fraction("0.042"),
                             Fraction("0.61"), Fraction("0.3045"))
        assert v.weight == 4
        assert v.top == Fraction("0.61") and v.min_nonzero == Fraction("0.042")

    def test_sum_not_one_rejected(self):
        with pytest.raises(SumNotOne) as err:
            make_prob_vector([0.3, 0.3])
        assert err.value.deviation == Fraction(-2, 5)

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntry):
            make_prob_vector([1.5, -0.5])

    def test_nan_entry_rejected(self):
        # a NaN compares False with 0 and with sum_tol alike
        with pytest.raises(NegativeEntry, match="nan"):
            make_prob_vector([mpf("nan"), 1], FLOAT_CTX)
        # literals go through parse_exact on both backends
        for bad in ("nan", "inf", float("nan"), float("inf")):
            with pytest.raises(InputError):
                make_prob_vector([bad, 1], FLOAT_CTX)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            make_prob_vector([])

    def test_decimal_strings_parse_exactly(self):
        v = make_prob_vector(["0.61", "0.39"])
        assert v.entries[0] == Fraction(61, 100)

    def test_float_backend_tolerates_rounding(self):
        v = make_prob_vector([0.1] * 10, FLOAT_CTX)
        assert not v.exact
        assert v.weight == 10

    def test_tolerate_sum_keeps_entries_unscaled(self):
        v = make_prob_vector(["0.5", "0.499"], Context(sum_tol=Fraction(1, 100)))
        assert v.entries == (Fraction(1, 2), Fraction(499, 1000))
        with pytest.raises(SumNotOne):
            make_prob_vector(["0.5", "0.499"], Context(sum_tol=Fraction(1, 10000)))

    def test_weight_counts_nonzero(self):
        v = make_prob_vector(["0.5", "0.5", "0"])
        assert v.weight == 2 and v.dim == 3
        assert v.min_nonzero == Fraction(1, 2)

    def test_weight_and_exactness_follow_from_the_entries(self):
        # the one field is the entries: an mpf among them is never exact
        assert [f.name for f in dataclasses.fields(ProbVector)] == ["entries"]
        v = ProbVector((Fraction(1, 2), mpf("0.5"), Fraction(0)))
        assert not v.exact and v.weight == 2
        w = ProbVector((Fraction(1, 2), Fraction(1, 2), Fraction(0)))
        assert w.exact and w.weight == 2 and w.padded(5).weight == 2

    def test_padding(self):
        x = make_prob_vector(["0.5", "0.5"])
        y = make_prob_vector(["1"])
        x2, y2 = pad_pair(x, y)
        assert y2.dim == 2 and y2.entries == (Fraction(1), Fraction(0))
        assert y2.weight == 1 and x2 is x


class TestTensor:
    def test_identity_catalyst(self):
        x = make_prob_vector(["0.7", "0.3"])
        one = make_prob_vector(["1"])
        assert tensor(one, x).entries == x.entries

    def test_symmetric_square(self):
        h = make_prob_vector([0.5, 0.5])
        assert tensor(h, h).entries == (Fraction(1, 4),) * 4

    def test_worked_example_product(self, locc_pair, locc_catalyst):
        x, _ = locc_pair
        t = tensor(x, locc_catalyst)
        assert t.dim == 16
        assert t.entries[0] == Fraction("0.2928")

    def test_mixed_backend_coerces_to_float(self):
        x = make_prob_vector(["0.5", "0.5"])
        y = make_prob_vector([0.5, 0.5], FLOAT_CTX)
        assert not tensor(x, y).exact

    def test_float_products_keep_the_context_precision(self):
        # at the 53 bits mpmath starts with, the composites' totals would
        # split by ~1e-16, far past the rounding bound of the context
        # precision that the ground truth allows
        x = make_prob_vector(["0.166", "0.445", "0.389"], FLOAT_CTX)
        y = make_prob_vector(["0.166", "0.611", "0.223"], FLOAT_CTX)
        c = make_prob_vector(["0.7", "0.2", "0.1"], FLOAT_CTX)
        with mpmath.workprec(53):
            composites = tensor(x, c, FLOAT_CTX), tensor(y, c, FLOAT_CTX)
        with mpmath.workprec(FLOAT_CTX.precision):
            assert composites[0].entries == tuple(a * b for a in x.entries for b in c.entries)
        assert majorizes(*reversed(composites), FLOAT_CTX)


class TestPointwise:
    def test_power_one_is_identity(self):
        x = make_prob_vector(["0.5", "0.3", "0.2"])
        assert pointwise_power(x, 1) == x.entries

    def test_reciprocal(self):
        x = make_prob_vector([0.5, 0.5])
        assert pointwise_power(x, -1) == (Fraction(2), Fraction(2))

    def test_square(self):
        x = make_prob_vector(["0.5", "0.3", "0.2"])
        assert pointwise_power(x, 2) == (Fraction(1, 4), Fraction(9, 100),
                                         Fraction(1, 25))

    def test_reciprocal_of_zero_rejected(self):
        x = make_prob_vector(["0.5", "0.5", "0"])
        with pytest.raises(ReciprocalOfZero):
            pointwise_power(x, -1)


class TestScaledPNorm:
    def test_uniform_any_p(self):
        u = uniform(4)
        for p in [-3, -1, 0, Fraction(1, 2), 1, 2, 7]:
            assert abs(scaled_p_norm(u, p) - mpf(1) / 4) < mpf("1e-70")

    def test_p_one_is_mean(self):
        rng = random.Random(7)
        for _ in range(5):
            v = random_prob_vector(rng, 5)
            assert abs(scaled_p_norm(v, 1) - mpf(1) / 5) < mpf("1e-70")

    def test_negative_p_on_deficient_weight_is_zero(self):
        v = make_prob_vector(["0.5", "0.5", "0"])
        assert scaled_p_norm(v, -1) == 0

    def test_geometric_mean_at_zero(self):
        v = make_prob_vector(["0.5", "0.25", "0.25"])
        expected = mpmath.mpf(1) / mpmath.root(32, 3)  # (1/32)^(1/3)
        assert abs(scaled_p_norm(v, 0) - expected) < mpf("1e-70")

    def test_raw_sequence_accepted(self):
        assert abs(scaled_p_norm([Fraction(2), Fraction(2)], 1) - 2) < mpf("1e-70")


class TestEntropies:
    def test_uniform_renyi_is_log_dim_for_positive_p(self):
        u = uniform(4)
        for p in [Fraction(1, 2), 1, 2, 9]:
            assert abs(renyi_entropy(u, p) - 2) < mpf("1e-70")
        # the sign(p) convention flips the value for negative orders
        assert abs(renyi_entropy(u, -2) + 2) < mpf("1e-70")

    def test_fair_coin_shannon(self):
        assert abs(shannon_entropy(make_prob_vector([0.5, 0.5])) - 1) < mpf("1e-70")

    def test_negative_p_deficient_weight(self):
        v = make_prob_vector(["0.5", "0.5", "0"])
        assert renyi_entropy(v, -1) == mpf("-inf")

    def test_p_zero_rejected(self):
        with pytest.raises(PZero):
            renyi_entropy(make_prob_vector([0.5, 0.5]), 0)

    def test_burg_uniform(self):
        assert abs(burg_entropy(uniform(4)) + 2) < mpf("1e-70")

    def test_burg_zero_entry(self):
        assert burg_entropy(make_prob_vector(["0.5", "0.5", "0"])) == mpf("-inf")

    def test_burg_forced_arithmetic(self):
        v = make_prob_vector(["0.5", "0.25", "0.25"])
        assert abs(burg_entropy(v) + Fraction(5, 3)) < mpf("1e-70")

    def test_burg_equals_log_of_zero_norm(self):
        rng = random.Random(11)
        for _ in range(10):
            v = random_prob_vector(rng, 4)
            lhs = burg_entropy(v)
            rhs = mpmath.log(scaled_p_norm(v, 0), 2)
            assert abs(lhs - rhs) < mpf("1e-60")
