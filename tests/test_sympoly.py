"""Truncated-exponential coefficient families against a brute-force oracle."""

import random
from fractions import Fraction
from math import factorial

import pytest
from mpmath import mpf

from catamaj import (
    Context,
    DegreeCapExceeded,
    KOutOfRange,
    STRICT_GREATER,
    STRICT_LESS,
    F_coeff,
    compare_F_family,
    f_poly_coeffs,
    make_prob_vector,
    pointwise_power,
)
from conftest import brute_coefficient, random_prob_vector


class TestCoefficients:
    def test_unit_sum_below_truncation(self):
        # any probability vector: coefficient k is 1/k! while k <= r
        rng = random.Random(3)
        v = random_prob_vector(rng, 4)
        poly = f_poly_coeffs(v, 3)
        assert poly[0] == 1
        assert poly[2] == Fraction(1, 2)
        assert poly[3] == Fraction(1, 6)

    def test_pair_at_order_one(self):
        poly = f_poly_coeffs(make_prob_vector([0.5, 0.5]), 1)
        assert list(poly.coeffs) == [1, 1, Fraction(1, 4)]

    def test_top_coefficient(self):
        rng = random.Random(5)
        for r in (1, 2, 3):
            v = random_prob_vector(rng, 3)
            poly = f_poly_coeffs(v, r)
            prod = Fraction(1)
            for e in v.entries:
                prod *= e**r
            assert poly[3 * r] == prod / Fraction(factorial(r)) ** 3

    def test_matches_composition_enumeration(self):
        rng = random.Random(9)
        for _ in range(6):
            v = random_prob_vector(rng, 3)
            r = rng.choice([1, 2, 3])
            poly = f_poly_coeffs(v, r)
            for k in range(0, 3 * r + 1):
                assert poly[k] == brute_coefficient(v.entries, k, r)

    def test_single_coefficient_lookup(self):
        v = make_prob_vector(["0.5", "0.3", "0.2"])
        assert F_coeff(v, 1, 2) == 1
        assert F_coeff(v, 0, 5) == 1
        assert F_coeff(v, 2, 1) == Fraction("0.31")
        with pytest.raises(KOutOfRange):
            F_coeff(v, 7, 2)

    def test_degree_cap(self):
        ctx = Context(degree_cap=10)
        with pytest.raises(DegreeCapExceeded):
            f_poly_coeffs(make_prob_vector([0.5, 0.5]), 6, ctx)

    def test_float_backend_close_to_exact(self):
        ctx = Context(backend="float")
        v_exact = make_prob_vector(["0.61", "0.39"])
        v_float = make_prob_vector(["0.61", "0.39"], ctx)
        exact = f_poly_coeffs(v_exact, 4)
        approx = f_poly_coeffs(v_float, 4, ctx)
        for k in range(9):
            diff = abs(mpf(exact[k].numerator) / mpf(exact[k].denominator) - approx[k])
            assert diff < mpf("1e-70")


class TestFamilyComparison:
    def test_strictness_on_equal_vectors(self):
        v = make_prob_vector(["0.5", "0.3", "0.2"])
        report = compare_F_family(v, v, 2, (2, 6), STRICT_GREATER)
        assert not report.all_hold
        assert report.failing_k() == (2, 3, 4, 5, 6)

    def test_worked_example_closure_family(self, locc_pair):
        # strict from k = r_bar + 1; at k = r_bar the coefficients tie at 1/k!
        x, y = locc_pair
        tie = compare_F_family(x, y, 8, (8, 8), STRICT_GREATER)
        assert not tie.all_hold
        report = compare_F_family(x, y, 8, (9, 32), STRICT_GREATER)
        assert report.all_hold
        assert report.per_k[0].lhs == brute_coefficient(x.entries, 9, 8)
        assert report.per_k[0].rhs == brute_coefficient(y.entries, 9, 8)

    def test_worked_example_reciprocal_family(self, locc_pair):
        x, y = locc_pair
        report = compare_F_family(pointwise_power(x, -1), pointwise_power(y, -1),
                                  1, (1, 4), STRICT_LESS)
        assert report.all_hold

    def test_slack_scales_the_right_side(self):
        v = make_prob_vector(["0.5", "0.3", "0.2"])
        w = make_prob_vector(["0.4", "0.35", "0.25"])
        plain = compare_F_family(w, v, 2, (3, 6), STRICT_GREATER, 1)
        assert plain.all_hold
        # an enormous slack multiplier on the right defeats every comparison
        heavy = compare_F_family(w, v, 2, (3, 6), STRICT_GREATER, Fraction(10))
        assert not heavy.all_hold

    def test_zero_padding_before_comparison(self):
        a = make_prob_vector(["0.5", "0.5"])
        b = make_prob_vector(["1"])
        report = compare_F_family(a, b, 1, (2, 2), STRICT_GREATER)
        assert report.all_hold  # F_{2,1}(a) = 1/4 > 0 = F_{2,1}(b padded)

    def test_float_comparisons_inside_margin_never_pass(self):
        # identical float vectors produce exactly tied coefficients; the
        # confirmation margin must refuse to call those strict
        ctx = Context(backend="float")
        v = make_prob_vector(["0.61", "0.39"], ctx)
        report = compare_F_family(v, v, 2, (3, 4), STRICT_GREATER, 1, ctx)
        assert not report.all_hold
        report = compare_F_family(v, v, 2, (3, 4), STRICT_LESS, 1, ctx)
        assert not report.all_hold

    def test_float_comparisons_beyond_margin_hold(self, locc_pair):
        ctx = Context(backend="float")
        x = make_prob_vector(["0.6100", "0.3045", "0.0435", "0.0420"], ctx)
        y = make_prob_vector(["0.7315", "0.1211", "0.1374", "0.0100"], ctx)
        report = compare_F_family(x, y, 8, (9, 32), STRICT_GREATER, 1, ctx)
        assert report.all_hold


class TestAlgebraicProperties:
    def test_generating_function_identity(self):
        # sum_k coeff_k t^k equals the product of truncated exponentials
        rng = random.Random(21)
        for _ in range(5):
            v = random_prob_vector(rng, 3)
            r = rng.choice([2, 3])
            poly = f_poly_coeffs(v, r)
            for t in (Fraction(1, 2), Fraction(1), Fraction(2)):
                lhs = sum(c * t**k for k, c in enumerate(poly.coeffs))
                rhs = Fraction(1)
                for e in v.entries:
                    rhs *= sum((e * t) ** j / factorial(j) for j in range(r + 1))
                assert lhs == rhs

    def test_permutation_symmetry(self):
        entries = [Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)]
        shuffled = [entries[2], entries[0], entries[1]]
        assert f_poly_coeffs(entries, 2).coeffs == f_poly_coeffs(shuffled, 2).coeffs

    def test_monotone_in_truncation_order(self):
        rng = random.Random(31)
        for _ in range(5):
            v = random_prob_vector(rng, 4)
            for r in (1, 2, 3):
                lo = f_poly_coeffs(v, r)
                hi = f_poly_coeffs(v, r + 1)
                for k in range(4 * r + 1):
                    assert lo[k] <= hi[k]
                    if r >= k:
                        assert lo[k] == hi[k]
