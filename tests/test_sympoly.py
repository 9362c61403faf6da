"""Truncated-exponential coefficient families against a brute-force oracle
and against the full-degree exact kernel the float filter replaced."""

import random
from fractions import Fraction
from math import factorial

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
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
    ProbVector,
    make_prob_vector,
    pad_pair,
    pointwise_power,
)
from catamaj.context import REL_MARGIN, parse_exact
from catamaj.floatpass import (
    entry_logs,
    log_coeffs,
    log_factorials,
    log_tails,
    prints_alike,
    tail_ratio,
)
from catamaj.sympoly import _settled_by_tails, _settled_in_float, _tail_logs
from conftest import brute_coefficient, locc_families, random_prob_vector

FULL_CTX = Context(evidence="full")


def reference_convolve_int(a: list, b: list, top: int = None) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if top is None or i + j <= top:
                out[i + j] += ai * bj
    return out if top is None else out[:top + 1]


def reference_exact_coeffs(values, r: int, top: int = None):
    """Every coefficient 0..n*r (0..top if given), exact: the kernel before
    the float filter."""
    # Factor i is scaled by den_i^r * r!, making its coefficients integers:
    #   a_i^j * den_i^(r-j) * (r!/j!)  for j = 0..r.
    # The product of the scaled factors is divided out at the end.
    r_fact = factorial(r)
    falling = [r_fact // factorial(j) for j in range(r + 1)]
    product = [1]
    denominator = 1
    for v in values:
        num, den = v.numerator, v.denominator
        poly = [num**j * den ** (r - j) * falling[j] for j in range(r + 1)]
        product = reference_convolve_int(product, poly, top)
        denominator *= den**r * r_fact
    return tuple(Fraction(c, denominator) for c in product)


def mpf_log_coeffs(values, r: int, top: int) -> list:
    """log F_k for k = 0..top at 320 bits, each far closer to the exact value
    than any float64 bound: the reference for orders whose exact integers
    are too large to build."""
    with mpmath.workprec(320):
        product = [mpf(1)]
        for v in values:
            x = mpf(v.numerator) / v.denominator
            poly = [mpf(1)]
            for j in range(1, min(r, top) + 1):
                poly.append(poly[-1] * x / j)
            product = [mpmath.fsum(product[k - j] * poly[j]
                                   for j in range(max(0, k - len(product) + 1),
                                                  min(k, len(poly) - 1) + 1))
                       for k in range(min(len(product) + len(poly) - 1, top + 1))]
        return [mpmath.log(c) for c in product]


def reference_failing(a, b, r, k_range, relation, slack, margin):
    """Failing k of compare_F_family, from the reference coefficients."""
    dim = max(len(a), len(b))
    pad = lambda v: [parse_exact(e) for e in v] + [Fraction(0)] * (dim - len(v))
    coeffs_a = reference_exact_coeffs(pad(a), r, k_range[1])
    coeffs_b = reference_exact_coeffs(pad(b), r, k_range[1])
    keep = 1 - margin
    failing = []
    for k in range(k_range[0], k_range[1] + 1):
        lhs, target = coeffs_a[k], coeffs_b[k] * parse_exact(slack)
        holds = lhs * keep > target if relation == STRICT_GREATER else lhs < target * keep
        if not holds:
            failing.append(k)
    return failing


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
        report = compare_F_family(x, y, 8, (9, 32), STRICT_GREATER, ctx=FULL_CTX)
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

    @pytest.mark.parametrize("ctx", [Context(), FULL_CTX], ids=["compact", "full"])
    @pytest.mark.parametrize("a, b", [
        ([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)], [Fraction(3, 4), Fraction(1, 4)]),
        ([Fraction(3, 4), Fraction(1, 4)], [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]),
        ([mpf("0.5"), mpf("0.25"), mpf("0.25")], [Fraction(3, 4), Fraction(1, 4)]),
        ([Fraction(3, 4), Fraction(1, 4)], [mpf("0.5"), mpf("0.375"), mpf("0.125")]),
        ([mpf("0.75"), mpf("0.25")], [mpf("0.5"), mpf("0.375"), mpf("0.125")]),
    ], ids=["exact", "exact-reversed", "mpf-longer", "mpf-shorter-exact", "mpf-both"])
    def test_raw_sequences_pad_as_pad_pair_does(self, a, b, ctx):
        # a Fraction(0) for an exact side, an mpf(0) for any other
        padded = pad_pair(ProbVector(tuple(a)), ProbVector(tuple(b)))
        for relation in (STRICT_GREATER, STRICT_LESS):
            assert (compare_F_family(a, b, 2, (1, 6), relation, ctx=ctx)
                    == compare_F_family(*padded, 2, (1, 6), relation, ctx=ctx))

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


# ----------------------------------------------------------------------
# The float filter against the full-degree exact reference
# ----------------------------------------------------------------------

FLOAT_CTX = Context(backend="float")
TINY = Fraction(1, 10**400)  # below the float range: the whole family goes exact
SLACKS = [1, Fraction(1), Fraction(10**12 + 1, 10**12), Fraction(1, 3), Fraction(7, 2)]


@st.composite
def weights(draw, dim):
    parts = draw(st.lists(st.integers(0, 40), min_size=dim, max_size=dim)
                 .filter(lambda ws: sum(ws) > 0))
    total = sum(parts)
    return [Fraction(w, total) for w in parts]


@st.composite
def family_cases(draw):
    """(a, b, r, k_range, relation, slack, ctx): independent pairs of any
    dims (so one side may be zero-padded), exact ties, near ties, and pairs
    with an entry below the float range; exact or mpf entries; rational or
    mpf slack."""
    a = draw(weights(draw(st.integers(1, 4))))
    kind = draw(st.sampled_from(["independent", "equal", "near", "tiny"]))
    if kind == "equal":
        b = list(a)
    elif kind == "near":
        eps = Fraction(1, 10 ** draw(st.sampled_from([20, 40])))
        b = [(1 - eps) * e + eps / len(a) for e in a]
    else:
        b = draw(weights(draw(st.integers(1, 4))))
        if kind == "tiny":
            top = max(range(len(a)), key=lambda i: a[i])
            a = a[:top] + [a[top] - TINY] + a[top + 1:] + [TINY]
    if draw(st.booleans()):
        a, b = b, a
    r = draw(st.integers(1, 6))
    n = max(len(a), len(b))
    lo = draw(st.integers(0, n * r))
    hi = draw(st.integers(lo, n * r))
    relation = draw(st.sampled_from([STRICT_GREATER, STRICT_LESS]))
    ctx = draw(st.sampled_from([Context(), FLOAT_CTX]))
    with mpmath.workprec(256):
        slack = draw(st.sampled_from(SLACKS + [mpf(1) + mpf(2) ** -100, mpf("0.999")]))
        if not ctx.exact:
            a, b = [mpf(e.numerator) / e.denominator for e in a], [
                mpf(e.numerator) / e.denominator for e in b]
    return a, b, r, (lo, hi), relation, slack, ctx


class TestFloatFilter:
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=family_cases())
    def test_same_verdicts_as_the_exact_reference(self, case):
        a, b, r, k_range, relation, slack, ctx = case
        exact_cmp = (all(isinstance(v, Fraction) for v in a + b)
                     and isinstance(slack, (int, Fraction)))
        margin = Fraction(0) if exact_cmp else Fraction(REL_MARGIN)
        failing = reference_failing(a, b, r, k_range, relation, slack, margin)
        report = compare_F_family(a, b, r, k_range, relation, slack, ctx)
        assert report.all_hold == (not failing)
        assert report.failure_count == len(failing)
        assert report.failing_k() == tuple(failing[:8]) and report.per_k == ()
        if report.tightest_log2 is not None:
            assert report.all_hold <= (report.tightest_log2 > 0)
        full = compare_F_family(a, b, r, k_range, relation, slack,
                                Context(backend=ctx.backend, evidence="full"))
        assert full.failing_k() == tuple(failing) and full.failure_count is None
        assert [e.k for e in full.per_k] == list(range(k_range[0], k_range[1] + 1))

    def test_exact_ties_are_never_settled_in_float(self):
        rng = random.Random(41)
        for _ in range(10):
            v = random_prob_vector(rng, rng.randint(2, 5)).entries
            r = rng.randint(1, 8)
            for sign in (1, -1):
                settled, _, _ = _settled_in_float(v, v, 1, r, 0, len(v) * r, sign, Fraction(0))
                assert settled == {}

    def test_ties_at_the_margin_reach_the_exact_path(self):
        # a slack that makes F_k(a) (1 - margin) and slack F_k(b) exactly equal:
        # neither float64 nor the bounded mpf product may settle the tie
        rng = random.Random(43)
        margin = Fraction(REL_MARGIN)
        for _ in range(12):
            a = make_prob_vector(random_prob_vector(rng, 3).entries, FLOAT_CTX).entries
            b = make_prob_vector(random_prob_vector(rng, 3).entries, FLOAT_CTX).entries
            r = rng.randint(2, 5)
            k = rng.randint(r + 1, 3 * r)
            fa = reference_exact_coeffs([parse_exact(v) for v in a], r)[k]
            fb = reference_exact_coeffs([parse_exact(v) for v in b], r)[k]
            for relation, slack in ((STRICT_GREATER, fa * (1 - margin) / fb),
                                    (STRICT_LESS, fa / (fb * (1 - margin)))):
                report = compare_F_family(a, b, r, (k, k), relation, slack, FLOAT_CTX)
                assert not report.all_hold

    def test_full_evidence_coefficients_match_the_reference(self, locc_pair):
        x, y = locc_pair
        report = compare_F_family(x, y, 8, (9, 32), STRICT_GREATER, ctx=FULL_CTX)
        reference_x = reference_exact_coeffs(x.entries, 8)
        reference_y = reference_exact_coeffs(y.entries, 8)
        assert [(e.lhs, e.rhs) for e in report.per_k] == [
            (reference_x[k], reference_y[k]) for k in range(9, 33)]

    def test_worked_example_settles_in_float(self, locc_pair, monkeypatch):
        import catamaj.sympoly as sympoly

        built = []
        monkeypatch.setattr(sympoly, "_exact_coeffs",
                            lambda *args: built.append(args) or (_ for _ in ()).throw(
                                AssertionError("exact path taken")))
        report = compare_F_family(*locc_pair, 8, (9, 32), STRICT_GREATER)
        assert report.all_hold and built == []
        assert report.tightest_log2 > 0


class TestLogKernelBound:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(values=st.lists(st.builds(lambda n, e: Fraction(n, 10**e), st.integers(1, 10**6),
                                     st.sampled_from([0, 3, 6, 9, 30])),
                           min_size=1, max_size=5),
           r=st.integers(1, 12))
    def test_bound_holds_against_256_bit_mpmath(self, values, r):
        top = len(values) * r
        logs, err = log_coeffs(entry_logs(values), r, top)
        reference = reference_exact_coeffs(values, r)
        assert len(logs) == top + 1
        with mpmath.workprec(256):
            for k, value in enumerate(logs):
                exact = mpmath.log(mpf(reference[k].numerator) / reference[k].denominator)
                assert abs(mpf(value) - exact) <= err, k
        assert err < 1e-9

    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(values=st.lists(st.builds(lambda n, e: Fraction(n, 10**e), st.integers(1, 10**6),
                                     st.sampled_from([0, 3, 6, 30])),
                           min_size=2, max_size=3),
           r=st.integers(100, 300))
    def test_bound_holds_across_blocks_against_320_bit_mpmath(self, values, r):
        # orders past the block edges at r + 1 and (with three values) 2r + 2
        top = min(2 * (r + 1) + 5, len(values) * r)
        logs, err = log_coeffs(entry_logs(values), r, top)
        assert len(logs) == top + 1 and err < 1e-9
        for k, exact in enumerate(mpf_log_coeffs(values, r, top)):
            assert abs(mpf(logs[k]) - exact) <= err, k

    @pytest.mark.parametrize("values, r", [
        ([Fraction(1, 2), Fraction(1, 3)], 1300),
        ([Fraction(1, 2), Fraction(1, 2) - Fraction(1, 10**12), Fraction(1, 10**12)], 1300),
        ([Fraction(1, 2), Fraction(1, 2) - Fraction(1, 10**12), Fraction(1, 10**12)], 600),
    ])
    def test_low_orders_of_a_wide_block_keep_the_bound(self, values, r, monkeypatch):
        # at r = 1300 the first block's lowest orders lie ~650 nats below the
        # scale of its middle, so their scaled sums fall under 2^-900 (or to
        # 0) and take the log-sum-exp anti-diagonal; at r = 600 none does
        import catamaj.floatpass as floatpass

        fallbacks = []
        real = floatpass._log_sum_exp
        monkeypatch.setattr(floatpass, "_log_sum_exp",
                            lambda s: fallbacks.append(len(s)) or real(s))
        logs, err = log_coeffs(entry_logs(values), r, 60)
        assert (len(fallbacks) > 0) == (r > 1000)
        for k, exact in enumerate(mpf_log_coeffs(values, r, 60)):
            assert abs(mpf(logs[k]) - exact) <= err, k

    @pytest.mark.parametrize("values, r, factors", [
        ([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)], 7, 3),
        ([Fraction(3, 10), Fraction(7, 10**6)], 60, 2),
        ([Fraction(1, 5), Fraction(1, 5), Fraction(3, 5)], 40, 3),
    ])
    def test_convolution_step_bound(self, values, r, factors):
        # each block's own rounding, against the exact log-sum-exp of the
        # very floats it was given
        from catamaj.floatpass import _convolve_logs

        lf = log_factorials(r)
        p = [j * entry_logs(values[:1])[0] - lf[j] for j in range(r + 1)]
        for i, la in enumerate(entry_logs(values[1:factors]), 2):
            tau = [j * la - lf[j] for j in range(r + 1)]
            out, step = _convolve_logs(p, tau, i * r)
            assert 0 < step < 1e-10 and len(out) == i * r + 1
            with mpmath.workprec(256):
                for k, value in enumerate(out):
                    terms = [mpf(p[k - j]) + mpf(tau[j])
                             for j in range(max(0, k - len(p) + 1), min(k, r) + 1)]
                    exact = mpmath.log(mpmath.fsum(mpmath.exp(t) for t in terms))
                    assert abs(mpf(value) - exact) <= step, (i, k)
            p = out

    def test_truncated_kernel_agrees_with_the_full_one(self):
        # every truncation, across the block edges at multiples of
        # max(r + 1, 32)
        for values, r in (([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)], 5),
                          ([Fraction(i, 28) for i in range(1, 8)], 5),
                          ([Fraction(2, 5), Fraction(1, 3), Fraction(1, 5), Fraction(1, 15)], 40)):
            logs = entry_logs(values)
            full, _ = log_coeffs(logs, r, len(values) * r)
            for top in range(len(values) * r + 1):
                assert log_coeffs(logs, r, top)[0] == full[:top + 1], (r, top)

    def test_stage_one_takes_few_exponentials_at_r_bar_292(self, monkeypatch):
        # the per-term kernel took 1 713 520 exp calls in stage 1 of this
        # pair's check (both families, both sides); blocks take one per
        # window entry
        import math

        import catamaj.floatpass as floatpass
        import catamaj.sympoly as sympoly
        from conftest import mixed_toward_uniform

        calls = []

        class Counting:
            def __getattr__(self, name):
                return getattr(math, name)

            @staticmethod
            def exp(v):
                calls.append(v)
                return math.exp(v)

        real = sympoly._settled_in_float

        def counted(*args):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(floatpass, "math", Counting())
                return real(*args)

        monkeypatch.setattr(sympoly, "_settled_in_float", counted)
        rng = random.Random(1)
        y = random_prob_vector(rng, 5)
        x = mixed_toward_uniform(rng, y, Fraction(99, 100))
        exponents, families = locc_families(x, y)
        assert exponents.r_bar == 292 and families.negative is not None
        assert 0 < len(calls) < 1_713_520 // 20

    def test_log_factorials(self):
        table = log_factorials(3000)
        with mpmath.workprec(256):
            for j in (0, 1, 2, 3, 10, 170, 171, 1000, 3000):
                exact = mpmath.loggamma(j + 1)
                assert abs(mpf(table[j]) - exact) <= 5.1 * 2.0 ** -53 * table[j]


# ----------------------------------------------------------------------
# The tail stage: exact entries, one total, slack 1, r < k <= 2r + 1
# ----------------------------------------------------------------------

LAMBDAS = [Fraction(1, 2), Fraction(9, 10), Fraction(99, 100),
           1 - Fraction(1, 10**15), 1 - Fraction(1, 10**16)]


@st.composite
def tail_cases(draw):
    """(a, b, r, k_range, kind): flat exact vectors, so that the
    F_k agree past float64 just above r, with a source mixed toward uniform;
    zero entries and padding; exact ties (a permutation) and unequal totals
    (one entry short by 10^-30)."""
    parts = (draw(st.lists(st.integers(20, 40), min_size=5, max_size=7))
             + [0] * draw(st.integers(0, 2)))
    b = [Fraction(w, sum(parts)) for w in parts]
    n = len(b)
    kind = draw(st.sampled_from(["mixed", "mixed", "mixed", "tie", "unequal"]))
    if kind == "tie":
        a = b[::-1]
    else:
        lam = draw(st.sampled_from(LAMBDAS))
        a = [lam * e + (1 - lam) / n for e in b]
        if kind == "unequal":
            a[0] -= Fraction(1, 10**30)
    if draw(st.booleans()):
        b = [e for e in b if e]  # padded back by compare_F_family
    if draw(st.booleans()):
        a, b = b, a
    r = draw(st.integers(28, 40))
    lo = draw(st.integers(r - 1, 2 * r + 1))
    hi = draw(st.integers(lo, min(n * r, 2 * r + 3)))
    return a, b, r, (lo, hi), kind


def exact_tail(values, total: Fraction, r: int, k: int) -> Fraction:
    """T_k of the family identity F_k = S^k / k! - T_k, in Fractions."""
    return sum((v**j * (total - v) ** (k - j) / (factorial(j) * factorial(k - j))
                for v in values for j in range(r + 1, k + 1)), Fraction(0))


class TestTailStage:
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=tail_cases(), slack=st.sampled_from([1, Fraction(1)]))
    def test_same_verdicts_as_the_exact_reference(self, case, slack):
        import catamaj.sympoly as sympoly

        a, b, r, k_range, kind = case
        for relation in (STRICT_GREATER, STRICT_LESS):
            asked = []
            failing = reference_failing(a, b, r, k_range, relation, slack, Fraction(0))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sympoly, "log_tails", lambda pairs, r_, ks: asked.append(list(ks))
                              or log_tails(pairs, r_, ks))
                report = compare_F_family(a, b, r, k_range, relation, slack)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sympoly, "_settled_by_tails", lambda *args: {})
                in_integers = compare_F_family(a, b, r, k_range, relation, slack)
            assert report.failure_count == len(failing)
            assert report.failing_k() == tuple(failing[:8])
            # the tails settle margins to the digits the integers print
            assert report.tightest_log2 == in_integers.tightest_log2
            if report.tightest_log2 is not None:
                assert report.all_hold <= (report.tightest_log2 > 0)
            assert all(r < k <= 2 * r + 1 for ks in asked for k in ks)
            if kind == "unequal":
                assert asked == []

    def test_exact_ties_reach_the_integer_path(self, monkeypatch):
        import catamaj.sympoly as sympoly

        built = []
        real = sympoly._exact_coeffs
        monkeypatch.setattr(sympoly, "_exact_coeffs",
                            lambda nums, r, top: built.append(top) or real(nums, r, top))
        b = [Fraction(w, 120) for w in (24, 22, 20, 20, 18, 16)]
        for r in (20, 30):
            for relation in (STRICT_GREATER, STRICT_LESS):
                assert _settled_by_tails(b[::-1], b, 1, r, list(range(r + 1, 2 * r + 2)),
                                         1 if relation == STRICT_GREATER else -1,
                                         ([0.0] * (6 * r + 1), 0.0)) == {}
                report = compare_F_family(b[::-1], b, r, (r + 1, 2 * r + 1), relation)
                assert report.failure_count == r + 1
        assert built == [41, 41, 41, 41, 61, 61, 61, 61]

    @pytest.mark.parametrize("weights, i, j, eps, r, k, relation", [
        ((38, 23, 29, 35, 21, 28), 0, 3, Fraction(1, 10**16), 21, 22, STRICT_GREATER),
        ((22, 31, 30, 33, 31), 4, 2, Fraction(13, 10**17), 21, 24, STRICT_GREATER),
        ((40, 38, 39, 38, 35), 3, 1, Fraction(3, 2 * 10**16), 23, 25, STRICT_LESS),
    ])
    def test_tails_inside_the_bound_reach_the_integer_path(self, weights, i, j, eps, r, k,
                                                           relation):
        # a transfer of ~1e-16 between two entries: the float tails differ by
        # rounding noise of the wrong sign, which only the bound keeps out
        b = [Fraction(w, sum(weights)) for w in weights]
        a = list(b)
        a[i] += eps
        a[j] -= eps
        sign = 1 if relation == STRICT_GREATER else -1
        family_b = log_coeffs(entry_logs(b), r, k)
        assert _settled_by_tails(a, b, 1, r, [k], sign, family_b) == {}
        failing = reference_failing(a, b, r, (k, k), relation, 1, Fraction(0))
        assert compare_F_family(a, b, r, (k, k), relation).failing_k() == tuple(failing)

    def test_near_ties_settle_without_integers(self, monkeypatch):
        import catamaj.sympoly as sympoly

        monkeypatch.setattr(sympoly, "_exact_coeffs", lambda *args: pytest.fail("integers"))
        b = [Fraction(w, 120) for w in (24, 22, 20, 20, 18, 16)]
        for lam in (Fraction(1, 2), Fraction(9, 10)):
            a = [lam * e + (1 - lam) / 6 for e in b]
            for r in (20, 30, 40):
                settled = _settled_by_tails(a, b, 1, r, list(range(r + 1, 2 * r + 2)), 1,
                                            log_coeffs(entry_logs(b), r, 2 * r + 1))
                assert len(settled) == r + 1 and all(h for h, _ in settled.values())
                assert compare_F_family(a, b, r, (r + 1, 2 * r + 2), STRICT_GREATER).all_hold
                report = compare_F_family(a, b, r, (r + 1, 2 * r + 2), STRICT_LESS)
                assert report.failure_count == r + 2 and report.tightest_log2 < 0

    def test_margins_that_might_print_otherwise_stay_open(self):
        # with log F_k(b) known only to 1e-3 no margin is sure of six digits
        b = [Fraction(w, 120) for w in (24, 22, 20, 20, 18, 16)]
        a = [(e + Fraction(1, 6)) / 2 for e in b]
        r = 20
        ks = list(range(r + 1, 2 * r + 2))
        logs_fb, err_fb = log_coeffs(entry_logs(b), r, 2 * r + 1)
        assert len(_settled_by_tails(a, b, 1, r, ks, 1, (logs_fb, err_fb))) == r + 1
        assert _settled_by_tails(a, b, 1, r, ks, 1, (logs_fb, 1e-3)) == {}

    def test_order_2r_plus_1_settles_and_2r_plus_2_goes_to_integers(self, monkeypatch):
        # 16 flat entries: at k = 2r + 2 the F_k still agree past float64, but
        # two parts may exceed r there, so the tail identity no longer holds
        import catamaj.sympoly as sympoly

        b = [Fraction(40 - i, 520) for i in range(16)]
        a = [(e + Fraction(1, 16)) / 2 for e in b]
        r = 20
        relations = (STRICT_GREATER, STRICT_LESS)
        expected = [compare_F_family(a, b, r, (2 * r + 1, 2 * r + 2), relation,
                                     ctx=FULL_CTX).failing_k() for relation in relations]
        built, asked = [], []
        real = sympoly._exact_coeffs
        monkeypatch.setattr(sympoly, "_exact_coeffs",
                            lambda nums, r, top: built.append(top) or real(nums, r, top))
        monkeypatch.setattr(sympoly, "log_tails",
                            lambda pairs, r_, ks: asked.append(list(ks)) or log_tails(pairs, r_, ks))
        assert [compare_F_family(a, b, r, (2 * r + 1, 2 * r + 2), relation).failing_k()
                for relation in relations] == expected == [(), (41, 42)]
        assert asked == [[41], [41]] * 2 and built == [42, 42] * 2

    def test_unequal_totals_and_slacks_skip_the_stage(self, monkeypatch):
        import catamaj.sympoly as sympoly

        monkeypatch.setattr(sympoly, "log_tails", lambda *args: pytest.fail("tail stage ran"))
        b = [Fraction(w, 120) for w in (24, 22, 20, 20, 18, 16)]
        a = [(e + Fraction(1, 6)) / 2 for e in b]
        short = [a[0] - Fraction(1, 10**40)] + a[1:]
        for x, y, slack in ((short, b, 1), (a, b, Fraction(10**40 + 1, 10**40)),
                            (a, b, mpf(1))):
            for relation in (STRICT_GREATER, STRICT_LESS):
                compare_F_family(x, y, 20, (21, 41), relation, slack)

    def test_found_pair_at_r_bar_292(self, monkeypatch):
        # y on the 1/720 grid, x = 99/100 y + 1/100 uniform: 206 k of the
        # closure family agree past float64 and once took 23 s in integers.
        # The expected verdict, failing k and tightest margin were recorded
        # from the integer path before the tail stage existed.
        import time

        import catamaj.sympoly as sympoly
        from catamaj import check_trumping
        from conftest import mixed_toward_uniform

        monkeypatch.setattr(sympoly, "_exact_coeffs", lambda *args: pytest.fail("integers"))
        rng = random.Random(1)
        y = random_prob_vector(rng, 5)
        x = mixed_toward_uniform(rng, y, Fraction(99, 100))
        start = time.monotonic()
        exponents, families = locc_families(x, y)
        assert time.monotonic() - start < 3.0
        closure = families.closure
        # no reason left: the families alone would say trumping-sufficient
        assert exponents.r_bar == 292 and families.reasons == ()
        assert check_trumping(x, y).status == "trumping_sufficient"
        assert closure.all_hold is True and closure.first_failing == ()
        assert closure.tightest_log2 == 1.86623e-103


class TestTailBound:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(values=st.lists(st.builds(lambda n, e: Fraction(n, 10**e), st.integers(1, 10**6),
                                     st.sampled_from([0, 3, 6, 9, 30])),
                           min_size=1, max_size=5),
           r=st.integers(1, 12), extra=st.integers(0, 2))
    def test_bound_holds_against_256_bit_mpmath(self, values, r, extra):
        # one value is a point mass; `extra` adds a total above the sum, as
        # for a vector whose other entries are too small to matter
        total = sum(values) + extra
        pairs = _tail_logs(values, total)
        ks = list(range(r + 1, 2 * r + 2))
        logs, err = log_tails(pairs, r, ks)
        assert err < 1e-9
        with mpmath.workprec(256):
            for k, value in zip(ks, logs):
                exact = exact_tail(values, total, r, k)
                assert abs(mpf(value) - mpmath.log(mpf(exact.numerator) / exact.denominator)) <= err, k

    @settings(max_examples=20, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(case=tail_cases().filter(lambda case: case[4] == "mixed"))
    def test_margin_bound_holds_against_256_bit_mpmath(self, case):
        a, b, r, _, _ = case
        ks = list(range(r + 1, 2 * r + 2))
        tails_a, err_a = log_tails(_tail_logs(a, 1), r, ks)
        tails_b, err_b = log_tails(_tail_logs(b, 1), r, ks)
        logs_fb, err_fb = log_coeffs(entry_logs(e for e in b if e), r, ks[-1])
        coeffs_a = reference_exact_coeffs(a, r, ks[-1])
        coeffs_b = reference_exact_coeffs(b, r, ks[-1])
        err = err_a + err_b
        with mpmath.workprec(256):
            for k, t_a, t_b in zip(ks, tails_a, tails_b):
                if abs(t_b - t_a) > 2 * err:
                    ratio, rel_err = tail_ratio(t_a, t_b, err, logs_fb[k], err_fb)
                    assert rel_err < 1e-9
                    rho = coeffs_a[k] / coeffs_b[k] - 1
                    exact = mpmath.log1p(mpf(rho.numerator) / rho.denominator) / mpmath.log(2)
                    assert abs(ratio - exact) <= rel_err * abs(exact), k

    def test_prints_alike(self):
        assert prints_alike(1.86623e-103, 1e-10)
        # 1.2345650e-5 sits on a rounding boundary of its sixth digit
        assert not prints_alike(1.234565e-5, 1e-9)
        assert prints_alike(1.2345649e-5, 1e-9)
        assert not prints_alike(1.5, float("inf"))

    def test_point_mass(self):
        logs, err = log_tails(_tail_logs([Fraction(1, 3)], Fraction(1, 3)), 4, [5, 9])
        with mpmath.workprec(256):
            for k, value in zip((5, 9), logs):
                exact = mpmath.log(mpf(1) / 3 ** k / factorial(k))
                assert abs(mpf(value) - exact) <= err

    def test_matches_the_family_identity(self):
        # F_k = S^k / k! - T_k below 2r + 2, checked exactly
        values = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
        coeffs = reference_exact_coeffs(values, 3)
        for k in range(4, 8):
            assert coeffs[k] == Fraction(1, factorial(k)) - exact_tail(values, 1, 3, k)
        assert coeffs[8] != Fraction(1, factorial(8)) - exact_tail(values, 1, 3, 8)


# ----------------------------------------------------------------------
# Compact margins: the digits the integers print, whatever stage settled
# ----------------------------------------------------------------------

@st.composite
def transfer_cases(draw):
    """(a, b, r, k_range, relation, ctx): a pair one small transfer apart, so
    that the least margins lie within float64's bound of printing other
    digits; exact or mpf entries."""
    dim = draw(st.integers(3, 6))
    parts = draw(st.lists(st.integers(10, 40), min_size=dim, max_size=dim))
    b = [Fraction(w, sum(parts)) for w in parts]
    i, j = draw(st.permutations(range(dim)))[:2]
    eps = Fraction(1, 10 ** draw(st.integers(5, 10)))
    a = list(b)
    a[i] += eps
    a[j] -= eps
    if draw(st.booleans()):
        a, b = b, a
    r = draw(st.integers(3, 25))
    lo = draw(st.integers(0, dim * r))
    hi = draw(st.integers(lo, min(dim * r, lo + 3 * r)))
    relation = draw(st.sampled_from([STRICT_GREATER, STRICT_LESS]))
    ctx = draw(st.sampled_from([Context(), FLOAT_CTX]))
    if not ctx.exact:
        with mpmath.workprec(256):
            a, b = ([mpf(e.numerator) / e.denominator for e in v] for v in (a, b))
    return a, b, r, (lo, hi), relation, ctx


class TestTightestMargin:
    @settings(max_examples=80, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=transfer_cases())
    def test_compact_margin_is_the_one_without_float_stages(self, case):
        import catamaj.sympoly as sympoly

        a, b, r, k_range, relation, ctx = case
        report = compare_F_family(a, b, r, k_range, relation, ctx=ctx)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sympoly, "_settled_in_float", lambda *args: ({}, {}, None))
            patch.setattr(sympoly, "_settled_by_tails", lambda *args: {})
            reference = compare_F_family(a, b, r, k_range, relation, ctx=ctx)
        assert report.failing_k() == reference.failing_k()
        assert report.tightest_log2 == reference.tightest_log2

    def test_locc_margin_at_the_first_order(self):
        # float64 put this margin at 8.93033e-10 with a relative bound of 4e-3;
        # the integers give 8.93031e-10
        x = make_prob_vector(["2131/6000", "547/2000", "941/6000", "123/1000", "183/2000"])
        y = make_prob_vector(["277/720", "23/80", "107/720", "13/120", "17/240"])
        exponents, families = locc_families(x, y)
        assert exponents.r_bar == 21
        assert families.closure.tightest_log2 == 8.93031e-10
