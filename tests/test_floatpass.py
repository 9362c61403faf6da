"""The float pre-pass of the p-grid scans against per-point mpmath references.

`reference_oracle_scan` and `reference_divergence_scan` are the scans'
loops with every grid point evaluated in mpmath and no float filter.  Under
full evidence the filtered scans must return equal reports (dataclass
equality, so the same failures with the same mpmath evidence) on every
input, including those the filter must hand back to mpmath; under compact
evidence they must keep the first failing grid point and the dedicated
checks of the reference, and count all of its failures.
"""

import dataclasses
import math
from fractions import Fraction
from itertools import repeat
from operator import add, mul, sub

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from mpmath import mpf

from catamaj import (
    Context,
    DimMismatch,
    GridSpec,
    SupportViolation,
    burg_entropy,
    divergence_scan,
    gibbs_vector,
    make_prob_vector,
    oracle_scan,
    pad_pair,
    renyi_divergence,
    renyi_entropy,
    shannon_entropy,
    uniform,
)
import catamaj.majorization as majorization
import catamaj.thermo as thermo
from catamaj.context import DEFAULT_CONTEXT, workprec
from catamaj.floatpass import (
    _REFERENCE,
    _U,
    entry_logs,
    err_coefficients,
    log_power_sums,
    slope_range,
    tail_ratio,
    tightest,
)
from catamaj.majorization import BRACKET, OracleFailure, ScanReport

FLOAT_CTX = Context(backend="float")
SHORT_GRID = GridSpec.parse("-5:5:1/10")
TINY = Fraction(1, 10**40)


def reference_log_power_sum(logs_a, logs_g, p_hat, q_hat):
    """The per-point float pre-pass `log_power_sums` batches: (L, err) at one
    p, with the same floating-point operations in the same order, and err
    the per-point bound of the `floatpass` docstring, which the a-priori
    bound of `err_coefficients` must dominate."""
    ts = [p_hat * la for la in logs_a]
    term_err = abs(p_hat) * (4 + 8 * max(map(abs, logs_a)))
    if logs_g is not None:
        ts = [t + q_hat * lg for t, lg in zip(ts, logs_g)]
        term_err += abs(q_hat) * (4 + 8 * max(map(abs, logs_g)))
    m = max(ts)
    s = math.fsum([math.exp(t - m) for t in ts])
    log_s = math.log(s)
    total = m + log_s
    n = len(ts)
    err = (_U * (term_err + 2 * max(abs(m), abs(min(ts)))
                + 0.5 * n + 6 * s + 5 * log_s + 2 * abs(total))
           + n * 2.0 ** -1000 + _REFERENCE * (1 + abs(total)))
    return total, err


def surely_less(lo, hi):
    """The rule by which `majorization.scan` settles a point: the exact value
    behind `hi` exceeds the one behind `lo` by more than twice both bounds."""
    return hi[0] - lo[0] > 2 * (lo[1] + hi[1])


def prior_bound(logs_a, logs_g, p_hat, q_hat):
    """The a-priori bound of `err_coefficients` at one point."""
    c0, cp, cq = err_coefficients(logs_a, logs_g)
    return c0 + cp * abs(p_hat) + cq * abs(q_hat)


def power_sum_at(logs_a, logs_g, p):
    """`log_power_sums` at the single point p, with the a-priori bound the
    scans give it: (L, err)."""
    p_hat, q_hat = float(p), float(1 - p)
    (value,) = log_power_sums(logs_a, logs_g, [p_hat], [q_hat])
    return value, prior_bound(logs_a, logs_g, p_hat, q_hat)


def reference_oracle_scan(x, y, grid=None, ctx=DEFAULT_CONTEXT):
    """`oracle_scan` with every point evaluated in mpmath; a point p < 0
    holds whenever y has a zero (H_p(y) = -inf)."""
    grid = grid or GridSpec()
    x, y = pad_pair(x, y)
    failures = []
    points = grid.points()
    with workprec(ctx):
        for p in points:
            if p < 0 and not y.full_weight:
                continue
            lhs = renyi_entropy(x, p, ctx)
            rhs = renyi_entropy(y, p, ctx)
            if not lhs > rhs:
                failures.append(OracleFailure(p, lhs, rhs, "renyi (need >)"))
        h1_x, h1_y = shannon_entropy(x, ctx), shannon_entropy(y, ctx)
        burg_x, burg_y = burg_entropy(x, ctx), burg_entropy(y, ctx)
    if not h1_x > h1_y:
        failures.append(OracleFailure(None, h1_x, h1_y, "H1 (need >)"))
    if not burg_x > burg_y:
        failures.append(OracleFailure(None, burg_x, burg_y, "Burg (need >)"))
    return ScanReport(grid, tuple(failures))


def reference_divergence_scan(q_rho, q_sigma, g, grid=None, ctx=DEFAULT_CONTEXT):
    """`divergence_scan` with every point evaluated in mpmath; a point p < 0
    holds whenever q_rho has a zero (its divergence is infinite)."""
    grid = grid or GridSpec()
    points = grid.points()
    failures = []
    with workprec(ctx):
        for p in points:
            if p < 0 and not q_rho.full_weight:
                continue
            lhs = renyi_divergence(q_rho, g, p, ctx)
            rhs = renyi_divergence(q_sigma, g, p, ctx)
            if not lhs > rhs:
                failures.append(OracleFailure(p, lhs, rhs, "divergence (need >)"))
        kl_lhs = renyi_divergence(q_rho, g, 1, ctx)
        kl_rhs = renyi_divergence(q_sigma, g, 1, ctx)
    if not kl_lhs > kl_rhs:
        failures.append(OracleFailure(None, kl_lhs, kl_rhs, "KL (need >)"))
    return ScanReport(grid, tuple(failures))


def reference_scan(grid, sides, full_weight, measure, label, dedicated, ctx, residual=None):
    """`majorization.scan` as it walked before the bracket: `log_power_sums`
    on the whole grid, each point's band twice both sides' a-priori bounds
    (`err_coefficients`), then every point settled in float (margin: the gap
    over |1 - p| ln 2) or measured in mpmath (lhs > rhs holds; margin
    lhs - rhs where both are finite), in order, with no `residual`.  Swapped
    in for `scan`, it gives the reports the bracketed walk must reproduce
    field for field."""
    (d, ms), points = grid.table, grid.points()
    compact = not ctx.full_evidence
    first_full, second_full = full_weight
    full_weights = first_full and second_full
    holds_below_zero = not second_full
    failures, count, margins = [], 0, []
    floats = repeat(None)
    if sides is not None:
        ps = [m / d for m in ms]
        qs = [(d - m) / d for m in ms]
        a, b = (log_power_sums(logs, logs_g, ps, qs) for logs, logs_g in sides)
        gaps = map(sub, b, a)
        c0, cp, cq = map(add, *(err_coefficients(*side) for side in sides))
        bands = [2 * (c0 + cp * abs(p) + cq * abs(q)) for p, q in zip(ps, qs)]
        scales = map(mul, map(abs, qs), repeat(math.log(2)))
        floats = zip(gaps, bands, scales)
    with workprec(ctx):
        for p, m, f in zip(points, ms, floats):
            if m < 0 and holds_below_zero:
                continue
            if f is not None and (m > 0 or full_weights):
                gap, band, scale = f
                if 0 < m < d:
                    gap = -gap
                settled = gap > band
                if settled or (compact and failures and -gap > band):
                    margins.append(gap / scale)
                    count += not settled
                    continue
            elif compact and failures and m < 0 and not full_weights:
                count += 1
                continue
            lhs, rhs = measure(p)
            if compact and mpmath.isfinite(lhs) and mpmath.isfinite(rhs):
                margins.append(float(lhs - rhs))
            if not lhs > rhs:
                count += 1
                if not (compact and failures):
                    failures.append(OracleFailure(p, lhs, rhs, label))
    for which, lhs, rhs in dedicated:
        if not lhs > rhs:
            failures.append(OracleFailure(None, lhs, rhs, which))
            count += 1
    if not compact:
        return ScanReport(grid, tuple(failures))
    return ScanReport(grid, tuple(failures), count, tightest(margins))


def check_against_the_whole_grid_walk(run, ctx):
    """run(ctx) under compact and full evidence, with the bracketed walk and
    with `reference_scan` in its place: equal reports."""
    for evidence in (ctx, full(ctx)):
        bracketed = run(evidence)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(majorization, "scan", reference_scan)
            patch.setattr(thermo, "scan", reference_scan)
            whole = run(evidence)
        assert bracketed == whole


def full(ctx):
    return dataclasses.replace(ctx, evidence="full")


def compacted(reference, tightest):
    """The compact report the full `reference` stands for."""
    grid_rows = [f for f in reference.failures if f.p is not None]
    rows = tuple(grid_rows[:1]) + tuple(f for f in reference.failures if f.p is None)
    return dataclasses.replace(reference, failures=rows,
                               failure_count=len(reference.failures),
                               tightest_log2=tightest)


def check_oracle(x, y, grid=None, ctx=DEFAULT_CONTEXT):
    """Full and compact `oracle_scan` against the reference; the compact one."""
    reference = reference_oracle_scan(x, y, grid, ctx)
    assert oracle_scan(x, y, grid, full(ctx)) == reference
    compact = oracle_scan(x, y, grid, ctx)
    assert compact == compacted(reference, compact.tightest_log2)
    if not any(f.p is not None for f in reference.failures):
        assert compact.tightest_log2 is None or compact.tightest_log2 > 0
    return compact


def check_divergence(q_rho, q_sigma, g, grid=None, ctx=DEFAULT_CONTEXT):
    """Full and compact `divergence_scan` against the reference; the compact one."""
    reference = reference_divergence_scan(q_rho, q_sigma, g, grid, ctx)
    assert divergence_scan(q_rho, q_sigma, g, grid, full(ctx)) == reference
    compact = divergence_scan(q_rho, q_sigma, g, grid, ctx)
    assert compact == compacted(reference, compact.tightest_log2)
    if not any(f.p is not None for f in reference.failures):
        assert compact.tightest_log2 is None or compact.tightest_log2 > 0
    return compact


# ----------------------------------------------------------------------
# Input strategies
# ----------------------------------------------------------------------

@st.composite
def weights(draw, dim, zeros_allowed=True):
    """Exact probability entries of length `dim`, zeros allowed anywhere
    but never everywhere."""
    low = 0 if zeros_allowed else 1
    parts = draw(st.lists(st.integers(low, 40), min_size=dim, max_size=dim)
                 .filter(lambda ws: sum(ws) > 0))
    total = sum(parts)
    return [Fraction(w, total) for w in parts]


@st.composite
def spread_weights(draw, dim):
    """Exact positive entries of length `dim` summing to 1: `weights`, or
    with some of them between 1e-302 and 1e-299, where every power sum has
    exponents in the thousands."""
    count = draw(st.integers(0, dim - 1))
    tiny = [Fraction(draw(st.integers(1, 999)), 10**302) for _ in range(count)]
    rest = draw(weights(dim - count, zeros_allowed=False))
    return tiny + [e * (1 - sum(tiny)) for e in rest]


def nudge(entries):
    """Move 1e-40 of mass from the largest entry to the smallest, keeping
    the total exactly 1."""
    out = list(entries)
    hi = max(range(len(out)), key=lambda i: out[i])
    lo = min(range(len(out)), key=lambda i: out[i])
    if hi == lo:
        return out
    out[hi] -= TINY
    out[lo] += TINY
    return out


@st.composite
def related(draw, dim):
    """(a, b) entry lists: independent, equal, or 1e-40 apart."""
    a = draw(weights(dim))
    kind = draw(st.sampled_from(["independent", "equal", "nudged"]))
    if kind == "equal":
        return a, list(a)
    if kind == "nudged":
        return a, nudge(a)
    return a, draw(weights(dim))


@st.composite
def scan_pairs(draw, dim):
    """(a, b) entry lists: independent, with tied tops (b keeps a's largest
    entry and flattens the rest), or b a mix of a toward uniform; swapped at
    random, so feasible pairs come reversed too.  (Equal and nearly equal
    pairs, which every walk hands to mpmath whole, are `related`'s.)"""
    kind = draw(st.sampled_from(["independent", "tied", "mixed"]))
    if kind == "independent":
        a, b = draw(weights(dim)), draw(weights(dim))
    else:
        a = draw(weights(dim, zeros_allowed=kind == "tied"))
        lam = draw(st.sampled_from([Fraction(1, 3), Fraction(2, 3), Fraction(9, 10)]))
        if kind == "tied":
            top = max(a)
            rest = list(a)
            rest.remove(top)
            mean = (1 - top) / len(rest) if rest else 0
            b = [top] + [lam * r + (1 - lam) * mean for r in rest]
        else:
            b = [lam * e + (1 - lam) * Fraction(1, dim) for e in a]
    return (a, b) if draw(st.booleans()) else (b, a)


backends = st.sampled_from([DEFAULT_CONTEXT, FLOAT_CTX])
grids = st.sampled_from([None] + [SHORT_GRID] * 5)
SCAN_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                         suppress_health_check=[HealthCheck.too_slow])


class TestMatchesReference:
    @SCAN_SETTINGS
    @given(data=st.data(), ctx=backends, grid=grids)
    def test_oracle_scan(self, data, ctx, grid):
        dim = data.draw(st.integers(1, 5))
        a, b = data.draw(related(dim))
        # padded dims: either side may be shorter
        pad = data.draw(st.integers(0, 2))
        if data.draw(st.booleans()):
            b = b + [Fraction(0)] * pad
        else:
            a = a + [Fraction(0)] * pad
        x, y = make_prob_vector(a, ctx), make_prob_vector(b, ctx)
        if data.draw(st.booleans()):
            x, y = y, x
        check_oracle(x, y, grid or GridSpec(), ctx)

    @SCAN_SETTINGS
    @given(data=st.data(), ctx=backends, grid=grids)
    def test_divergence_scan(self, data, ctx, grid):
        dim = data.draw(st.integers(1, 5))
        a, b = data.draw(related(dim))
        if data.draw(st.booleans()):
            g = make_prob_vector(data.draw(weights(dim, zeros_allowed=False)), ctx)
        else:
            energies = data.draw(st.lists(st.integers(0, 4), min_size=dim, max_size=dim))
            g = gibbs_vector(energies, data.draw(st.sampled_from(["0.7", "1.2"])), ctx).g
        q_rho, q_sigma = make_prob_vector(a, ctx), make_prob_vector(b, ctx)
        if data.draw(st.booleans()):
            q_rho, q_sigma = q_sigma, q_rho
        check_divergence(q_rho, q_sigma, g, grid, ctx)


class TestSettledInFloat:
    """On the worked examples every grid point is settled by the float pass."""

    def test_oracle_worked_example(self, locc_pair, monkeypatch):
        import catamaj.majorization as majorization

        calls = []
        monkeypatch.setattr(majorization, "renyi_entropy",
                            lambda *args: calls.append(args) or renyi_entropy(*args))
        assert oracle_scan(*locc_pair).consistent
        assert calls == []

    def test_divergence_worked_example(self, thermo_pair, monkeypatch):
        import catamaj.thermo as thermo

        orders = []
        monkeypatch.setattr(thermo, "renyi_divergence",
                            lambda x, g, p, ctx: orders.append(p) or renyi_divergence(x, g, p, ctx))
        spec = gibbs_vector([0, 1, 2, 3], "1.2")
        assert divergence_scan(*thermo_pair, spec.g).consistent
        assert orders == []   # KL too is settled in float

    def test_oracle_zero_target_at_negative_p(self, monkeypatch):
        import catamaj.majorization as majorization

        x = make_prob_vector(["0.5", "0.3", "0.2"])
        y = make_prob_vector(["0.55", "0.45", "0"])
        calls = []
        monkeypatch.setattr(majorization, "renyi_entropy",
                            lambda *args: calls.append(args[1]) or renyi_entropy(*args))
        # H_p(y) = -inf < H_p(x) at p < 0 by convention
        report = oracle_scan(x, y)
        assert report.consistent and calls == []
        assert report == check_oracle(x, y)
        # the other way round every p < 0 fails, with mpmath evidence in full
        calls.clear()
        back = oracle_scan(y, x, ctx=full(DEFAULT_CONTEXT))
        assert back == reference_oracle_scan(y, x)
        negative = [p for p in GridSpec().points() if p < 0]
        assert [f.p for f in back.failures if f.p is not None and f.p < 0] == negative
        assert [p for p in calls if p < 0] == [p for p in negative for _ in (x, y)]
        # compact: only the first failure reaches mpmath, the convention counts the rest
        calls.clear()
        back = oracle_scan(y, x)
        assert [p for p in calls if p < 0] == [negative[0]] * 2
        assert back.failure_count >= len(negative)

    def test_divergence_short_source_at_negative_p(self, monkeypatch):
        import catamaj.thermo as thermo

        q_rho = make_prob_vector(["0.55", "0.45", "0"])
        q_sigma = make_prob_vector(["0.5", "0.3", "0.2"])
        g = uniform(3)
        orders = []
        monkeypatch.setattr(thermo, "renyi_divergence",
                            lambda x, g, p, ctx: orders.append(p) or renyi_divergence(x, g, p, ctx))
        # D_p(q_rho||g) = +inf > D_p(q_sigma||g) at p < 0 by convention
        report = divergence_scan(q_rho, q_sigma, g)
        assert report.consistent and orders == []
        assert report == check_divergence(q_rho, q_sigma, g)
        # the other way round every p < 0 fails, with mpmath evidence in full
        orders.clear()
        back = divergence_scan(q_sigma, q_rho, g, ctx=full(DEFAULT_CONTEXT))
        assert back == reference_divergence_scan(q_sigma, q_rho, g)
        negative = [p for p in GridSpec().points() if p < 0]
        assert [f.p for f in back.failures if f.p is not None and f.p < 0] == negative
        assert [p for p in orders if p < 0] == [p for p in negative for _ in (q_rho, q_sigma)]
        # compact: only the first failure reaches mpmath, the convention counts the rest
        orders.clear()
        back = divergence_scan(q_sigma, q_rho, g)
        assert [p for p in orders if p < 0] == [negative[0]] * 2
        assert back.failure_count >= len(negative)


class TestFallbackInputs:
    """Entries float64 cannot hold, and the conventions mpmath must decide."""

    def _both(self, x, y, g, ctx=DEFAULT_CONTEXT):
        check_oracle(x, y, SHORT_GRID, ctx)
        check_divergence(x, y, g, SHORT_GRID, ctx)

    def test_exact_entry_below_float_range(self):
        tiny = Fraction("1e-400")
        assert entry_logs([tiny]) is None
        x = make_prob_vector([Fraction(1, 2), Fraction(3, 10) - tiny, Fraction(1, 5), tiny])
        y = make_prob_vector(["0.7", "0.1", "0.1", "0.1"])
        g = make_prob_vector(["0.4", "0.3", "0.2", "0.1"])
        self._both(x, y, g)
        self._both(y, x, g)

    def test_fractions_with_400_digit_denominators(self):
        den = 10**399 + 7
        # in float range: the filter runs on them
        x = make_prob_vector([Fraction(den // 2, den), Fraction(den // 3, den),
                              1 - Fraction(den // 2, den) - Fraction(den // 3, den)])
        y = make_prob_vector(["0.6", "0.3", "0.1"])
        g = make_prob_vector(["0.5", "0.3", "0.2"])
        self._both(x, y, g)
        self._both(y, x, g)
        # below float range: the whole scan goes to mpmath
        tiny = Fraction(1, den)
        z = make_prob_vector([Fraction(1, 2), Fraction(1, 2) - tiny, tiny])
        assert entry_logs(z.entries) is None
        self._both(z, y, g)
        self._both(y, z, g)

    def test_mpf_below_float_range_on_float_backend(self):
        with workprec(FLOAT_CTX):
            tiny = mpf("1e-350")
            x = make_prob_vector([mpf("0.5"), mpf("0.3") - tiny, mpf("0.2"), tiny], FLOAT_CTX)
        assert float(tiny) == 0.0
        y = make_prob_vector(["0.7", "0.1", "0.1", "0.1"], FLOAT_CTX)
        g = make_prob_vector(["0.4", "0.3", "0.2", "0.1"], FLOAT_CTX)
        self._both(x, y, g, FLOAT_CTX)
        self._both(y, x, g, FLOAT_CTX)

    def test_negative_p_with_a_zero_entry(self):
        x = make_prob_vector(["0.5", "0.3", "0.2", "0"])
        y = make_prob_vector(["0.4", "0.3", "0.2", "0.1"])
        g = make_prob_vector(["0.4", "0.3", "0.2", "0.1"])
        for a, b in ((x, y), (y, x), (x, x)):
            self._both(a, b, g)
        report = oracle_scan(y, x, SHORT_GRID)
        assert all(f.p > 0 for f in report.failures if f.p is not None)

    def test_exact_ties_reach_mpmath(self):
        # equal sums and sums of squares: the p = 2 comparison is an exact
        # tie, which float rounding must not settle in either direction
        pairs = [((4, 4, 1), (5, 2, 2)), ((6, 5, 1), (7, 3, 2)),
                 ((8, 6, 1), (9, 4, 2)), ((5, 5, 2), (6, 3, 3))]
        g = uniform(3)
        for a, b in pairs:
            x = make_prob_vector([Fraction(t, sum(a)) for t in a])
            y = make_prob_vector([Fraction(t, sum(b)) for t in b])
            sum_x = power_sum_at(entry_logs(x.entries), None, 2)
            sum_y = power_sum_at(entry_logs(y.entries), None, 2)
            assert not surely_less(sum_x, sum_y) and not surely_less(sum_y, sum_x)
            self._both(x, y, g)
            self._both(y, x, g)

    def test_support_violation_raised_as_before(self):
        q_rho = make_prob_vector(["0.5", "0.3", "0.2"])
        q_sigma = make_prob_vector(["0.6", "0.3", "0.1"])
        g = make_prob_vector(["0.5", "0.5", "0"])
        for grid in (SHORT_GRID, GridSpec(Fraction(2), Fraction(3), Fraction(1))):
            with pytest.raises(SupportViolation) as new:
                divergence_scan(q_rho, q_sigma, g, grid)
            with pytest.raises(SupportViolation) as old:
                reference_divergence_scan(q_rho, q_sigma, g, grid)
            assert str(new.value) == str(old.value)

    def test_dim_mismatch_raised_as_before(self):
        q_rho = make_prob_vector(["0.5", "0.3", "0.2"])
        g = make_prob_vector(["0.5", "0.5"])
        with pytest.raises(DimMismatch) as new:
            divergence_scan(q_rho, q_rho, g, SHORT_GRID)
        with pytest.raises(DimMismatch) as old:
            reference_divergence_scan(q_rho, q_rho, g, SHORT_GRID)
        assert str(new.value) == str(old.value)


class TestBound:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), dim=st.integers(1, 12),
           p=st.fractions(-40, 40, max_denominator=40).filter(lambda p: p not in (0, 1)),
           unit=st.booleans())
    def test_error_bound_holds(self, data, dim, p, unit):
        # the float value lies within the a-priori bound of the 256-bit
        # value, and so within the per-point bound that bound dominates
        a = data.draw(spread_weights(dim))
        g = None if unit else data.draw(spread_weights(dim))
        logs_a, logs_g = entry_logs(a), None if unit else entry_logs(g)
        value, err = power_sum_at(logs_a, logs_g, p)
        _, point_err = reference_log_power_sum(logs_a, logs_g, float(p), float(1 - p))
        with mpmath.workprec(256):
            pf = mpf(p.numerator) / p.denominator
            weights_g = [Fraction(1)] * len(a) if unit else g
            exact = mpmath.log(mpmath.fsum(
                (mpf(ai.numerator) / ai.denominator) ** pf
                * (mpf(gi.numerator) / gi.denominator) ** (1 - pf)
                for ai, gi in zip(a, weights_g)))
            assert abs(mpf(value) - exact) <= point_err <= err
        # and the bound is not vacuous at the sizes of `weights`
        if min(a + (g or [])) > 1e-3:
            assert err < 1e-11

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), dim=st.integers(1, 12), unit=st.booleans(),
           grid=st.sampled_from([GridSpec(), SHORT_GRID, GridSpec.parse("1/3:7/3:1/3")]))
    def test_a_priori_bound_dominates_the_per_point_bound(self, data, dim, unit, grid):
        logs_a = entry_logs(data.draw(spread_weights(dim)))
        logs_g = None if unit else entry_logs(data.draw(spread_weights(dim)))
        d, ms = grid.table
        for m in ms:
            p_hat, q_hat = m / d, (d - m) / d
            _, point_err = reference_log_power_sum(logs_a, logs_g, p_hat, q_hat)
            assert point_err <= prior_bound(logs_a, logs_g, p_hat, q_hat)


class TestWholeGridKernel:
    """`log_power_sums` over a grid gives, bit for bit, the floats the
    per-point reference gives at each of its points."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), dim=st.integers(1, 6), unit=st.booleans(),
           grid=st.sampled_from([GridSpec(), SHORT_GRID, GridSpec.parse("1/3:7/3:1/3")]))
    def test_equals_the_reference_bit_for_bit(self, data, dim, unit, grid):
        # dim 1 is a single nonzero entry, where max(*columns) has one argument
        logs_a = entry_logs(data.draw(weights(dim, zeros_allowed=False)))
        if unit:
            logs_g = None
        elif data.draw(st.booleans()):
            logs_g = entry_logs(data.draw(weights(dim, zeros_allowed=False)))
        else:
            energies = data.draw(st.lists(st.integers(0, 4), min_size=dim, max_size=dim))
            logs_g = entry_logs(gibbs_vector(energies, "1.2").g.entries)
        d, ms = grid.table
        ps = [m / d for m in ms]
        qs = [(d - m) / d for m in ms]
        values = log_power_sums(logs_a, logs_g, ps, qs)
        assert len(values) == len(ms)
        for p_hat, q_hat, value in zip(ps, qs, values):
            ref_value, _ = reference_log_power_sum(logs_a, logs_g, p_hat, q_hat)
            # bit for bit: equal floats, zeros of the same sign
            assert value.hex() == ref_value.hex()

    def test_scans_start_on_region_ends_and_every_kth_point(self, monkeypatch):
        calls = []

        def spy(logs_a, logs_g, ps, qs):
            calls.append(list(ps))
            return log_power_sums(logs_a, logs_g, ps, qs)

        def starts(grid, negative):
            # the first call's points: each region's ends and every BRACKET-th point
            d, ms = grid.table
            out = []
            for region in ([m for m in ms if m < 0] if negative else [],
                           [m for m in ms if 0 < m < d], [m for m in ms if m > d]):
                if region:
                    out += [region[i] for i in sorted({*range(0, len(region), BRACKET),
                                                      len(region) - 1})]
            return [m / d for m in out]

        monkeypatch.setattr(majorization, "log_power_sums", spy)
        x = make_prob_vector(["0.5", "0.3", "0.2"])
        y = make_prob_vector(["0.6", "0.3", "0.1"])
        oracle_scan(x, y)
        # both sides on the same points, call for call
        assert calls[0::2] == calls[1::2]
        assert calls[0] == starts(GridSpec(), True)
        # the certificates leave about a sixth of the grid to the float pass
        evaluated = sum(map(len, calls[0::2]))
        assert len(set().union(*calls)) == evaluated < len(GridSpec().points()) / 3
        calls.clear()
        # a zero entry keeps p < 0 out of the float pass
        divergence_scan(make_prob_vector(["0.6", "0.4", "0"]), x,
                        make_prob_vector(["0.5", "0.3", "0.2"]), SHORT_GRID)
        assert calls[0::2] == calls[1::2]
        assert calls[0] == starts(SHORT_GRID, False)


class TestBracket:
    """The four lines of `floatpass` and the bracketed walk of `scan`."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a=weights(5, zeros_allowed=False), g=weights(5, zeros_allowed=False),
           unit=st.booleans(),
           grid=st.sampled_from([GridSpec(), SHORT_GRID, GridSpec.parse("1/3:7/3:1/3")]),
           step=st.sampled_from([2, 5, 8, 33]))
    def test_interior_values_lie_in_their_brackets(self, a, g, unit, grid, step):
        logs_a = entry_logs(a)
        logs_g = None if unit else entry_logs(g)
        d, ms = grid.table
        ps = [m / d for m in ms]
        qs = [(d - m) / d for m in ms]
        values = log_power_sums(logs_a, logs_g, ps, qs)
        low, high = slope_range(logs_a, logs_g)
        # the band the scans give every point, evaluated or not
        prior = [prior_bound(logs_a, logs_g, p, q) for p, q in zip(ps, qs)]
        for left in range(0, len(ms) - 1, step):
            right = min(left + step, len(ms) - 1)
            for j in range(left + 1, right):
                ahead, behind = ps[j] - ps[left], ps[right] - ps[j]
                # the exact value lies between the lines from both ends, and
                # the computed one within its bound of it
                lo = max(values[left] - prior[left] + ahead * low,
                         values[right] - prior[right] - behind * high)
                hi = min(values[left] + prior[left] + ahead * high,
                         values[right] + prior[right] - behind * low)
                slack = 1e-12 * (1 + abs(values[j]))
                assert lo - prior[j] - slack <= values[j] <= hi + prior[j] + slack

    @pytest.mark.parametrize("ctx", [DEFAULT_CONTEXT, FLOAT_CTX], ids=["exact", "float"])
    @pytest.mark.parametrize("a, b", [
        (("0.5", "0.3", "0.2"), ("0.6", "0.3", "0.1")),     # feasible
        (("0.6", "0.3", "0.1"), ("0.5", "0.3", "0.2")),     # reversed: fails
        (("0.5", "0.3", "0.2"), ("0.5", "0.25", "0.25")),   # tied tops
        (("0.5", "0.3", "0.2"), ("0.55", "0.45", "0")),     # a zero on the second side
        (("0.55", "0.45", "0"), ("0.5", "0.3", "0.2")),     # a zero on the first side
    ], ids=["feasible", "reversed", "tied", "zero-second", "zero-first"])
    def test_fixed_pairs_match_the_whole_grid_walk(self, a, b, ctx):
        x, y = make_prob_vector(a, ctx), make_prob_vector(b, ctx)
        # the default grid on one backend, the short one on the other
        grid = GridSpec() if ctx.exact else SHORT_GRID
        gibbs = (gibbs_vector([0, 1, 2], "1.2", ctx).g if ctx.exact
                 else make_prob_vector(["0.5", "0.3", "0.2"], ctx))
        check_against_the_whole_grid_walk(lambda c: oracle_scan(x, y, grid, c), ctx)
        for grid, g in ((grid, gibbs), (GridSpec.parse("1/3:7/3:1/3"), uniform(3, ctx))):
            check_against_the_whole_grid_walk(lambda c: divergence_scan(x, y, g, grid, c), ctx)

    @settings(max_examples=20, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), ctx=backends,
           grid=st.sampled_from([GridSpec()] + [SHORT_GRID] * 3))
    def test_oracle_matches_the_whole_grid_walk(self, data, ctx, grid):
        dim = data.draw(st.integers(1, 5))
        a, b = data.draw(scan_pairs(dim))
        pad = [Fraction(0)] * data.draw(st.integers(0, 2))
        a, b = (a + pad, b) if data.draw(st.booleans()) else (a, b + pad)
        x, y = make_prob_vector(a, ctx), make_prob_vector(b, ctx)
        check_against_the_whole_grid_walk(lambda c: oracle_scan(x, y, grid, c), ctx)

    @settings(max_examples=20, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), ctx=backends,
           grid=st.sampled_from([GridSpec()] + [GridSpec.parse("1/3:7/3:1/3")] * 2
                                + [SHORT_GRID] * 5))
    def test_divergence_matches_the_whole_grid_walk(self, data, ctx, grid):
        dim = data.draw(st.integers(1, 5))
        a, b = data.draw(scan_pairs(dim))
        gibbs = data.draw(st.sampled_from(["unit", "weights", "energies"]))
        if gibbs == "unit":
            g = uniform(dim, ctx)
        elif gibbs == "weights":
            g = make_prob_vector(data.draw(weights(dim, zeros_allowed=False)), ctx)
        else:
            energies = data.draw(st.lists(st.integers(0, 4), min_size=dim, max_size=dim))
            g = gibbs_vector(energies, data.draw(st.sampled_from(["0.7", "1.2"])), ctx).g
        q_rho, q_sigma = make_prob_vector(a, ctx), make_prob_vector(b, ctx)
        check_against_the_whole_grid_walk(
            lambda c: divergence_scan(q_rho, q_sigma, g, grid, c), ctx)


# the seed-11 `tied/float` pair of the benchmark's locc_thermal workload
TIED_X = ("529/720", "9637/72000", "9463/72000")
TIED_Y = ("529/720", "97/720", "47/360")
# a shared top entry leaves open points at large p
LARGE_P = GridSpec.parse("-1:20:1/4")


def without_the_route(run, ctx):
    """run(ctx) with the residual power sums settling nothing."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(majorization, "_cancelled", lambda *args: {})
        return run(ctx)


def check_the_route(run, ctx):
    """run(ctx) under compact and full evidence equals it without the route
    and the whole-grid walk; the number of points the route settled."""
    settled = []
    real = majorization._cancelled
    for evidence in (ctx, full(ctx)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(majorization, "_cancelled",
                          lambda *args: settled.append(real(*args)) or settled[-1])
            report = run(evidence)
        assert report == without_the_route(run, evidence)
    check_against_the_whole_grid_walk(run, ctx)
    return sum(map(len, settled))


BACKENDS = pytest.mark.parametrize("ctx", [DEFAULT_CONTEXT, FLOAT_CTX], ids=["exact", "float"])


class TestSharedEntriesCancel:
    """Entries both vectors share cancel from S_p(a) - S_p(b), so the
    residual power sums settle points that float leaves open; the reports
    stay those of the scan without them, under either evidence, and failure
    rows keep their mpmath values."""

    @BACKENDS
    @pytest.mark.parametrize("a, b", [
        (TIED_X, TIED_Y),
        (("0.7", "0.12", "0.1", "0.08"), ("0.7", "0.15", "0.1", "0.05")),
    ], ids=["tied-top", "shared-middle"])
    def test_oracle(self, a, b, ctx):
        x, y = make_prob_vector(a, ctx), make_prob_vector(b, ctx)
        assert check_the_route(lambda c: oracle_scan(x, y, LARGE_P, c), ctx) > 0
        check_oracle(x, y, LARGE_P, ctx)
        # reversed, every point fails: the route settles none of them
        assert check_the_route(lambda c: oracle_scan(y, x, LARGE_P, c), ctx) == 0
        assert not check_oracle(y, x, LARGE_P, ctx).consistent

    @BACKENDS
    def test_divergence_with_a_shared_pair(self, ctx):
        # (0.75, 0.25) is a shared (q_i, g_i) pair, with the largest q_i / g_i
        q_rho = make_prob_vector(["0.2", "0.75", "0.05"], ctx)
        q_sigma = make_prob_vector(["0.15", "0.75", "0.1"], ctx)
        g = make_prob_vector(["0.5", "0.25", "0.25"], ctx)
        assert check_the_route(lambda c: divergence_scan(q_rho, q_sigma, g, LARGE_P, c), ctx) > 0
        check_divergence(q_rho, q_sigma, g, LARGE_P, ctx)
        assert check_the_route(lambda c: divergence_scan(q_sigma, q_rho, g, LARGE_P, c), ctx) == 0
        assert not check_divergence(q_sigma, q_rho, g, LARGE_P, ctx).consistent

    def test_the_tied_pair_never_reaches_mpmath(self, monkeypatch):
        x, y = make_prob_vector(TIED_X, FLOAT_CTX), make_prob_vector(TIED_Y, FLOAT_CTX)
        points = []
        monkeypatch.setattr(majorization, "renyi_entropy",
                            lambda v, p, ctx: points.append(p) or renyi_entropy(v, p, ctx))
        report = oracle_scan(x, y, None, FLOAT_CTX)
        assert report.consistent and points == []
        # without the route the float pass leaves 98 points to mpmath
        assert without_the_route(lambda c: oracle_scan(x, y, None, c), FLOAT_CTX) == report
        assert len(points) == 2 * 98

    def test_the_open_points_go_in_one_batch(self, monkeypatch):
        x, y = make_prob_vector(TIED_X), make_prob_vector(TIED_Y)
        batches = []
        real = majorization._cancelled
        monkeypatch.setattr(majorization, "_cancelled",
                            lambda *args: batches.append(real(*args)) or batches[-1])
        oracle_scan(x, y)
        # the walk's open points, then those of the margins taken at the end
        assert len(batches) == 2 and len(batches[0]) > 1

    def test_no_route_without_shared_entries_or_full_weight(self):
        def items(*entries):
            return [(Fraction(e),) for e in entries]

        assert majorization.residual_sides(items("1/2", "1/2"), items("3/4", "1/4")) is None
        assert majorization.residual_sides(items("1/2", "1/4"), items("1/2", "1/4")) is None
        assert majorization.residual_sides(items("1/2", "1/4", "1/4"),
                                           items("1/4", "1/2", "1/4")) is None
        # shared with multiplicity: one 1/4 is left over on each side
        sides = majorization.residual_sides(items("1/4", "1/4", "1/2"), items("1/4", "3/8", "3/8"))
        assert sides == ((entry_logs([Fraction(1, 4), Fraction(1, 2)]), None),
                         (entry_logs([Fraction(3, 8)] * 2), None))
        # a shared zero leaves a residual, but the scans try it only at full weight
        x = make_prob_vector(["0.7", "0.2", "0.1", "0"])
        y = make_prob_vector(["0.7", "0.15", "0.15", "0"])
        assert majorization.residual_sides(zip(x.entries), zip(y.entries)) is not None
        g = uniform(4)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(majorization, "_cancelled", lambda *args: pytest.fail("tried"))
            for a, b in ((x, y), (y, x)):
                oracle_scan(a, b)
                divergence_scan(a, b, g)


class TestTailRatio:
    def test_a_ratio_out_of_range_has_an_infinite_bound(self):
        # rho = e^0.5 > 1: F_x / F_y would be 1 - rho < 0
        ratio, bound = tail_ratio(0.0, -50.0, 1e-12, -0.5, 1e-12)
        assert ratio == -math.inf and bound == math.inf
        # rho above 1 the other way round, and rho = e^-0.5 in [1/2, 1)
        assert tail_ratio(-50.0, 0.0, 1e-12, -0.5, 1e-12)[1] == math.inf
        assert tail_ratio(0.0, -50.0, 1e-12, 0.5, 1e-12)[1] == math.inf
        # an exponent past float range
        assert tail_ratio(0.0, -50.0, 1e-12, -800.0, 1e-12) == (-math.inf, math.inf)
        # in range: rho = (1 - e^-10) / e^2
        ratio, bound = tail_ratio(-10.0, 0.0, 1e-12, 2.0, 1e-12)
        rho = -math.expm1(-10.0) * math.exp(-2.0)
        assert bound < 1e-9 and ratio == pytest.approx(math.log1p(rho) / math.log(2), rel=1e-12)
