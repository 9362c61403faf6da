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
    scaled_p_norm,
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
    tightest,
)
from catamaj.majorization import BRACKET, CONSISTENT, REFUTED, OracleFailure, ScanReport

FLOAT_CTX = Context(backend="float")
SHORT_GRID = GridSpec.parse("-5:5:1/10")
TINY = Fraction(1, 10**40)


def reference_log_power_sum(logs_a, logs_g, p_hat, q_hat):
    """The per-point float pre-pass `log_power_sums` batches: (L, err) at one
    p, with the same floating-point operations in the same order."""
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


def power_sum_at(logs_a, logs_g, p):
    """`log_power_sums` at the single point p: (L, err)."""
    (value,), (err,) = log_power_sums(logs_a, logs_g, [float(p)], [float(1 - p)])
    return value, err


def reference_oracle_scan(x, y, grid=None, ctx=DEFAULT_CONTEXT):
    """`oracle_scan` with every point evaluated in mpmath."""
    grid = grid or GridSpec()
    x, y = pad_pair(x, y)
    failures = []
    points = grid.points()
    with workprec(ctx):
        for p in points:
            lhs = scaled_p_norm(x, p, ctx)
            rhs = scaled_p_norm(y, p, ctx)
            if p > 1:
                if not lhs < rhs:
                    failures.append(OracleFailure(p, lhs, rhs, "norm p>1 (need <)"))
            else:
                if not lhs > rhs:
                    failures.append(OracleFailure(p, lhs, rhs, "norm p<1 (need >)"))
        h1_x, h1_y = shannon_entropy(x, ctx), shannon_entropy(y, ctx)
        burg_x, burg_y = burg_entropy(x, ctx), burg_entropy(y, ctx)
    if not h1_x > h1_y:
        failures.append(OracleFailure(None, h1_x, h1_y, "H1 (need >)"))
    if not burg_x > burg_y:
        failures.append(OracleFailure(None, burg_x, burg_y, "Burg (need >)"))
    if failures and failures[0].which.startswith("norm"):
        refuted_at = f"p={failures[0].p}"
    elif failures:
        refuted_at = failures[0].which.split(" ")[0]
    else:
        refuted_at = None
    verdict = CONSISTENT if not failures else REFUTED
    return ScanReport(grid, tuple(failures), verdict, refuted_at)


def reference_divergence_scan(q_rho, q_sigma, g, grid=None, ctx=DEFAULT_CONTEXT):
    """`divergence_scan` with every point evaluated in mpmath."""
    grid = grid or GridSpec()
    points = grid.points()
    failures = []
    with workprec(ctx):
        for p in points:
            lhs = renyi_divergence(q_rho, g, p, ctx)
            rhs = renyi_divergence(q_sigma, g, p, ctx)
            if not lhs > rhs:
                failures.append(OracleFailure(p, lhs, rhs, "divergence (need >)"))
        kl_lhs = renyi_divergence(q_rho, g, 1, ctx)
        kl_rhs = renyi_divergence(q_sigma, g, 1, ctx)
    if not kl_lhs > kl_rhs:
        failures.append(OracleFailure(None, kl_lhs, kl_rhs, "KL (need >)"))
    refuted_at = None
    if failures:
        first = failures[0]
        refuted_at = f"p={first.p}" if first.p is not None else "KL"
    verdict = CONSISTENT if not failures else REFUTED
    return ScanReport(grid, tuple(failures), verdict, refuted_at)


def reference_scan(grid, sides, full_weight, evaluate, dedicated, ctx, by_q=False):
    """`majorization.scan` as it walked before the bracket: `log_power_sums`
    on the whole grid, then every point settled in float or evaluated, in
    order.  Swapped in for `scan`, it gives the reports the bracketed walk
    must reproduce field for field."""
    (d, ms), points = grid.table, grid.points()
    compact = not ctx.full_evidence
    first_full, second_full = full_weight
    full_weights = first_full and second_full
    holds_below_zero = first_full and not second_full
    failures, count, margins = [], 0, []
    floats = repeat(None)
    if sides is not None:
        ps = [m / d for m in ms]
        qs = [(d - m) / d for m in ms]
        (a, err_a), (b, err_b) = (log_power_sums(logs, logs_g, ps, qs) for logs, logs_g in sides)
        gaps = map(sub, b, a)
        bands = map(mul, repeat(2), map(add, err_a, err_b))
        scales = map(mul, map(abs, qs if by_q else ps), repeat(math.log(2)))
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
            margin, failure = evaluate(p, m)
            if margin is not None:
                margins.append(margin)
            if failure is not None:
                count += 1
                if not (compact and failures):
                    failures.append(failure)
    for which, lhs, rhs in dedicated:
        if not lhs > rhs:
            failures.append(OracleFailure(None, lhs, rhs, which))
            count += 1
    refuted_at = None
    if failures:
        first = failures[0]
        refuted_at = f"p={first.p}" if first.p is not None else first.which.split(" ")[0]
    verdict = REFUTED if failures else CONSISTENT
    if not compact:
        return ScanReport(grid, tuple(failures), verdict, refuted_at)
    return ScanReport(grid, tuple(failures), verdict, refuted_at, count, tightest(margins))


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
        monkeypatch.setattr(majorization, "scaled_p_norm",
                            lambda *args: calls.append(args) or scaled_p_norm(*args))
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
        monkeypatch.setattr(majorization, "scaled_p_norm",
                            lambda *args: calls.append(args[1]) or scaled_p_norm(*args))
        # ||y||_p = 0 < ||x||_p at p < 0 by convention
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
    @given(a=weights(6, zeros_allowed=False), g=weights(6, zeros_allowed=False),
           p=st.fractions(-40, 40, max_denominator=40).filter(lambda p: p not in (0, 1)),
           unit=st.booleans())
    def test_error_bound_holds(self, a, g, p, unit):
        # the float value lies within its bound of the 256-bit value
        logs_g = None if unit else entry_logs(g)
        value, err = power_sum_at(entry_logs(a), logs_g, p)
        with mpmath.workprec(256):
            pf = mpf(p.numerator) / p.denominator
            weights_g = [Fraction(1)] * len(a) if unit else g
            exact = mpmath.log(mpmath.fsum(
                (mpf(ai.numerator) / ai.denominator) ** pf
                * (mpf(gi.numerator) / gi.denominator) ** (1 - pf)
                for ai, gi in zip(a, weights_g)))
            assert abs(mpf(value) - exact) <= err
            # and the bound is not vacuous at these sizes
            assert err < 1e-11


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
        values, errs = log_power_sums(logs_a, logs_g, ps, qs)
        assert len(values) == len(errs) == len(ms)
        for p_hat, q_hat, value, err in zip(ps, qs, values, errs):
            ref_value, ref_err = reference_log_power_sum(logs_a, logs_g, p_hat, q_hat)
            # bit for bit: equal floats, zeros of the same sign
            assert value.hex() == ref_value.hex() and err.hex() == ref_err.hex()

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
        values, errs = log_power_sums(logs_a, logs_g, ps, [(d - m) / d for m in ms])
        low, high = slope_range(logs_a, logs_g)
        c0, cp, cq = err_coefficients(logs_a, logs_g)
        prior = [c0 + cp * abs(p) + cq * abs(1 - p) for p in ps]
        # the a-priori bound dominates every bound the kernel returns
        assert all(e <= bound for e, bound in zip(errs, prior))
        for left in range(0, len(ms) - 1, step):
            right = min(left + step, len(ms) - 1)
            for j in range(left + 1, right):
                ahead, behind = ps[j] - ps[left], ps[right] - ps[j]
                # the exact value lies between the lines from both ends, and
                # the computed one within its bound of it
                lo = max(values[left] - errs[left] + ahead * low,
                         values[right] - errs[right] - behind * high)
                hi = min(values[left] + errs[left] + ahead * high,
                         values[right] + errs[right] - behind * low)
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
