"""Shared fixtures, generators, and independent test oracles.

The oracles here deliberately avoid the library's computation paths: the
coefficient oracle enumerates compositions term by term, and the exact
divergence comparators reduce both sides to canonical prime-power or
prime-logarithm forms, so equalities can be asserted with zero tolerance.
"""

from __future__ import annotations

import random
from fractions import Fraction

import mpmath
import pytest

from catamaj import Context, make_prob_vector
from catamaj.context import DEFAULT_CONTEXT, confirmed_greater
from catamaj.trumping import _LOCC, _run_families, compute_exponents
from catamaj.vectors import ProbVector, shannon_entropy

# Library internals pin their own working precision; raise the ambient
# precision so expected values computed inside tests are no less accurate.
mpmath.mp.prec = 320


@pytest.fixture
def announce(capsys):
    """Print a live pass/fail line, bypassing pytest's capture."""

    def _announce(label: str, ok: bool, detail: str = ""):
        with capsys.disabled():
            flag = "PASS" if ok else "FAIL"
            print(f"\n[{flag}] {label}" + (f" -- {detail}" if detail else ""))

    return _announce


@pytest.fixture
def past_the_exits(monkeypatch):
    """Switch off the checkers' majorization exit (`majorization_exit`, which
    both checkers' pipeline calls), so a pair it would decide runs the scans
    and families after it, as a pair on mpf entries does."""
    import catamaj.trumping as trumping

    monkeypatch.setattr(trumping, "majorization_exit", lambda *args: None)


def locc_families(x, y, ctx=DEFAULT_CONTEXT):
    """The exponents and the families `check_trumping` runs on x -> y, called
    directly: for a pair that a stage before them decides (a majorization
    exit), or whose verdict the oracle settles, without the scan."""
    exponents = compute_exponents(x, y, ctx)
    h1 = confirmed_greater(shannon_entropy(x, ctx), shannon_entropy(y, ctx))
    return exponents, _run_families(x, y, exponents, h1, _LOCC, ctx=ctx)


# ----------------------------------------------------------------------
# Worked-example data
# ----------------------------------------------------------------------

@pytest.fixture
def locc_pair():
    x = make_prob_vector(["0.6100", "0.3045", "0.0435", "0.0420"])
    y = make_prob_vector(["0.7315", "0.1211", "0.1374", "0.0100"])
    return x, y


@pytest.fixture
def locc_catalyst():
    return make_prob_vector(["0.48", "0.24", "0.16", "0.12"])


@pytest.fixture
def counterexample_pair():
    # the published source vector sums to 999737/1000000 as printed
    x = make_prob_vector(["0.46519", "0.27313", "0.20361", "0.057807"],
                         Context(sum_tol=Fraction(1, 1000)))
    y = make_prob_vector(["0.46843", "0.2693", "0.20646", "0.05581"])
    return x, y


@pytest.fixture
def thermo_pair():
    # printed to six figures; the totals miss 1 by a few 1e-7
    ctx = Context(sum_tol=Fraction(1, 10**6))
    q_rho = make_prob_vector(["0.936918", "0.0467542", "0.0159775", "0.000350242"], ctx)
    q_sigma = make_prob_vector(["0.862942", "0.129846", "0.00558697", "0.00162474"], ctx)
    return q_rho, q_sigma


# ----------------------------------------------------------------------
# Random generators (exact rationals, deterministic seeds)
# ----------------------------------------------------------------------

def random_prob_vector(rng: random.Random, dim: int, denom: int = 720,
                       zeros: int = 0) -> ProbVector:
    """Random exact probability vector with `zeros` trailing zero entries."""
    support = dim - zeros
    cuts = sorted(rng.sample(range(1, denom), support - 1)) if support > 1 else []
    parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
    entries = [Fraction(p, denom) for p in parts] + [Fraction(0)] * zeros
    return make_prob_vector(entries)


def mixed_toward_uniform(rng: random.Random, y: ProbVector,
                         lam: Fraction = None) -> ProbVector:
    """A strict convex mix of y with the uniform vector (so x is strictly
    majorized by y whenever y is not uniform)."""
    if lam is None:
        lam = Fraction(rng.randint(20, 90), 100)
    n = y.dim
    u = Fraction(1, n)
    entries = [lam * e + (1 - lam) * u for e in y.entries]
    return make_prob_vector(entries)


# ----------------------------------------------------------------------
# Independent coefficient oracle: composition-by-composition enumeration
# ----------------------------------------------------------------------

def brute_coefficient(entries, k: int, r: int) -> Fraction:
    """Sum over (k_1..k_n) with sum k and max k_i <= r of prod x^k_i / k_i!."""
    xs = [Fraction(e) for e in entries]
    n = len(xs)
    total = Fraction(0)

    def rec(i, remaining, prod):
        nonlocal total
        if i == n:
            if remaining == 0:
                total += prod
            return
        term = Fraction(1)
        for ki in range(0, min(r, remaining) + 1):
            if ki > 0:
                term = term * xs[i] / ki
            rec(i + 1, remaining - ki, prod * term)

    rec(0, k, Fraction(1))
    return total


# ----------------------------------------------------------------------
# Exact canonical forms for sums of rational powers and logarithms
# ----------------------------------------------------------------------

def _factorize(n: int) -> dict:
    assert n > 0
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _canonical_product(factors):
    """Write prod base**exp as coeff * prod prime**e with e in (0, 1).

    Integer exponent parts are absorbed into the rational coefficient; the
    remaining fractional-exponent map is the canonical radical key.  Distinct
    keys denote Q-linearly-independent real radicals, so sums agree exactly
    iff their key -> coefficient maps agree.
    """
    import math

    primes = {}
    for base, exp in factors:
        for p, k in _factorize(base.numerator).items():
            primes[p] = primes.get(p, Fraction(0)) + k * exp
        for p, k in _factorize(base.denominator).items():
            primes[p] = primes.get(p, Fraction(0)) - k * exp
    coeff = Fraction(1)
    key = {}
    for p, e in primes.items():
        whole = math.floor(e)
        rest = e - whole
        coeff *= Fraction(p) ** whole
        if rest:
            key[p] = rest
    return tuple(sorted(key.items())), coeff


def power_sum_terms(xs, gs, p: Fraction) -> dict:
    """Canonical form of sum_i x_i^p g_i^(1-p) (zero-x terms skip)."""
    p = Fraction(p)
    out = {}
    for x, g in zip(xs, gs):
        x, g = Fraction(x), Fraction(g)
        if x == 0:
            continue
        key, coeff = _canonical_product([(x, p), (g, 1 - p)])
        out[key] = out.get(key, Fraction(0)) + coeff
    return {k: v for k, v in out.items() if v != 0}


def kl_terms(xs, gs) -> dict:
    """Map prime -> rational coefficient of log2(prime) in sum x_i log2(x_i/g_i).

    Logarithms of distinct primes are linearly independent over Q, so map
    equality is exactly sum equality.
    """
    out = {}
    for x, g in zip(xs, gs):
        x, g = Fraction(x), Fraction(g)
        if x == 0:
            continue
        arg = x / g
        for p, e in _factorize(arg.numerator).items():
            out[p] = out.get(p, Fraction(0)) + x * e
        for p, e in _factorize(arg.denominator).items():
            out[p] = out.get(p, Fraction(0)) - x * e
    return {p: c for p, c in out.items() if c != 0}
