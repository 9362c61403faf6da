"""Catalytic state conversion under thermal operations.

Gibbs vectors, the integer-multiplicity embedding channel, Renyi divergences
and generalized free energies, rational approximation of irrational thermal
spectra with the accompanying slack factors, and the thermal checker.  It
builds the embedded vectors and calls the one condition pipeline of
`trumping` with the thermal `_Kind`: exactly for a rational Gibbs vector,
loosened by the slack factors for an irrational spectrum approximated
within an l1 distance eps.

Entries keep the order given: entry i of every state pairs with entry i of
the Gibbs vector.  Where an order is needed, the (population, Gibbs weight)
pairs are ranked jointly, never the two vectors apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, repeat
from operator import itemgetter
from typing import Optional, Sequence, Tuple

import mpmath
from mpmath import mpf

from .context import (
    DEFAULT_CONTEXT,
    Context,
    MAX_ORDER,
    Number,
    Scalar,
    as_mpf,
    to_mpf,
    workprec,
)
from .errors import (
    DimMismatch,
    EpsNonPositive,
    GibbsZeroEntry,
    InputError,
    SupportViolation,
)
from .floatpass import relative_entropy, surely_greater
from .majorization import GridSpec, ScanReport, both_branches, scan
from .sympoly import STRICT_LESS, ComparisonReport
from .trumping import INCONCLUSIVE, ExponentPair, H1Evidence, _decide, _Kind
from .vectors import ProbVector, converted, uniform

SUFFICIENT = "sufficient"
DEFAULT_EPS = Fraction(1, 1000)    # l1 target of the rational approximation of g
SAME_PAIRS = "q_rho and q_sigma have the same (q_i, g_i) pairs: no catalyst is needed"
THERMO_MAJORIZED = "q_rho thermo-majorizes q_sigma relative to g: no catalyst is needed"

RATIONAL_EXACT = "rational_exact"
SLACK_ADJUSTED = "slack_adjusted"

POS_INF = mpf("+inf")

# The LOCC conditions on (embedded sigma, embedded rho), run from q_rho's side
_THERMAL = _Kind("divergence scan", SUFFICIENT, INCONCLUSIVE, SAME_PAIRS, THERMO_MAJORIZED,
                 "r undefined (adjusted top-entry ratio not > 1)",
                 "embedded family fails at k in {}",
                 "H1 condition (with slack margin) not confirmed",
                 "s undefined (adjusted min-entry ratio not > 1)", STRICT_LESS,
                 weightless="target lacks full weight after embedding; strict "
                            "negative-order conditions cannot hold")


@dataclass(frozen=True)
class ThermalSpec:
    """Energy spectrum, inverse temperature, partition function, Gibbs vector."""

    energies: Optional[Tuple[Scalar, ...]]
    beta: Optional[Scalar]
    Z: Scalar
    g: ProbVector


def gibbs_vector(energies: Sequence[Number], beta: Number,
                 ctx: Context = DEFAULT_CONTEXT) -> ThermalSpec:
    """Gibbs vector g_i proportional to exp(-beta E_i), in the order of the
    energies.

    beta = 0 gives the uniform vector exactly (rational in the exact
    backend); otherwise mpf at the context precision P, rounded once after
    guard bits (relative error under 2^(1-P)), spanning at most 2^(MAX_ORDER/2).
    """
    if len(energies) == 0:
        raise InputError("need at least one energy level")
    beta = Fraction(beta) if isinstance(beta, (int, str)) else beta
    if not beta >= 0:
        raise InputError("beta must be nonnegative")
    n = len(energies)
    es = tuple(to_mpf(e, ctx) for e in energies)
    if beta == 0:
        return ThermalSpec(es, Fraction(0) if ctx.exact else mpf(0),
                           Fraction(n) if ctx.exact else mpf(n), uniform(n, ctx))
    with workprec(ctx):
        bf = to_mpf(beta, ctx)
        exponents = [bf * e for e in es]
        if max(exponents) - min(exponents) > MAX_ORDER // 2 * mpmath.ln2:
            raise GibbsZeroEntry(f"a Gibbs weight would fall below 2^-{MAX_ORDER // 2}")
        # exp turns an absolute error in beta E into a relative one
        guard = 8 + int(max(map(abs, exponents)) + 4).bit_length()
    with mpmath.workprec(ctx.precision + guard):
        weights = [mpmath.exp(-as_mpf(beta) * as_mpf(e)) for e in energies]
        z = mpmath.fsum(weights)
        entries = [w / z for w in weights]
    with workprec(ctx):
        return ThermalSpec(es, bf, +z, ProbVector(tuple(+v for v in entries)))


def thermal_from_gibbs(g: ProbVector) -> ThermalSpec:
    """Wrap a directly supplied Gibbs vector (log Z taken as 0)."""
    one = Fraction(1) if g.exact else mpf(1)
    return ThermalSpec(None, None, one, g)


@dataclass(frozen=True)
class EmbeddingSpec:
    """Integer multiplicities nu_i defining the embedding map.

    N = sum(nu) and the rational vector g_eps = (nu_i / N) follow from nu;
    eps is the achieved l1 distance to the Gibbs vector it approximates.
    """

    nu: Tuple[int, ...]
    N: int = field(init=False)
    g_eps: ProbVector = field(init=False)
    eps: Scalar

    def __post_init__(self):
        if any(v < 1 for v in self.nu):
            raise InputError("multiplicities must be positive")
        object.__setattr__(self, "N", sum(self.nu))
        object.__setattr__(self, "g_eps", ProbVector(tuple(Fraction(v, self.N) for v in self.nu)))


def _positive(eps: Number) -> Fraction:
    """eps as a Fraction, which must be positive."""
    if (eps := Fraction(eps)) <= 0:
        raise EpsNonPositive(f"eps = {eps} must be positive")
    return eps


def embedding_from_rational(g_eps: ProbVector, g: Optional[ProbVector] = None,
                            ctx: Context = DEFAULT_CONTEXT) -> EmbeddingSpec:
    """Embedding spec of an exactly rational vector; eps measured against g."""
    if not g_eps.exact:
        raise InputError("g_eps must be exactly rational")
    if not g_eps.full_weight:
        raise GibbsZeroEntry("g_eps must have full weight")
    if g is not None and g.dim != g_eps.dim:
        raise DimMismatch(f"g_eps dim {g_eps.dim} != g dim {g.dim}")
    if sum(g_eps.entries) != 1:
        name = "g" if g is None or g is g_eps else "g_eps"
        raise InputError(f"exact {name} sums to {sum(g_eps.entries)}, not 1")
    denominators = [e.denominator for e in g_eps.entries]
    n_common = math.lcm(*denominators)
    nu = tuple(int(e * n_common) for e in g_eps.entries)
    if g is None or (g.exact and g.entries == g_eps.entries):
        eps_achieved: Scalar = Fraction(0)
    elif g.exact:
        eps_achieved = sum(abs(a - b) for a, b in zip(g.entries, g_eps.entries))
    else:
        with workprec(ctx):
            eps_achieved = mpmath.fsum(
                abs(to_mpf(a, ctx) - to_mpf(b, ctx))
                for a, b in zip(g.entries, g_eps.entries))
    return EmbeddingSpec(nu, eps_achieved)


def rational_approx(g: ProbVector, eps: Number,
                    ctx: Context = DEFAULT_CONTEXT) -> EmbeddingSpec:
    """Rational vector nu/N' within l1 distance eps of g.

    Exactly rational inputs return their reduced form with zero error.
    Otherwise the denominator N' exceeds both dim/eps and 1/g_min, entries
    are floored, and the floor deficit is distributed to the largest
    fractional parts so the multiplicities sum exactly to N'.
    """
    eps_frac = _positive(eps)
    if not g.full_weight:
        raise GibbsZeroEntry("Gibbs vector must have full weight")
    if g.exact:
        return embedding_from_rational(g, g, ctx)
    d = g.dim
    with workprec(ctx):
        g_min = to_mpf(g.min_nonzero, ctx)
        n_prime = max(int(d / eps_frac) + 1, int(mpmath.floor(1 / g_min)) + 1, d)
        floors = [int(mpmath.floor(to_mpf(e, ctx) * n_prime)) for e in g.entries]
        fracs = [to_mpf(e, ctx) * n_prime - f for e, f in zip(g.entries, floors)]
        deficit = n_prime - sum(floors)
        order = sorted(range(d), key=lambda i: (-fracs[i], i))
        for i in order[:deficit]:
            floors[i] += 1
        achieved = mpmath.fsum(abs(to_mpf(a, ctx) - to_mpf(Fraction(f, n_prime), ctx))
                               for a, f in zip(g.entries, floors))
    if achieved > to_mpf(eps_frac, ctx):
        raise InputError(f"approximation missed its target: {achieved} > {eps_frac}")
    return EmbeddingSpec(tuple(floors), achieved)


@dataclass(frozen=True)
class Blocks:
    """An embedded vector as its d blocks: the value q_i/nu_i taken nu_i
    times, sorted by value, descending.

    It answers in O(d) what the thermal checker reads before the families:
    `dim` (N), `weight`, `top`, `min_nonzero`, `full_weight` and `entropy`,
    each equal to what the N-entry `ProbVector` of `embed` gives.
    """

    values: Tuple[Scalar, ...]
    counts: Tuple[int, ...]

    @cached_property
    def weight(self) -> int:    # N less the multiplicities of the values equal to 0
        return sum(c for v, c in zip(self.values, self.counts) if v != 0)

    @property
    def dim(self) -> int:
        return sum(self.counts)

    @property
    def top(self) -> Scalar:
        return self.values[0]

    @property
    def min_nonzero(self) -> Scalar:
        return min(v for v in self.values if v != 0)

    @property
    def full_weight(self) -> bool:
        return self.weight == self.dim

    def entropy(self, ctx: Context = DEFAULT_CONTEXT) -> mpf:
        """H_1 in bits, -sum_i nu_i v_i log2 v_i over the nonzero values.

        The same mpf as `shannon_entropy` of the N entries: each term
        v log2 v is computed as there, and `mpmath.fsum` over the N terms
        and `mpmath.fdot` over the d pairs (nu_i, term_i) both end in
        `mpf_sum`, which adds exact terms (nu_i term_i is exact) in integers
        and rounds once.  The one exception: mpf_sum drops a term more than
        2P bits below its running sum (P the precision), so terms that far
        apart (an entry below ~2^-500 at 256 bits) may round differently.
        """
        with workprec(ctx):
            values = [to_mpf(v, ctx) for v in self.values]
            return -mpmath.fdot((c, v * mpmath.log(v, 2))
                                for v, c in zip(values, self.counts) if v != 0)


def embedded_blocks(q: ProbVector, spec: EmbeddingSpec,
                    ctx: Context = DEFAULT_CONTEXT) -> Blocks:
    """The blocks (q_i/nu_i, nu_i) of q's embedding, sorted by value."""
    if q.dim != len(spec.nu):
        raise DimMismatch(f"vector dim {q.dim} != multiplicity count {len(spec.nu)}")
    with workprec(ctx):
        pairs = sorted(((qi / vi, vi) for qi, vi in zip(q.entries, spec.nu)),
                       key=itemgetter(0), reverse=True)
    return Blocks(tuple(v for v, _ in pairs), tuple(vi for _, vi in pairs))


def embed(q: ProbVector, spec: EmbeddingSpec,
          ctx: Context = DEFAULT_CONTEXT) -> ProbVector:
    """Replicate entry i into nu_i equal parts q_i/nu_i; output dim N.

    Maps g_eps itself to the uniform vector and preserves Renyi divergences
    against g_eps.
    """
    blocks = embedded_blocks(q, spec, ctx)
    entries = tuple(chain.from_iterable(map(repeat, blocks.values, blocks.counts)))
    return ProbVector(entries)


def renyi_divergence(x: ProbVector, g: ProbVector, p: Number,
                     ctx: Context = DEFAULT_CONTEXT) -> mpf:
    """Renyi divergence of order p in bits; +inf for p < 0 off full weight.

    p = 1 is the Kullback-Leibler divergence; p = 0 the min-divergence
    -log2 of the g-mass of x's support.  Entries are paired index-wise.
    """
    _check_support(x, g)
    with workprec(ctx):
        pf = as_mpf(p)
        pairs = [(as_mpf(xi), as_mpf(gi))
                 for xi, gi in zip(x.entries, g.entries) if xi != 0]
        if pf == 1:
            return mpmath.fsum(xi * mpmath.log(xi / gi, 2) for xi, gi in pairs)
        if pf == 0:
            return -mpmath.log(mpmath.fsum(gi for _, gi in pairs), 2)
        if pf < 0 and not x.full_weight:
            return POS_INF
        total = mpmath.fsum(xi**pf * gi ** (1 - pf) for xi, gi in pairs)
        sign = mpf(1) if pf > 0 else mpf(-1)
        return sign / (pf - 1) * mpmath.log(total, 2)


def _check_support(x: ProbVector, g: ProbVector) -> None:
    """The input errors of `renyi_divergence`: dimensions that differ, or an
    entry of x outside the support of g."""
    if x.dim != g.dim:
        raise DimMismatch(f"dims {x.dim} and {g.dim} differ")
    for xi, gi in zip(x.entries, g.entries):
        if xi != 0 and gi == 0:
            raise SupportViolation("support(x) must lie inside support(g)")


def free_energy(x: ProbVector, spec: ThermalSpec, p: Number,
                kT: Number = 1, ctx: Context = DEFAULT_CONTEXT) -> mpf:
    """Generalized free energy kT * (D_p(x || g) - log2 Z), in bits * kT."""
    with workprec(ctx):
        kt = to_mpf(kT, ctx)
        if kt == 0:
            return mpf(0)
        div = renyi_divergence(x, spec.g, p, ctx)
        return kt * (div - mpmath.log(to_mpf(spec.Z, ctx), 2))


def continuity_bound(p: Number, eps: Number, g_min: Number,
                     ctx: Context = DEFAULT_CONTEXT) -> mpf:
    """Bound on |D_p(x||g_eps) - D_p(x||g)| for ||g - g_eps||_1 <= eps."""
    with workprec(ctx):
        epsf = to_mpf(eps, ctx)
        gmin = to_mpf(g_min, ctx)
        if not (epsf >= 0 and gmin > 0):
            raise InputError("need eps >= 0 and g_min > 0")
        base = mpmath.log(1 + epsf / gmin, 2)
        pf = to_mpf(p, ctx)
        if pf == 1:
            return base
        return max(mpf(1), pf / abs(pf - 1)) * base


def slack_factors(eps: Number, g_min: Number, N: int, r_bar: int, s_bar: int,
                  ctx: Context = DEFAULT_CONTEXT) -> Tuple[mpf, mpf]:
    """Multiplicative loosenings (A_r, A_s) absorbing the approximation error."""
    with workprec(ctx):
        epsf = to_mpf(eps, ctx)
        gmin = to_mpf(g_min, ctx)
        ratio = 1 + epsf / gmin
        inv_ar = max(mpf(2) ** (-(ratio ** (2 * r_bar)) / N),
                     mpf(2) ** (-2 * epsf / (N * gmin)))
        inv_as = mpf(2) ** (-(ratio ** (2 * (1 + s_bar)) - 1) / N)
        return 1 / inv_ar, 1 / inv_as


def divergence_scan(q_rho: ProbVector, q_sigma: ProbVector, g: ProbVector,
                    grid: Optional[GridSpec] = None,
                    ctx: Context = DEFAULT_CONTEXT) -> ScanReport:
    """Check D_p(q_rho||g) > D_p(q_sigma||g) on the grid plus the p=1 point
    (KL); `majorization.scan` walks the grid, and a compact report's margin
    is the difference of the divergences in bits.  KL is decided from the
    float logs (`floatpass.relative_entropy`) and reaches mpmath only when
    they do not confirm it: its row is printed only when it fails.  When
    both states have full weight, the (q_i, g_i) pairs they share cancel
    before a point reaches mpmath (`majorization.residual_sides`).
    """
    grid = GridSpec() if grid is None else grid
    _check_support(q_rho, g)
    _check_support(q_sigma, g)
    triple = []    # the vectors converted once, at the first point mpmath evaluates

    def measure(p):
        triple[:] = triple or [converted(v, ctx) for v in (q_rho, q_sigma, g)]
        return tuple(renyi_divergence(v, triple[2], p, ctx) for v in triple[:2])

    def dedicated(sides):    # sides: q_sigma's, then q_rho's
        if sides and surely_greater(relative_entropy(*sides[1]), relative_entropy(*sides[0])):
            return []
        return [("KL (need >)", renyi_divergence(q_rho, g, 1, ctx),
                 renyi_divergence(q_sigma, g, 1, ctx))]

    # D_p rises with the power sum at p > 1 and p < 0, falls at 0 < p < 1.
    return scan(grid, [zip(q.entries, g.entries) for q in (q_sigma, q_rho)], measure,
                "divergence (need >)", dedicated, ctx)


@dataclass(frozen=True)
class ThermoVerdict:
    """A thermal verdict; its `path` is rational exact iff the embedding's eps is 0."""

    status: str
    reasons: Tuple[str, ...]
    path: str = field(init=False)
    embedding: EmbeddingSpec
    slack_used: Tuple[Scalar, Scalar]
    exponents: Optional[ExponentPair]
    closure_report: Optional[ComparisonReport]
    negative_report: Optional[ComparisonReport]
    h1: Optional[H1Evidence]
    weight_branch: Optional[str]
    oracle: Optional[ScanReport]
    cap_hit: bool = False

    def __post_init__(self):
        object.__setattr__(self, "path", SLACK_ADJUSTED if self.embedding.eps else RATIONAL_EXACT)

    @property
    def sufficient(self) -> bool:
        return self.status == SUFFICIENT


def check_thermo(q_rho: ProbVector, q_sigma: ProbVector, spec: ThermalSpec,
                 g_eps: Optional[ProbVector] = None,
                 eps: Number = DEFAULT_EPS,
                 ctx: Context = DEFAULT_CONTEXT,
                 grid: Optional[GridSpec] = None) -> ThermoVerdict:
    """Sufficient-condition checker for q_rho -> q_sigma under catalytic
    thermal operations.

    eps must be positive and the grid must pass `both_branches`, used or
    not.  The embedding is the supplied g_eps, else `rational_approx(g,
    eps)`, which keeps an exact g as it is.  The checker builds the embedded
    blocks and runs `trumping._decide` with the divergence scan against the
    true g: on the zero-slack path at l1 distance 0 from g, else with the
    exponents, H1 and the families loosened by the slack factors.  Same
    (q_i, g_i) pairs and thermo-majorized exact states are sufficient before
    any scan (`trumping.majorization_exit`).  A strict failure of the scan
    refutes unless the exact totals differ; under compact evidence the
    families are then skipped.
    """
    _positive(eps)
    grid = both_branches(grid)
    g = spec.g
    if not (q_rho.dim == q_sigma.dim == g.dim):
        raise DimMismatch("states and Gibbs vector must share a dimension")
    if not g.full_weight:
        raise GibbsZeroEntry("Gibbs vector must have full weight")

    embedding = (rational_approx(g, eps, ctx) if g_eps is None
                 else embedding_from_rational(g_eps, g, ctx))

    # A level where both states vanish adds one flat stretch to both Lorenz
    # curves: the exact path drops it (the slack factors assume the full N).
    rho, sigma, levels = q_rho, q_sigma, embedding
    if embedding.eps == 0:
        kept = [i for i in range(g.dim) if q_rho.entries[i] != 0 or q_sigma.entries[i] != 0]
        rho, sigma = (ProbVector(tuple(q.entries[i] for i in kept)) for q in (q_rho, q_sigma))
        levels = EmbeddingSpec(tuple(embedding.nu[i] for i in kept), 0)

    def loosening():    # 1 + eps/g_min
        with workprec(ctx):
            return 1 + to_mpf(embedding.eps, ctx) / to_mpf(g.min_nonzero, ctx)

    # Past the exits everything before the families reads the embedded
    # vectors' d blocks; their N entries are built only for a family that runs.
    fields, slack_used = _decide(
        _THERMAL, (q_rho, q_sigma), g, lambda: divergence_scan(q_rho, q_sigma, g, grid, ctx),
        lambda sides: tuple(side.entropy(ctx) for side in sides), ctx,
        lambda: (embedded_blocks(rho, levels, ctx), embedded_blocks(sigma, levels, ctx)),
        loosening,
        partial(slack_factors, embedding.eps, g.min_nonzero, levels.N, ctx=ctx)
        if embedding.eps else None,
        lambda: (embed(rho, levels, ctx), embed(sigma, levels, ctx)))
    return ThermoVerdict(embedding=embedding, slack_used=slack_used, **fields)
