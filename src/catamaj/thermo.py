"""Catalytic state conversion under thermal operations.

Gibbs vectors, the integer-multiplicity embedding channel, Renyi divergences
and generalized free energies, rational approximation of irrational thermal
spectra with the accompanying slack factors, and the thermal checker.  It
runs the condition pipeline of `trumping` on the embedded vectors: exactly
for a rational Gibbs vector, loosened by the slack factors for an irrational
spectrum approximated within an l1 distance eps.

Entries keep the order given: entry i of every state pairs with entry i of
the Gibbs vector.  Where an order is needed, the (population, Gibbs weight)
pairs are ranked jointly, never the two vectors apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import itemgetter
from typing import Optional, Sequence, Tuple

import mpmath
from mpmath import mpf

from .context import (
    DEFAULT_CONTEXT,
    Context,
    Number,
    Scalar,
    as_mpf,
    confirmed_less,
    is_zero,
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
from .floatpass import entry_logs, relative_entropy, surely_greater
from .majorization import GridSpec, OracleFailure, ScanReport, scan
from .sympoly import STRICT_LESS, ComparisonReport
from .trumping import (
    FULL_WEIGHT,
    INCONCLUSIVE,
    NO_FAMILIES,
    WEIGHT_LESS,
    ExponentPair,
    FamilyWords,
    H1Evidence,
    compute_exponents,
    degree_capped,
    mass_mismatch,
    run_families,
    settle_status,
)
from .vectors import ProbVector, _build, converted, uniform

SUFFICIENT = "sufficient"
SAME_PAIRS = "q_rho and q_sigma have the same (q_i, g_i) pairs: no catalyst is needed"

RATIONAL_EXACT = "rational_exact"
SLACK_ADJUSTED = "slack_adjusted"

POS_INF = mpf("+inf")

THERMAL_WORDS = FamilyWords("embedded family fails at k in {}",
                            "H1 condition (with slack margin) not confirmed",
                            "s undefined (adjusted min-entry ratio not > 1)")


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
    backend); otherwise the entries are mpf at the context precision.
    """
    if len(energies) == 0:
        raise InputError("need at least one energy level")
    beta = Fraction(beta) if isinstance(beta, (int, str)) else beta
    if not beta >= 0:
        raise InputError("beta must be nonnegative")
    n = len(energies)
    if beta == 0:
        g = uniform(n, ctx)
        z = Fraction(n) if ctx.exact else mpf(n)
        with workprec(ctx):
            es = tuple(to_mpf(e, ctx) for e in energies)
        return ThermalSpec(es, Fraction(0) if ctx.exact else mpf(0), z, g)
    with workprec(ctx):
        es = tuple(to_mpf(e, ctx) for e in energies)
        bf = to_mpf(beta, ctx)
        weights = [mpmath.exp(-bf * e) for e in es]
        z = mpmath.fsum(weights)
        entries = [w / z for w in weights]
        g = _build(entries, False)
    return ThermalSpec(es, bf, z, g)


def thermal_from_gibbs(g: ProbVector) -> ThermalSpec:
    """Wrap a directly supplied Gibbs vector (log Z taken as 0)."""
    one = Fraction(1) if g.exact else mpf(1)
    return ThermalSpec(None, None, one, g)


@dataclass(frozen=True)
class EmbeddingSpec:
    """Integer multiplicities nu_i (summing to N) defining the embedding map.

    g_eps is the rational vector (nu_i / N); eps is the achieved l1 distance
    to the Gibbs vector it approximates.
    """

    nu: Tuple[int, ...]
    N: int
    g_eps: ProbVector
    eps: Scalar

    def __post_init__(self):
        if sum(self.nu) != self.N:
            raise InputError("multiplicities must sum to N")
        if any(v < 1 for v in self.nu):
            raise InputError("multiplicities must be positive")


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
    return EmbeddingSpec(nu, n_common, g_eps, eps_achieved)


def rational_approx(g: ProbVector, eps: Number,
                    ctx: Context = DEFAULT_CONTEXT) -> EmbeddingSpec:
    """Rational vector nu/N' within l1 distance eps of g.

    Exactly rational inputs return their reduced form with zero error.
    Otherwise the denominator N' exceeds both dim/eps and 1/g_min, entries
    are floored, and the floor deficit is distributed to the largest
    fractional parts so the multiplicities sum exactly to N'.
    """
    eps_frac = Fraction(eps) if not isinstance(eps, Fraction) else eps
    if eps_frac <= 0:
        raise EpsNonPositive(f"eps = {eps_frac} must be positive")
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
        g_eps = _build([Fraction(f, n_prime) for f in floors], True)
        achieved = mpmath.fsum(abs(to_mpf(a, ctx) - to_mpf(b, ctx))
                               for a, b in zip(g.entries, g_eps.entries))
    if achieved > to_mpf(eps_frac, ctx):
        raise InputError(f"approximation missed its target: {achieved} > {eps_frac}")
    return EmbeddingSpec(tuple(floors), n_prime, g_eps, achieved)


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
    weight: int  # N less the entries `is_zero` takes for zero

    @property
    def dim(self) -> int:
        return sum(self.counts)

    @property
    def top(self) -> Scalar:
        return self.values[0]

    @property
    def min_nonzero(self) -> Scalar:
        return min(v for v in self.values if not is_zero(v))

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
    weight = sum(vi for v, vi in pairs if not is_zero(v))
    return Blocks(tuple(v for v, _ in pairs), tuple(vi for _, vi in pairs), weight)


def embed(q: ProbVector, spec: EmbeddingSpec,
          ctx: Context = DEFAULT_CONTEXT) -> ProbVector:
    """Replicate entry i into nu_i equal parts q_i/nu_i; output dim N.

    Maps g_eps itself to the uniform vector and preserves Renyi divergences
    against g_eps.
    """
    blocks = embedded_blocks(q, spec, ctx)
    entries = tuple(chain.from_iterable(map(repeat, blocks.values, blocks.counts)))
    return ProbVector(entries, blocks.weight, q.exact)


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
                 for xi, gi in zip(x.entries, g.entries) if not is_zero(xi)]
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
        if not is_zero(xi) and is_zero(gi):
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


def _kept_logs(x: ProbVector, g: ProbVector):
    """Float logs of the entries of x that `renyi_divergence` keeps and of
    their Gibbs weights, or None when the float pre-pass cannot run."""
    kept = [(xi, gi) for xi, gi in zip(x.entries, g.entries) if not is_zero(xi)]
    logs_x = entry_logs(xi for xi, _ in kept)
    logs_g = entry_logs(gi for _, gi in kept)
    if not (logs_x and logs_g):
        return None
    return logs_x, logs_g


def divergence_scan(q_rho: ProbVector, q_sigma: ProbVector, g: ProbVector,
                    grid: Optional[GridSpec] = None,
                    ctx: Context = DEFAULT_CONTEXT) -> ScanReport:
    """Check D_p(q_rho||g) > D_p(q_sigma||g) on the grid plus the p=1 point
    (KL); `majorization.scan` walks the grid, and a compact report's margin
    is the difference of the divergences in bits.  KL is decided from the
    float logs (`floatpass.relative_entropy`) and reaches mpmath only when
    they do not confirm it: its row is printed only when it fails.
    """
    grid = (GridSpec() if grid is None else grid).within(ctx.point_budget)
    _check_support(q_rho, g)
    _check_support(q_sigma, g)
    compact = not ctx.full_evidence
    logs_rho = _kept_logs(q_rho, g)
    logs_sigma = _kept_logs(q_sigma, g)
    # D_p rises with the power sum at p > 1 and p < 0, falls at 0 < p < 1.
    sides = (logs_sigma, logs_rho) if logs_rho and logs_sigma else None
    triple = []    # the vectors converted once, at the first point mpmath evaluates

    def evaluate(p, m):
        if not triple:
            triple.extend(converted(v, ctx) for v in (q_rho, q_sigma, g))
        lhs = renyi_divergence(triple[0], triple[2], p, ctx)
        rhs = renyi_divergence(triple[1], triple[2], p, ctx)
        margin = None
        if compact and mpmath.isfinite(lhs) and mpmath.isfinite(rhs):
            margin = float(lhs - rhs)
        if lhs > rhs:
            return margin, None
        return margin, OracleFailure(p, lhs, rhs, "divergence (need >)")

    dedicated = []
    if not (sides and surely_greater(relative_entropy(*logs_rho), relative_entropy(*logs_sigma))):
        dedicated.append(("KL (need >)", renyi_divergence(q_rho, g, 1, ctx),
                          renyi_divergence(q_sigma, g, 1, ctx)))
    return scan(grid, sides, (q_sigma.full_weight, q_rho.full_weight), evaluate, dedicated,
                ctx, by_q=True)


@dataclass(frozen=True)
class ThermoVerdict:
    status: str
    reasons: Tuple[str, ...]
    path: str
    embedding: Optional[EmbeddingSpec]
    slack_used: Tuple[Scalar, Scalar]
    exponents: Optional[ExponentPair]
    closure_report: Optional[ComparisonReport]
    negative_report: Optional[ComparisonReport]
    h1: Optional[H1Evidence]
    weight_branch: Optional[str]
    oracle: Optional[ScanReport]
    cap_hit: bool = False

    @property
    def sufficient(self) -> bool:
        return self.status == SUFFICIENT


def check_thermo(q_rho: ProbVector, q_sigma: ProbVector, spec: ThermalSpec,
                 g_eps: Optional[ProbVector] = None,
                 eps: Number = Fraction(1, 1000),
                 ctx: Context = DEFAULT_CONTEXT,
                 with_oracle: bool = True,
                 grid: Optional[GridSpec] = None) -> ThermoVerdict:
    """Sufficient-condition checker for q_rho -> q_sigma under catalytic
    thermal operations.

    An exactly rational Gibbs vector (or a supplied g_eps that matches it)
    takes the zero-slack path; otherwise g is approximated within eps (or the
    supplied g_eps is used) and the condition families run with the adjusted
    exponents and slack factors.  A dense divergence scan against the true g
    is attached; a strict failure there refutes the transformation outright,
    unless the exact totals of the two states differ.  Under compact
    evidence the condition families are then skipped.  States with the same
    (q_i, g_i) pairs are sufficient before any scan.
    """
    g = spec.g
    if not (q_rho.dim == q_sigma.dim == g.dim):
        raise DimMismatch("states and Gibbs vector must share a dimension")
    if not g.full_weight:
        raise GibbsZeroEntry("Gibbs vector must have full weight")

    if g_eps is not None:
        embedding = embedding_from_rational(g_eps, g, ctx)
    elif g.exact:
        embedding = embedding_from_rational(g, g, ctx)
    else:
        embedding = rational_approx(g, eps, ctx)
    path = RATIONAL_EXACT if embedding.eps == 0 else SLACK_ADJUSTED
    same = sorted(zip(q_rho.entries, g.entries)) == sorted(zip(q_sigma.entries, g.entries))
    oracle = divergence_scan(q_rho, q_sigma, g, grid, ctx) if with_oracle and not same else None
    unequal = mass_mismatch(q_rho, q_sigma)

    def verdict(status, reasons, exponents=None, families=NO_FAMILIES, h1=None,
                branch=None, slack=(Fraction(1), Fraction(1))):
        status, reasons = settle_status(status, reasons, oracle, "divergence scan", unequal)
        return ThermoVerdict(status, reasons, path, embedding, slack, exponents,
                             families.closure, families.negative, h1, branch, oracle,
                             families.cap_hit and status == INCONCLUSIVE)

    if same:
        return verdict(SUFFICIENT, (SAME_PAIRS,))
    n_embedded = embedding.N
    if (oracle is not None and not oracle.consistent and not unequal
            and not ctx.full_evidence):
        return verdict(INCONCLUSIVE, ("condition families skipped: the pair is refuted",))

    # Everything before the families reads the embedded vectors' d blocks;
    # their N entries are built only for a family that runs.
    x = embedded_blocks(q_rho, embedding, ctx)
    y = embedded_blocks(q_sigma, embedding, ctx)
    branch = FULL_WEIGHT if x.full_weight else WEIGHT_LESS

    # The LOCC conditions on (embedded sigma, embedded rho), loosened by
    # (1 + eps/g_min)^2 in the exponents and by 2 log2(1 + eps/g_min) in H1.
    h1_x = x.entropy(ctx)
    h1_y = y.entropy(ctx)
    with workprec(ctx):
        g_min = to_mpf(g.min_nonzero, ctx)
        loosening = 1 + to_mpf(embedding.eps, ctx) / g_min
        exponents = compute_exponents(y, x, ctx, loosening ** 2)
        h1 = H1Evidence(h1_x, h1_y,
                        confirmed_less(h1_x, h1_y - 2 * mpmath.log(loosening, 2)))

    if not exponents.r_defined:
        return verdict(INCONCLUSIVE, ("r undefined (adjusted top-entry ratio not > 1)",),
                       exponents, h1=h1, branch=branch)

    slack = family_slack = (Fraction(1), Fraction(1))
    if path == SLACK_ADJUSTED:
        s_bar = exponents.s_bar if exponents.s_defined else 1
        slack = slack_factors(embedding.eps, g_min, n_embedded, exponents.r_bar, s_bar, ctx)
        with workprec(ctx):
            family_slack = (1 / slack[0], slack[1])

    families = degree_capped(n_embedded, exponents.r_bar, ctx) or run_families(
        embed(q_rho, embedding, ctx), embed(q_sigma, embedding, ctx), STRICT_LESS, exponents,
        h1.holds, THERMAL_WORDS, family_slack, ctx)
    reasons = list(families.reasons)
    if families.closure is not None and not families.closure.all_hold:
        # past a failing closure family the report names the other failures too
        if not h1.holds:
            reasons.append(THERMAL_WORDS.h1)
        if not y.full_weight:
            reasons.append("target lacks full weight after embedding; strict "
                           "negative-order conditions cannot hold")
    return verdict(INCONCLUSIVE if reasons else SUFFICIENT, reasons, exponents, families,
                   h1, branch, slack)
