"""Seeded request sets for the benchmark workloads.

A request is one CLI call on one generated problem file.  Each workload is
a fixed list of request slots (command, class and size), so every run of
every seed has the same mix and the same number of requests; the seed only
draws the numbers.  Every request carries its ground-truth label: the set
of outcomes that do not contradict what is known about it independently of
the program (see truth.py).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional

from truth import (
    CAP,
    FEASIBLE,
    FOUND,
    INFEASIBLE,
    NOT_FOUND,
    REJECTED,
    SUFFICIENT,
    VERIFIED,
    catalyst_works,
    desc,
    gibbs,
    kl,
    lorenz_gap,
    majorized,
)

WORKLOADS = ("locc_thermal", "near_tie")


@dataclass
class Request:
    kind: str
    argv: list               # CLI arguments before the problem path
    problem: dict
    allowed: frozenset       # outcomes consistent with the label
    # For search-catalyst: how to re-check a returned catalyst independently.
    catalyst_check: Optional[dict] = None
    # False for a request that runs once per run, before the timed passes.
    windowed: bool = True


def fstr(values):
    return [str(Fraction(v)) for v in values]


def random_vector(rng, dim, denom=720, zeros=0):
    """Exact probability vector on the 1/denom grid, descending, with
    `zeros` trailing zero entries and every other entry positive."""
    support = dim - zeros
    cuts = sorted(rng.sample(range(1, denom), support - 1)) if support > 1 else []
    parts = [b - a for a, b in zip([0] + cuts, cuts + [denom])]
    return desc([Fraction(p, denom) for p in parts]) + [Fraction(0)] * zeros


def mix(y, lam, target):
    return [lam * a + (1 - lam) * b for a, b in zip(y, target)]


def uniform(n):
    return [Fraction(1, n)] * n


def _check(label, what):
    if not label:
        raise RuntimeError(f"generator produced a pair that is not {what}")


# ------------------------------------------------------------- LOCC slots

def _locc_slots():
    # 20 slots: 12 feasible, 4 reversed, 2 tied tops, 2 zero-entry targets;
    # a quarter go through check-coherence, a quarter use --backend float;
    # dims 3..6 five times each.  Fixed, so every seed runs the same mix.
    # They are most of the requests, so the median latency falls among
    # them, and twenty keep it from hanging on one seeded pair.
    classes = ["feasible"] * 12 + ["reversed"] * 4 + ["tied"] * 2 + ["zeros"] * 2
    dims = [3, 4, 5, 6] * 5
    fixed = random.Random(20)
    fixed.shuffle(classes)
    fixed.shuffle(dims)
    fronts = ["exact", "coherence", "exact", "float"] * 5
    return list(zip(classes, dims, fronts))


def _locc_pair(rng, cls, dim):
    if cls == "zeros":
        y = random_vector(rng, dim, zeros=rng.randint(1, dim - 2))
        x = mix(y, Fraction(rng.randint(30, 85), 100), uniform(dim))
        _check(majorized(x, y), "majorized")
        return x, y, FEASIBLE
    y = random_vector(rng, dim)
    while len(set(y[1:])) == 1:          # a constant tail would make x == y
        y = random_vector(rng, dim)
    lam = Fraction(rng.randint(30, 85), 100)
    if cls == "tied":
        tail = y[1:]
        x = [y[0]] + mix(tail, lam, [sum(tail) / len(tail)] * len(tail))
        _check(majorized(x, y) and x[0] == y[0] and x != y, "tied and majorized")
        return desc(x), y, FEASIBLE
    x = mix(y, lam, uniform(dim))
    _check(majorized(x, y), "majorized")
    if cls == "reversed":
        _check(y[0] > x[0], "reversed")
        return y, x, INFEASIBLE          # source top entry above the target's
    return x, y, FEASIBLE


def _locc_request(rng, cls, dim, front) -> Request:
    x, y, allowed = _locc_pair(rng, cls, dim)
    if front == "coherence":
        return Request(f"{cls}/coherence", ["check-coherence"],
                       {"psi": fstr(x), "phi": fstr(y), "probabilities": True}, allowed)
    argv = ["check-trumping"] + (["--backend", "float"] if front == "float" else [])
    return Request(f"{cls}/{front}", argv, {"x": fstr(x), "y": fstr(y)}, allowed)


# ------------------------------------------------------------------ near_tie

# The published counterexample pair, digits exactly as printed: x sums to
# 0.999737 and is read in through sum_tol.  Search finds the catalyst below
# on the 1/1000 grid, so a "refuted" verdict contradicts it.
COUNTEREXAMPLE = {
    "x": ["0.46519", "0.27313", "0.20361", "0.057807"],
    "y": ["0.46843", "0.2693", "0.20646", "0.05581"],
    "sum_tol": "1e-3",
}
COUNTEREXAMPLE_CATALYST = [Fraction(317, 500), Fraction(183, 500)]

# (dim, target r_bar, incomparable) per slot.  n * r_bar stays within
# 340..400, so one request costs one to two seconds, mostly in the exact
# coefficient kernel.
NEAR_TIE_SLOTS = [(4, 85, False), (5, 70, True), (4, 100, True), (5, 80, False)]
# Prime denominators: the target lives on the 1/719 grid and the source on
# the 1/100003 grid, so no entry reduces and a slot's coefficient sizes, and
# hence its cost, do not depend on the seed.
Y_GRID, X_GRID = 719, 100003


def _entropy(v):
    return -sum(float(t) * math.log(float(t)) for t in v if t)


def _on_grid(values, top):
    """Round `values` (the entries after the top one) to the 1/X_GRID grid
    and put the rounding residue on the middle entry, so the total is 1."""
    units = [round(float(v) * X_GRID) for v in values]
    units[len(units) // 2] += X_GRID - top - sum(units)
    return [Fraction(top, X_GRID)] + [Fraction(u, X_GRID) for u in units]


def _near_tie_pair(rng, n, r_target, incomparable):
    """One pair with r = log n / log(y_1/x_1) just below r_target, or None
    when this draw cannot satisfy the constraints."""
    y = random_vector(rng, n, denom=Y_GRID)
    if not (y[0] < Fraction(2, n) and len(set(y)) == n):
        return None
    top = math.floor(X_GRID * float(y[0]) * n ** (-1 / (r_target - 0.5)))
    if incomparable:
        # Keep x_1, push the smallest entry well below the target's and
        # spread the rest evenly over the middle.  The p -> -inf condition
        # x_n >= y_n then fails, so no catalyst can exist; the low product of
        # entries makes the closure family fail at its top orders; x_1 < y_1
        # and H1(x) > H1(y) keep the pair past the cheap refutations and
        # into the coefficient family.
        low = y[-1] * Fraction(rng.randint(30, 60), 100)
        middle = (1 - Fraction(top, X_GRID) - low) / (n - 2)
        x = _on_grid([middle] * (n - 2) + [low], top)
        if not (x == desc(x) and _entropy(x) > _entropy(y) + 1e-3
                and math.prod(x) < math.prod(y)):
            return None
        _check(x[0] < y[0] and x[-1] < y[-1], "incomparable")
        return x, y, INFEASIBLE
    # Mix toward uniform with the lambda that gives this top entry.
    lam = (Fraction(top, X_GRID) - Fraction(1, n)) / (y[0] - Fraction(1, n))
    x = _on_grid(mix(y[1:], lam, uniform(n)[1:]), top)
    if not (x == desc(x) and majorized(x, y)):
        return None
    return x, y, FEASIBLE


def near_tie(seed: int) -> Iterator[Request]:
    """The counterexample once, then the 4 near-tie slots."""
    rng = random.Random(seed)
    yield Request("counterexample", ["check-trumping"], dict(COUNTEREXAMPLE),
                  FEASIBLE - {SUFFICIENT}, windowed=False)
    for n, r_target, incomparable in NEAR_TIE_SLOTS:
        pair = None
        while pair is None:
            pair = _near_tie_pair(rng, n, r_target, incomparable)
        x, y, allowed = pair
        kind = "incomparable" if incomparable else "feasible"
        yield Request(f"{kind}/n{n}", ["check-trumping"], {"x": fstr(x), "y": fstr(y)},
                      allowed)


# ------------------------------------------------------------------- thermal

# The thermal worked example as printed (totals miss 1 by a few 1e-7).  The
# reference claims the transformation is catalytically possible, so no eps
# may refute it; at eps 1/1000 the degree cap ends it with exit 5.
THERMAL_EXAMPLE = {
    "q_rho": ["0.936918", "0.0467542", "0.0159775", "0.000350242"],
    "q_sigma": ["0.862942", "0.129846", "0.00558697", "0.00162474"],
    "energies": [0, 1, 2, 3], "beta": "1.2", "sum_tol": "1e-6",
}
QUOTED_CATALYST = ["0.48", "0.24", "0.16", "0.12"]

# 6 slots: 4 rational Gibbs vectors (multiplicities nu, so N = sum(nu) is
# the embedding size, and a target r_bar), the worked example at eps 1/1000,
# 1 irrational Gibbs vector (dim, and eps of the rational approximation,
# small enough that the embedding has N > 1000 and the degree cap ends the
# family early).
# Source vectors live on the 1/719 grid and mixing weights on the 1/101
# grid, so a slot's coefficient sizes hardly depend on the seed.
THERMAL_SLOTS = [("rational", ((3, 2, 1), 10)), ("rational", ((3, 2, 2, 1), 30)),
                 ("rational", ((7, 4, 1), 20)), ("irrational", (3, "1/500")),
                 ("rational", ((4, 3, 2, 1), 35)), ("example", "1/1000")]


def _bar(num, den):
    return math.floor(num / den + 1) if den > 0 else None


def _embedded_orders(q_rho, q_sigma, nu):
    """(r_bar, s_bar) of the embedded pair: log N over the log ratio of the
    top entries, and over the log ratio of the smallest entries."""
    log_n = math.log2(sum(nu))
    x = [a / m for a, m in zip(q_rho, nu)]
    y = [a / m for a, m in zip(q_sigma, nu)]
    return (_bar(log_n, math.log2(max(x) / max(y))),
            _bar(log_n, math.log2(min(y) / min(x))))


def _rational_thermal(rng, nu, r_target):
    """q_sigma = mu q_rho + (1 - mu) g against g = nu/N, with mu on the 1/101
    grid picked so the embedded truncation order r_bar lands within 1 of
    r_target and s_bar stays at most 40, redrawing q_rho until both hold.
    The s_bar bound keeps the reciprocal family's exact coefficients, which
    grow with s_bar, the same size from seed to seed."""
    big_n = sum(nu)
    g = [Fraction(v, big_n) for v in nu]
    while True:
        q_rho = random_vector(rng, len(nu), denom=719)
        for a in range(1, 101):
            q_sigma = mix(q_rho, Fraction(a, 101), g)
            r_bar, s_bar = _embedded_orders(q_rho, q_sigma, nu)
            if (r_bar is not None and abs(r_bar - r_target) <= 1
                    and (s_bar is None or s_bar <= 40)):
                _check(lorenz_gap(q_rho, q_sigma, g) >= 0, "thermo-majorized")
                return q_rho, q_sigma, g


def _irrational_thermal(rng, d):
    """A Gibbs-mixed pair against exp(-beta E)/Z.  The mixing uses a rational
    rounding of the Gibbs vector to the 1/10**4 grid, and the pair is kept
    only with a Lorenz margin far above that rounding, so the float ground
    truth is certain."""
    while True:
        energies = sorted(rng.sample([0, 1, 2, 3, 4], d))
        beta = rng.choice(["0.5", "0.8", "1.2"])
        g = gibbs(energies, float(beta))
        g_q = [Fraction(round(v * 10**4), 10**4) for v in g]
        g_q[0] += 1 - sum(g_q)
        q_rho = random_vector(rng, d, denom=719)
        q_sigma = desc(mix(q_rho, Fraction(rng.randint(30, 85), 100), g_q))
        if lorenz_gap(q_rho, q_sigma, g) > 1e-3:
            return q_rho, q_sigma, energies, beta


# ----------------------------------------------------- catalyst search slots

LOCC_EXAMPLE = {"x": ["0.6100", "0.3045", "0.0435", "0.0420"],
                "y": ["0.7315", "0.1211", "0.1374", "0.0100"]}

# Catalyst searches and verifications at the default --threads 1, the only
# requests that run verify_catalyst, tensor and Lorenz dominance.  The
# exhaustive searches have no catalyst to find: the LOCC pair is reversed
# (x_1 > y_1), the thermal pair is a Gibbs mix asked to run backwards (its
# relative entropy to g would have to grow).
CATALYST_SLOTS = [("locc_exhaustive", 3, "1/100"), ("thermo_exhaustive", 3, "1/60"),
                  ("counterexample", 2, "1/1000"), ("verify_example", None, None),
                  ("verify_quoted", None, None)]
NO_CATALYST = frozenset({NOT_FOUND, CAP})


def _catalyst_request(rng, cls, dim, res) -> Request:
    search = ["search-catalyst"]
    if cls == "locc_exhaustive":
        y = random_vector(rng, 4)
        while len(set(y)) == 1:
            y = random_vector(rng, 4)
        x = mix(y, Fraction(rng.randint(30, 85), 100), uniform(4))
        _check(majorized(x, y) and y[0] > x[0], "majorized with a larger top entry")
        return Request(f"{cls}/dim{dim}", search,
                       {"x": fstr(y), "y": fstr(x), "dim": dim, "resolution": res},
                       NO_CATALYST, {"mode": "locc", "x": y, "y": x})
    if cls == "thermo_exhaustive":
        q_rho, q_sigma, g = _rational_thermal(rng, (5, 4, 2, 1), 20)
        _check(kl(q_sigma, g) < kl(q_rho, g), "uphill in relative entropy")
        return Request(f"{cls}/dim{dim}", search,
                       {"x": fstr(q_sigma), "y": fstr(q_rho), "g": fstr(g),
                        "mode": "thermo", "dim": dim, "resolution": res},
                       NO_CATALYST, {"mode": "thermo", "x": q_sigma, "y": q_rho, "g": g})
    if cls == "counterexample":
        x = [Fraction(v) for v in COUNTEREXAMPLE["x"]]
        y = [Fraction(v) for v in COUNTEREXAMPLE["y"]]
        _check(catalyst_works(x, y, COUNTEREXAMPLE_CATALYST), "catalysed")
        return Request(cls, search, dict(COUNTEREXAMPLE, dim=dim, resolution=res),
                       frozenset({FOUND}), {"mode": "locc", "x": x, "y": y})
    if cls == "verify_example":
        return Request(cls, ["verify-catalyst"], dict(LOCC_EXAMPLE, catalyst=QUOTED_CATALYST),
                       frozenset({VERIFIED}))
    # README "Known discrepancies": the quoted thermal catalyst does not
    # verify; the documented answer is false.
    problem = {"x": THERMAL_EXAMPLE["q_rho"], "y": THERMAL_EXAMPLE["q_sigma"],
               "catalyst": QUOTED_CATALYST, "mode": "thermo",
               "energies": [0, 1, 2, 3], "beta": "1.2", "sum_tol": "1e-6"}
    return Request(cls, ["verify-catalyst"], problem, frozenset({REJECTED}))


def _thermal_request(rng, cls, arg) -> Request:
    if cls == "example":
        return Request(f"example/eps={arg}", ["check-thermo"],
                       dict(THERMAL_EXAMPLE, eps=arg), FEASIBLE)
    if cls == "rational":
        q_rho, q_sigma, g = _rational_thermal(rng, *arg)
        return Request("rational", ["check-thermo"],
                       {"q_rho": fstr(q_rho), "q_sigma": fstr(q_sigma), "g": fstr(g)},
                       FEASIBLE)
    d, eps = arg
    q_rho, q_sigma, energies, beta = _irrational_thermal(rng, d)
    return Request(f"irrational/eps={eps}", ["check-thermo"],
                   {"q_rho": fstr(q_rho), "q_sigma": fstr(q_sigma),
                    "energies": energies, "beta": beta, "eps": eps},
                   FEASIBLE)


# ------------------------------------------------------------- the workloads

def locc_thermal(seed: int) -> Iterator[Request]:
    """The 20 LOCC slots, the 6 thermal slots, the 5 catalyst slots."""
    rng = random.Random(seed)
    for slot in _locc_slots():
        yield _locc_request(rng, *slot)
    for cls, arg in THERMAL_SLOTS:
        yield _thermal_request(rng, cls, arg)
    for slot in CATALYST_SLOTS:
        yield _catalyst_request(rng, *slot)


def requests(workload: str, seed: int) -> List[Request]:
    """The workload's requests for this seed, in the order they run."""
    return list({"locc_thermal": locc_thermal, "near_tie": near_tie}[workload](seed))
