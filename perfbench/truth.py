"""Ground truth for the benchmark, computed without importing catamaj.

Every label comes from a route that shares no code with the program under
test: exact prefix-sum majorization, Lorenz-curve dominance against a Gibbs
vector, and explicit catalyst products.  Labels are computed while the
problem files are generated, outside any timed region.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Outcome classes a request can end in.  "decided" outcomes count toward
# decided_share when they agree with the label; "cap" (exit 5) and the
# undecided outcomes count as neither decided nor failed.
SUFFICIENT = "sufficient"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"
CAP = "cap"
VERIFIED = "verified"
REJECTED = "rejected"
FOUND = "found"
NOT_FOUND = "not_found"

DECIDED = frozenset({SUFFICIENT, REFUTED, VERIFIED, REJECTED, FOUND})

# Labels: the set of outcomes that do not contradict what is known.
FEASIBLE = frozenset({SUFFICIENT, INCONCLUSIVE, CAP})      # never refuted
INFEASIBLE = frozenset({REFUTED, INCONCLUSIVE, CAP})       # never sufficient

_STATUS_OUTCOME = {
    "trumping_sufficient": SUFFICIENT,
    "closure_sufficient": SUFFICIENT,
    "sufficient": SUFFICIENT,
    "refuted": REFUTED,
    "inconclusive": INCONCLUSIVE,
}
_CHECK_EXIT = {SUFFICIENT: 0, REFUTED: 2, INCONCLUSIVE: 3, CAP: 5}


def desc(v):
    return sorted(v, reverse=True)


def majorized(x, y) -> bool:
    """x is majorized by y: descending prefix sums of y dominate those of x.

    Vectors of unequal length are zero-padded; masses need not be equal
    (the published counterexample is read in short of mass).
    """
    n = max(len(x), len(y))
    xs = desc(list(x) + [0] * (n - len(x)))
    ys = desc(list(y) + [0] * (n - len(y)))
    sx = sy = 0
    for a, b in zip(xs, ys):
        sx += a
        sy += b
        if sx > sy:
            return False
    return True


def tensor(x, c):
    return [a * b for a in x for b in c]


def catalyst_works(x, y, c) -> bool:
    """LOCC: (x tensor c) is majorized by (y tensor c)."""
    return majorized(tensor(x, c), tensor(y, c))


def _lorenz(pairs):
    pts = [(0, 0)]
    cg = cv = 0
    for v, g in sorted(pairs, key=lambda t: t[0] / t[1], reverse=True):
        cg += g
        cv += v
        pts.append((cg, cv))
    return pts


def _curve_at(pts, a):
    for (g0, v0), (g1, v1) in zip(pts, pts[1:]):
        if a <= g1:
            return v1 if g1 == g0 else v0 + (a - g0) * (v1 - v0) / (g1 - g0)
    return pts[-1][1]


def lorenz_gap(p, q, g):
    """Smallest vertical gap, curve of p minus curve of q, over the interior
    breakpoints of both Lorenz curves (the end points always tie).

    Entries pair index-wise with g.  A gap >= 0 means p thermo-majorizes q;
    exact for rational inputs, a plain float when g is a float.
    """
    cp = _lorenz(list(zip(p, g)))
    cq = _lorenz(list(zip(q, g)))
    xs = sorted({pt[0] for pt in cp[1:-1]} | {pt[0] for pt in cq[1:-1]})
    return min(_curve_at(cp, a) - _curve_at(cq, a) for a in xs)


def thermo_catalyst_gap(p, q, g, c) -> float:
    """Lorenz gap of (p tensor c) over (q tensor c) against (g tensor uniform)."""
    h = [Fraction(1, len(c))] * len(c)
    return lorenz_gap(tensor(p, c), tensor(q, c), tensor(g, h))


def gibbs(energies, beta):
    """Gibbs vector in float64, descending (energies ascending)."""
    w = [math.exp(-beta * e) for e in energies]
    z = sum(w)
    return desc([v / z for v in w])


def kl(p, g) -> float:
    return sum(float(a) * math.log(float(a) / float(b)) for a, b in zip(p, g) if a)


def outcome(command: str, code: int, report):
    """Map an exit code and parsed report to (outcome, problem or None).

    A problem string means the request failed: an undocumented exit code,
    a missing or unparsable report, or an exit code that disagrees with the
    report's own status.
    """
    if code == 5 and report is None:
        return CAP, None
    if code not in (0, 2, 3, 5):
        return None, f"exit {code}"
    if not isinstance(report, dict):
        return None, f"exit {code} without a parsable report"
    if command == "verify-catalyst":
        got = VERIFIED if report.get("verified") is True else REJECTED
        want = 0 if got == VERIFIED else 2
    elif command == "search-catalyst":
        got = FOUND if report.get("found") is True else NOT_FOUND
        want = 0 if got == FOUND else 3
    else:
        status = report.get("status")
        if status not in _STATUS_OUTCOME:
            return None, f"unknown status {status!r}"
        got = CAP if report.get("cap_hit") else _STATUS_OUTCOME[status]
        want = _CHECK_EXIT[got]
    if code != want:
        return None, f"exit {code} disagrees with outcome {got}"
    return got, None
