"""Scalar backends and the evaluation context.

Two scalar backends are supported.  The exact backend stores every quantity
as ``fractions.Fraction``; sums, products, integer powers and comparisons are
then free of rounding error, which is what makes the strict polynomial
inequalities decidable.  The float backend stores entries as ``mpmath.mpf``
at a configured mantissa precision (at least 128 bits).

Transcendental quantities (entropies, norms at non-integer p, divergences)
are always evaluated in mpmath at the context precision, regardless of the
backend; exactness only ever applies to rational arithmetic.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

import mpmath
from mpmath import mpf

from .errors import InputError

Scalar = Union[Fraction, mpmath.mpf]
Number = Union[int, float, str, Fraction, mpmath.mpf]

EXACT = "exact"
FLOAT = "float"

MAX_PRECISION = 65536
FLOAT_SUM_TOL = 1e-9    # |sum - 1| a float-backend vector may miss by when sum_tol is unset
REL_MARGIN = 1e-20      # relative margin a strict float comparison must clear to confirm
POINT_BUDGET = 10**7    # most simplex points a catalyst search walks, p-grid points a scan samples

COMPACT = "compact"
FULL = "full"


@dataclass(frozen=True)
class Context:
    """Evaluation settings shared by all operations.

    backend        "exact" or "float"; controls how decimal inputs are stored.
                   On both an entry is zero only when it equals 0, and an mpf
                   is the dyadic rational it stores (`majorization._keep`).
    precision      mantissa bits for mpmath evaluation (128 to 65536).
    sum_tol        tolerance on |sum(entries) - 1| of every distribution read
                   in (`vectors.make_prob_vector`); None means 0 on the exact
                   backend and `FLOAT_SUM_TOL` on the float one.  Entries are
                   kept as given, never rescaled.
    degree_cap     maximum polynomial degree n*r for coefficient families; the
                   one cost bound on the families, the thermal ones included
                   (their n is the embedding dimension N).  The scans and the
                   catalyst search are bounded by the constant `POINT_BUDGET`.
    evidence       "compact": each family and scan reports its first failures,
                   failure count and tightest margin; "full": every exact
                   per-k coefficient and every failing grid point.
    """

    backend: str = EXACT
    precision: int = 256
    sum_tol: Optional[Number] = None
    degree_cap: int = 4096
    evidence: str = COMPACT

    def __post_init__(self):
        if self.backend not in (EXACT, FLOAT):
            raise InputError(f"unknown backend {self.backend!r}")
        if self.evidence not in (COMPACT, FULL):
            raise InputError(f"unknown evidence mode {self.evidence!r}")
        if self.precision < 128:
            raise InputError("float precision must be at least 128 bits")
        if self.precision > MAX_PRECISION:    # mpmath's time grows faster than linearly in it
            raise InputError(f"float precision must be at most {MAX_PRECISION} bits")
        if self.sum_tol is not None and not parse_scalar(self.sum_tol, self) >= 0:
            raise InputError(f"sum_tol {self.sum_tol} must be >= 0")
        if not self.degree_cap >= 1:
            raise InputError(f"degree_cap {self.degree_cap} must be at least 1")

    @property
    def exact(self) -> bool:
        return self.backend == EXACT

    @property
    def full_evidence(self) -> bool:
        return self.evidence == FULL


DEFAULT_CONTEXT = Context()


def summary_field():
    """A compact-evidence summary field: None under full evidence, where the
    report codec leaves its key out."""
    return field(default=None, metadata={"summary": True})


def workprec(ctx: Context):
    """mpmath precision guard for every transcendental evaluation."""
    return mpmath.mp.workprec(ctx.precision)


# Python's int() reads at most 4300 digits by default; without this bound
# "1e999999" builds a million-digit rational that every later step pays for.
MAX_EXPONENT = 4300
MAX_ORDER = 4 * MAX_EXPONENT    # binary orders of an mpf read exactly: past 10^+-4300
_EXPONENT = re.compile(r"[eE]([-+]?\d+)\s*$")


def parse_exact(value: Number) -> Fraction:
    """Parse a number literal as an exact rational.

    Decimal strings are read digit-for-digit ("0.61" -> 61/100).  Binary
    floats are interpreted through their shortest decimal representation, so
    a literal 0.61 also becomes 61/100 rather than its binary expansion.
    A bool is not a number here, and "1/0" is malformed, not a crash.  So
    is a decimal exponent above `MAX_EXPONENT`.  An mpf is the dyadic
    rational it stores, within 2^+-`MAX_ORDER`.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"cannot parse {value!r} as a number")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InputError(f"cannot represent {value} exactly")
        return Fraction(repr(value))
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
            raise InputError(f"exponent of {value!r} exceeds {MAX_EXPONENT}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise InputError(f"zero denominator in {value!r}") from None
        except ValueError:
            raise InputError(f"cannot parse {value!r} as a number") from None
    if isinstance(value, mpmath.mpf):
        if not mpmath.isfinite(value):
            raise InputError(f"cannot represent {value} exactly")
        sign, man, exp, bc = value._mpf_
        if man and abs(exp + bc) > MAX_ORDER:
            raise InputError(f"{value} lies outside 2^+-{MAX_ORDER}")
        frac = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
        return -frac if sign else frac
    raise InputError(f"cannot parse {value!r} as an exact rational")


def parse_float(value: Number, ctx: Context = DEFAULT_CONTEXT) -> mpf:
    """Parse a number literal as an mpf at the context precision: the value
    `parse_exact` reads, rounded at most thrice (an mpf, NaN included, once)."""
    return to_mpf(value if isinstance(value, mpmath.mpf) else parse_exact(value), ctx)


def parse_scalar(value: Number, ctx: Context = DEFAULT_CONTEXT) -> Scalar:
    """Parse a number literal according to the context backend."""
    if ctx.exact:
        return parse_exact(value)
    return parse_float(value, ctx)


def to_mpf(value: Scalar, ctx: Context = DEFAULT_CONTEXT) -> mpf:
    """Lossless-enough conversion of any scalar to mpf for evaluation."""
    with workprec(ctx):
        return as_mpf(value)


def as_mpf(value: Scalar) -> mpf:
    """`to_mpf` at the precision already in force: for loops inside one
    `workprec`, which need not enter it again per entry."""
    if isinstance(value, Fraction):
        return mpf(value.numerator) / mpf(value.denominator)
    return mpf(value)


def confirmed_greater(a: mpf, b: mpf) -> bool:
    """True only when a > b clears the relative margin `REL_MARGIN`.

    Used on the sufficiency side of every float comparison: a result inside
    the margin is never promoted to a pass.  The margin scales with the
    operands (coefficients can be astronomically small), and NaN (e.g.
    inf - inf) confirms nothing.
    """
    diff = a - b
    if mpmath.isnan(diff):
        return False
    if mpmath.isinf(diff):
        return diff > 0
    scale = max(abs(a), abs(b))
    return diff > REL_MARGIN * scale
