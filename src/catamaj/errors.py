"""Exception types raised by the toolkit.

Every error that corresponds to a rejected input carries enough context in
its message to be reported verbatim by the CLI.
"""


class CatamajError(Exception):
    """Base class for all toolkit errors."""


class EmptyInput(CatamajError):
    """A vector was constructed from an empty sequence."""


class NegativeEntry(CatamajError):
    """A probability or amplitude entry is negative."""


class SumNotOne(CatamajError):
    """Entries do not sum to one within the backend tolerance."""

    def __init__(self, total, deviation):
        self.total = total
        self.deviation = deviation
        super().__init__(f"entries sum to {total} (deviation {deviation})")


class ReciprocalOfZero(CatamajError):
    """Pointwise reciprocal (or negative power) of a vector with zeros."""


class PZero(CatamajError):
    """Renyi entropy requested at p = 0; use the Burg entropy instead."""


class DegreeCapExceeded(CatamajError):
    """A polynomial family would exceed the configured degree cap."""

    def __init__(self, degree, cap):
        self.degree = degree
        self.cap = cap
        super().__init__(f"polynomial degree {degree} exceeds cap {cap}")


class KOutOfRange(CatamajError):
    """Coefficient index outside 0..n*r."""


class GibbsZeroEntry(CatamajError):
    """A Gibbs vector with a zero entry cannot weight a Lorenz curve."""


class GridTooLarge(CatamajError):
    """A simplex enumeration or a p-grid would exceed the configured point
    budget, or a catalyst search's dimension would."""

    def __init__(self, points, budget, what="points"):
        self.points = points
        self.budget = budget
        # a count from a problem file can pass Python's int -> str digit limit
        shown = points if points.bit_length() <= 10000 else "over 2^10000"
        super().__init__(f"grid has {shown} {what}, budget is {budget}")


class EpsNonPositive(CatamajError):
    """The l1 tolerance eps of the thermal embedding must be positive."""


class DimMismatch(CatamajError):
    """Vector dimensions do not line up for the requested operation."""


class SupportViolation(CatamajError):
    """Divergence of x from g requires support(x) within support(g)."""


class InputError(CatamajError):
    """Malformed problem file or invalid CLI arguments."""
