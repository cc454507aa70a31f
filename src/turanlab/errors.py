"""Exception types shared across the package."""


class TuranLabError(Exception):
    """Base class for all domain errors raised by this package."""


class RegimeError(TuranLabError):
    """Raised when (n, k) falls outside a bound's hypothesis region."""


class MembershipError(TuranLabError):
    """Raised when a polynomial fails a class-membership precondition."""


class OverflowEvaluationError(TuranLabError):
    """Raised when a certified number, or what it is computed from, is not
    a finite float, or (below) is too small for the engine to certify."""

    def __init__(self, what="a value of P", below=False):
        limit = "falls below 2^-511" if below else "exceeds the floating-point range"
        super().__init__(f"{what} {limit} on the interval")


class SearchFailure(TuranLabError):
    """Raised when a search exhausts its budget with no feasible evaluation."""
