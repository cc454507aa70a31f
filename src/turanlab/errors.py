"""Exception types shared across the package."""


class TuranLabError(Exception):
    """Base class for all domain errors raised by this package."""


class RegimeError(TuranLabError):
    """Raised when (n, k) falls outside a bound's hypothesis region."""


class MembershipError(TuranLabError):
    """Raised when a polynomial fails a class-membership precondition."""


class OverflowEvaluationError(TuranLabError):
    """Raised when evaluation produces non-finite values; suggests rescaling."""

    def __init__(self, what="polynomial evaluation"):
        super().__init__(
            f"{what} produced non-finite values; rescale the polynomial "
            "(divide the leading coefficient) and retry"
        )


class SearchFailure(TuranLabError):
    """Raised when a search exhausts its budget with no feasible evaluation."""
