"""Exception types shared across the package.

Plain precondition violations (bad dimensions, malformed arguments) raise
``ValueError``; evaluating negative powers at z = 0 raises
``ZeroDivisionError``.  The classes here cover failures specific to the
factorization algorithms.
"""


class ParafactError(Exception):
    """Base class for factorization-specific failures."""


class NotFactorableError(ParafactError):
    """The input admits no spectral factor.

    Raised when a spectrum is indefinite beyond tolerance on the unit
    circle, or a scalar symbol has a unit-circle zero of odd multiplicity.
    """


class DegenerateInputError(ParafactError):
    """No pivot permutation yields a head block of full numerical rank."""


class NumericalFailureError(ParafactError):
    """An algorithm failed to reach its contract at the requested tolerance.

    Carries the best measured residual and, where available, a partial
    report so callers can inspect how far the computation got.
    """

    def __init__(self, message, residual=None, report=None):
        super().__init__(message)
        self.residual = residual
        self.report = report


class IndeterminateError(ParafactError):
    """A comparison could not be decided (too few well-conditioned samples)."""


class NotParaunitaryError(ParafactError):
    """A matrix offered as paraunitary fails the unitarity or the
    monomial-determinant check beyond tolerance."""


class InvalidComparisonError(ParafactError):
    """Two completions disagree in the row they were built from."""
