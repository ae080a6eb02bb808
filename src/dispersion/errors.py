"""Exception types shared across the package."""


class DispersionError(Exception):
    """Base class for all errors raised by this package."""


class MalformedStateError(DispersionError, ValueError):
    """A pattern string or occupancy sequence does not describe a valid state."""


class InvalidMoveError(DispersionError, ValueError):
    """A move was applied to a state in which it is not available."""


class DomainError(DispersionError, ValueError):
    """An argument is outside the domain an operation is defined on."""


class InvariantViolationError(DispersionError):
    """Two representations of the same state disagree, or a state reaches an end of its window."""


class BudgetExceededError(DispersionError):
    """An exploration or exact computation exceeded its node budget."""

    def __init__(self, budget: int, message: str = ""):
        self.budget = budget
        super().__init__(message or f"node budget of {budget} exceeded")


class TheoremViolationError(DispersionError):
    """A machine-checked structural claim failed on concrete data.

    Raised instead of silently repairing the data: a failure here means
    either a bug in the engine or a counterexample worth looking at.
    """
