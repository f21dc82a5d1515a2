"""Shared exception types."""


class SpaceMismatchError(ValueError):
    """Operands live in different phase spaces."""


class BudgetExceededError(RuntimeError):
    """A grid or enumeration would exceed the configured point budget."""

    def __init__(self, needed, cap):
        super().__init__(f"operation needs {needed} points, budget cap is {cap}")
        self.needed = needed
        self.cap = cap


class HorizonExceededError(RuntimeError):
    """An orbit or sequence was requested beyond the configured horizon."""


class SingularOrbitError(RuntimeError):
    """An orbit hit a branch endpoint where the derivative is undefined."""


class NoPositiveRootError(RuntimeError):
    """The Kraft sum never reaches 1 for any positive exponent."""


class UnbracketedError(RuntimeError):
    """The s-grid did not bracket the critical exponent."""

    def __init__(self, message, trends=None):
        super().__init__(message)
        self.trends = trends or {}
