"""Exception types shared across the package."""


class IrregmcError(Exception):
    """Base of every error the package raises on purpose; each subclass also
    keeps the built-in base that fits it, so callers may catch either."""


class InvalidArgumentError(IrregmcError, ValueError):
    """A precondition on an operation argument was violated."""


class NumericFailureError(IrregmcError, ArithmeticError):
    """A numeric procedure produced non-finite values or failed to converge."""


class DegenerateCurveError(IrregmcError, RuntimeError):
    """An error curve has no usable points (all zero or below noise floor)."""


class InsufficientDataError(IrregmcError, RuntimeError):
    """All sampled data was degenerate; nothing to estimate."""


class NonconvergenceError(IrregmcError, RuntimeError):
    """An adaptive driver hit its hard cap before its stopping test passed.

    Carries a ``diagnostics`` dict with the state at the point of failure.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class FitFailureError(IrregmcError, RuntimeError):
    """An envelope or regression fit found no admissible solution.

    Carries a ``diagnostics`` dict describing the failed search.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ConfigError(IrregmcError, ValueError):
    """An experiment configuration failed to parse or validate."""
