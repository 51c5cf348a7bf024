"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code contract: regime and precondition
failures exit 2, I/O failures exit 3, configuration failures exit 4.
"""


class ModstabError(Exception):
    """Base class for all package errors."""


class ArgumentError(ModstabError, ValueError):
    """An operation was called with arguments outside its contract."""


class RegimeError(ModstabError):
    """Parameters fall outside the convergent regime of a construction.

    ``diagnostics`` holds the numbers the refusal was decided on, in the
    order a report's ``regime`` prints them: ``ratio`` (a direct route's
    term ratio) or ``l_hat`` (the fixed-point contraction factor).
    """

    def __init__(self, message: str, **diagnostics: float):
        super().__init__(message)
        self.diagnostics = diagnostics


class ContractViolation(ModstabError):
    """A construction was invoked on a modular lacking a required property."""


class DefectHypothesisError(ModstabError):
    """The sampled equation defect exceeds the control function.

    ``worst_triple`` is the sample point attaining the largest excess.
    """

    def __init__(self, message: str, worst_triple=None, ratio: float | None = None):
        super().__init__(message)
        self.worst_triple = worst_triple
        self.ratio = ratio


class ConfigError(ModstabError, ValueError):
    """A config file or spec string could not be parsed or validated."""
