"""Exception types shared across the package."""


class WismcError(Exception):
    """Base class for all package errors."""


class ParseError(WismcError):
    """A raw input row could not be parsed."""

    def __init__(self, message, line_number=None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class OrderingError(WismcError):
    """Timestamps are not strictly increasing."""


class InsufficientDataError(WismcError):
    """Not enough observations for the requested statistic."""


class AlignmentError(WismcError):
    """Two series that must be paired have incompatible shapes or origins."""


class DegenerateTableError(WismcError):
    """A contingency table has no usable rows or columns."""


class UndefinedStatisticError(WismcError):
    """The requested quantity is undefined for this input (e.g. zero variance)."""


class ContractViolation(WismcError):
    """An argument violates a documented precondition."""


class ParameterError(WismcError):
    """A model parameter lies outside its admissible domain."""


class EstimationError(WismcError):
    """Empirical estimation failed (degenerate or empty data)."""


class ResourceLimitError(WismcError):
    """An exact computation would exceed the configured resource bound."""
