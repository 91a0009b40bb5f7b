"""Exception types shared across the library."""


class ScaleIoUError(Exception):
    """Base class for all library-specific errors."""


class NonDifferentiablePoint(ScaleIoUError):
    """Raised when an analytic gradient is requested at a kink
    (coinciding box edges or another measure-zero singular set)."""


class InsufficientSamples(ScaleIoUError):
    """Raised when a statistic needs more samples than provided."""


class DegenerateInput(ScaleIoUError):
    """Raised when a statistic is undefined on the given data
    (e.g. all values tied, or zero within-group variance)."""


class EmptyCell(ScaleIoUError):
    """Raised when a grouped table references a cell with no records.

    The missing (group, rating) keys are available as ``missing``.
    """

    def __init__(self, missing):
        self.missing = list(missing)
        super().__init__(f"empty cells: {self.missing}")


class QuadratureNonConvergence(ScaleIoUError):
    """Raised when an iterative numerical method (adaptive quadrature, the
    F tail's continued fraction) does not reach its tolerance."""


class ParseError(ScaleIoUError):
    """Raised on malformed input files; message names the offending record."""
