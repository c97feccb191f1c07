"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so raising the right class
matters more than the message text.
"""


class SpillnetError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(SpillnetError, ValueError):
    """An argument is outside its documented domain."""


class TooFewUnitsError(ParameterError):
    """A fit has too few usable units; in a simulation this marks a degenerate draw."""


class IngestionError(SpillnetError, ValueError):
    """An input file is malformed or internally inconsistent."""


class ConfigurationError(SpillnetError, ValueError):
    """A design or run configuration does not cover the data it is applied to."""


class SingularModelError(SpillnetError):
    """A design matrix (or population moment matrix) is rank deficient."""

    def __init__(self, message: str, columns: tuple[str, ...] = ()):
        super().__init__(message)
        self.columns = columns


class EmptySubsampleError(SpillnetError):
    """A regression subsample contains no usable rows."""

