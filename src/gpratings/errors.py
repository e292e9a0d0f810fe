"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so raising the right class
matters more than the message text.
"""


class InvalidInputError(ValueError):
    """A precondition on an operation's arguments was violated."""


class ConfigError(Exception):
    """Bad run configuration (missing keys, invalid values, unknown flags)."""


class DataError(Exception):
    """Unusable input data: unparsable rows, empty datasets, truncated artifacts."""


class NumericalError(RuntimeError):
    """Numerical failure: a singular kernel factor, or a Cholesky past the jitter ladder."""
