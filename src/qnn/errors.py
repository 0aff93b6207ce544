"""Exception types shared across the package, each with its CLI exit code.

`qnn` exits with the `exit_code` of the error that ended a command:
ConfigError -> 2 (usage); DataError and FormatError -> 3 (input or file),
as does an OSError; every other QnnError -> 1 (a failed check).
"""


class QnnError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class DimensionError(QnnError, ValueError):
    """Tensor or layer shapes are inconsistent."""


class ConfigError(QnnError, ValueError):
    """Invalid configuration value or combination."""

    exit_code = 2


class DataError(QnnError, ValueError):
    """Bad payload inside an otherwise well-formed container (NaN feature, label out of range, ...)."""

    exit_code = 3


class FormatError(QnnError, ValueError):
    """Malformed file: wrong magic, truncation, unparsable text."""

    exit_code = 3


class ContractError(QnnError, RuntimeError):
    """An API precondition was violated (non-scalar loss, missing gradients, digest mismatch)."""


class TrainingAbort(QnnError, RuntimeError):
    """Training stopped because the loss, a gradient or a weight became non-finite."""
