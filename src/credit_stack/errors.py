"""Exception hierarchy: one class per CLI exit code.

ConfigError -> 2, DataError -> 3, TrainError -> 4.  Every failure raises
its tier class with a message naming what is wrong; FoldTrainingError is
the one TrainError that carries data, the failing ``.fold`` and the
``.cause`` it wraps.
"""


class CreditStackError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ConfigError(CreditStackError):
    """Invalid configuration or parameters."""

    exit_code = 2


class DataError(CreditStackError):
    """Malformed, inconsistent, or insufficient input data."""

    exit_code = 3


class TrainError(CreditStackError):
    """Failure during model training."""

    exit_code = 4


class FoldTrainingError(TrainError):
    """Wraps a training failure inside one cross-validation fold."""

    def __init__(self, fold: int, cause: Exception):
        super().__init__(f"training failed in fold {fold}: {cause}")
        self.fold = fold
        self.cause = cause
