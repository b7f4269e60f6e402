"""Exception hierarchy.

Three tiers map onto CLI exit codes: ConfigError -> 2, DataError -> 3,
TrainError -> 4. Every concrete error belongs to exactly one tier.
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


# ingest
class MissingColumnError(DataError):
    pass


class DuplicateStatementError(DataError):
    pass


class EmptyFileError(DataError):
    pass


class NonPositivePrecisionError(ConfigError):
    pass


class CodeOverflowError(DataError):
    pass


class MissingLabelError(DataError):
    pass


# features
class EmptySpecError(ConfigError):
    pass


class VocabularyMissingError(ConfigError):
    pass


# gbdt
class SingleClassError(DataError):
    pass


class EmptyMatrixError(DataError):
    pass


class MissingFeatureColumnError(DataError):
    pass


class DegenerateSamplingError(ConfigError):
    pass


# cv_stack
class TooFewPerClassError(DataError):
    pass


class LengthMismatchError(DataError):
    pass


class FoldTrainingError(TrainError):
    """Wraps a training failure inside one cross-validation fold."""

    def __init__(self, fold: int, cause: Exception):
        super().__init__(f"training failed in fold {fold}: {cause}")
        self.fold = fold
        self.cause = cause


# blend
class InvalidWeightsError(ConfigError):
    pass


class SingleMemberError(ConfigError):
    pass


# metric
class NoPositivesError(DataError):
    pass


# synth
class NoSignalError(ConfigError):
    pass


# reporting
class ColumnSetMismatchError(DataError):
    pass
