"""credit-stack: a credit-default prediction pipeline.

Statement-level CSV cleaning, per-customer feature aggregation,
histogram-binned gradient boosting with one-side sampling, out-of-fold
stacking, convex prediction blending, and a composite rank metric —
all deterministic end to end.
"""

__version__ = "0.1.0"

from .blend import EnsembleSpec, optimize_weights
from .blend import blend as blend_predictions
from .cv_stack import FoldPlan, make_folds, train_oof
from .errors import ConfigError, CreditStackError, DataError, TrainError
from .features import AggregationSpec, FeatureMatrix, build_matrix
from .gbdt import BoostedModel, TrainConfig, predict, train
from .ingest import ColumnSchema, StatementTable, parse_csv
from .metric import MetricReport, composite_metric
from .pipeline import PipelineConfig, run_pipeline
from .synth import SynthConfig, generate

__all__ = [
    "__version__",
    "AggregationSpec",
    "BoostedModel",
    "ColumnSchema",
    "ConfigError",
    "CreditStackError",
    "DataError",
    "EnsembleSpec",
    "FeatureMatrix",
    "FoldPlan",
    "MetricReport",
    "PipelineConfig",
    "StatementTable",
    "SynthConfig",
    "TrainConfig",
    "TrainError",
    "blend_predictions",
    "build_matrix",
    "composite_metric",
    "generate",
    "make_folds",
    "optimize_weights",
    "parse_csv",
    "predict",
    "run_pipeline",
    "train",
    "train_oof",
]
