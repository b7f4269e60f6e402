"""Stratified cross-validation, out-of-fold predictions, and stacking.

Fold assignment shuffles each class with one seeded generator and deals
the shuffled rows round-robin, the negatives continuing from the fold
position where the positives stopped — so both the fold sizes and the
per-fold class counts are balanced to within one row.

Out-of-fold (OOF) predictions become `meta_<k>` columns for a
second-stage model, which is trained out-of-fold on the same plan like
any base learner (stacked generalization): every meta column value came
from a model that never saw that row, and the meta learner's own OOF
score is honest too.  At test time the k fold models vote by plain
averaging.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CreditStackError, DataError, FoldTrainingError
from .features import FeatureMatrix
from .gbdt import BoostedModel, TrainConfig, predict, train
from .ingest import check_labels
from .serialize import format_float, write_csv_columns

log = logging.getLogger(__name__)


@dataclass
class FoldPlan:
    """Per-row fold indices in 0..k-1 from one seeded stratified deal."""

    k: int
    assignment: np.ndarray

    @property
    def n_rows(self) -> int:
        return int(self.assignment.size)

    def rows_in(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == fold)


@dataclass
class OofResult:
    """Each row's out-of-fold probability and the k fold models."""

    prediction: np.ndarray
    models: list


def make_folds(labels, k: int, seed) -> FoldPlan:
    """Deal rows into k stratified folds, deterministically per seed."""
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    y = check_labels(labels)
    pos = np.flatnonzero(y == 1)
    neg = np.flatnonzero(y == 0)
    for name, idx in (("positive", pos), ("negative", neg)):
        if idx.size < k:
            raise DataError(
                f"{name} class has {idx.size} rows, need at least {k} for {k} folds"
            )

    rng = np.random.default_rng(seed)
    assignment = np.empty(y.size, dtype=np.int32)
    pointer = 0
    for idx in (pos, neg):  # positives dealt first, negatives continue the cycle
        shuffled = rng.permutation(idx)
        assignment[shuffled] = (pointer + np.arange(shuffled.size)) % k
        pointer = (pointer + shuffled.size) % k
    return FoldPlan(k=k, assignment=assignment)


def _check_plan(plan: FoldPlan, n_rows: int) -> None:
    if plan.n_rows != n_rows:
        raise DataError(
            f"fold plan covers {plan.n_rows} rows, matrix has {n_rows}"
        )
    if plan.assignment.min() < 0 or plan.assignment.max() >= plan.k:
        raise DataError("fold assignment outside 0..k-1")


def _submatrix(matrix: FeatureMatrix, rows: np.ndarray) -> FeatureMatrix:
    return FeatureMatrix(
        matrix.customer_ids[rows], matrix.column_names, matrix.values[rows]
    )


def train_oof(matrix: FeatureMatrix, labels, plan: FoldPlan, config: TrainConfig) -> OofResult:
    """Train one model per fold complement and predict the held-out fold.

    Row i's OOF prediction always comes from the model whose training
    rows exclude fold(i).  A CreditStackError in a fold surfaces as
    FoldTrainingError naming the fold; any other exception is a bug and
    propagates unwrapped.
    """
    y = check_labels(labels)
    _check_plan(plan, matrix.n_rows)
    if y.size != matrix.n_rows:
        raise DataError(f"{y.size} labels for {matrix.n_rows} rows")

    oof_pred = np.empty(matrix.n_rows, dtype=np.float64)
    models: list[BoostedModel] = []
    for f in range(plan.k):
        held = plan.rows_in(f)
        used = np.flatnonzero(plan.assignment != f)
        try:
            model = train(_submatrix(matrix, used), y[used], config)
            oof_pred[held] = predict(model, _submatrix(matrix, held))
        except CreditStackError as exc:
            raise FoldTrainingError(f, exc) from exc
        models.append(model)
        log.debug("fold %d: trained on %d rows, predicted %d", f, used.size, held.size)
    return OofResult(oof_pred, models)


def predict_with_fold_models(models, matrix: FeatureMatrix) -> np.ndarray:
    """Mean probability over the k fold models, row by row."""
    if not models:
        raise ConfigError("no fold models to predict with")
    total = np.zeros(matrix.n_rows, dtype=np.float64)
    for model in models:
        total += predict(model, matrix)
    return total / len(models)


def append_meta(matrix: FeatureMatrix, predictions) -> FeatureMatrix:
    """Append prediction arrays as `meta_<k>` columns (numbered past any present)."""
    start = sum(1 for name in matrix.column_names if name.startswith("meta_"))
    names = list(matrix.column_names)
    blocks = [matrix.values]
    for j, column in enumerate(predictions):
        pred = np.asarray(column, dtype=np.float64).ravel()
        if pred.size != matrix.n_rows:
            raise DataError(
                f"meta column {j} has {pred.size} rows, matrix has {matrix.n_rows}"
            )
        names.append(f"meta_{start + j}")
        blocks.append(pred.astype(np.float32).reshape(-1, 1))
    return FeatureMatrix(matrix.customer_ids, names, np.concatenate(blocks, axis=1))


# ---------------------------------------------------------------------------
# fold plan and OOF persistence


def save_plan(plan: FoldPlan, path) -> None:
    folds = list(map(str, plan.assignment.tolist()))
    write_csv_columns(path, ["row_index", "fold"], [list(map(str, range(len(folds)))), folds])


def save_oof(customer_ids, plan: FoldPlan, prediction, path) -> None:
    """Write the one OOF format, ``customer_id,fold,probability`` (the plan's
    fold), full precision."""
    n_ids, n_folds, n_probs = len(customer_ids), plan.n_rows, len(prediction)
    if not n_ids == n_folds == n_probs:
        raise DataError(f"{n_ids} ids for {n_folds} folds and {n_probs} probabilities")
    write_csv_columns(path, ["customer_id", "fold", "probability"], [
        list(map(str, customer_ids)),
        list(map(str, plan.assignment.tolist())),
        [format_float(float(p)) for p in prediction],
    ])
