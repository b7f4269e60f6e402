"""End-to-end run orchestration from a single JSON configuration.

A run cleans the raw statements, splits customers into a training part
and a blend-validation holdout, engineers one matrix per configured
member, trains every member out-of-fold on a shared fold plan, appends
base members' OOF columns to the members that stack on them, searches
blend weights on the holdout, and writes every artifact plus a
manifest of content digests.  Rerunning the same configuration and
seed reproduces every file byte for byte.

``prep``, ``eval``, ``importance`` and ``stack`` run the run's stage code
(``ingest.clean``, ``write_metrics``, ``write_importance``, ``train_member``).
The run directory is made before the first stage reads any input.

Run directory layout::

    clean/clean.csv + sidecar  the cleaned table and its schema (ingest.write_clean)
    split.csv                  customer_id,split (train/holdout)
    folds.csv                  row_index,fold over the training rows
    members/<name>/            matrix.bin, matrix_holdout.bin, vocab.json?,
                               fold_<i>.model.json, oof.csv, holdout_pred.csv,
                               metrics.json, importance.json, importance.svg
    ensemble/                  weights.json, prediction.csv, metrics.json
    manifest.json              relative path -> sha256 of every file this
                               run wrote (not of files an earlier run left)
"""

from __future__ import annotations

import logging
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cv_stack, features as features_mod, gbdt, ingest, report as report_mod
from .blend import (EnsembleSpec, blend, lattice_ticks, optimize_weights, save_ensemble,
                    write_predictions)
from .errors import ConfigError, CreditStackError, DataError
from .metric import MetricReport, composite_metric
from .serialize import (check_config_object, load_config_doc, make_dir, sha256_file,
                        write_csv_columns, write_json)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MemberConfig:
    """One ensemble member: its feature recipe, learner, and inputs, checked
    as ``member`` when built (a dict in a pipeline's ``members``: first as ``member <i>``)."""

    config_name = "member"
    name: str
    features: features_mod.AggregationSpec = features_mod.AggregationSpec()
    train: gbdt.TrainConfig = gbdt.TrainConfig()
    meta_from: tuple[str, ...] = ()

    def __post_init__(self):
        check_config_object(self)
        if not re.fullmatch(r"[A-Za-z0-9_-]+", self.name):  # it names a directory
            raise ConfigError(f"member name {self.name!r} must be letters, digits, _ or -")


@dataclass(frozen=True)
class PipelineConfig:
    config_name = "pipeline config"
    data: str
    labels: str
    schema: str
    out_dir: str
    members: tuple[MemberConfig, ...]
    precision: float = 0.01
    folds: int = 5
    seed: int = 42
    holdout_fraction: float = 0.2
    blend_step: float = 0.01
    report_top_n: int = 20
    importance_kind: str = "average_gain"

    def __post_init__(self):
        check_config_object(self)
        if not self.members:
            raise ConfigError("pipeline needs at least one member")
        names = [m.name for m in self.members]
        if len(set(names)) != len(names):
            raise ConfigError(f"member names must be unique: {names}")
        for i, member in enumerate(self.members):
            for ref in member.meta_from:
                if ref not in names[:i]:
                    raise ConfigError(f"member {member.name!r} stacks on {ref!r}, which is "
                                      "not an earlier member")
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ConfigError(f"holdout_fraction must lie in (0, 1), got {self.holdout_fraction}")
        if self.report_top_n < 1:
            raise ConfigError(f"report_top_n must be >= 1, got {self.report_top_n}")
        if self.importance_kind not in gbdt.IMPORTANCE_KINDS:
            raise ConfigError(f"unknown importance_kind {self.importance_kind!r}")
        # checked here, not at the blend stage: every member would be
        # trained first, and a one-member run never searches at all
        lattice_ticks(self.blend_step, "blend_step")


def config_from_json(source) -> PipelineConfig:
    """Load and validate a pipeline configuration document."""
    return PipelineConfig(**load_config_doc(source, PipelineConfig))


# ---------------------------------------------------------------------------
# helpers


@contextmanager
def _stage(name: str):
    """Log the stage's start; tag an escaping error with the stage unless
    one already carries a stage."""
    log.info("stage %s", name)
    try:
        yield
    except CreditStackError as exc:
        if not getattr(exc, "stage", None):
            exc.stage = name
        raise


def _holdout_split(labels: np.ndarray, fraction: float, seed: int) -> np.ndarray:
    """Boolean holdout mask, stratified per class, seeded."""
    rng = np.random.default_rng(seed)
    mask = np.zeros(labels.size, dtype=bool)
    for klass in (1, 0):
        idx = np.flatnonzero(labels == klass)
        n_hold = int(np.floor(fraction * idx.size))
        chosen = rng.permutation(idx)[:n_hold]
        mask[chosen] = True
    return mask


def _write_split(path, customers: np.ndarray, holdout: np.ndarray) -> None:
    write_csv_columns(
        path,
        ["customer_id", "split"],
        [list(map(str, customers)), ["holdout" if is_hold else "train" for is_hold in holdout]],
    )


def train_member(matrix, labels, plan, config, out_dir) -> tuple[cv_stack.OofResult, list[Path]]:
    """Train ``config`` out-of-fold on ``plan`` and write one learner's files
    into ``out_dir``: ``fold_<i>.model.json`` per fold, then ``oof.csv``.
    Return the result and the paths written."""
    out_dir = Path(out_dir)
    result = cv_stack.train_oof(matrix, labels, plan, config)
    paths = [out_dir / f"fold_{f}.model.json" for f in range(plan.k)]
    for model, path in zip(result.models, paths):
        gbdt.save_model(model, path)
    paths.append(out_dir / "oof.csv")
    cv_stack.save_oof(matrix.customer_ids, plan, result.prediction, paths[-1])
    return result, paths


def write_metrics(path, labels, preds) -> MetricReport:
    """Score ``preds`` against ``labels`` and write the report to ``path``."""
    rep = composite_metric(labels, preds)
    write_json(path, rep.as_dict())
    return rep


def write_importance(models, kind, json_path, svg_path, top_n) -> None:
    """Write the importance report of fold ``models`` and its box plot; the
    plot goes first, so a ``top_n`` below 1 writes neither file."""
    rep = report_mod.build_importance_report(models, kind)
    report_mod.save_box_plot(rep, svg_path, top_n)
    report_mod.save_report(rep, json_path)


# ---------------------------------------------------------------------------
# the run


def run_pipeline(config: PipelineConfig) -> Path:
    """Execute every stage and return the populated run directory."""
    out = make_dir(config.out_dir)
    # the manifest digests these, so files an earlier run left in
    # ``out`` stay out of it
    written: list[Path] = []

    def emit(path: Path) -> Path:
        written.append(path)
        return path

    with _stage("prep"):
        schema = ingest.load_schema(config.schema)
        table, _ = ingest.clean(ingest.parse_csv(config.data, schema), config.precision)
        y = ingest.join_labels(table, ingest.read_labels(config.labels))
        written.extend(ingest.write_clean(table, out / "clean" / "clean.csv"))

    with _stage("split"):
        holdout_mask = _holdout_split(y, config.holdout_fraction, config.seed)
        y_train = y[~holdout_mask]
        y_hold = y[holdout_mask]
        # checked here, not at the first metric: every fold model of the
        # first member would be trained and written first
        n_pos = int(np.count_nonzero(y_hold))
        if n_pos == 0 or n_pos == y_hold.size:
            raise DataError(
                f"holdout_fraction {config.holdout_fraction} gives a holdout of {n_pos} "
                f"positive and {y_hold.size - n_pos} negative customers; the blend "
                "needs both classes"
            )
        _write_split(emit(out / "split.csv"), table.customers(), holdout_mask)
        row_holdout = np.repeat(holdout_mask, table.row_counts())
        train_table = table.take(~row_holdout)
        hold_table = table.take(row_holdout)

    with _stage("folds"):
        plan = cv_stack.make_folds(y_train, config.folds, config.seed + 1)
        cv_stack.save_plan(plan, emit(out / "folds.csv"))

    member_holdout_preds: dict = {}
    member_oof: dict = {}
    for member in config.members:
        with _stage(f"member:{member.name}"):
            mdir = out / "members" / member.name

            matrix, vocab = features_mod.build_matrix(train_table, member.features)
            hold_matrix, _ = features_mod.build_matrix(
                hold_table, member.features, vocab=vocab
            )
            if vocab is not None:
                write_json(emit(mdir / "vocab.json"), vocab)

            if member.meta_from:
                matrix = cv_stack.append_meta(
                    matrix, [member_oof[ref] for ref in member.meta_from]
                )
                hold_matrix = cv_stack.append_meta(
                    hold_matrix, [member_holdout_preds[ref] for ref in member.meta_from]
                )
            features_mod.save_matrix(matrix, emit(mdir / "matrix.bin"))
            features_mod.save_matrix(hold_matrix, emit(mdir / "matrix_holdout.bin"))

            result, paths = train_member(matrix, y_train, plan, member.train, mdir)
            written.extend(paths)

            hold_pred = cv_stack.predict_with_fold_models(result.models, hold_matrix)
            write_predictions(
                hold_matrix.customer_ids, hold_pred, emit(mdir / "holdout_pred.csv")
            )
            rep = write_metrics(emit(mdir / "metrics.json"), y_hold, hold_pred)
            write_importance(result.models, config.importance_kind,
                             emit(mdir / "importance.json"), emit(mdir / "importance.svg"),
                             config.report_top_n)

            member_oof[member.name] = result.prediction
            member_holdout_preds[member.name] = hold_pred
            log.info("member %s holdout M = %.6f", member.name, rep.M)

    with _stage("blend"):
        edir = out / "ensemble"
        names = [m.name for m in config.members]
        preds = [member_holdout_preds[name] for name in names]
        if len(preds) >= 2:
            spec, _ = optimize_weights(
                preds, y_hold, config.blend_step, member_names=names
            )
        else:
            spec = EnsembleSpec(tuple(names), (1.0,))
        save_ensemble(spec, emit(edir / "weights.json"))
        final = blend(preds, spec.weights)
        write_predictions(
            hold_table.customers(), final, emit(edir / "prediction.csv")
        )
        rep = write_metrics(emit(edir / "metrics.json"), y_hold, final)
        log.info("ensemble holdout M = %.6f (weights %s)", rep.M, spec.weights)

    with _stage("manifest"):
        digests = {
            path.relative_to(out).as_posix(): sha256_file(path) for path in sorted(written)
        }
        write_json(out / "manifest.json", {"files": digests})

    return out
