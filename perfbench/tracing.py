"""Per-layer spans taken from outside the pipeline.

A traced run replaces each public function the pipeline calls with a
wrapper at the name it is called through (``cv_stack.train`` rather than
``gbdt.train``, because ``cv_stack`` bound the function at import).  No
module of the program is edited.  Spans stay in memory during the run
and are written out after it, so the trace adds only the wrapper calls.

A span is ``[name, start, end, parent, count]``: ``name`` is
``<layer>.<function>``, ``parent`` the index of the enclosing span or -1,
and ``count`` a per-call work count (rows, trees, bytes) or None.

Layer metrics come from self time: a span's duration minus the
durations of its direct children.  Summed per layer, plus the run time
no span covers (``pipeline.self_s``), they add up to the run's wall time.
"""

from __future__ import annotations

import os
import time
from math import comb

# (module, attribute, span name).  The modules are named as the pipeline
# imports them; see install().
WRAPPED = (
    ("ingest", "load_schema", "ingest.load_schema"),
    ("ingest", "parse_csv", "ingest.parse_csv"),
    ("ingest", "denoise_round", "ingest.denoise_round"),
    ("ingest", "compact_types", "ingest.compact_types"),
    ("ingest", "mask_outliers", "ingest.mask_outliers"),
    ("ingest", "read_labels", "ingest.read_labels"),
    ("ingest", "join_labels", "ingest.join_labels"),
    ("ingest", "write_csv", "ingest.write_csv"),
    ("ingest", "schema_to_json", "ingest.schema_to_json"),
    ("features", "build_matrix", "features.build_matrix"),
    ("features", "save_matrix", "features.save_matrix"),
    ("cv_stack", "make_folds", "cv_stack.make_folds"),
    ("cv_stack", "save_plan", "cv_stack.save_plan"),
    ("cv_stack", "train_oof", "cv_stack.train_oof"),
    ("cv_stack", "predict_with_fold_models", "cv_stack.predict_with_fold_models"),
    ("cv_stack", "append_meta", "cv_stack.append_meta"),
    ("cv_stack", "train", "gbdt.train"),
    ("cv_stack", "predict", "gbdt.predict"),
    ("gbdt", "save_model", "gbdt.save_model"),
    ("report", "build_importance_report", "report.build_importance_report"),
    ("report", "save_report", "report.save_report"),
    ("report", "save_box_plot", "report.save_box_plot"),
    ("pipeline", "optimize_weights", "blend.optimize_weights"),
    ("pipeline", "blend", "blend.blend"),
    ("pipeline", "save_ensemble", "blend.save_ensemble"),
    ("pipeline", "write_predictions", "blend.write_predictions"),
    ("pipeline", "composite_metric", "metric.composite_metric"),
    ("blend", "composite_metric", "metric.composite_metric"),
    ("pipeline", "sha256_file", "serialize.sha256_file"),
    ("pipeline", "write_json", "serialize.write_json"),
)

LAYERS = ("ingest", "features", "gbdt", "cv_stack", "blend", "metric", "report", "serialize")


def _count(name, args, result):
    """Work count of one call, from its arguments and result."""
    if name == "ingest.parse_csv":
        return result.n_rows
    if name == "ingest.mask_outliers":
        return sum(result[1].values())
    if name == "features.build_matrix":
        data, spec = args[0], args[1]
        table = getattr(data, "table", data)
        raw = [
            c.name for c in table.schema
            if c.kind in ("continuous", "categorical")
            and (spec.columns is None or c.name in spec.columns)
        ]
        return result[0].n_rows * len(raw)
    if name == "gbdt.train":
        return [result.n_trees, sum(len(tree) for tree in result.trees)]
    if name == "gbdt.predict":
        return args[1].n_rows * args[0].n_trees
    if name == "metric.composite_metric":
        return len(args[0])
    if name == "serialize.sha256_file":
        return os.path.getsize(args[0])
    return None


def _add(total, count):
    if total is None:
        return count
    if isinstance(count, (list, tuple)):
        return [a + b for a, b in zip(total, count)]
    return total + count


class Tracer:
    """Records nested spans around wrapped callables."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans: list = []
        self._open: list = []

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = [name, self.clock(), None, parent, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._open.pop()
            span[4] = _count(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict) -> None:
        """Wrap every binding in WRAPPED; ``modules`` maps short names to modules."""
        for module, attr, name in WRAPPED:
            owner = modules[module]
            setattr(owner, attr, self.wrap(getattr(owner, attr), name))


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def check_nesting(spans, run_start: float, run_end: float) -> list:
    """Problems with span placement: each must sit inside its parent and the run."""
    problems = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end is None or end < start:
            problems.append(f"span {i} ({name}) never closed")
            continue
        lo, hi = (run_start, run_end) if parent < 0 else spans[parent][1:3]
        if start < lo or end > hi:
            problems.append(f"span {i} ({name}) lies outside its parent")
    return problems


def layer_metrics(spans, run_start: float, run_end: float, stages: dict) -> tuple:
    """(per-layer metrics, calls per span name) of one traced run.

    ``stages`` maps each pipeline stage name to its (start, end) time,
    taken from the pipeline's ``stage <name>`` log records.
    """
    own = self_times(spans)
    total: dict = {}
    calls: dict = {}
    counts: dict = {}
    self_layer = dict.fromkeys(LAYERS, 0.0)
    for (name, start, end, _, count), s in zip(spans, own):
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if count is not None:
            counts[name] = _add(counts.get(name), count)
        self_layer[name.split(".")[0]] += s

    def t(name):
        return total.get(name, 0.0)

    def per(num, den):
        return num / den if den else 0.0

    run_s = run_end - run_start
    top = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    trees, nodes = counts.get("gbdt.train", [0, 0])
    n_metric = calls.get("metric.composite_metric", 0)
    # the blend search's candidates are the metric calls made inside it
    candidates = sum(
        1 for name, _, _, parent, _ in spans
        if name == "metric.composite_metric" and parent >= 0
        and spans[parent][0] == "blend.optimize_weights"
    )
    m = {
        "ingest.parse_s": t("ingest.parse_csv"),
        "ingest.parse_rows_per_s": per(counts.get("ingest.parse_csv", 0), t("ingest.parse_csv")),
        "ingest.clean_s": t("ingest.denoise_round") + t("ingest.compact_types")
        + t("ingest.mask_outliers"),
        "ingest.cells_masked": counts.get("ingest.mask_outliers", 0),
        "ingest.write_csv_s": t("ingest.write_csv"),
        "features.build_matrix_s": t("features.build_matrix"),
        "features.build_calls": calls.get("features.build_matrix", 0),
        "features.customer_columns_per_s": per(
            counts.get("features.build_matrix", 0), t("features.build_matrix")
        ),
        "features.save_matrix_s": t("features.save_matrix"),
        "gbdt.train_s": t("gbdt.train"),
        "gbdt.train_calls": calls.get("gbdt.train", 0),
        "gbdt.trees": trees,
        "gbdt.split_searches": nodes,
        "gbdt.ms_per_split_search": per(1000.0 * t("gbdt.train"), nodes),
        "gbdt.predict_s": t("gbdt.predict"),
        "gbdt.predict_row_trees": counts.get("gbdt.predict", 0),
        "gbdt.save_model_s": t("gbdt.save_model"),
        "cv_stack.train_oof_s": t("cv_stack.train_oof"),
        "cv_stack.append_meta_s": t("cv_stack.append_meta"),
        "blend.optimize_s": t("blend.optimize_weights"),
        "blend.candidates": candidates,
        "blend.candidates_per_s": per(candidates, t("blend.optimize_weights")),
        "blend.write_predictions_s": t("blend.write_predictions"),
        "metric.calls": n_metric,
        "metric.composite_s": t("metric.composite_metric"),
        "metric.us_per_call": per(1e6 * t("metric.composite_metric"), n_metric),
        "metric.rows_per_call": per(counts.get("metric.composite_metric", 0), n_metric),
        "report.importance_s": t("report.build_importance_report") + t("report.save_report"),
        "report.svg_s": t("report.save_box_plot"),
        "serialize.digest_s": t("serialize.sha256_file"),
        "serialize.files_digested": calls.get("serialize.sha256_file", 0),
        "serialize.bytes_digested": counts.get("serialize.sha256_file", 0),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_layer[layer]
    m["pipeline.self_s"] = run_s - top
    m["run.traced_s"] = run_s
    for stage in ("prep", "split", "folds", "blend", "manifest"):
        start, end = stages.get(stage, (0.0, 0.0))
        m[f"stage.{stage}_s"] = end - start
    m["stage.members_s"] = sum(
        end - start for name, (start, end) in stages.items() if name.startswith("member:")
    )
    return m, calls


def expected_calls(pipeline_doc: dict) -> dict:
    """Exact call counts a run of this pipeline config must make."""
    members = pipeline_doc["members"]
    n, k = len(members), pipeline_doc["folds"]
    stacked = sum(1 for mem in members if mem.get("meta_from"))
    want = {
        "ingest.parse_csv": 1,
        "ingest.write_csv": 1,
        "features.build_matrix": 2 * n,
        "features.save_matrix": 2 * n,
        "cv_stack.train_oof": n,
        "cv_stack.append_meta": 2 * stacked,
        "gbdt.train": n * k,
        "gbdt.predict": 2 * n * k,
        "gbdt.save_model": n * k,
        "report.build_importance_report": n,
        "report.save_box_plot": n,
        "blend.write_predictions": n + 1,
    }
    if n >= 2:
        ticks = round(1.0 / pipeline_doc["blend_step"])
        want["blend.optimize_weights"] = 1
        # exhaustive lattice: C(ticks + n - 1, n - 1) candidates, plus one
        # metric report per member and one for the ensemble
        if n <= 3:
            want["metric.composite_metric"] = comb(ticks + n - 1, n - 1) + n + 1
    return want


def check_trace(metrics: dict, calls: dict, want: dict, files_in_manifest: int) -> list:
    """Problems that make a traced run fail: wrong call counts, or a layer reading zero."""
    problems = [
        f"{name}: {calls.get(name, 0)} calls, expected {n}"
        for name, n in want.items() if calls.get(name, 0) != n
    ]
    if metrics["serialize.files_digested"] != files_in_manifest:
        problems.append(
            f"serialize.sha256_file: {metrics['serialize.files_digested']} calls, "
            f"manifest lists {files_in_manifest} files"
        )
    for layer in LAYERS:
        if metrics[f"{layer}.self_s"] <= 0.0:
            problems.append(f"layer {layer} reads zero")
    return problems
