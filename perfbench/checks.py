"""Output checks applied to every benchmarked run.

The metric oracle is written from the definitions in the project README
("The evaluation metric"), independently of ``credit_stack.metric``:
label-0 rows weigh 20 and label-1 rows 1; ``auc_w`` is the weighted
share of positive/negative pairs the positive wins, ties half;
``G = 2 * auc_w - 1``; ``D`` is the share of positives met while
scanning predictions in descending order (ties by ascending row) until
the running weight first exceeds 4% of the total; ``M = (G + D) / 2``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from inputs import sha256

NEGATIVE_WEIGHT = 20.0
CAPTURE = 0.04
M_TOLERANCE = 1e-9


def oracle_metric(labels, preds) -> float:
    """Composite M by brute force over all positive/negative pairs."""
    y = np.asarray(labels, dtype=np.int64)
    p = np.asarray(preds, dtype=np.float64)
    pos, neg = p[y == 1], p[y == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    # every positive weighs 1 and every negative the same, so the
    # weighted pair share is the plain pair share
    auc_w = wins / (pos.size * neg.size)
    weights = [NEGATIVE_WEIGHT if v == 0 else 1.0 for v in y.tolist()]
    cutoff = CAPTURE * sum(weights)
    running, captured = 0.0, 0
    for i in sorted(range(y.size), key=lambda i: (-p[i], i)):
        running += weights[i]
        if running > cutoff:
            break
        captured += int(y[i])
    return 0.5 * ((2.0 * auc_w - 1.0) + captured / pos.size)


def read_labels(path: Path) -> dict:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return {cid: int(y) for cid, y in rows}


def _holdout_ids(run_dir: Path) -> list:
    with open(run_dir / "split.csv", encoding="utf-8", newline="") as fh:
        return [cid for cid, split in list(csv.reader(fh))[1:] if split == "holdout"]


def _predictions(path: Path, holdout: list) -> tuple[list, list]:
    """(problems, probabilities in holdout order) of one prediction CSV."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    ids = [row[0] for row in rows]
    if sorted(ids) != sorted(holdout) or len(set(ids)) != len(ids):
        return [f"{path.name}: rows are not exactly one per holdout customer"], []
    probs = []
    for cid, text in rows:
        value = float(text)
        if not (math.isfinite(value) and 0.0 < value < 1.0):
            return [f"{path.name}: customer {cid} has probability {text}"], []
        probs.append(value)
    by_id = dict(zip(ids, probs))
    return [], [by_id[cid] for cid in holdout]


def pinned_outputs(run_dir: Path) -> dict:
    """Digests of the files pinned for the default seed."""
    names = ["ensemble/prediction.csv"]
    for member in sorted((run_dir / "members").iterdir()):
        names += [f"members/{member.name}/oof.csv", f"members/{member.name}/holdout_pred.csv"]
        names += sorted(
            f"members/{member.name}/{p.name}" for p in member.glob("fold_*.model.json")
        )
    return {name: sha256(run_dir / name) for name in names}


def check_outputs(run_dir: Path, labels: dict, first_manifest, expected_outputs) -> tuple:
    """Check one finished run's artifacts; returns (problems, ensemble M, manifest)."""
    manifest = (run_dir / "manifest.json").read_bytes()
    problems = []
    if first_manifest is not None and manifest != first_manifest:
        problems.append("manifest differs from the first run's")
    holdout = _holdout_ids(run_dir)
    for path in sorted((run_dir / "members").glob("*/holdout_pred.csv")):
        problems += _predictions(path, holdout)[0]
    bad, probs = _predictions(run_dir / "ensemble" / "prediction.csv", holdout)
    problems += bad
    reported = json.loads((run_dir / "ensemble" / "metrics.json").read_text())["M"]
    if probs:
        oracle = oracle_metric([labels[cid] for cid in holdout], probs)
        if abs(oracle - reported) > M_TOLERANCE:
            problems.append(f"ensemble M {reported!r} differs from the oracle's {oracle!r}")
    if expected_outputs is not None:
        got = pinned_outputs(run_dir)
        drifted = sorted(k for k in set(got) | set(expected_outputs)
                         if got.get(k) != expected_outputs.get(k))
        if drifted:
            problems.append(f"outputs differ from the pinned digests: {drifted[:4]}")
    return problems, reported, manifest
