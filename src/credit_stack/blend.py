"""Convex blending of member predictions and blend-weight search.

The ensemble prediction is a weighted sum of member probability
vectors with non-negative weights summing to one.  Because the target
score is a pure rank statistic (piecewise constant in the weights),
the weight search is derivative-free: the simplex is scanned on a
fixed lattice — exhaustively for up to three members, by steepest
single-step ascent from the best vertex beyond that.  Ties keep the
first candidate in scan order, so two identical members resolve to
weight (1, 0).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import groupby
from numbers import Real
from operator import itemgetter

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    InvalidWeightsError,
    LengthMismatchError,
    SingleMemberError,
)
from .metric import Labels, composite_metric
from .serialize import format_float, read_keyed_column, write_csv_rows, write_json

log = logging.getLogger(__name__)

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class EnsembleSpec:
    """Named members and their convex blend weights."""

    member_names: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.member_names) != len(self.weights):
            raise InvalidWeightsError(
                f"{len(self.member_names)} members but {len(self.weights)} weights"
            )
        _check_unique(self.member_names)
        _checked_weights(self.weights)


def _check_unique(names) -> None:
    if len(set(names)) != len(names):
        raise InvalidWeightsError("member names must be unique")


def _checked_weights(weights) -> np.ndarray:
    """The weights as a float vector; each must be finite and
    non-negative, and they must sum to 1, else ``InvalidWeightsError``."""
    w = np.asarray(weights, dtype=np.float64).ravel()
    if not np.isfinite(w).all():
        raise InvalidWeightsError(f"weights must be finite: {w.tolist()}")
    if (w < 0).any():
        raise InvalidWeightsError(f"weights must be non-negative: {w.tolist()}")
    if abs(float(w.sum()) - 1.0) > _WEIGHT_SUM_TOL:
        raise InvalidWeightsError(f"weights must sum to 1: {w.tolist()}")
    return w


def _stacked(predictions) -> np.ndarray:
    vectors = [np.asarray(p, dtype=np.float64).ravel() for p in predictions]
    if not vectors:
        raise DataError("no member predictions given")
    n = vectors[0].size
    for i, v in enumerate(vectors):
        if v.size != n:
            raise LengthMismatchError(
                f"member {i} has {v.size} predictions, member 0 has {n}"
            )
    return np.vstack(vectors)


def blend(predictions, weights) -> np.ndarray:
    """Weighted sum of member prediction vectors.

    The weights must form a convex combination, which keeps every output
    between the member minimum and maximum.
    """
    stacked = _stacked(predictions)
    w = _checked_weights(weights)
    if w.size != stacked.shape[0]:
        raise InvalidWeightsError(
            f"{w.size} weights for {stacked.shape[0]} members"
        )
    return w @ stacked


def _lattice(total: int, parts: int):
    """Integer compositions of ``total`` into ``parts``, first part largest
    first — the scan order that makes weight ties resolve toward the
    leading members."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _lattice(total - head, parts - 1):
            yield (head,) + tail


def lattice_ticks(step, name: str = "step") -> int:
    """Number of lattice ticks per unit weight for a search ``step``.

    The step must lie in (0, 1] and divide 1 into a whole number of
    ticks; otherwise a ``ConfigError`` names the offending ``name``.
    """
    if isinstance(step, bool) or not isinstance(step, Real) or not 0 < step <= 1:
        raise ConfigError(f"{name} must be in (0, 1], got {step}")
    ticks = round(1.0 / step)
    if abs(ticks * step - 1.0) > 1e-9:
        raise ConfigError(f"1/{name} must be a whole number of lattice ticks, got {step}")
    return ticks


def optimize_weights(predictions, labels, step: float = 0.01, member_names=None):
    """Search the weight simplex for the best composite metric M.

    Scans the full lattice at the given resolution for two or three
    members; with more members, starts at the best single-member vertex
    and repeatedly applies the best mass move of one step between any
    pair of members until no move improves M.  Returns (EnsembleSpec,
    best M); only strict improvements replace the incumbent, so the
    earliest candidate wins all ties.  The member names and the labels
    are checked, and the labels prepared, once before the first
    candidate is scored.
    """
    stacked = _stacked(predictions)
    m = stacked.shape[0]
    if m < 2:
        raise SingleMemberError("weight search needs at least two members")
    ticks = lattice_ticks(step)
    names = tuple(member_names) if member_names else tuple(f"member_{i}" for i in range(m))
    if len(names) != m:
        raise ConfigError(f"{len(names)} member names for {m} members")
    _check_unique(names)
    prepared = Labels(labels)

    def score(int_weights) -> float:
        w = np.asarray(int_weights, dtype=np.float64) / ticks
        return composite_metric(prepared, w @ stacked).M

    best_w, best_m = None, -np.inf
    if m <= 3:
        # one division per block of candidates that share a leading weight
        for _, block in groupby(_lattice(ticks, m), key=itemgetter(0)):
            block = list(block)
            for candidate, w in zip(block, np.array(block, dtype=np.float64) / ticks):
                value = composite_metric(prepared, w @ stacked).M
                if value > best_m:
                    best_w, best_m = candidate, value
    else:
        for i in range(m):  # vertices, leading member first
            vertex = tuple(ticks if j == i else 0 for j in range(m))
            value = score(vertex)
            if value > best_m:
                best_w, best_m = vertex, value
        improved = True
        while improved:
            improved = False
            move_best_w, move_best_m = None, best_m
            for i in range(m):
                if best_w[i] == 0:
                    continue
                for j in range(m):
                    if j == i:
                        continue
                    trial = list(best_w)
                    trial[i] -= 1
                    trial[j] += 1
                    value = score(trial)
                    if value > move_best_m:
                        move_best_w, move_best_m = tuple(trial), value
            if move_best_w is not None:
                best_w, best_m, improved = move_best_w, move_best_m, True

    spec = EnsembleSpec(names, tuple(w / ticks for w in best_w))
    log.info("blend weights %s -> M %.6f", dict(zip(names, spec.weights)), best_m)
    return spec, float(best_m)


# ---------------------------------------------------------------------------
# persistence


def save_ensemble(spec: EnsembleSpec, path) -> None:
    write_json(path, {"members": list(spec.member_names), "weights": list(spec.weights)})


def write_predictions(customer_ids, probabilities, path) -> None:
    """Write the (customer_id, probability) exchange CSV, full precision."""
    probs = np.asarray(probabilities, dtype=np.float64).ravel()
    if len(customer_ids) != probs.size:
        raise LengthMismatchError(
            f"{len(customer_ids)} ids for {probs.size} probabilities"
        )
    write_csv_rows(
        path,
        ["customer_id", "probability"],
        ([cid, format_float(float(p))] for cid, p in zip(customer_ids, probs)),
    )


def _finite(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"{cell!r} is not finite")
    return value


def read_predictions(path):
    """(ids, float vector) from the ``customer_id`` and ``probability``
    columns of a CSV, read by ``serialize.read_keyed_column``; a cell that
    is not a finite number is a ``DataError`` naming its row."""
    ids, probs = read_keyed_column(path, "probability", _finite, "score")
    return ids, np.asarray(probs, dtype=np.float64)
