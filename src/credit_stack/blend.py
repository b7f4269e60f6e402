"""Convex blending of member predictions and blend-weight search.

The ensemble prediction is a weighted sum of member probability
vectors with non-negative weights summing to one.  Because the target
score is a pure rank statistic (piecewise constant in the weights),
the weight search is derivative-free: one scan scores lists of
candidates on a fixed lattice — every lattice point for up to three
members, and beyond that the vertices, then each step's single-step
moves from the incumbent until none improves it.  Ties keep the first
candidate in scan order, so two identical members resolve to weight
(1, 0).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import ConfigError, DataError
from .metric import Labels, composite_metric
from .serialize import format_float, read_keyed_column, write_csv_columns, write_json

log = logging.getLogger(__name__)

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class EnsembleSpec:
    """Named members and their convex blend weights."""

    member_names: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.member_names) != len(self.weights):
            raise ConfigError(
                f"{len(self.member_names)} members but {len(self.weights)} weights"
            )
        _check_unique(self.member_names)
        _checked_weights(self.weights)


def _check_unique(names) -> None:
    if len(set(names)) != len(names):
        raise ConfigError("member names must be unique")


def _checked_weights(weights) -> np.ndarray:
    """The weights as a float vector; each must be finite and
    non-negative, and they must sum to 1, else ``ConfigError``."""
    w = np.asarray(weights, dtype=np.float64).ravel()
    if not np.isfinite(w).all():
        raise ConfigError(f"weights must be finite: {w.tolist()}")
    if (w < 0).any():
        raise ConfigError(f"weights must be non-negative: {w.tolist()}")
    if abs(float(w.sum()) - 1.0) > _WEIGHT_SUM_TOL:
        raise ConfigError(f"weights must sum to 1: {w.tolist()}")
    return w


def _stacked(predictions) -> np.ndarray:
    vectors = [np.asarray(p, dtype=np.float64).ravel() for p in predictions]
    if not vectors:
        raise DataError("no member predictions given")
    n = vectors[0].size
    for i, v in enumerate(vectors):
        if v.size != n:
            raise DataError(
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
        raise ConfigError(
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


def _scan(candidates, ticks, stacked, labels, incumbent):
    """The best (integer weights, M) of ``incumbent`` and ``candidates``.

    The list is divided by ``ticks`` as one array and each candidate
    scored with one ``composite_metric`` call; only a strict improvement
    replaces the incumbent, so the earliest candidate wins a tie.
    """
    best_w, best_m = incumbent
    for candidate, w in zip(candidates, np.array(candidates, dtype=np.float64) / ticks):
        value = composite_metric(labels, w @ stacked).M
        if value > best_m:
            best_w, best_m = candidate, value
    return best_w, best_m


def optimize_weights(predictions, labels, step: float = 0.01, member_names=None):
    """Search the weight simplex for the best composite metric M.

    Every candidate goes through one scan.  For two or three members it
    is the full lattice at the given resolution, one block per leading
    weight; with more, the single-member vertices first, then each
    step's moves of one tick between any pair of members, in (from, to)
    order, until a step leaves the incumbent in place.  Returns
    (EnsembleSpec, best M); the earliest candidate wins all ties.  The
    member names and the labels are checked, and the labels prepared,
    once before the first candidate is scored.
    """
    stacked = _stacked(predictions)
    m = stacked.shape[0]
    if m < 2:
        raise ConfigError("weight search needs at least two members")
    ticks = lattice_ticks(step)
    names = tuple(member_names) if member_names else tuple(f"member_{i}" for i in range(m))
    if len(names) != m:
        raise ConfigError(f"{len(names)} member names for {m} members")
    _check_unique(names)
    prepared = Labels(labels)

    best = (None, -np.inf)
    if m <= 3:
        for head in range(ticks, -1, -1):
            block = [(head,) + tail for tail in _lattice(ticks - head, m - 1)]
            best = _scan(block, ticks, stacked, prepared, best)
    else:
        vertices = [tuple(ticks if j == i else 0 for j in range(m)) for i in range(m)]
        best = _scan(vertices, ticks, stacked, prepared, best)
        while True:
            w = best[0]
            moves = [
                tuple(w[k] - (k == i) + (k == j) for k in range(m))
                for i in range(m) if w[i] for j in range(m) if j != i
            ]
            best = _scan(moves, ticks, stacked, prepared, best)
            if best[0] == w:
                break

    best_w, best_m = best
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
        raise DataError(
            f"{len(customer_ids)} ids for {probs.size} probabilities"
        )
    write_csv_columns(
        path,
        ["customer_id", "probability"],
        [list(map(str, customer_ids)), [format_float(p) for p in probs.tolist()]],
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
