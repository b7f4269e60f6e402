"""Rank-ordering evaluation metric for imbalanced default prediction.

The score M is the mean of two components computed on weighted rows
(negatives count 20x, offsetting a 5% negative subsample):

* G — normalized weighted Gini, equal to ``2 * weighted_auc - 1``;
* D — fraction of all defaulters captured in the top-ranked rows whose
  cumulative weight fits within 4% of the total weight.

Both components depend only on the ordering of the predictions, never
on their calibration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, LengthMismatchError, NoPositivesError, SingleClassError

#: Row weight for the negative class; 20 = 1 / 0.05 subsample rate.
NEGATIVE_WEIGHT = 20.0

#: Fraction of total weight scanned by the capture-rate component.
CAPTURE_FRACTION = 0.04


@dataclass(frozen=True)
class MetricReport:
    """Bundle of the composite score and its ingredients."""

    G: float
    D: float
    M: float
    auc_w: float
    n_rows: int
    n_pos: int
    total_weight: float

    def as_dict(self) -> dict:
        return {
            "G": self.G,
            "D": self.D,
            "M": self.M,
            "auc_w": self.auc_w,
            "n_rows": self.n_rows,
            "n_pos": self.n_pos,
            "total_weight": self.total_weight,
        }


def _validated(labels, preds) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(labels, dtype=np.float64).ravel()
    p = np.asarray(preds, dtype=np.float64).ravel()
    if y.shape != p.shape:
        raise LengthMismatchError(
            f"labels ({y.size}) and predictions ({p.size}) differ in length"
        )
    if y.size == 0:
        raise DataError("metric needs at least one row")
    bad = ~np.isin(y, (0.0, 1.0))
    if bad.any():
        raise DataError(f"labels must be 0 or 1, found {y[bad][0]!r}")
    if not np.isfinite(p).all():
        raise DataError(f"predictions must be finite, found {p[~np.isfinite(p)][0]!r}")
    return y, p


def weight_of(label, negative_weight: float = NEGATIVE_WEIGHT):
    """Row weight(s) for binary label(s): ``negative_weight`` for 0, 1 for 1.

    Accepts a scalar or an array; the return mirrors the input shape.
    """
    arr = np.asarray(label, dtype=np.float64)
    w = np.where(arr == 0.0, negative_weight, 1.0)
    if arr.ndim == 0:
        return float(w)
    return w


def weighted_auc(labels, preds) -> float:
    """Weighted pairwise AUC with ties scored half.

    Equals sum(w_i * w_j * s_ij) / (W_pos * W_neg) over all
    positive/negative pairs, where s is 1 when the positive outranks the
    negative, 0.5 on equal predictions, otherwise 0.  Computed in
    O(n log n) by a single sorted sweep over prediction tie groups.
    """
    y, p = _validated(labels, preds)
    w = weight_of(y)

    order = np.argsort(p, kind="stable")
    p_sorted = p[order]
    pos_w = np.where(y[order] == 1.0, w[order], 0.0)
    neg_w = np.where(y[order] == 0.0, w[order], 0.0)

    # collapse equal predictions into tie groups
    new_group = np.empty(p_sorted.size, dtype=bool)
    new_group[0] = True
    np.not_equal(p_sorted[1:], p_sorted[:-1], out=new_group[1:])
    group = np.cumsum(new_group) - 1

    wp = np.bincount(group, weights=pos_w)
    wn = np.bincount(group, weights=neg_w)
    w_pos = wp.sum()
    w_neg = wn.sum()
    if w_pos == 0.0 or w_neg == 0.0:
        raise SingleClassError("weighted AUC needs both classes present")

    # positives in a group beat every negative ranked strictly below it
    # and split the in-group negatives evenly
    below = np.concatenate(([0.0], np.cumsum(wn)[:-1]))
    return float(np.sum(wp * (below + 0.5 * wn)) / (w_pos * w_neg))


def normalized_weighted_gini(labels, preds) -> float:
    """2 * weighted_auc - 1, spanning [-1, 1]."""
    return 2.0 * weighted_auc(labels, preds) - 1.0


def default_rate_at_4pct(labels, preds) -> float:
    """Share of positives captured within 4% of the total row weight.

    Rows are ranked by prediction descending (ties keep ascending input
    order) and admitted while the running weight stays within
    0.04 * sum(weights); the result is captured positives over all
    positives.
    """
    y, p = _validated(labels, preds)
    n_pos = int(np.count_nonzero(y == 1.0))
    if n_pos == 0:
        raise NoPositivesError("capture rate needs at least one positive row")

    w = weight_of(y)
    order = np.argsort(-p, kind="stable")
    running = np.cumsum(w[order])
    cutoff = CAPTURE_FRACTION * running[-1]
    taken = int(np.searchsorted(running, cutoff, side="right"))
    captured = int(np.count_nonzero(y[order][:taken] == 1.0))
    return captured / n_pos


def composite_metric(labels, preds) -> MetricReport:
    """Assemble G, D and M = 0.5 * (G + D) into one report."""
    y, p = _validated(labels, preds)
    auc_w = weighted_auc(y, p)
    G = 2.0 * auc_w - 1.0
    D = default_rate_at_4pct(y, p)
    return MetricReport(
        G=G,
        D=D,
        M=0.5 * (G + D),
        auc_w=auc_w,
        n_rows=int(y.size),
        n_pos=int(np.count_nonzero(y == 1.0)),
        total_weight=float(weight_of(y).sum()),
    )
