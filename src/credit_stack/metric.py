"""Rank-ordering evaluation metric for imbalanced default prediction.

The score M is the mean of two components computed on weighted rows
(negatives count 20x, offsetting a 5% negative subsample):

* G — normalized weighted Gini, equal to ``2 * auc_w - 1``, where
  ``auc_w`` is the weighted pairwise AUC with ties scored half;
* D — fraction of all defaulters captured in the top-ranked rows whose
  cumulative weight fits within 4% of the total weight.

Both components depend only on the ordering of the predictions, never
on their calibration.

``composite_metric`` is the one scorer: it returns every component in
one ``MetricReport``.  It takes either a label array, which it prepares
for that one call, or a ``Labels``, which checks the label vector once
and keeps the positive and negative row indices, the row weights, their
total and the capture cutoff; the blend search prepares its labels once
and then pays only the per-call work (the prediction's length and
finiteness checks) for each candidate.  Both private kernels
(``_pair_auc``, ``_capture_rate``) take the checked predictions and a
``Labels``.  They are called once per candidate, on a few hundred rows,
so their cost is mostly per-call overhead: they use array methods
rather than the ``np.*`` wrappers, sort the gathered negatives in place,
and find the capture cutoff with one binary search of the running
weight.  The capture rate keeps its full stable argsort: a top-k
partition was measured slower at the blend search's row counts.

Exactness: every sum either component takes is a whole number (row
weights 1 and 20, pair and row counts) or a half of one (tied pairs),
and all stay far below 2**53, so each is exact in float64 whatever the
grouping or order.  Each result is then one correctly rounded division
of two exact values (for the AUC, the class weights cancel out of the
pairwise definition and leave pair counts), so the bits cannot depend on
how the sums are formed: the three-pass form that weighted every tie
group (kept as the test oracle ``tests/oracles.py``) gives the same
report bit for bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError
from .ingest import check_labels

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
        return asdict(self)


class Labels:
    """A 0/1 label vector, checked once and prepared for scoring.

    Keeps the positive mask, the positive and negative row indices, the
    row weights, their total and the capture cutoff, so that scoring
    many prediction vectors against the same labels repeats none of
    that work.  An empty vector, or a label that breaks
    ``ingest.check_labels``, is a ``DataError``.  ``len()`` is the row count.
    """

    __slots__ = ("is_pos", "pos", "neg", "n_pos", "weights", "total_weight", "cutoff")

    def __init__(self, labels):
        y = check_labels(labels)
        if y.size == 0:
            raise DataError("metric needs at least one row")
        self.is_pos = y == 1.0
        self.pos = np.flatnonzero(self.is_pos)
        self.neg = np.flatnonzero(~self.is_pos)
        self.n_pos = int(self.pos.size)
        self.weights = np.where(self.is_pos, 1.0, NEGATIVE_WEIGHT)
        # every weight is a whole number and the total stays far below
        # 2**53, so any running sum that reaches the last row equals it
        self.total_weight = float(self.weights.sum())
        self.cutoff = CAPTURE_FRACTION * self.total_weight

    def __len__(self) -> int:
        return self.is_pos.size


def _pair_auc(p: np.ndarray, labels: Labels) -> float:
    """Weighted AUC of checked predictions from pair counts.

    Each positive is placed in the sorted negatives by two binary
    searches: the negatives strictly below it and those tied with it.
    """
    n_pos, n_neg = labels.n_pos, labels.neg.size
    if n_pos == 0 or n_neg == 0:
        raise DataError("weighted AUC needs both classes present")
    negatives = p[labels.neg]
    negatives.sort()
    positives = p[labels.pos]
    below = negatives.searchsorted(positives, "left")
    at_or_below = negatives.searchsorted(positives, "right")
    # sum of below + ties / 2, where ties = at_or_below - below
    return 0.5 * float((below + at_or_below).sum()) / (n_pos * n_neg)


def _capture_rate(p: np.ndarray, labels: Labels) -> float:
    """Share of the positives ranked within the capture weight."""
    order = (-p).argsort(kind="stable")
    # the running weight is non-decreasing, so the rows within the
    # cutoff are the ones before its right insertion point
    taken = labels.weights[order].cumsum().searchsorted(labels.cutoff, "right")
    return int(np.count_nonzero(labels.is_pos[order[:taken]])) / labels.n_pos


def composite_metric(labels, preds) -> MetricReport:
    """Assemble G, D and M = 0.5 * (G + D) into one report.

    ``labels`` is a label array, prepared for this one call, or a
    ``Labels`` prepared once for many calls; the predictions are checked
    on every call.  ``auc_w`` is the weighted pairwise AUC: the sum of
    w_i * w_j * s_ij over all positive/negative pairs, over
    W_pos * W_neg, where s is 1 when the positive outranks the negative
    and 0.5 on equal predictions.  D ranks rows by prediction descending
    (ties keep ascending input order) and admits them while the running
    weight stays within 0.04 * sum(weights).  A label set without both
    classes is a ``DataError``.
    """
    if not isinstance(labels, Labels):
        labels = Labels(labels)
    p = np.asarray(preds, dtype=np.float64).ravel()
    if p.size != len(labels):
        raise DataError(
            f"labels ({len(labels)}) and predictions ({p.size}) differ in length"
        )
    if not np.isfinite(p).all():
        raise DataError(f"predictions must be finite, found {float(p[~np.isfinite(p)][0])}")
    auc_w = _pair_auc(p, labels)
    G = 2.0 * auc_w - 1.0
    D = _capture_rate(p, labels)
    return MetricReport(
        G=G,
        D=D,
        M=0.5 * (G + D),
        auc_w=auc_w,
        n_rows=len(labels),
        n_pos=labels.n_pos,
        total_weight=labels.total_weight,
    )
