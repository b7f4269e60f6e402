"""Histogram-binned gradient-boosted trees for binary classification.

Features are quantile-discretized once into at most 255 bins (one extra
bin holds missing values), then each boosting round fits one best-first
tree on second-order logistic-loss statistics, optionally on a
gradient-based one-side sample of the rows.  Split quality is the
standard second-order gain

    1/2 * [ GL^2/(HL+lam) + GR^2/(HR+lam) - (GL+GR)^2/(HL+HR+lam) ]

with the missing-value direction chosen per split by whichever side
scores higher.  Trees store raw value thresholds, so scoring needs no
binning and works on any matrix that carries the trained columns.

A leaf's split search builds one histogram over all columns at once: a
single ``np.bincount`` each for g and h over the leaf's bin indices,
every column shifted to its own block of slots.  Each bin still sums its
rows in ascending row order, as a per-column histogram would.  The
prefix sums of each block give every (column, bin) candidate, and the
candidates are scored for both missing directions in whole-array
operations.  The winner is the first maximum in the order column, then
missing-left before missing-right, then bin, and only a gain above 0
splits.  A column with fewer than 2 real bins offers no candidate, and
one whose leaf rows carry no missing hessian mass offers no
missing-right candidate, since that split is the missing-left one; the
missing-right gains are computed only for the columns whose missing bin
holds hessian mass in the leaf.  A candidate whose bin holds no g and
no h in the leaf has the sums of the one before it in its column, so it
is never the first maximum and is not scored.

Only a leaf that can still split is searched.  The two children of the
split that brings the tree to ``max_leaves`` are never popped, and a
leaf with fewer than 2 rows has one side of every candidate empty: its
gain is exactly 1/2 * (parent + 0 - parent) = 0, or -inf where the
empty side fails ``min_child_weight``, and never splits.  Skipping both
leaves every tree as it was.

Binning sorts a copy of the training matrix once, column by column, and
groups the columns by their count n of non-missing values.  Each group's
quantiles come from NumPy's ``linear`` formula applied to the first n
sorted rows, which gives exactly the bits ``np.quantile`` gives per
column.  All columns' cuts are then sorted at once and a cut equal to
the one before it is dropped, the rule ``np.unique`` applies, and so is
every cut at or above its column's maximum.  A -0.0 cell bins as +0.0.
The resulting ``BinMapper`` is the one description of a fold's bins:
its edges, each column's missing bin and the histogram layout the split
search reads.

Everything is deterministic: one seeded generator drives sampling, bin
edges come from fixed quantiles, histogram sums accumulate in ascending
row order, and ties in split search resolve to the first candidate.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .features import FeatureMatrix
from .ingest import check_labels
from .serialize import is_finite_number, load_config_doc, read_json_doc, write_json


@dataclass(frozen=True)
class TrainConfig:
    """Learner hyper-parameters; defaults suit small tabular problems."""

    rounds: int = 100
    learning_rate: float = 0.1
    max_leaves: int = 31
    min_child_weight: float = 1.0
    l2_lambda: float = 1.0
    goss_a: float = 1.0
    goss_b: float = 0.0
    max_bins: int = 255
    seed: int = 0

    def __post_init__(self):
        if self.rounds < 0:
            raise ConfigError(f"rounds must be >= 0, got {self.rounds}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if self.max_leaves < 2:
            raise ConfigError(f"max_leaves must be >= 2, got {self.max_leaves}")
        if self.min_child_weight < 0:
            raise ConfigError("min_child_weight must be >= 0")
        if self.l2_lambda < 0:
            raise ConfigError("l2_lambda must be >= 0")
        if self.l2_lambda == 0 and self.min_child_weight == 0:
            raise ConfigError(
                "l2_lambda and min_child_weight must not both be 0: "
                "an empty leaf's value would divide by zero"
            )
        if not (0.0 <= self.goss_a <= 1.0 and 0.0 <= self.goss_b <= 1.0):
            raise ConfigError("goss_a and goss_b must lie in [0, 1]")
        if self.goss_a + self.goss_b > 1.0 + 1e-12:
            raise ConfigError("goss_a + goss_b must not exceed 1")
        if self.goss_a < 1.0 and self.goss_b == 0.0:
            raise ConfigError(
                "goss_a < 1 with goss_b = 0 keeps no small-gradient rows"
            )
        if not 2 <= self.max_bins <= 255:
            raise ConfigError(f"max_bins must be in 2..255, got {self.max_bins}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def config_from_json(source) -> TrainConfig:
    """Load a TrainConfig from a JSON file path or a parsed dict."""
    return TrainConfig(**load_config_doc(source, "train config", TrainConfig))


# ---------------------------------------------------------------------------
# binning


@dataclass
class BinMapper:
    """A fold's bins: per-column quantile edges, a missing bin, the histogram layout.

    A value lands in the first bin whose upper edge is >= the value;
    values above every edge take the overflow bin.  Column c therefore
    has ``missing[c] = len(edges[c]) + 1`` real bins, and its missing
    cells map to bin ``missing[c]``, the slot right after them.

    A leaf histogram gives column c the flat slots [c*stride,
    (c+1)*stride): its real bins from ``offsets[c]``, then its missing
    bin at ``miss_pos[c]``.  A split candidate (c, b) sends bins 0..b
    left; a column with r >= 2 real bins offers b in 0..r-2 (the slots
    where ``is_cand`` is set), and ``first`` holds the bin-0 slot of
    every column that offers any.
    """

    column_names: list
    edges: list  # per column, ascending float64 interior edges

    def __post_init__(self):
        self.missing = np.array([len(e) + 1 for e in self.edges], dtype=np.intp)
        self.stride = int(self.missing.max()) + 1
        self.offsets = np.arange(self.missing.size, dtype=np.intp) * self.stride
        self.miss_pos = self.offsets + self.missing
        self.is_cand = (np.arange(self.stride) < (self.missing - 1)[:, None]).ravel()
        self.first = self.offsets[self.missing >= 2]

    def transform(self, values: np.ndarray) -> np.ndarray:
        """Bin a (rows x columns) float array into uint8 indices.

        Each column is searched on its own in a transposed float64 copy;
        every NaN cell then takes its column's ``missing`` bin at once.
        """
        if values.shape[1] != len(self.edges):
            raise DataError(
                f"matrix has {values.shape[1]} columns, mapper expects {len(self.edges)}"
            )
        x = np.ascontiguousarray(values.T, dtype=np.float64)
        binned = np.empty(x.shape, dtype=np.uint8)
        for c, edge in enumerate(self.edges):
            binned[c] = np.searchsorted(edge, x[c], side="left")
        np.copyto(binned, self.missing[:, None], casting="unsafe", where=np.isnan(x))
        return np.ascontiguousarray(binned.T)


def build_bins(matrix: FeatureMatrix, max_bins: int = 255) -> BinMapper:
    """Quantile-bin every column of the training matrix.

    Edges are the deduplicated i/max_bins quantiles of the non-missing
    values; edges at or above the column maximum are dropped so the
    overflow bin is never dead weight.  A constant (or all-missing)
    column collapses to a single bin.  A -0.0 cell counts as +0.0, so
    no edge is -0.0; ``x <= t`` and the bin search route both zeros
    alike.
    """
    if matrix.n_rows == 0 or matrix.n_cols == 0:
        raise DataError("cannot bin an empty matrix")
    if not 2 <= max_bins <= 255:
        raise ConfigError(f"max_bins must be in 2..255, got {max_bins}")
    qs = np.arange(1, max_bins) / max_bins
    values = matrix.values.astype(np.float64)
    values += 0.0  # -0.0 becomes +0.0
    ordered = np.sort(values, axis=0)  # NaN sorts last
    counts = np.count_nonzero(~np.isnan(values), axis=0)
    cuts = np.empty((qs.size, matrix.n_cols))
    for n in sorted(set(counts[counts > 1].tolist())):
        cols = np.flatnonzero(counts == n)
        cuts[:, cols] = _linear_quantiles(ordered[:n, cols], qs)
    # np.unique per column: sort, then keep each value unlike the one before
    cuts.sort(axis=0)
    keep = np.ones(cuts.shape, dtype=bool)
    keep[1:] = cuts[1:] != cuts[:-1]
    top = ordered[np.maximum(counts - 1, 0), np.arange(matrix.n_cols)]  # NaN: all missing
    keep &= (cuts < top) & (ordered[0] < top)  # a constant column gets no edge
    edges = np.split(cuts.T[keep.T], np.cumsum(keep.sum(axis=0))[:-1])
    return BinMapper(list(matrix.column_names), edges)


def _linear_quantiles(ordered: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """``np.quantile(column, qs)`` of every column of a sorted, NaN-free block.

    Repeats NumPy's default ``linear`` method step for step, so each
    result has the same bits: virtual index (n-1)*q, weight t its
    fractional part, and interpolation from the upper neighbour once
    t >= 0.5.  With n >= 2 rows and every q below 1 the virtual index
    stays below n - 1, so NumPy's clamp to the last row never applies.
    """
    n = ordered.shape[0]
    virtual = (n - 1) * qs
    lower = np.floor(virtual)
    t = (virtual - lower)[:, None]
    i = lower.astype(np.intp)
    a, b = ordered[i], ordered[i + 1]
    d = b - a
    return np.where(t >= 0.5, b - d * (1 - t), a + d * t)


# ---------------------------------------------------------------------------
# gradients and sampling


def logistic_grad_hess(labels, scores):
    """First and second logistic-loss derivatives per row: (p - y, p(1-p))."""
    y = np.asarray(labels, dtype=np.float64)
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape:
        raise DataError("labels and scores differ in length")
    p = _sigmoid(s)
    return p - y, p * (1.0 - p)


def _sigmoid(s: np.ndarray) -> np.ndarray:
    out = np.empty_like(s, dtype=np.float64)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    ez = np.exp(s[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def goss_sample(grads, a: float, b: float, seed):
    """One-side sample: keep the big-gradient rows, thin the rest.

    The ceil(a*n) rows with largest |gradient| survive with multiplier
    1; ceil(b*n) rows drawn uniformly without replacement from the
    remainder survive with multiplier (1-a)/b, which keeps the sampled
    small-gradient mass unbiased in expectation.  Returns ascending row
    indices and their aligned multipliers.  ``seed`` may be an integer
    or an existing numpy Generator.
    """
    g = np.asarray(grads, dtype=np.float64)
    n = g.size
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0 and a + b <= 1.0 + 1e-12):
        raise ConfigError(f"invalid sampling fractions a={a}, b={b}")
    if a >= 1.0:
        return np.arange(n, dtype=np.int64), np.ones(n, dtype=np.float64)
    if b == 0.0:
        raise ConfigError("a < 1 with b = 0 discards all small-gradient rows")

    n_top = math.ceil(a * n)
    by_magnitude = np.argsort(-np.abs(g), kind="stable")
    top = by_magnitude[:n_top]
    rest = np.sort(by_magnitude[n_top:])
    n_rest = min(math.ceil(b * n), rest.size)

    rng = np.random.default_rng(seed)
    sampled = rng.choice(rest, size=n_rest, replace=False) if n_rest else rest[:0]

    index = np.concatenate((top, sampled))
    mult = np.concatenate(
        (np.ones(top.size), np.full(sampled.size, (1.0 - a) / b))
    )
    order = np.argsort(index, kind="stable")
    return index[order].astype(np.int64), mult[order]


# ---------------------------------------------------------------------------
# trees


@dataclass
class Node:
    """One tree node; leaves carry ``value``, internals carry the split."""

    is_leaf: bool
    value: float = 0.0
    feature: str = ""
    threshold: float = 0.0
    missing_left: bool = True
    left: int = -1
    right: int = -1


@dataclass
class BoostedModel:
    """An additive stack of trees over a base log-odds score."""

    base_score: float
    learning_rate: float
    trees: list  # list[list[Node]]
    split_records: list  # list[(feature name, gain)] in split order

    @property
    def n_trees(self) -> int:
        return len(self.trees)


@dataclass
class _LeafCandidate:
    node_id: int
    rows: np.ndarray
    gain: float
    feature_idx: int
    split_bin: int
    missing_left: bool


class _TreeGrower:
    """Grows one best-first tree on binned rows with weighted gradients."""

    def __init__(self, binned, mapper: BinMapper, g, h, config: TrainConfig):
        self.binned = binned
        self.mapper = mapper
        self.g = g
        self.h = h
        self.cfg = config
        self.nodes: list[Node] = []
        self.records: list = []

    def grow(self, rows: np.ndarray) -> list[Node]:
        heap: list = []
        self._push(heap, self._new_leaf(rows, True))
        n_leaves = 1
        while heap and n_leaves < self.cfg.max_leaves:
            _, _, cand = heapq.heappop(heap)
            left_rows, right_rows = self._partition(cand)
            node = self.nodes[cand.node_id]
            node.is_leaf = False
            node.feature = self.mapper.column_names[cand.feature_idx]
            node.threshold = float(self.mapper.edges[cand.feature_idx][cand.split_bin])
            node.missing_left = cand.missing_left
            self.records.append((node.feature, cand.gain))
            n_leaves += 1
            # the children of the split that fills the tree are never popped
            more = n_leaves < self.cfg.max_leaves
            node.left = self._push(heap, self._new_leaf(left_rows, more))
            node.right = self._push(heap, self._new_leaf(right_rows, more))
        return self.nodes

    # -- internals --------------------------------------------------------

    def _push(self, heap, pair) -> int:
        node_id, cand = pair
        if cand is not None:
            # pushed as soon as its node is made: node ids break gain ties by creation order
            heapq.heappush(heap, (-cand.gain, cand.node_id, cand))
        return node_id

    def _new_leaf(self, rows: np.ndarray, search: bool):
        g_sum = float(self.g[rows].sum())
        h_sum = float(self.h[rows].sum())
        value = -g_sum / (h_sum + self.cfg.l2_lambda) * self.cfg.learning_rate
        node_id = len(self.nodes)
        self.nodes.append(Node(is_leaf=True, value=value))
        # With fewer than 2 rows every candidate leaves one side empty, so
        # its gain is exactly 0 (or -inf below min_child_weight).
        if not search or rows.size < 2:
            return node_id, None
        return node_id, self._best_split(node_id, rows, g_sum, h_sum)

    def _best_split(self, node_id, rows, g_total, h_total):
        mapper = self.mapper
        if mapper.first.size == 0:
            return None
        n_cols = mapper.offsets.size
        slots = (self.binned[rows] + mapper.offsets).ravel()
        size = n_cols * mapper.stride
        hg = np.bincount(slots, weights=np.repeat(self.g[rows], n_cols), minlength=size)
        hh = np.bincount(slots, weights=np.repeat(self.h[rows], n_cols), minlength=size)
        # A candidate whose bin holds no g and no h scores exactly as the one
        # before it in its column, which the scan meets first: score only
        # bin 0 and the bins the leaf's rows fill.
        live = mapper.is_cand & ((hg != 0.0) | (hh != 0.0))
        live[mapper.first] = True
        pos = np.flatnonzero(live)  # column-then-bin order
        col = pos // mapper.stride
        gl = np.cumsum(hg.reshape(n_cols, mapper.stride), axis=1).ravel()[pos]
        hl = np.cumsum(hh.reshape(n_cols, mapper.stride), axis=1).ravel()[pos]
        miss = mapper.miss_pos[col]
        miss_g, miss_h = hg[miss], hh[miss]
        parent = g_total * g_total / (h_total + self.cfg.l2_lambda)
        left = self._gains(gl + miss_g, hl + miss_h, g_total, h_total, parent)
        # Without missing rows a missing-right split is the missing-left one:
        # score missing-right only where the column's missing bin holds h.
        right = np.full(pos.size, -np.inf)
        has_miss = np.flatnonzero(miss_h != 0.0)
        right[has_miss] = self._gains(gl[has_miss], hl[has_miss], g_total, h_total, parent)
        # Each argmax is the first of its direction in column-then-bin order;
        # between the two, the lower column wins a tie, then missing-left.
        i, j = int(np.argmax(left)), int(np.argmax(right))
        if right[j] > left[i] or (right[j] == left[i] and col[j] < col[i]):
            k, missing_left, gain = j, False, right[j]
        else:
            k, missing_left, gain = i, True, left[i]
        if not gain > 0.0:
            return None
        c, b = divmod(int(pos[k]), mapper.stride)
        return _LeafCandidate(node_id, rows, float(gain), c, b, missing_left)

    def _gains(self, GL, HL, g_total, h_total, parent):
        """Split gains, -inf where a side falls below min_child_weight."""
        cfg = self.cfg
        GR, HR = g_total - GL, h_total - HL
        with np.errstate(divide="ignore", invalid="ignore"):  # masked below
            gain = 0.5 * (
                GL * GL / (HL + cfg.l2_lambda)
                + GR * GR / (HR + cfg.l2_lambda)
                - parent
            )
        ok = (HL >= cfg.min_child_weight) & (HR >= cfg.min_child_weight)
        return np.where(ok, gain, -np.inf)

    def _partition(self, cand: _LeafCandidate):
        bins = self.binned[cand.rows, cand.feature_idx]
        go_left = bins <= cand.split_bin
        if cand.missing_left:
            go_left |= bins == self.mapper.missing[cand.feature_idx]
        return cand.rows[go_left], cand.rows[~go_left]


def _route_raw(nodes, values: np.ndarray, col_of: dict) -> np.ndarray:
    """Raw leaf values straight from feature values via stored thresholds.

    The comparison runs in float64, the precision of the bin edges the
    thresholds come from, so ``x <= threshold`` sends a row the same way
    as the binned ``bin <= split_bin`` test did while the tree grew.
    """
    out = np.zeros(values.shape[0], dtype=np.float64)
    stack = [(0, np.arange(values.shape[0], dtype=np.int64))]
    while stack:
        nid, rows = stack.pop()
        if rows.size == 0:
            continue
        node = nodes[nid]
        if node.is_leaf:
            out[rows] = node.value
            continue
        x = values[rows, col_of[node.feature]].astype(np.float64)
        missing = np.isnan(x)
        with np.errstate(invalid="ignore"):
            go_left = x <= node.threshold
        go_left = np.where(missing, node.missing_left, go_left)
        stack.append((node.left, rows[go_left]))
        stack.append((node.right, rows[~go_left]))
    return out


# ---------------------------------------------------------------------------
# training / scoring


def train(matrix: FeatureMatrix, labels, config: TrainConfig) -> BoostedModel:
    """Boost ``config.rounds`` trees on the matrix (labels: ``ingest.check_labels``)."""
    if matrix.n_rows < 2 or matrix.n_cols == 0:
        raise DataError(
            f"training needs >= 2 rows and >= 1 column, got {matrix.n_rows}x{matrix.n_cols}"
        )
    y = check_labels(labels)
    if y.size != matrix.n_rows:
        raise DataError(f"{y.size} labels for {matrix.n_rows} rows")
    pos = float(np.count_nonzero(y == 1.0))
    if pos == 0.0 or pos == y.size:
        raise DataError("training labels contain a single class")

    mapper = build_bins(matrix, config.max_bins)
    binned = mapper.transform(matrix.values)
    col_of = {name: c for c, name in enumerate(matrix.column_names)}
    p_bar = pos / y.size
    base = math.log(p_bar / (1.0 - p_bar))
    scores = np.full(y.size, base, dtype=np.float64)

    rng = np.random.default_rng(config.seed)
    trees: list[list[Node]] = []
    records: list = []
    for _ in range(config.rounds):
        g, h = logistic_grad_hess(y, scores)
        # goss_a = 1 keeps every row with multiplier 1
        rows, mult = goss_sample(g, config.goss_a, config.goss_b, rng)
        gw, hw = g * 0.0, h * 0.0  # weighted copies, zero off-sample
        gw[rows] = g[rows] * mult
        hw[rows] = h[rows] * mult

        grower = _TreeGrower(binned, mapper, gw, hw, config)
        nodes = grower.grow(rows)
        trees.append(nodes)
        records.extend(grower.records)
        scores += _route_raw(nodes, matrix.values, col_of)

    return BoostedModel(base, config.learning_rate, trees, records)


def predict_raw(model: BoostedModel, matrix: FeatureMatrix) -> np.ndarray:
    """Log-odds scores: base plus every tree's routed leaf value."""
    col_of = {}
    needed = {n.feature for nodes in model.trees for n in nodes if not n.is_leaf}
    for name in needed:
        try:
            col_of[name] = matrix.column_names.index(name)
        except ValueError:
            raise DataError(
                f"matrix lacks feature column {name!r} required by the model"
            ) from None
    scores = np.full(matrix.n_rows, model.base_score, dtype=np.float64)
    values = matrix.values
    for nodes in model.trees:
        scores += _route_raw(nodes, values, col_of)
    return scores


def predict(model: BoostedModel, matrix: FeatureMatrix) -> np.ndarray:
    """Default probabilities in (0,1) for every matrix row."""
    return _sigmoid(predict_raw(model, matrix))


IMPORTANCE_KINDS = ("average_gain", "total_gain")


def importance(model: BoostedModel, kind: str = "average_gain") -> dict:
    """Per-column split-gain importance; unused columns are absent.

    ``total_gain`` sums a column's recorded gains, ``average_gain``
    divides by its split count.
    """
    if kind not in IMPORTANCE_KINDS:
        raise ConfigError(f"importance kind must be one of {IMPORTANCE_KINDS}, got {kind!r}")
    grouped: dict = {}
    for feature, gain in model.split_records:
        grouped.setdefault(feature, []).append(gain)
    # fsum keeps each column total correctly rounded, so regrouping the
    # records never drifts the accounting by accumulation order.
    totals = {f: math.fsum(gains) for f, gains in grouped.items()}
    counts = {f: len(gains) for f, gains in grouped.items()}
    if kind == "average_gain":
        return {f: totals[f] / counts[f] for f in totals}
    return totals


# ---------------------------------------------------------------------------
# persistence


def model_to_dict(model: BoostedModel) -> dict:
    trees = []
    for nodes in model.trees:
        out_nodes = []
        for node in nodes:
            if node.is_leaf:
                out_nodes.append({"value": node.value})
            else:
                out_nodes.append(
                    {
                        "feature": node.feature,
                        "threshold": node.threshold,
                        "missing_left": node.missing_left,
                        "left": node.left,
                        "right": node.right,
                    }
                )
        trees.append({"nodes": out_nodes})
    return {
        "base_score": model.base_score,
        "learning_rate": model.learning_rate,
        "trees": trees,
        "split_records": [[feature, gain] for feature, gain in model.split_records],
    }


def save_model(model: BoostedModel, path) -> None:
    """Write the model as stable JSON (17-significant-digit reals)."""
    write_json(path, model_to_dict(model))


def _finite(value, what: str) -> float:
    """``value`` as a float; anything but a finite JSON number is a ValueError."""
    if not is_finite_number(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _node_from_dict(raw: dict, i: int, n_nodes: int) -> Node:
    """Node ``i`` of a tree of ``n_nodes``; its children must come after it."""
    if "value" in raw:
        return Node(is_leaf=True, value=_finite(raw["value"], f"node {i} value"))
    feature, missing_left = raw["feature"], raw["missing_left"]
    if not isinstance(feature, str):
        raise ValueError(f"node {i} feature must be a string, got {feature!r}")
    if not isinstance(missing_left, bool):
        raise ValueError(f"node {i} missing_left must be true or false, got {missing_left!r}")
    left, right = raw["left"], raw["right"]
    for child in (left, right):
        if isinstance(child, bool) or not isinstance(child, int) or not i < child < n_nodes:
            raise ValueError(
                f"node {i} child {child!r} must be an index in {i + 1}..{n_nodes - 1}"
            )
    return Node(
        is_leaf=False,
        feature=feature,
        threshold=_finite(raw["threshold"], f"node {i} threshold"),
        missing_left=missing_left,
        left=left,
        right=right,
    )


def _split_record(record) -> tuple[str, float]:
    if not (isinstance(record, list) and len(record) == 2 and isinstance(record[0], str)):
        raise ValueError(f"split record {record!r} must be [feature, gain]")
    return record[0], _finite(record[1], "split gain")


def load_model(path) -> BoostedModel:
    """Read a model written by :func:`save_model`.

    A document of any other shape is a ``DataError`` naming the path:
    every tree needs a node, each child index must lie after its parent
    and inside its tree (so every walk ends at a leaf), and every
    number must be finite.
    """
    doc = read_json_doc(path, "model", DataError)
    try:
        trees = []
        for t, tree in enumerate(doc["trees"]):
            raw_nodes = tree["nodes"]
            if not raw_nodes:
                raise ValueError(f"tree {t} has no nodes")
            n = len(raw_nodes)
            trees.append([_node_from_dict(raw, i, n) for i, raw in enumerate(raw_nodes)])
        return BoostedModel(
            base_score=_finite(doc["base_score"], "base_score"),
            learning_rate=_finite(doc["learning_rate"], "learning_rate"),
            trees=trees,
            split_records=[_split_record(record) for record in doc["split_records"]],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model document {path}: {exc}") from exc
