"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way — explicit pairwise
loops, direct textbook formulas, exhaustive enumeration, recursive tree
walks — deliberately sharing no code with ``credit_stack`` so that a bug
in the package cannot hide in its own test oracle.  The exceptions
stand in for a package function and so speak its types:
``build_matrix_by_customer`` replaces ``features.build_matrix``
and reuses the package's window, column selection, encoding and matrix
type; ``three_pass_composite_metric`` replaces ``metric.composite_metric``
and returns its ``MetricReport`` and raises its error types;
``build_bins_by_quantile`` replaces ``gbdt.build_bins`` and returns its
``BinMapper`` and raises its error types; ``write_csv_by_cell`` replaces
``ingest.write_csv`` and formats each cell with the package's
``_format_value``, so only the per-column deduplication is under test;
``read_csv_by_reader`` stands in for ``serialize.read_csv_rows`` and
raises its ``DataError`` messages; ``SearchEveryLeafGrower``
replaces ``gbdt._TreeGrower``, inherits its partition, gain and heap
code and reads the histogram layout (``stride``, ``offsets``,
``miss_pos``, ``is_cand``, ``first``) from the grower's ``BinMapper``,
so only the skipped split work is under test; ``two_loop_optimize_weights``
replaces ``blend.optimize_weights``, reuses its argument checks, lattice
and ``EnsembleSpec`` and scores through ``blend.composite_metric``, so
only the order and count of the scored candidates are under test.
"""

from __future__ import annotations

import csv
import heapq
import io
import math
from itertools import combinations, groupby
from operator import itemgetter

import numpy as np

from credit_stack import blend, features
from credit_stack.errors import ConfigError, DataError
from credit_stack.gbdt import BinMapper, Node, _LeafCandidate, _TreeGrower
from credit_stack.ingest import _format_value
from credit_stack.metric import Labels, MetricReport

NEG_W = 20.0


def pairwise_weighted_auc(labels, preds, neg_weight=NEG_W):
    """O(P*N) weighted AUC straight from the pairwise definition."""
    labels = np.asarray(labels, dtype=np.float64)
    preds = np.asarray(preds, dtype=np.float64)
    pos = preds[labels == 1]
    neg = preds[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("need both classes")
    # per-row weights (1 for positives, neg_weight for negatives)
    wp = np.ones(len(pos))
    wn = np.full(len(neg), neg_weight)
    score = (pos[:, None] > neg[None, :]).astype(np.float64)
    score += 0.5 * (pos[:, None] == neg[None, :])
    num = float(np.sum((wp[:, None] * wn[None, :]) * score))
    den = float(wp.sum() * wn.sum())
    return num / den


def capture_at_fraction(labels, preds, fraction=0.04, neg_weight=NEG_W):
    """Direct hand-walk of the top-weight capture rule.

    Sort by prediction descending (original index breaks ties), then
    take rows while the running weight stays within ``fraction`` of the
    total weight; return captured positives / all positives.
    """
    labels = list(labels)
    preds = list(preds)
    n = len(labels)
    weights = [1.0 if y == 1 else neg_weight for y in labels]
    cutoff = fraction * math.fsum(weights)
    order = sorted(range(n), key=lambda i: (-preds[i], i))
    running = 0.0
    caught = 0
    for i in order:
        running += weights[i]
        if running > cutoff:
            break
        if labels[i] == 1:
            caught += 1
    total_pos = sum(1 for y in labels if y == 1)
    if total_pos == 0:
        raise ValueError("need at least one positive")
    return caught / total_pos


def composite_m(labels, preds):
    """Composite rank score assembled from the two oracles above."""
    g = 2.0 * pairwise_weighted_auc(labels, preds) - 1.0
    d = capture_at_fraction(labels, preds)
    return 0.5 * (g + d)


def _three_pass_validated(labels, preds):
    y = np.asarray(labels, dtype=np.float64).ravel()
    p = np.asarray(preds, dtype=np.float64).ravel()
    if y.shape != p.shape:
        raise DataError(
            f"labels ({y.size}) and predictions ({p.size}) differ in length"
        )
    if y.size == 0:
        raise DataError("metric needs at least one row")
    bad = ~np.isin(y, (0.0, 1.0))
    if bad.any():
        raise DataError(f"labels must be 0 or 1, found {float(y[bad][0])}")
    if not np.isfinite(p).all():
        raise DataError(f"predictions must be finite, found {float(p[~np.isfinite(p)][0])}")
    return y, p


def _three_pass_weights(y):
    return np.where(y == 0.0, NEG_W, 1.0)


def three_pass_weighted_auc(labels, preds):
    """Weighted AUC by a weighted sweep over prediction tie groups."""
    y, p = _three_pass_validated(labels, preds)
    w = _three_pass_weights(y)
    order = np.argsort(p, kind="stable")
    p_sorted = p[order]
    pos_w = np.where(y[order] == 1.0, w[order], 0.0)
    neg_w = np.where(y[order] == 0.0, w[order], 0.0)
    new_group = np.empty(p_sorted.size, dtype=bool)
    new_group[0] = True
    np.not_equal(p_sorted[1:], p_sorted[:-1], out=new_group[1:])
    group = np.cumsum(new_group) - 1
    wp = np.bincount(group, weights=pos_w)
    wn = np.bincount(group, weights=neg_w)
    w_pos = wp.sum()
    w_neg = wn.sum()
    if w_pos == 0.0 or w_neg == 0.0:
        raise DataError("weighted AUC needs both classes present")
    below = np.concatenate(([0.0], np.cumsum(wn)[:-1]))
    return float(np.sum(wp * (below + 0.5 * wn)) / (w_pos * w_neg))


def three_pass_default_rate(labels, preds):
    """Capture rate by a weighted cumulative walk down the ranking."""
    y, p = _three_pass_validated(labels, preds)
    n_pos = int(np.count_nonzero(y == 1.0))
    if n_pos == 0:
        raise DataError("capture rate needs at least one positive row")
    w = _three_pass_weights(y)
    order = np.argsort(-p, kind="stable")
    running = np.cumsum(w[order])
    cutoff = 0.04 * running[-1]
    taken = int(np.searchsorted(running, cutoff, side="right"))
    return int(np.count_nonzero(y[order][:taken] == 1.0)) / n_pos


def three_pass_composite_metric(labels, preds):
    """``metric.composite_metric`` as it was first written.

    Validates the inputs three times (here, then inside each component)
    and rebuilds the weights in each pass; the weighted sweep sums the
    1/20 weights per tie group.  Every report field and every error must
    match the package's bit for bit.
    """
    y, p = _three_pass_validated(labels, preds)
    auc_w = three_pass_weighted_auc(y, p)
    G = 2.0 * auc_w - 1.0
    D = three_pass_default_rate(y, p)
    return MetricReport(
        G=G,
        D=D,
        M=0.5 * (G + D),
        auc_w=auc_w,
        n_rows=int(y.size),
        n_pos=int(np.count_nonzero(y == 1.0)),
        total_weight=float(_three_pass_weights(y).sum()),
    )


def direct_continuous_stats(series):
    """Textbook formulas for the continuous aggregations, pure Python.

    ``series`` may contain NaN; NaN cells are dropped first.  Returns a
    dict over mean/std/min/max/last/median plus lag = last - mean, with
    float('nan') for undefined entries.
    """
    vals = [float(v) for v in series if not math.isnan(float(v))]
    nan = float("nan")
    n = len(vals)
    if n == 0:
        return {k: nan for k in ("mean", "std", "min", "max", "last", "median", "lag")}
    mean = math.fsum(vals) / n
    if n > 1:
        std = math.sqrt(math.fsum((v - mean) ** 2 for v in vals) / (n - 1))
    else:
        std = nan
    s = sorted(vals)
    if n % 2 == 1:
        median = s[n // 2]
    else:
        median = (s[n // 2 - 1] + s[n // 2]) / 2.0
    last = vals[-1]
    return {
        "mean": mean,
        "std": std,
        "min": s[0],
        "max": s[-1],
        "last": last,
        "median": median,
        "lag": last - mean,
    }


def direct_categorical_stats(codes, missing_code=-1):
    """Count / last / distinct-count over integer codes, pure Python."""
    seen = [int(c) for c in codes if int(c) != missing_code]
    nan = float("nan")
    return {
        "count": float(len(seen)),
        "last": float(seen[-1]) if seen else nan,
        "nunique": float(len(set(seen))),
    }


CONTINUOUS_STATS = ("mean", "std", "min", "max", "last", "median")


def aggregate_continuous(series, stats=CONTINUOUS_STATS) -> dict:
    """Statistics of one customer's values for one continuous column.

    Missing entries are dropped first.  An empty series yields NaN for
    every stat; a single value yields NaN for std (sample deviation
    needs two observations).  ``last`` is the latest surviving value.
    """
    x = np.asarray(series, dtype=np.float64)
    x = x[~np.isnan(x)]
    out: dict = {}
    n = x.size
    for stat in stats:
        if n == 0:
            out[stat] = math.nan
        elif stat == "mean":
            out[stat] = float(x.mean())
        elif stat == "std":
            out[stat] = float(x.std(ddof=1)) if n > 1 else math.nan
        elif stat == "min":
            out[stat] = float(x.min())
        elif stat == "max":
            out[stat] = float(x.max())
        elif stat == "last":
            out[stat] = float(x[-1])
        elif stat == "median":
            out[stat] = float(np.median(x))
        else:
            raise ValueError(f"unknown continuous stat {stat!r}")
    return out


def aggregate_categorical(series, missing_code=-1) -> dict:
    """count / last / nunique of one customer's categorical codes.

    The missing sentinel never counts; ``last`` is the latest real code
    (NaN when the customer has none).
    """
    codes = np.asarray(series, dtype=np.int64)
    real = codes[codes != missing_code]
    return {
        "count": float(real.size),
        "last": float(real[-1]) if real.size else math.nan,
        "nunique": float(np.unique(real).size),
    }


def build_matrix_by_customer(table, spec, vocab=None):
    """``features.build_matrix`` computed one customer and one column at a time.

    Calls the two helpers above once per customer x raw column and
    otherwise follows the package (window, column order, encoding), so
    its matrix must equal the package's byte for byte.
    """
    if spec.recent_window is not None:
        table = features.select_recent_window(table, spec.recent_window)
    cont, cat = features._feature_columns(table, spec)

    customers = table.customers()
    bounds = np.concatenate((table.row_starts(), [table.n_rows]))
    cont_stats = list(spec.continuous_stats)
    need = set(cont_stats) | ({"last", "mean"} if spec.lag_enabled else set())
    cat_stats = list(spec.categorical_stats)
    if spec.encode == "ordinal" and "last" not in cat_stats:
        cat_stats.append("last")

    names: list[str] = []
    for raw in cont:
        names.extend(f"{raw}_{stat}" for stat in cont_stats)
        if spec.lag_enabled:
            names.append(f"{raw}_lag")
    for raw in cat:
        names.extend(f"{raw}_{stat}" for stat in cat_stats)

    n = customers.size
    base = np.empty((n, len(names)), dtype=np.float64)
    last_codes = {raw: np.empty(n, dtype=np.int64) for raw in cat}
    for i in range(n):
        lo, hi = bounds[i], bounds[i + 1]
        row: list[float] = []
        for raw in cont:
            stats = aggregate_continuous(table.columns[raw][lo:hi], tuple(need))
            row.extend(stats[s] for s in cont_stats)
            if spec.lag_enabled:
                row.append(float(np.float32(stats["last"]) - np.float32(stats["mean"])))
        for raw in cat:
            stats = aggregate_categorical(table.columns[raw][lo:hi])
            row.extend(stats[s] for s in cat_stats)
            last_codes[raw][i] = -1 if math.isnan(stats["last"]) else int(stats["last"])
        base[i] = row

    blocks = [base]
    if spec.encode == "one-hot" and cat:
        if vocab is None:
            vocab = features.fit_vocabulary(last_codes)
        enc_names, enc_cols = features.encode_categorical(last_codes, vocab)
        names.extend(enc_names)
        if enc_cols:
            blocks.append(np.column_stack(enc_cols))
    values = np.concatenate(blocks, axis=1).astype(np.float32)
    return features.FeatureMatrix(customers, names, values), vocab


def ulp32_close(a, b):
    """True when two values agree within one float32 unit in the last place."""
    a32 = np.float32(a)
    b32 = np.float32(b)
    if np.isnan(a32) and np.isnan(b32):
        return True
    if np.isnan(a32) != np.isnan(b32):
        return False
    if a32 == b32:
        return True
    tol = np.spacing(np.float32(max(abs(float(a32)), abs(float(b32)))))
    return abs(float(a32) - float(b32)) <= float(tol)


def weight_compositions(ticks, parts):
    """All ways to split ``ticks`` integer units across ``parts`` slots."""
    if parts == 1:
        yield (ticks,)
        return
    for cut in combinations(range(ticks + parts - 1), parts - 1):
        prev = -1
        out = []
        for c in cut:
            out.append(c - prev - 1)
            prev = c
        out.append(ticks + parts - 2 - prev)
        yield tuple(out)


def exhaustive_blend_best_m(vectors, labels, step):
    """Best composite score over the full weight lattice, by brute force.

    Evaluates every grid point on the simplex at resolution ``step``
    using the independent metric oracles; returns the best score found.
    """
    ticks = round(1.0 / step)
    stacked = [np.asarray(v, dtype=np.float64) for v in vectors]
    best = -math.inf
    for comp in weight_compositions(ticks, len(stacked)):
        w = [c / ticks for c in comp]
        blended = sum(wi * vi for wi, vi in zip(w, stacked))
        m = composite_m(labels, blended)
        if m > best:
            best = m
    return best


def two_loop_optimize_weights(predictions, labels, step=0.01, member_names=None):
    """The weight search with one scoring loop per search: a block loop
    over the lattice for up to three members, and a scoring closure for
    the single-step ascent beyond that.  Returns (EnsembleSpec, best M)."""
    stacked = blend._stacked(predictions)
    m = stacked.shape[0]
    if m < 2:
        raise ConfigError("weight search needs at least two members")
    ticks = blend.lattice_ticks(step)
    names = tuple(member_names) if member_names else tuple(f"member_{i}" for i in range(m))
    if len(names) != m:
        raise ConfigError(f"{len(names)} member names for {m} members")
    blend._check_unique(names)
    prepared = Labels(labels)

    def score(int_weights) -> float:
        w = np.asarray(int_weights, dtype=np.float64) / ticks
        return blend.composite_metric(prepared, w @ stacked).M

    best_w, best_m = None, -np.inf
    if m <= 3:
        for _, block in groupby(blend._lattice(ticks, m), key=itemgetter(0)):
            block = list(block)
            for candidate, w in zip(block, np.array(block, dtype=np.float64) / ticks):
                value = blend.composite_metric(prepared, w @ stacked).M
                if value > best_m:
                    best_w, best_m = candidate, value
    else:
        for i in range(m):
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
    return blend.EnsembleSpec(names, tuple(w / ticks for w in best_w)), float(best_m)


def tree_walk_probability(model_doc, row):
    """Recursive walk of a serialized model document for one raw row.

    ``model_doc`` is the plain-dict serialization; ``row`` maps feature
    name -> raw value (NaN allowed).  Mirrors the stated routing rule:
    missing follows the recorded direction, otherwise value <= threshold
    goes left.
    """

    def walk(nodes, idx):
        node = nodes[idx]
        if "value" in node:
            return node["value"]
        x = row[node["feature"]]
        if isinstance(x, float) and math.isnan(x):
            nxt = node["left"] if node["missing_left"] else node["right"]
        elif x <= node["threshold"]:
            nxt = node["left"]
        else:
            nxt = node["right"]
        return walk(nodes, nxt)

    score = model_doc["base_score"]
    for tree in model_doc["trees"]:
        score += walk(tree["nodes"], 0)
    return 1.0 / (1.0 + math.exp(-score))


def quantile_bin_expectation(values, max_bins):
    """Expected bin edges by the direct quantile rule, independently.

    Edges are the i/max_bins quantiles (linear interpolation) over the
    finite values, deduplicated, with any edge at or beyond the column
    maximum dropped so the top bin stays reachable.
    """
    x = np.asarray([v for v in values if not math.isnan(float(v))], dtype=np.float64)
    if x.size == 0:
        return []
    qs = [i / max_bins for i in range(1, max_bins)]
    edges = sorted(set(float(np.quantile(x, q)) for q in qs))
    top = float(x.max())
    return [e for e in edges if e < top]


def build_bins_by_quantile(matrix, max_bins=255):
    """``gbdt.build_bins`` by one ``np.quantile`` call per column.

    The column's non-missing values, with -0.0 read as +0.0, give the
    i/max_bins quantiles, which are deduplicated; edges at or above the
    column maximum are dropped, and a constant or all-missing column
    gets no edges.
    """
    if matrix.n_rows == 0 or matrix.n_cols == 0:
        raise DataError("cannot bin an empty matrix")
    if not 2 <= max_bins <= 255:
        raise ConfigError(f"max_bins must be in 2..255, got {max_bins}")
    qs = np.arange(1, max_bins) / max_bins
    edges = []
    for c in range(matrix.n_cols):
        x = matrix.values[:, c].astype(np.float64) + 0.0
        x = x[~np.isnan(x)]
        if x.size == 0 or x.min() == x.max():
            edges.append(np.empty(0, dtype=np.float64))
            continue
        e = np.unique(np.quantile(x, qs))
        edges.append(e[e < x.max()])
    return BinMapper(list(matrix.column_names), edges)


def scan_best_split(binned, real_bins, g, h, rows, g_total, h_total, l2_lambda, min_child_weight):
    """Best split of one leaf by the column-at-a-time scan.

    ``real_bins[c]`` is column c's real bin count; its missing bin is the
    next index.  Columns go in order, missing-left before missing-right,
    and a later candidate wins only with a strictly greater gain, which
    must exceed 0.  Returns (feature_idx, split_bin, missing_left, gain)
    or None.
    """
    best_gain = 0.0
    best = None
    parent = g_total * g_total / (h_total + l2_lambda)
    for c in range(len(real_bins)):
        r = real_bins[c]
        if r < 2:
            continue
        bins = binned[rows, c]
        hg = np.bincount(bins, weights=g[rows], minlength=r + 1)
        hh = np.bincount(bins, weights=h[rows], minlength=r + 1)
        miss_g, miss_h = hg[r], hh[r]
        gl = np.cumsum(hg[:r])[: r - 1]
        hl = np.cumsum(hh[:r])[: r - 1]
        for missing_left in (True, False):
            if missing_left:
                GL, HL = gl + miss_g, hl + miss_h
            else:
                GL, HL = gl, hl
            GR, HR = g_total - GL, h_total - HL
            with np.errstate(invalid="ignore"):
                gain = 0.5 * (
                    GL * GL / (HL + l2_lambda)
                    + GR * GR / (HR + l2_lambda)
                    - parent
                )
            ok = (HL >= min_child_weight) & (HR >= min_child_weight)
            gain = np.where(ok, gain, -np.inf)
            b = int(np.argmax(gain))
            if gain[b] > best_gain:
                best_gain = float(gain[b])
                best = (c, b, missing_left, best_gain)
            if miss_h == 0.0:
                break  # no missing rows here: both directions identical
    return best


def write_csv_by_cell(table, path):
    """``ingest.write_csv`` by one ``_format_value`` call per cell, encoded
    by ``csv.writer`` (``write_csv_by_writer``), not by the package's writer."""
    data_cols = []
    for col in table.schema:
        if col.kind == "identifier":
            data_cols.append(table.customer_ids)
        else:
            data_cols.append(table.columns[col.name])

    def rows():
        for i in range(table.n_rows):
            row = []
            for col, arr in zip(table.schema, data_cols):
                row.append(arr[i] if col.kind == "identifier" else _format_value(col, arr[i]))
            yield row

    write_csv_by_writer(path, [c.name for c in table.schema], rows())


def write_csv_by_writer(path, header, rows):
    """``header`` then ``rows`` by ``csv.writer``, one row at a time, each
    row ending in ``\n``.  Each row is written with a ``\r\n`` terminator,
    which is then swapped for ``\n``: that way ``csv.writer`` quotes a cell
    holding ``\r`` as well as one holding ``,``, ``"`` or ``\n``."""
    lines = []
    for row in [header, *rows]:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerow(row)
        lines.append(buffer.getvalue()[:-2] + "\n")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(lines))


def read_csv_by_reader(path):
    """(header, data rows) of a CSV by ``csv.reader`` over the open file."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if header is None:
        raise DataError(f"{path}: no header row")
    return header, rows


class SearchEveryLeafGrower(_TreeGrower):
    """``gbdt._TreeGrower`` as it searched every leaf it made.

    Each new leaf gets a split search, also the children of the split
    that fills the tree and leaves of fewer than 2 rows, and the
    missing-right gains are scored for every candidate before those of
    columns without missing rows are set to -inf.
    """

    def grow(self, rows: np.ndarray) -> list[Node]:
        heap: list = []
        self._push(heap, self._new_leaf(rows))
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
            node.left = self._push(heap, self._new_leaf(left_rows))
            node.right = self._push(heap, self._new_leaf(right_rows))
            n_leaves += 1
        return self.nodes

    def _new_leaf(self, rows: np.ndarray):
        g_sum = float(self.g[rows].sum())
        h_sum = float(self.h[rows].sum())
        value = -g_sum / (h_sum + self.cfg.l2_lambda) * self.cfg.learning_rate
        node_id = len(self.nodes)
        self.nodes.append(Node(is_leaf=True, value=value))
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
        right = self._gains(gl, hl, g_total, h_total, parent)
        right[miss_h == 0.0] = -np.inf  # no missing rows: same split as missing-left
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
