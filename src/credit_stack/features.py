"""Per-customer feature engineering over statement series.

Each customer's 1..13 statements collapse into a single row: selected
statistics per continuous column, a lag column (last minus mean), count
/ last / distinct-count statistics per categorical column, and an
optional encoding of the final categorical codes: ``ordinal`` is the
``last`` statistic itself (added when the spec does not select it),
``one-hot`` adds ``<col>_is_<v>`` indicators over a fitted vocabulary.
Missing cells stay missing (NaN) so the tree learner can route them
natively.

Aggregation is one grouped pass over whole arrays.  Every valid cell
(non-NaN value) of every continuous column the spec aggregates is
left-packed into one block, with one row per (column, customer) series
holding that customer's cells of that column in row order.  Series with
the same count k then form a dense group ``block[rows, :k]`` whatever
their column, and each statistic is the NumPy call a single customer's
series would get (``mean``, ``std(ddof=1)``, ``min``, ``max``, and
``np.median``'s own formula on sorted rows), taken along axis 1: one
call per count and statistic for all columns at once.  A row of exactly
k contiguous values is summed in the same order as the 1-D series, so
every float64 result has the same bits as the per-customer computation
(kept as the test oracle in ``tests/oracles.py``).  NaN padding with
``nan*`` reductions would regroup the pairwise sums and move those bits.
Categorical columns are packed one at a time the same way (real codes
only), and ``nunique`` counts value changes along each sorted row,
skipping the pad code.

The engineered matrix persists to a small binary container ("CSFM") so
repeated pipeline stages never re-parse CSVs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .ingest import MISSING_CODE, StatementTable
from .serialize import check_config_object, load_config_doc, open_output, read_json_doc

CONTINUOUS_STATS = ("mean", "std", "min", "max", "last", "median")
CATEGORICAL_STATS = ("count", "last", "nunique")
ENCODINGS = ("ordinal", "one-hot")


@dataclass(frozen=True)
class AggregationSpec:
    """Which statistics to compute and how to treat categorical codes.

    ``encode`` is ``None``, ``"ordinal"`` (each categorical column's
    ``last`` statistic, which ``build_matrix`` adds when
    ``categorical_stats`` omits it) or ``"one-hot"`` (``<col>_is_<v>``
    indicators).  ``columns`` optionally restricts aggregation to a
    subset of the raw feature columns (identifier and date columns are
    never aggregated).
    """

    config_name = "aggregation spec"
    continuous_stats: tuple[str, ...] = CONTINUOUS_STATS
    categorical_stats: tuple[str, ...] = CATEGORICAL_STATS
    lag_enabled: bool = True
    recent_window: int | None = None
    encode: str | None = None
    columns: tuple[str, ...] | None = None

    def __post_init__(self):
        check_config_object(self)
        for stat in self.continuous_stats:
            if stat not in CONTINUOUS_STATS:
                raise ConfigError(f"unknown continuous stat {stat!r}")
        for stat in self.categorical_stats:
            if stat not in CATEGORICAL_STATS:
                raise ConfigError(f"unknown categorical stat {stat!r}")
        if not self.continuous_stats and not self.categorical_stats and not self.lag_enabled:
            raise ConfigError("aggregation spec selects no statistics at all")
        if self.recent_window is not None and self.recent_window < 1:
            raise ConfigError(f"recent_window must be >= 1, got {self.recent_window}")
        if self.encode is not None and self.encode not in ENCODINGS:
            raise ConfigError(f"encode must be one of {ENCODINGS}, got {self.encode!r}")


def spec_from_json(source) -> AggregationSpec:
    """Load an AggregationSpec from a JSON file, string path, or dict."""
    return AggregationSpec(**load_config_doc(source, AggregationSpec))


@dataclass
class FeatureMatrix:
    """One engineered row per customer, dense float32, NaN = missing.

    A cell of ``+-inf`` is a ``DataError`` naming its column: no
    statistic of finite statements is infinite unless it overflowed
    float32, and the tree learner cannot bin it.
    """

    customer_ids: np.ndarray
    column_names: list[str]
    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2:
            raise DataError("feature values must be a 2-D array")
        if self.values.shape != (len(self.customer_ids), len(self.column_names)):
            raise DataError(
                f"feature shape {self.values.shape} does not match "
                f"{len(self.customer_ids)} ids x {len(self.column_names)} names"
            )
        if len(set(self.column_names)) != len(self.column_names):
            names = self.column_names
            twice = next(name for i, name in enumerate(names) if name in names[:i])
            raise DataError(f"duplicate engineered column names: {twice!r} appears more than once")
        infinite = np.isinf(self.values)
        if infinite.any():
            row, col = np.argwhere(infinite)[0]
            raise DataError(
                f"feature column {self.column_names[col]!r} is infinite for customer "
                f"{str(self.customer_ids[row])!r}"
            )

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.column_names.index(name)]


# ---------------------------------------------------------------------------
# statement window


def select_recent_window(table: StatementTable, k: int) -> StatementTable:
    """Keep only each customer's last ``k`` statements."""
    if k < 1:
        raise ConfigError(f"recent window must be >= 1, got {k}")
    counts = table.row_counts()
    return table.take(table.statement_index > np.repeat(counts - k, counts))


# ---------------------------------------------------------------------------
# matrix assembly


def _feature_columns(table: StatementTable, spec: AggregationSpec):
    cont = [c.name for c in table.schema if c.kind == "continuous"]
    cat = [c.name for c in table.schema if c.kind == "categorical"]
    if spec.columns is not None:
        wanted = set(spec.columns)
        known = set(cont) | set(cat)
        unknown = wanted - known
        if unknown:
            raise ConfigError(f"spec restricts to unknown columns: {sorted(unknown)}")
        cont = [c for c in cont if c in wanted]
        cat = [c for c in cat if c in wanted]
    return cont, cat


def encode_categorical(last_codes: dict, vocab: dict):
    """One-hot columns of per-customer final codes.

    ``last_codes`` maps column name to an int64 array (missing sentinel
    allowed).  Each column gets ``<col>_is_<v>`` indicators over
    ``vocab``, a fitted or loaded vocabulary (``build_matrix`` fits one
    when given none), with unseen or missing codes leaving every
    indicator at zero.  A vocabulary without an entry for one of the
    columns is a ``DataError`` naming it.  Returns (names, column
    arrays).
    """
    names: list[str] = []
    cols: list[np.ndarray] = []
    for raw, codes in last_codes.items():
        if raw not in vocab:
            raise DataError(f"one-hot vocabulary has no entry for column {raw!r}")
        for v in vocab[raw]:
            names.append(f"{raw}_is_{v}")
            cols.append((codes == v).astype(np.float64))
    return names, cols


def fit_vocabulary(last_codes: dict) -> dict:
    """Sorted observed code list per categorical column (missing excluded)."""
    return {
        raw: sorted(set(codes[codes != MISSING_CODE].tolist()))
        for raw, codes in last_codes.items()
    }


def load_vocabulary(path) -> dict:
    """Read a saved one-hot vocabulary: raw column name -> code list.

    A file that cannot be read or parsed, or that does not map names to
    lists of distinct non-negative integer codes, is a ``DataError``
    naming it.
    """
    doc = read_json_doc(path, "vocabulary", DataError)
    if not isinstance(doc, dict):
        raise DataError(f"vocabulary {path} must be a JSON object of code lists")
    for raw, codes in doc.items():
        if not isinstance(codes, list) or not all(
            isinstance(c, int) and not isinstance(c, bool) and c >= 0 for c in codes
        ):
            raise DataError(
                f"vocabulary {path}: {raw!r} must list non-negative integer codes, "
                f"got {codes!r}"
            )
        seen = set()
        for code in codes:
            if code in seen:
                raise DataError(f"vocabulary {path}: {raw!r} lists code {code} twice")
            seen.add(code)
    return doc


# ---------------------------------------------------------------------------
# grouped aggregation


def _slots(owner: np.ndarray) -> int:
    """Slots a block row needs: the most rows any customer has (at least 1)."""
    return max(int(np.bincount(owner).max(initial=0)), 1)


def _left_pack(owner: np.ndarray, values: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Write each customer's values side by side, in row order, from slot 0.

    ``owner`` gives the customer (block row) of every value and never
    decreases.  Slots past a customer's count keep the fill ``block``
    was made with.  Returns the count per customer.
    """
    count = np.bincount(owner, minlength=block.shape[0])
    first = np.cumsum(count) - count
    block[owner, np.arange(owner.size) - first[owner]] = values
    return count


def _row_median(group: np.ndarray) -> np.ndarray:
    """``np.median(group, axis=1)`` by its own formula on sorted rows.

    The middle value of an odd row, ``(a + b) / 2`` of the middle two of
    an even one: the same bits, without the ``numpy.ma`` import that
    ``np.median`` makes on first use.  ``np.median`` takes the mean of
    the middle values, a sum that starts from +0.0, so ``+ 0.0`` makes a
    -0.0 median +0.0 as it does.
    """
    ordered = np.sort(group, axis=1)
    mid = group.shape[1] // 2
    if group.shape[1] % 2:
        return ordered[:, mid] + 0.0
    return (ordered[:, mid - 1] + ordered[:, mid] + 0.0) / 2


# Statistics along axis 1 of a group of customers with exactly k valid
# values each; the module docstring says why they match the 1-D calls.
_ROW_STATS = {
    "mean": lambda group: group.mean(axis=1),
    "std": lambda group: group.std(axis=1, ddof=1) if group.shape[1] > 1 else np.nan,
    "min": lambda group: group.min(axis=1),
    "max": lambda group: group.max(axis=1),
    "last": lambda group: group[:, -1],
    "median": _row_median,
}


def _continuous_stats(columns, owner: np.ndarray, n: int, stats) -> dict:
    """``stats`` of each customer's non-NaN cells in each of ``columns``.

    Returns one float64 ``(len(columns), n)`` array per statistic, row j
    for ``columns[j]``.  Each column's valid cells are left-packed into
    its own slab of one block, so block row ``j * n + customer`` is one
    (column, customer) series.  Each statistic is then one call per
    series length over all columns.  The block is the only float64 copy
    of the cells; no column is widened whole.  A series with no valid
    cell gets NaN everywhere, and one with a single cell gets NaN for
    ``std`` (sample deviation needs two observations).  A sum past
    float64 range gives ``inf``, which ``FeatureMatrix`` reports as a
    DataError naming the column; so does a sum that overflows both ways,
    which NumPy leaves NaN.
    """
    size, slots = len(columns) * n, _slots(owner)
    block = np.zeros((len(columns), n, slots))
    count = np.empty((len(columns), n), dtype=np.intp)
    for j, column in enumerate(columns):
        valid = ~np.isnan(column)
        count[j] = _left_pack(owner[valid], column[valid], block[j])
    count, block = count.reshape(size), block.reshape(size, slots)
    out = {stat: np.full(size, np.nan) for stat in stats}
    with np.errstate(over="ignore", invalid="ignore"):
        for k in np.flatnonzero(np.bincount(count)[1:]) + 1:
            rows = np.flatnonzero(count == k)
            group = block[rows, :k]
            for stat in stats:
                out[stat][rows] = _ROW_STATS[stat](group)
    # over two or more non-NaN cells, a NaN mean or std can only come
    # from inf - inf: an overflow, not a missing value
    for stat in ("mean", "std"):
        if stat in out:
            out[stat][np.isnan(out[stat]) & (count > 1)] = np.inf
    return {stat: values.reshape(len(columns), n) for stat, values in out.items()}


def _categorical_stats(column: np.ndarray, owner: np.ndarray, n: int):
    """count, last real code (or MISSING_CODE) and distinct count per customer."""
    codes = np.asarray(column, dtype=np.int64)
    real = codes != MISSING_CODE
    block = np.full((n, _slots(owner)), MISSING_CODE, dtype=np.int64)
    count = _left_pack(owner[real], codes[real], block)
    last = block[np.arange(n), np.maximum(count - 1, 0)]
    # slot 0 of a customer without real codes holds the pad, MISSING_CODE
    ordered = np.sort(block, axis=1)
    first_seen = ordered != MISSING_CODE
    first_seen[:, 1:] &= ordered[:, 1:] != ordered[:, :-1]
    return count, last, first_seen.sum(axis=1)


def build_matrix(table: StatementTable, spec: AggregationSpec, vocab: dict | None = None):
    """Collapse a statement table into one engineered row per customer.

    Each customer's rows must be contiguous; the matrix rows follow
    ``table.customers()``, the order ``ingest.join_labels`` gives the
    labels in.  Column order is fixed: per continuous raw column in
    schema order, the selected stats in spec order then the lag column;
    per categorical raw column, the selected stats, followed by ``last``
    when an ordinal spec does not select it (the ordinal encoding is the
    last code, so it never adds a second copy); finally the one-hot
    columns.  Returns (matrix, vocabulary-or-None); one-hot encoding
    without a ``vocab`` fits one here, so a holdout or scoring table
    must be given the vocabulary fitted on its training table.  A spec
    that leaves no engineered column raises ConfigError, and a
    statistic past float32 range raises DataError.
    """
    if table.n_rows == 0:
        raise DataError("statement table has no rows")
    customers = table.customers()
    if len(set(customers.tolist())) != customers.size:
        ids, blocks = np.unique(customers, return_counts=True)
        raise DataError(
            f"customer {ids[blocks > 1][0]!r} has statement rows in more than one "
            "block; each customer's rows must be contiguous"
        )
    if spec.recent_window is not None:
        table = select_recent_window(table, spec.recent_window)

    cont, cat = _feature_columns(table, spec)

    n = customers.size
    owner = np.repeat(np.arange(n), table.row_counts())
    cont_stats = list(spec.continuous_stats)
    need = set(cont_stats) | ({"last", "mean"} if spec.lag_enabled else set())

    names: list[str] = []
    cols: list[np.ndarray] = []
    if cont:
        stats = _continuous_stats([table.columns[raw] for raw in cont], owner, n, need)
        if spec.lag_enabled:
            # subtract at storage precision so the emitted lag column
            # equals the emitted last/mean columns' difference exactly
            with np.errstate(over="ignore", invalid="ignore"):
                last, mean = stats["last"].astype(np.float32), stats["mean"].astype(np.float32)
                lag = last - mean
            # inf - inf would read as missing: keep the overflow infinite, so
            # FeatureMatrix names the column
            lag[np.isnan(lag) & np.isinf(last)] = np.inf
        for j, raw in enumerate(cont):
            names.extend(f"{raw}_{stat}" for stat in cont_stats)
            cols.extend(stats[stat][j] for stat in cont_stats)
            if spec.lag_enabled:
                names.append(f"{raw}_lag")
                cols.append(lag[j])
    cat_stats = list(spec.categorical_stats)
    if spec.encode == "ordinal" and "last" not in cat_stats:
        cat_stats.append("last")  # the ordinal encoding is the last code
    last_codes = {}
    for raw in cat:
        count, last, nunique = _categorical_stats(table.columns[raw], owner, n)
        stats = {
            "count": count.astype(np.float64),
            "last": np.where(count > 0, last, np.nan),
            "nunique": nunique.astype(np.float64),
        }
        names.extend(f"{raw}_{stat}" for stat in cat_stats)
        cols.extend(stats[stat] for stat in cat_stats)
        last_codes[raw] = last

    if spec.encode == "one-hot" and cat:
        if vocab is None:
            vocab = fit_vocabulary(last_codes)
        enc_names, enc_cols = encode_categorical(last_codes, vocab)
        names.extend(enc_names)
        cols.extend(enc_cols)

    if not names:
        raise ConfigError(
            f"aggregation spec yields no engineered columns from {cont + cat}"
        )
    with np.errstate(over="ignore"):  # FeatureMatrix names an infinite column
        values = np.column_stack(cols).astype(np.float32)
    return FeatureMatrix(customers, names, values), vocab


# ---------------------------------------------------------------------------
# binary container

_MAGIC = b"CSFM"
_VERSION = 1


def save_matrix(matrix: FeatureMatrix, path) -> None:
    """Write the matrix to the compact binary container.

    Layout: magic "CSFM", u32 version / rows / cols, length-prefixed
    UTF-8 column names, length-prefixed UTF-8 customer ids, then the
    row-major float32 payload.  Little-endian throughout.
    """
    with open_output(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", _VERSION, matrix.n_rows, matrix.n_cols))
        for name in matrix.column_names:
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
        for cid in matrix.customer_ids:
            raw = str(cid).encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
        fh.write(np.ascontiguousarray(matrix.values, dtype="<f4").tobytes())


def load_matrix(path) -> FeatureMatrix:
    """Read a matrix written by :func:`save_matrix`.

    A file that does not hold exactly such a container (wrong magic or
    version, a length running past the end, a name or id that is not
    UTF-8, a payload whose size disagrees with the header) raises
    ``DataError`` naming the path.
    """
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if len(blob) < 16 or blob[:4] != _MAGIC:
        raise DataError(f"{path}: not a feature-matrix container")
    version, n_rows, n_cols = struct.unpack_from("<III", blob, 4)
    if version != _VERSION:
        raise DataError(f"{path}: unsupported container version {version}")
    offset = 16

    def take_strings(count: int, what: str) -> list[str]:
        nonlocal offset
        out = []
        for i in range(count):
            if offset + 4 > len(blob):
                raise DataError(f"{path}: truncated container")
            (size,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            if offset + size > len(blob):
                raise DataError(f"{path}: truncated container")
            try:
                out.append(blob[offset : offset + size].decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}: {what} {i} is not UTF-8: {exc}") from None
            offset += size
        return out

    names = take_strings(n_cols, "column name")
    ids = np.asarray(take_strings(n_rows, "customer id"), dtype=object)
    expect = n_rows * n_cols * 4
    payload = blob[offset:]
    if len(payload) != expect:
        raise DataError(
            f"{path}: payload holds {len(payload)} bytes, header says {expect}"
        )
    values = np.frombuffer(payload, dtype="<f4").reshape(n_rows, n_cols).copy()
    return FeatureMatrix(ids, names, values)
