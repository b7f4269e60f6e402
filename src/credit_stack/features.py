"""Per-customer feature engineering over statement series.

Each customer's 1..13 statements collapse into a single row: selected
statistics per continuous column, a lag column (last minus mean), count
/ last / distinct-count statistics per categorical column, and an
optional encoding of the final categorical codes.  Missing cells stay
missing (NaN) so the tree learner can route them natively.

The engineered matrix persists to a small binary container ("CSFM") so
repeated pipeline stages never re-parse CSVs.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    EmptyMatrixError,
    EmptySpecError,
    VocabularyMissingError,
)
from .ingest import MISSING_CODE, LabeledTable, StatementTable
from .serialize import ensure_parent, load_config_doc

CONTINUOUS_STATS = ("mean", "std", "min", "max", "last", "median")
CATEGORICAL_STATS = ("count", "last", "nunique")
ENCODINGS = ("ordinal", "one-hot")


@dataclass(frozen=True)
class AggregationSpec:
    """Which statistics to compute and how to treat categorical codes.

    ``columns`` optionally restricts aggregation to a subset of the raw
    feature columns (identifier and date columns are never aggregated).
    """

    continuous_stats: tuple = CONTINUOUS_STATS
    categorical_stats: tuple = CATEGORICAL_STATS
    lag_enabled: bool = True
    recent_window: int | None = None
    encode: str | None = None
    columns: tuple | None = None

    def __post_init__(self):
        for stat in self.continuous_stats:
            if stat not in CONTINUOUS_STATS:
                raise ConfigError(f"unknown continuous stat {stat!r}")
        for stat in self.categorical_stats:
            if stat not in CATEGORICAL_STATS:
                raise ConfigError(f"unknown categorical stat {stat!r}")
        if not self.continuous_stats and not self.categorical_stats and not self.lag_enabled:
            raise EmptySpecError("aggregation spec selects no statistics at all")
        if self.recent_window is not None and self.recent_window < 1:
            raise ConfigError(f"recent_window must be >= 1, got {self.recent_window}")
        if self.encode is not None and self.encode not in ENCODINGS:
            raise ConfigError(f"encode must be one of {ENCODINGS}, got {self.encode!r}")


def spec_from_json(source) -> AggregationSpec:
    """Load an AggregationSpec from a JSON file, string path, or dict."""
    doc = load_config_doc(source, "aggregation spec", AggregationSpec)
    for key in ("continuous_stats", "categorical_stats", "columns"):
        if doc.get(key) is not None:
            doc[key] = tuple(doc[key])
    return AggregationSpec(**doc)


@dataclass
class FeatureMatrix:
    """One engineered row per customer, dense float32, NaN = missing."""

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
            raise DataError("duplicate engineered column names")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.column_names.index(name)]


# ---------------------------------------------------------------------------
# single-series aggregation


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
            raise ConfigError(f"unknown continuous stat {stat!r}")
    return out


def aggregate_categorical(series) -> dict:
    """count / last / nunique of one customer's categorical codes.

    The missing sentinel never counts; ``last`` is the latest real code
    (NaN when the customer has none).
    """
    codes = np.asarray(series, dtype=np.int64)
    real = codes[codes != MISSING_CODE]
    return {
        "count": float(real.size),
        "last": float(real[-1]) if real.size else math.nan,
        "nunique": float(np.unique(real).size),
    }


def select_recent_window(table: StatementTable, k: int) -> StatementTable:
    """Keep only each customer's last ``k`` statements, re-indexed from 1."""
    if k < 1:
        raise ConfigError(f"recent window must be >= 1, got {k}")
    starts = table.row_starts()
    counts = np.diff(np.concatenate((starts, [table.n_rows])))
    dropped = np.maximum(counts - k, 0)
    keep = table.statement_index > np.repeat(dropped, counts)
    new_index = (table.statement_index - np.repeat(dropped, counts).astype(np.int32))[keep]
    return StatementTable(
        table.schema,
        table.customer_ids[keep],
        new_index,
        {name: arr[keep] for name, arr in table.columns.items()},
    )


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


def encode_categorical(last_codes: dict, mode: str, vocab: dict | None):
    """Turn per-customer final codes into model columns.

    ``last_codes`` maps column name to an int64 array (missing sentinel
    allowed).  Ordinal mode emits one ``<col>_code`` column; one-hot
    emits ``<col>_is_<v>`` indicators over the fitted vocabulary, with
    unseen or missing codes leaving every indicator at zero.  Returns
    (names, column arrays, vocabulary used).
    """
    if mode not in ENCODINGS:
        raise ConfigError(f"encode must be one of {ENCODINGS}, got {mode!r}")
    if mode == "one-hot" and vocab is None:
        raise VocabularyMissingError(
            "one-hot encoding needs a fitted code vocabulary; "
            "fit on training data first or pass the saved vocabulary"
        )
    names: list[str] = []
    cols: list[np.ndarray] = []
    for raw in last_codes:
        codes = last_codes[raw]
        if mode == "ordinal":
            values = codes.astype(np.float64)
            values[codes == MISSING_CODE] = np.nan
            names.append(f"{raw}_code")
            cols.append(values)
        else:
            for v in vocab.get(raw, ()):
                names.append(f"{raw}_is_{v}")
                cols.append((codes == v).astype(np.float64))
    return names, cols, vocab


def fit_vocabulary(last_codes: dict) -> dict:
    """Sorted observed code list per categorical column (missing excluded)."""
    return {
        raw: [int(v) for v in np.unique(codes[codes != MISSING_CODE])]
        for raw, codes in last_codes.items()
    }


def build_matrix(data, spec: AggregationSpec, *, vocab: dict | None = None,
                 fit_vocab: bool = True):
    """Collapse a statement table into one engineered row per customer.

    ``data`` may carry labels (LabeledTable) or not (StatementTable, the
    scoring path).  Column order is fixed: per continuous raw column in
    schema order, the selected stats in spec order then the lag column;
    per categorical raw column, the selected stats; finally the encoded
    columns.  Returns (matrix, labels-or-None, vocabulary-or-None); the
    vocabulary is fitted here when one-hot encoding is requested without
    one (and ``fit_vocab`` allows it).
    """
    if isinstance(data, LabeledTable):
        table, labels = data.table, data.target
    else:
        table, labels = data, None
    if table.n_rows == 0:
        raise EmptyMatrixError("statement table has no rows")
    if spec.recent_window is not None:
        table = select_recent_window(table, spec.recent_window)

    cont, cat = _feature_columns(table, spec)
    if not cont and not cat:
        raise EmptySpecError("no raw feature columns left to aggregate")

    customers = table.customers()
    starts = table.row_starts()
    bounds = np.concatenate((starts, [table.n_rows]))

    cont_stats = list(spec.continuous_stats)
    need = set(cont_stats) | ({"last", "mean"} if spec.lag_enabled else set())

    names: list[str] = []
    for raw in cont:
        names.extend(f"{raw}_{stat}" for stat in cont_stats)
        if spec.lag_enabled:
            names.append(f"{raw}_lag")
    for raw in cat:
        names.extend(f"{raw}_{stat}" for stat in spec.categorical_stats)

    n = customers.size
    base = np.empty((n, len(names)), dtype=np.float64)
    last_codes = {raw: np.empty(n, dtype=np.int64) for raw in cat}

    cont_arrays = [table.columns[raw] for raw in cont]
    cat_arrays = [table.columns[raw] for raw in cat]
    for i in range(n):
        lo, hi = bounds[i], bounds[i + 1]
        row: list[float] = []
        for raw, arr in zip(cont, cont_arrays):
            stats = aggregate_continuous(arr[lo:hi], tuple(need))
            row.extend(stats[s] for s in cont_stats)
            if spec.lag_enabled:
                # subtract at storage precision so the emitted lag column
                # equals the emitted last/mean columns' difference exactly
                row.append(float(np.float32(stats["last"]) - np.float32(stats["mean"])))
        for raw, arr in zip(cat, cat_arrays):
            stats = aggregate_categorical(arr[lo:hi])
            row.extend(stats[s] for s in spec.categorical_stats)
            last_codes[raw][i] = (
                int(stats["last"]) if not math.isnan(stats["last"]) else MISSING_CODE
            )
        base[i] = row

    blocks = [base]
    if spec.encode is not None and cat:
        used = vocab
        if spec.encode == "one-hot" and used is None and fit_vocab:
            used = fit_vocabulary(last_codes)
        enc_names, enc_cols, used = encode_categorical(last_codes, spec.encode, used)
        names.extend(enc_names)
        if enc_cols:
            blocks.append(np.column_stack(enc_cols))
        vocab = used

    values = np.concatenate(blocks, axis=1) if len(blocks) > 1 else base
    matrix = FeatureMatrix(customers, names, values.astype(np.float32))
    return matrix, labels, vocab


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
    with open(ensure_parent(path), "wb") as fh:
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
    """Read a matrix written by :func:`save_matrix`."""
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

    def take_strings(count: int) -> list[str]:
        nonlocal offset
        out = []
        for _ in range(count):
            if offset + 4 > len(blob):
                raise DataError(f"{path}: truncated container")
            (size,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            out.append(blob[offset : offset + size].decode("utf-8"))
            offset += size
        return out

    names = take_strings(n_cols)
    ids = np.asarray(take_strings(n_rows), dtype=object)
    expect = n_rows * n_cols * 4
    payload = blob[offset : offset + expect]
    if len(payload) != expect:
        raise DataError(f"{path}: payload truncated")
    values = np.frombuffer(payload, dtype="<f4").reshape(n_rows, n_cols).copy()
    return FeatureMatrix(ids, names, values)
