"""Statement-level CSV ingestion and cleaning.

Raw input is one CSV row per (customer, monthly statement).  The module
parses it against an explicit column schema, cleans it (``clean``:
strip injected noise by rounding, compact storage widths, mask
configured outlier ranges to missing), and aligns per-customer labels
with the table's customers.  All steps are deterministic: the same
file and schema always produce a bit-identical table.

Missing markers: quiet NaN for continuous cells, code -1 for
categorical cells, ordinal -1 for dates.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from datetime import date as _date
from functools import cached_property
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ConfigError, DataError
from .serialize import check_config_doc, read_csv_rows, read_json_doc, read_keyed_column
from .serialize import write_csv_columns, write_json

log = logging.getLogger(__name__)

MISSING_CODE = -1
MAX_STATEMENTS = 13

_KINDS = ("continuous", "categorical", "identifier", "date")
_STORAGES = ("int8", "int16", "float32")
_STORAGE_DTYPES = {"int8": np.int8, "int16": np.int16, "float32": np.float32}


@dataclass(frozen=True)
class ColumnSchema:
    """Declared name, kind, storage width and valid range of one column."""

    name: str
    kind: str
    storage: str = "float32"
    valid_range: tuple[float, float] | None = None


@dataclass
class StatementTable:
    """Columnar statement records, contiguous per customer.

    Rows are grouped by customer in first-appearance order and sorted by
    statement date within each customer.  ``columns`` maps each
    non-identifier schema name to a per-row array (dates stored as
    proleptic ordinals).  Tables are never mutated in place (every step
    returns a new table), so the customers' row blocks are found once, on
    first use, and kept read-only.
    """

    schema: list[ColumnSchema]
    customer_ids: np.ndarray
    columns: dict[str, np.ndarray]

    @property
    def n_rows(self) -> int:
        return int(self.customer_ids.size)

    @property
    def statement_index(self) -> np.ndarray:
        """Each row's 1-based position in its customer's row block."""
        return np.arange(self.n_rows) - np.repeat(self.row_starts(), self.row_counts()) + 1

    def take(self, rows) -> StatementTable:
        """The table of the rows ``rows`` selects (a mask or an index array)."""
        columns = {name: arr[rows] for name, arr in self.columns.items()}
        return StatementTable(self.schema, self.customer_ids[rows], columns)

    def customers(self) -> np.ndarray:
        """Unique customer ids in first-appearance order."""
        return self.customer_ids[self.row_starts()]

    @cached_property
    def _row_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        ids = self.customer_ids
        if ids.size == 0:
            starts = np.empty(0, dtype=np.intp)
        else:
            starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
        counts = np.diff(np.append(starts, self.n_rows))
        starts.flags.writeable = counts.flags.writeable = False
        return starts, counts

    def row_starts(self) -> np.ndarray:
        """Start offsets of each customer's contiguous row block."""
        return self._row_blocks[0]

    def row_counts(self) -> np.ndarray:
        """Number of rows in each customer's contiguous row block."""
        return self._row_blocks[1]


# ---------------------------------------------------------------------------
# schema handling


def load_schema(source) -> list[ColumnSchema]:
    """Build a column schema from a JSON document, path, or parsed list."""
    if isinstance(source, (str, Path)):
        doc = read_json_doc(source, "schema", ConfigError)
    else:
        doc = source
    if not isinstance(doc, list) or not doc:
        raise ConfigError("schema must be a non-empty JSON array of column objects")

    schema: list[ColumnSchema] = []
    for i, entry in enumerate(doc):
        entry = check_config_doc(entry, f"schema entry {i}", ColumnSchema)
        name, kind = entry["name"], entry["kind"]
        if kind not in _KINDS:
            raise ConfigError(f"unknown column kind {kind!r} for {name!r}")
        entry.setdefault("storage", "int8" if kind == "categorical" else "float32")
        if entry["storage"] not in _STORAGES:
            raise ConfigError(f"unknown storage {entry['storage']!r} for {name!r}")
        rng = entry.get("valid_range")
        if rng is not None and kind != "continuous":
            raise ConfigError(f"valid_range of {name!r} needs a continuous column")
        if rng is not None and rng[0] > rng[1]:
            raise ConfigError(f"valid_range low > high for {name!r}")
        schema.append(ColumnSchema(**entry))

    names = [c.name for c in schema]
    if len(set(names)) != len(names):
        raise ConfigError("duplicate column names in schema")
    n_id = sum(c.kind == "identifier" for c in schema)
    if n_id != 1:
        raise ConfigError(f"schema must declare exactly one identifier column, found {n_id}")
    if sum(c.kind == "date" for c in schema) > 1:
        raise ConfigError("schema may declare at most one date column")
    return schema


def schema_to_json(schema: list[ColumnSchema]) -> list[dict]:
    out = []
    for col in schema:
        entry: dict = {"name": col.name, "kind": col.kind, "storage": col.storage}
        if col.valid_range is not None:
            entry["valid_range"] = [col.valid_range[0], col.valid_range[1]]
        out.append(entry)
    return out


def _id_column(schema: list[ColumnSchema]) -> ColumnSchema:
    return next(c for c in schema if c.kind == "identifier")


def _date_column(schema: list[ColumnSchema]) -> ColumnSchema | None:
    return next((c for c in schema if c.kind == "date"), None)


# ---------------------------------------------------------------------------
# parsing


def _parse_float(cell: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        return math.nan
    return value if math.isfinite(value) else math.nan


def _parse_code(cell: str) -> int:
    try:
        code = int(cell)
    except ValueError:
        return MISSING_CODE
    return code if code >= 0 else MISSING_CODE


def _code_overflow(name: str, code: int) -> DataError:
    return DataError(f"column {name!r}: code {code} exceeds 16-bit storage")


def _float_column(cells) -> np.ndarray:
    """``_parse_float`` of every cell, with one ``float()`` pass over the
    column; only a column holding a cell ``float()`` rejects is parsed
    cell by cell."""
    try:
        values = np.fromiter(map(float, [c or "nan" for c in cells]), np.float64, len(cells))
    except ValueError:
        return np.array([_parse_float(c) for c in cells], dtype=np.float64)
    values[~np.isfinite(values)] = math.nan
    return values


def _parse_ordinal(cell: str) -> int:
    try:
        return _date.fromisoformat(cell.strip()).toordinal()
    except ValueError:
        return MISSING_CODE


def _int_column(col: ColumnSchema, cells) -> np.ndarray:
    """``_parse_code`` (categorical) or ``_parse_ordinal`` (date) of every
    cell as int64, each distinct cell parsed once.  A code past int64 is
    a ``DataError`` naming the column."""
    parse = _parse_code if col.kind == "categorical" else _parse_ordinal
    value_of = {cell: parse(cell) for cell in set(cells)}
    top = max(value_of.values())  # an ordinal never is past int64
    if top > np.iinfo(np.int64).max:
        raise _code_overflow(col.name, top)
    return np.fromiter(map(value_of.__getitem__, cells), np.int64, len(cells))


def parse_csv(path, schema: list[ColumnSchema]) -> StatementTable:
    """Read a raw statement CSV into a sorted table.

    The header must carry exactly the schema's column names (any order).
    Unparseable or empty cells become the missing marker.  Rows are
    re-ordered by (customer first appearance, date ascending).

    The rows are transposed once.  Categorical and date cells are
    converted by ``_int_column``: ``_parse_code`` / ``_parse_ordinal``,
    the one definition of a cell, runs once per distinct cell, and a
    code past int64 is a ``DataError`` naming the column.
    Continuous columns keep one ``float()`` pass (``_float_column``),
    which gives ``_parse_float``'s bits and is their floor: sending every
    continuous cell through ``_parse_float`` was measured 15% slower.
    """
    header, records = read_csv_rows(path)
    if not records:
        raise DataError(f"{path}: no data rows")

    want = [c.name for c in schema]
    if sorted(header) != sorted(want):
        missing = sorted(set(want) - set(header))
        extra = sorted(set(header) - set(want))
        raise DataError(
            f"{path}: header does not match schema"
            + (f"; missing {missing}" if missing else "")
            + (f"; unexpected {extra}" if extra else "")
        )
    width = len(header)
    for i, rec in enumerate(records):
        if len(rec) != width:
            raise DataError(f"{path}: row {i + 2} has {len(rec)} cells, expected {width}")

    cells = dict(zip(header, zip(*records)))

    id_col = _id_column(schema)
    ids = cells[id_col.name]
    if "" in ids:
        raise DataError(f"{path}: empty customer identifier at row {ids.index('') + 2}")
    # first-appearance rank per customer, then date, fixes the row order
    rank_of = {cid: r for r, cid in enumerate(dict.fromkeys(ids))}
    ranks = np.fromiter(map(rank_of.__getitem__, ids), np.int64, len(ids))
    ids = np.asarray(ids, dtype=object)

    columns: dict[str, np.ndarray] = {}
    for col in schema:
        if col.kind == "continuous":
            columns[col.name] = _float_column(cells[col.name])
        elif col.kind != "identifier":
            columns[col.name] = _int_column(col, cells[col.name])

    date_col = _date_column(schema)
    date_key = columns[date_col.name] if date_col else np.arange(ids.size, dtype=np.int64)
    order = np.lexsort((date_key, ranks))

    ids = ids[order]
    ranks = ranks[order]
    columns = {name: arr[order] for name, arr in columns.items()}

    if date_col is not None:
        dates = columns[date_col.name]
        dup = (ranks[1:] == ranks[:-1]) & (dates[1:] == dates[:-1])
        if dup.any():
            i = int(np.flatnonzero(dup)[0]) + 1
            when = "<missing>" if dates[i] < 0 else _date.fromordinal(int(dates[i])).isoformat()
            raise DataError(
                f"customer {ids[i]!r} has two statements dated {when}"
            )

    table = StatementTable(list(schema), ids, columns)
    counts = table.row_counts()
    if counts.max() > MAX_STATEMENTS:
        worst = int(np.argmax(counts))
        raise DataError(
            f"customer {table.customers()[worst]!r} has {counts[worst]} statements,"
            f" limit is {MAX_STATEMENTS}"
        )
    return table


# ---------------------------------------------------------------------------
# cleaning


def _reject_overflow(table: StatementTable, col: ColumnSchema, values, result, problem: str):
    """DataError naming the first cell finite in ``values`` but not in ``result``."""
    overflow = np.isinf(result) & np.isfinite(values)
    if overflow.any():
        i = int(np.flatnonzero(overflow)[0])
        raise DataError(
            f"column {col.name!r}: value {float(values[i])!r} of customer "
            f"{table.customer_ids[i]!r} {problem}"
        )


def compact_types(table: StatementTable) -> StatementTable:
    """Narrow column storage: float32 values, int8/int16 codes.

    Categorical columns get the narrowest signed integer width that
    holds their largest observed code (the -1 missing sentinel always
    fits), promoting past the schema hint when necessary.  A continuous
    value too large for float32 is an error, not an infinity.  The
    returned table carries the updated schema.
    """
    new_schema: list[ColumnSchema] = []
    columns = dict(table.columns)
    for col in table.schema:
        if col.kind == "continuous":
            values = columns[col.name]
            with np.errstate(over="ignore"):  # reported below
                narrow = values.astype(np.float32)
            _reject_overflow(table, col, values, narrow, "exceeds float32 storage")
            columns[col.name] = narrow
            new_schema.append(replace(col, storage="float32"))
        elif col.kind == "categorical":
            codes = columns[col.name]
            top = int(codes.max()) if codes.size else 0
            if top <= np.iinfo(np.int8).max:
                storage = "int8"
            elif top <= np.iinfo(np.int16).max:
                storage = "int16"
            else:
                raise _code_overflow(col.name, top)
            columns[col.name] = codes.astype(_STORAGE_DTYPES[storage])
            new_schema.append(replace(col, storage=storage))
        else:
            new_schema.append(col)
    return StatementTable(new_schema, table.customer_ids, columns)


def snap_to_grid(x: np.ndarray, precision: float) -> np.ndarray:
    """Nearest multiple of ``precision``, exact halves away from zero.

    A value that rounds to zero comes out as +0.0, whatever its sign;
    NaN stays NaN.
    """
    return np.sign(x) * np.floor(np.abs(x) / precision + 0.5) * precision + 0.0


def denoise_round(table: StatementTable, precision: float = 0.01) -> StatementTable:
    """Snap continuous values to the nearest multiple of ``precision``.

    Exact halves round away from zero, and a value that rounds to zero
    is stored (and written) as +0.0, never -0.0.  Missing cells and
    non-continuous columns pass through untouched; applying the same
    precision twice is an identity.  Overflow is a DataError.
    """
    if not (precision > 0 and math.isfinite(precision)):
        raise ConfigError(f"precision must be finite and > 0, got {precision}")
    columns = dict(table.columns)
    for col in table.schema:
        if col.kind != "continuous":
            continue
        values = columns[col.name]
        with np.errstate(over="ignore"):  # reported below
            snapped = snap_to_grid(values.astype(np.float64), precision)
        _reject_overflow(table, col, values, snapped, f"has no finite multiple of {precision}")
        columns[col.name] = snapped.astype(values.dtype)
    return StatementTable(table.schema, table.customer_ids, columns)


def mask_outliers(table: StatementTable) -> tuple[StatementTable, dict[str, int]]:
    """Blank continuous cells outside their column's inclusive valid range.

    Returns the masked table and a per-column count of cells blanked.
    Columns without a configured range are untouched.
    """
    columns = dict(table.columns)
    masked: dict[str, int] = {}
    for col in table.schema:
        if col.kind != "continuous" or col.valid_range is None:
            continue
        low, high = col.valid_range
        values = columns[col.name].copy()
        bad = (values < low) | (values > high)  # NaN compares false: stays missing
        masked[col.name] = int(np.count_nonzero(bad))
        values[bad] = np.nan
        columns[col.name] = values
    return StatementTable(table.schema, table.customer_ids, columns), masked


def clean(table: StatementTable, precision: float) -> tuple[StatementTable, dict[str, int]]:
    """Denoise, then compact, then mask: the one cleaning sequence.

    Rounding comes first because a tie needs the full parsed precision;
    a float32 value can sit a hair below the tie point.  Masking comes
    last, so each valid range is checked against the float32 value that
    is stored and written.  Each column with masked cells gets one INFO
    record, ``masked <n> outlier cells in <column>``; so ``prep`` and
    ``run`` log alike.  Returns the cleaned table and the per-column count
    of cells masked.
    """
    table, masked = mask_outliers(compact_types(denoise_round(table, precision)))
    for column, count in masked.items():
        if count:
            log.info("masked %d outlier cells in %s", count, column)
    return table, masked


def check_labels(labels) -> np.ndarray:
    """The one 0/1 label rule: ``labels`` as a flat float64 array.

    It runs before any cast, so NaN, 0.5 and 2 are all a ``DataError``
    (``labels must be 0 or 1, found 2.0``) rather than an int.
    """
    y = np.asarray(labels, dtype=np.float64).ravel()
    bad = (y != 0.0) & (y != 1.0)  # NaN fails both comparisons, so it is bad too
    if bad.any():
        raise DataError(f"labels must be 0 or 1, found {float(y[bad][0])}")
    return y


def align_values(ids, keyed: Mapping, what: str) -> list:
    """``keyed[cid]`` for every id of ``ids``, in that order.

    The first id with no entry is a ``DataError`` naming it
    (``no {what} for customer 'C1'``); entries for other ids are ignored.
    """
    try:
        return [keyed[cid] for cid in ids]
    except KeyError as exc:
        raise DataError(f"no {what} for customer {str(exc.args[0])!r}") from None


def align_labels(customer_ids, labels: Mapping[str, int]) -> np.ndarray:
    """int8 labels in ``customer_ids`` order, looked up in ``labels``
    by ``align_values`` and held to ``check_labels``."""
    return check_labels(align_values(customer_ids, labels, "label")).astype(np.int8)


def join_labels(table: StatementTable, labels: Mapping[str, int]) -> np.ndarray:
    """int8 label of every customer, in ``table.customers()`` order.

    This is the order of the rows ``features.build_matrix`` makes from
    the table.  A customer without a label is an error; labels for
    unknown customers are ignored (their count is logged).
    """
    customers = table.customers()
    target = align_labels(customers, labels)
    extras = len(labels) - customers.size
    if extras > 0:
        log.warning("ignoring %d labels for customers absent from the table", extras)
    return target


# ---------------------------------------------------------------------------
# CSV round-trips


def _format_value(col: ColumnSchema, value) -> str:
    if col.kind == "continuous":
        if math.isnan(value):
            return ""
        return np.format_float_positional(value, unique=True, trim="0")
    if col.kind == "categorical":
        return "" if value == MISSING_CODE else str(int(value))
    # date
    return "" if value < 0 else _date.fromordinal(int(value)).isoformat()


def write_csv(table: StatementTable, path) -> None:
    """Write the table back out in the schema's column order.

    Each column formats every distinct value once and then gathers the
    texts per row.  Values are told apart by their bits (a float column
    is viewed as unsigned integers), so ``-0.0``, ``0.0`` and each NaN
    payload get their own text, and the bytes are the same as formatting
    cell by cell.
    """
    texts = []
    for col in table.schema:
        if col.kind == "identifier":
            texts.append(table.customer_ids.tolist())
            continue
        values = table.columns[col.name]
        bits = values.view(f"u{values.itemsize}") if values.dtype.kind == "f" else values
        _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
        distinct = np.array([_format_value(col, values[i]) for i in first], dtype=object)
        texts.append(distinct[inverse].tolist())

    write_csv_columns(path, [c.name for c in table.schema], texts)


def _sidecar(path) -> Path:
    return Path(f"{path}.schema.json")


def write_clean(table: StatementTable, path) -> tuple[Path, Path]:
    """Write the CSV ``path`` and its schema sidecar; returns both paths."""
    sidecar = _sidecar(path)
    write_csv(table, path)
    write_json(sidecar, schema_to_json(table.schema))
    return Path(path), sidecar


def read_clean(path) -> StatementTable:
    """The table ``write_clean`` wrote to ``path``, parsed by its sidecar schema.

    The values come back at the cleaned table's storage (``compact_types``),
    so a matrix built from them has the bits of one built in memory; a
    value too large for float32 is a ``DataError``.
    """
    sidecar = _sidecar(path)
    if not sidecar.exists():
        raise DataError(f"schema sidecar {sidecar} not found; run prep first")
    return compact_types(parse_csv(path, load_schema(sidecar)))


def read_labels(path) -> dict[str, int]:
    """Load the ``customer_id`` and ``target`` columns of a CSV into a mapping.

    Read by ``serialize.read_keyed_column``; the labels must pass
    ``check_labels``."""
    ids, values = read_keyed_column(path, "target", int, "label")
    try:
        check_labels(values)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    return dict(zip(ids, values))


def write_labels(labels: Mapping[str, int], path) -> None:
    """Write a (customer_id, target) CSV in the mapping's order."""
    write_csv_columns(
        path,
        ["customer_id", "target"],
        [list(map(str, labels)), [str(int(value)) for value in labels.values()]],
    )
