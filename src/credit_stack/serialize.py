"""Deterministic serialization helpers: the one place that reads and
writes the package's text files.

All run artifacts must be byte-identical across reruns, so JSON is
rendered by a small fixed writer: insertion-order keys, floats at 17
significant digits (lossless float64 round-trip), no locale influence.

I/O rules, shared by every CSV and JSON file the package touches:

* Decode: files are read as ``utf-8-sig``, so a leading byte-order mark
  is dropped and a file with one reads like the plain file.  CSVs are
  opened with ``newline=""``, so LF and CRLF rows read alike.
* Errors: a file that cannot be opened or decoded, or whose CSV or
  JSON syntax is broken (including a cell past the ``csv`` module's
  field size limit), raises one typed error naming the path:
  ``DataError`` for CSVs, and the caller's chosen ``ConfigError`` or
  ``DataError`` for JSON documents.  A CSV without a header row raises
  ``DataError``.  Per-customer files (labels, scores) are read by
  ``read_keyed_column``, which finds its columns by header name and
  checks row widths and repeated ids for every caller; each caller
  passes only the rule for its value cells.
* Encode: files are written as UTF-8; CSV rows end in a bare ``\n``
  and JSON documents end in one newline.  ``write_csv_columns`` quotes
  a cell that holds ``,``, ``"``, ``\r`` or ``\n`` (its ``"`` doubled), and
  the empty cell of a one-column file; every other cell is written as
  is.  That is ``csv.writer``'s minimal quoting, except that
  ``csv.writer`` with a ``\n`` line end leaves a lone ``\r`` unquoted,
  which a reader then takes for a line end.
* Write: every output file, text or binary, is opened by ``open_output``,
  which makes its directory with ``make_dir``, the one directory maker; a
  path that cannot be created or written raises
  ``ConfigError("cannot write <path>: ...")``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import MISSING, fields
from functools import cache
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError, DataError


def format_float(value: float) -> str:
    """Render a float with 17 significant digits as a JSON number."""
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"non-finite value not representable in JSON: {value!r}")
    text = format(float(value), ".17g")
    # ensure the token stays a float on re-parse
    if "e" not in text and "." not in text and "inf" not in text and "nan" not in text:
        text += ".0"
    return text


# a JSON string's escapes: quote, backslash and each code point below 0x20
_ESCAPES = str.maketrans(
    {'"': '\\"', "\\": "\\\\", **{chr(i): f"\\u{i:04x}" for i in range(0x20)}}
)


def dumps(obj) -> str:
    """Serialize dicts/lists/str/bool/None/int/float to stable JSON text."""
    pieces: list[str] = []
    _write(obj, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


def _write(obj, out: list[str], level: int) -> None:
    pad = "  " * (level + 1)
    close_pad = "  " * level
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(f'"{obj.translate(_ESCAPES)}"')
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {type(key)}")
            out.append(f'{pad}"{key.translate(_ESCAPES)}": ')
            _write(value, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(close_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad)
            _write(value, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(close_pad + "]")
    elif hasattr(obj, "item"):  # numpy scalars and similar
        _write(obj.item(), out, level)
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def make_dir(path: str | Path) -> Path:
    """Make directory ``path`` and its parents; an ``OSError`` raises ``ConfigError``."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return path


@contextmanager
def open_output(path: str | Path, mode: str = "w"):
    """Open ``path`` for writing (``"w"``: UTF-8 text, ``"wb"``: binary), making
    its directory first with ``make_dir``.  An ``OSError`` while opening or
    writing raises ``ConfigError`` naming the path."""
    path = Path(path)
    text = "b" not in mode
    make_dir(path.parent)
    try:
        with open(path, mode, encoding="utf-8" if text else None,
                  newline="" if text else None) as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def write_json(path: str | Path, obj) -> None:
    with open_output(path) as fh:
        fh.write(dumps(obj))


def read_json_doc(path: str | Path, what: str, error: type):
    """Parse the JSON document at ``path``.

    An unreadable, non-UTF-8 or malformed file raises ``error`` with a
    message naming ``what`` and the path.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def read_csv_rows(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """(header, data rows) of a CSV file, every cell a string."""
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


def read_keyed_column(path: str | Path, column: str, parse, verb: str) -> tuple[list[str], list]:
    """(ids, values) from the ``customer_id`` and ``column`` cells of a CSV.

    Both columns are found by header name; others are ignored.  ``parse``
    turns a value cell into its value, raising ``ValueError`` for a bad one.
    ``DataError`` naming the path: a missing column, no data rows, or,
    naming the row, a short row, a bad cell or an id on two rows
    (``rows 2 and 4 both {verb} customer 'C1'``).
    """
    header, rows = read_csv_rows(path)
    for name in ("customer_id", column):
        if name not in header:
            raise DataError(f"{path}: no {name!r} column in header {header}")
    at_id, at_value = header.index("customer_id"), header.index(column)
    width = max(at_id, at_value) + 1
    first_row: dict[str, int] = {}  # insertion order is the ids' order
    values = []
    for row, rec in enumerate(rows, start=2):
        if len(rec) < width:
            raise DataError(f"{path}: row {row} is incomplete")
        cid = rec[at_id]
        if cid in first_row:
            raise DataError(f"{path}: rows {first_row[cid]} and {row} both {verb} customer {cid!r}")
        first_row[cid] = row
        try:
            values.append(parse(rec[at_value]))
        except ValueError as exc:
            raise DataError(f"{path}: row {row}: {exc}") from None
    if not values:
        raise DataError(f"{path}: no {verb} rows")
    return list(first_row), values


def _needs_quotes(text: str) -> bool:
    return "," in text or '"' in text or "\r" in text or "\n" in text


def _csv_fields(column: Sequence[str]) -> Sequence[str]:
    """The cells of one column as CSV fields, a cell that needs quotes
    quoted with its ``"`` doubled; the column is searched once, joined."""
    if not _needs_quotes("".join(column)):
        return column
    return ['"' + cell.replace('"', '""') + '"' if _needs_quotes(cell) else cell
            for cell in column]


def write_csv_columns(path: str | Path, header: Sequence[str], columns) -> None:
    """Write ``header`` then one row per cell index of ``columns``, each an
    equally long sequence of ``str``, as one text in a single write."""
    lines = [",".join(_csv_fields(header)), *map(",".join, zip(*map(_csv_fields, columns)))]
    if len(header) == 1:  # a row of one empty cell is "", not a blank line
        lines = [line or '""' for line in lines]
    lines.append("")
    with open_output(path) as fh:
        fh.write("\n".join(lines))


def is_finite_number(value) -> bool:
    """A JSON number (never ``true``/``false``) within float64's finite range."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and (
        abs(value) <= sys.float_info.max  # false for NaN, ±inf and ints past float64
    )


# JSON values accepted for a config field, by its annotation
_FIELD_TYPES = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "float": (is_finite_number, "a finite number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "tuple[str, ...]": (
        lambda v: isinstance(v, (list, tuple)) and all(isinstance(s, str) for s in v),
        "a list of strings",
    ),
    "tuple[float, float]": (
        lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(is_finite_number, v)),
        "a [low, high] pair of finite numbers",
    ),
}
_type_hints = cache(get_type_hints)  # a nested config field's class, resolved once per class


def load_config_doc(source, config_class) -> dict:
    """``check_config_doc`` of a JSON file path (unreadable: ConfigError) or a parsed object."""
    if isinstance(source, (str, Path)):
        source = read_json_doc(source, config_class.config_name, ConfigError)
    return check_config_doc(source, config_class.config_name, config_class)


def check_config_doc(doc, what: str, config_class) -> dict:
    """The one place that decides whether a parsed config value fits its field.

    Returns a fresh dict of fields of the dataclass ``config_class``; range
    rules stay with it.  ConfigError, naming ``what``: a non-object (never
    read as a path), an unknown key, a missing key with no default, or a
    value unfit for its annotation: ``None`` only where allowed, an int or
    float never a bool, a float a finite float64, a list of names naming
    each once.  Lists come back as tuples (the bounds of a
    ``tuple[float, float]`` as floats).  A field annotated with a config
    class ``C`` or ``tuple[C, ...]`` takes a dict, checked as ``<what> '<key>'
    <C.config_name>`` (an element as ``<C.config_name> <i>``) and built into
    ``C``, or a ``C``, kept as it is: it was checked when built.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(config_class)}
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    doc = dict(doc)
    for f in fields(config_class):
        if f.name not in doc:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{what} is missing {f.name!r}")
            continue
        kind = f.type.removesuffix(" | None")
        value = doc[f.name]
        if kind not in _FIELD_TYPES:  # a config class C or tuple[C, ...]
            cls = _type_hints(config_class)[f.name]
            if get_origin(cls) is not tuple:
                doc[f.name] = _nested_config(value, f"{what} {f.name!r} {cls.config_name}", cls)
                continue
            cls = get_args(cls)[0]
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{what} key {f.name!r} must be a list of "
                                  f"{cls.config_name} objects, got {value!r}")
            doc[f.name] = tuple(_nested_config(item, f"{cls.config_name} {i}", cls)
                                for i, item in enumerate(value))
            continue
        if value is None and kind != f.type:
            continue
        valid, described = _FIELD_TYPES[kind]
        if not valid(value):
            raise ConfigError(f"{what} key {f.name!r} must be {described}, got {value!r}")
        if kind == "tuple[str, ...]" and len(set(value)) != len(value):
            twice = next(name for i, name in enumerate(value) if name in value[:i])
            raise ConfigError(f"{what} key {f.name!r} names {twice!r} more than once")
        if kind.startswith("tuple"):
            doc[f.name] = tuple(map(float, value) if "float" in kind else value)
    return doc


def _nested_config(value, what: str, cls):
    return value if isinstance(value, cls) else cls(**check_config_doc(value, what, cls))


def check_config_object(config) -> None:
    """``check_config_doc`` of a config object's own fields under its class's
    ``config_name``, kept as checked.

    Every config class runs this first in its ``__post_init__``, so an
    instance is checked once, when built, and trusted wherever it is
    nested.  The checked values are stored back on the (frozen) object, so
    one built in Python with a list or a nested config's dict holds what
    loading the same document gives: it hashes and equals the loaded object.
    """
    for key, value in check_config_doc(vars(config), config.config_name, type(config)).items():
        object.__setattr__(config, key, value)


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
