"""Deterministic serialization helpers.

All run artifacts must be byte-identical across reruns, so JSON is
rendered by a small fixed writer: insertion-order keys, floats at 17
significant digits (lossless float64 round-trip), no locale influence.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields
from pathlib import Path

from .errors import ConfigError


def format_float(value: float) -> str:
    """Render a float with 17 significant digits as a JSON number."""
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"non-finite value not representable in JSON: {value!r}")
    text = format(float(value), ".17g")
    # ensure the token stays a float on re-parse
    if "e" not in text and "." not in text and "inf" not in text and "nan" not in text:
        text += ".0"
    return text


def _escape(text: str) -> str:
    out = []
    for ch in text:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def dumps(obj, indent: int = 2) -> str:
    """Serialize dicts/lists/str/bool/None/int/float to stable JSON text."""
    pieces: list[str] = []
    _write(obj, pieces, indent, 0)
    pieces.append("\n")
    return "".join(pieces)


def _write(obj, out: list[str], indent: int, level: int) -> None:
    pad = " " * (indent * (level + 1))
    close_pad = " " * (indent * level)
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(f'"{_escape(obj)}"')
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
            out.append(f'{pad}"{_escape(key)}": ')
            _write(value, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(close_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad)
            _write(value, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(close_pad + "]")
    else:
        # numpy scalars and similar
        if hasattr(obj, "item"):
            _write(obj.item(), out, indent, level)
        else:
            raise TypeError(f"cannot serialize {type(obj)}")


def ensure_parent(path: str | Path) -> Path:
    """Create the target's parent directory so writers accept fresh paths."""
    resolved = Path(path)
    resolved.parent.mkdir(parents=True, exist_ok=True)
    return resolved


def write_json(path: str | Path, obj) -> None:
    ensure_parent(path).write_text(dumps(obj), encoding="utf-8")


def load_config_doc(source, what: str, config_class) -> dict:
    """Read one config object from a JSON file path or an already-parsed dict.

    ``what`` names the document in error messages.  The result is a
    fresh dict whose keys are all fields of the dataclass
    ``config_class``; an unreadable file, a non-object document or an
    unknown key raises ConfigError.
    """
    if isinstance(source, (str, Path)):
        try:
            doc = json.loads(Path(source).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read {what} {source}: {exc}") from exc
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(config_class)}
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    return dict(doc)


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
