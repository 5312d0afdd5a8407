"""Deterministic, byte-stable serialization helpers (CSV/JSON, LF, UTF-8)."""

from __future__ import annotations

import json
from pathlib import Path

from .errors import CatsimError


_FLOAT = "%.17g"  # round-trips every float; nan, inf, -inf print as words


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, float):
        return float(obj)
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        try:
            return _jsonable(obj.item())
        except (ValueError, AttributeError):
            pass
    if hasattr(obj, "tolist"):
        return _jsonable(obj.tolist())
    return obj


def write_json(path, obj):
    """obj as sorted, indented JSON.  A nan or inf has no JSON spelling: it is
    a numerical failure, raised before the file is written."""
    try:
        text = json.dumps(_jsonable(obj), sort_keys=True, indent=1,
                          separators=(",", ": "), allow_nan=False)
    except ValueError as exc:
        raise CatsimError(
            f"{Path(path).name} would hold a nan or inf, which is not JSON") from exc
    Path(path).write_text(text + "\n", encoding="utf-8", newline="\n")


def write_csv(path, header, rows):
    """The table header, then one line per row of numbers, each spelled in
    _FLOAT's 17 significant digits; every row has one number per header
    column."""
    row_format = ",".join((_FLOAT,) * len(header))
    lines = [",".join(header)]
    lines.extend(row_format % tuple(row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
