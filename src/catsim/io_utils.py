"""Deterministic, byte-stable serialization helpers (CSV/JSON, LF, UTF-8)."""

from __future__ import annotations

import json
from pathlib import Path


def fmt_float(x) -> str:
    """Fixed 17-significant-digit formatting for byte-stable output.

    Round-trips every float; nan, inf and -inf print as those words.
    """
    return f"{float(x):.17g}"


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
    text = json.dumps(_jsonable(obj), sort_keys=True, indent=1, separators=(",", ": "))
    Path(path).write_text(text + "\n", encoding="utf-8", newline="\n")


def write_csv(path, header, rows):
    """rows: iterable of iterables of floats (or strings, passed through)."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else fmt_float(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
