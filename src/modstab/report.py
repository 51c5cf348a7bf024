"""Byte-stable JSON and CSV emission.

Reports must be byte-identical across runs for the same config and seed, so
floats are printed with a fixed 17-significant-digit format (which
round-trips every double) by a small canonical serializer instead of relying
on library float repr; strings take the standard library's ASCII-only
escaping.  Non-finite floats serialize as the strings "inf", "-inf" and
"nan" since JSON has no token for them.
"""

from __future__ import annotations

import json
import math

__all__ = ["fmt_float", "canonical_json", "csv_lines"]


def fmt_float(v: float) -> str:
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, ".17g")


def _emit(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if math.isfinite(obj):
            out.append(fmt_float(obj))
        else:
            out.append(f'"{fmt_float(obj)}"')
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {type(k).__name__}")
            out.append(f"{json.dumps(k)}:")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to canonical JSON")


def canonical_json(obj) -> str:
    """Serialize to compact JSON with deterministic bytes, trailing newline."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out) + "\n"


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return fmt_float(v)
    text = str(v)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def csv_lines(header: list[str], rows: list[list]) -> str:
    """Render rows to CSV text with the same float format as the JSON path."""
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"
