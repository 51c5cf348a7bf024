"""Byte-stable JSON and CSV emission.

Reports must be byte-identical across runs for the same config and seed, so
floats are printed with a fixed 17-significant-digit format (which
round-trips every double) by a small canonical serializer instead of relying
on library float repr; strings take the standard library's ASCII-only
escaping.  Non-finite floats serialize as the strings "inf", "-inf" and
"nan" since JSON has no token for them.

The serializer is the recursive ``isinstance`` chain ``None``, ``True``,
``False``, ``str``, ``int``, ``float``, ``dict``, ``list``/``tuple``, with
shortcuts that print the same bytes: the exact types ``float``, ``dict``,
``list`` and ``str`` skip the chain (``_chain_type`` serves the rest:
``np.float64``, tuples, subclasses), a finite float or a string member is
written in place, each key is encoded once per ``canonical_json`` call (no
cache outlives the call), and a list of same-key records of finite plain
floats -- a report's per-point rows -- is one ``%``-template, where
``"%.17g" % v`` prints what ``format(v, ".17g")`` does.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii

__all__ = ["fmt_float", "canonical_json", "csv_lines"]


def fmt_float(v: float) -> str:
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, ".17g")


def _key(k, keys: dict[str, str]) -> str:
    """``"k":`` for a dict key, encoded once per ``canonical_json`` call."""
    if type(k) is str:
        encoded = keys.get(k)
        if encoded is None:
            encoded = keys[k] = encode_basestring_ascii(k) + ":"
        return encoded
    if not isinstance(k, str):
        raise TypeError(f"JSON object keys must be strings, got {type(k).__name__}")
    return f"{json.dumps(k)}:"


_FLOAT = {float}


def _float_rows(rows, keys: dict[str, str]) -> str | None:
    """``rows`` as JSON if it is a list of same-key dicts of finite plain floats.

    The list is then one ``%``-template with a ``%.17g`` per value, which
    prints the bytes ``format(v, ".17g")`` does; anything else (another
    type, a non-finite value, keys that differ or are not ``str``) gives
    ``None``.
    """
    names = list(rows[0])
    if not names:
        return None
    values: list = []
    for row in rows:
        if type(row) is not dict or list(row) != names:
            return None
        values.extend(row.values())
    if (set(map(type, values)) != _FLOAT or not all(map(math.isfinite, values))
            or not all(type(k) is str for k in names)):
        return None
    row = "{" + ",".join(_key(k, keys).replace("%", "%%") + "%.17g" for k in names) + "}"
    return ("[" + ",".join([row] * len(rows)) + "]") % tuple(values)


_EXACT = {float, dict, list, str}


def _chain_type(obj) -> type:
    """The branch of the ``isinstance`` chain a non-literal value takes."""
    for kind in (str, int, float, dict):
        if isinstance(obj, kind):
            return kind
    if isinstance(obj, (list, tuple)):
        return list
    raise TypeError(f"cannot serialize {type(obj).__name__} to canonical JSON")


def _emit(obj, out: list[str], keys: dict[str, str]) -> None:
    t = type(obj)
    if t not in _EXACT:  # np.float64, tuples, subclasses and the literals
        if obj is None or obj is True or obj is False:
            out.append("null" if obj is None else "true" if obj else "false")
            return
        t = _chain_type(obj)
    if t is float:
        if math.isfinite(obj):
            out.append(format(obj, ".17g"))
        else:
            out.append(f'"{fmt_float(obj)}"')
    elif t is dict:
        # A finite float or a str member is written in place, not recursed on.
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            out.append("," + _key(k, keys) if i else _key(k, keys))
            t = type(v)
            if t is float and math.isfinite(v):
                out.append(format(v, ".17g"))
            elif t is str:
                out.append(encode_basestring_ascii(v))
            else:
                _emit(v, out, keys)
        out.append("}")
    elif t is list:
        rows = _float_rows(obj, keys) if obj and type(obj[0]) is dict else None
        if rows is not None:
            out.append(rows)
            return
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            t = type(v)
            if t is float and math.isfinite(v):
                out.append(format(v, ".17g"))
            elif t is str:
                out.append(encode_basestring_ascii(v))
            else:
                _emit(v, out, keys)
        out.append("]")
    elif t is str:
        out.append(encode_basestring_ascii(obj))
    else:
        out.append(str(obj))  # int


def canonical_json(obj) -> str:
    """Serialize to compact JSON with deterministic bytes, trailing newline."""
    out: list[str] = []
    _emit(obj, out, {})
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
