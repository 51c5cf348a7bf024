"""Byte-stable JSON and CSV emission.

Reports must be byte-identical across runs for the same config and seed, so
floats are printed with a fixed 17-significant-digit format (which
round-trips every double) by a small canonical serializer instead of relying
on library float repr; strings take the standard library's ASCII-only
escaping.  Non-finite floats serialize as the strings "inf", "-inf" and
"nan" since JSON has no token for them.

The serializer is the recursive ``isinstance`` chain ``None``, ``True``,
``False``, ``str``, ``int``, ``float``, ``dict``, ``list``/``tuple``.  A
report's per-point section is a ``Columns`` block, printed as the row dicts
it reads as: one ``%``-template with a ``%.17g`` (what ``format(v, ".17g")``
prints) per entry, or the rows themselves where an entry is not finite, so
inf and nan print as strings.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from json.encoder import encode_basestring_ascii

import numpy as np

__all__ = ["Columns", "fmt_float", "canonical_json", "csv_lines"]


class Columns(Sequence):
    """Per-point records as float64 columns: row ``i`` is ``{names[k]: cols[k][i]}``.

    It reads as a sequence of row dicts of plain floats.  Blocks are equal
    when their names and the raw bits of their columns are.
    """

    def __init__(self, names, cols):
        self.names, self.cols = tuple(names), tuple(np.asarray(c, dtype=float) for c in cols)
        if not self.names or len(self.cols) != len(self.names) or len({*map(len, self.cols)}) > 1:
            raise ValueError("a column block needs one column per name, all of one length")

    def __len__(self) -> int:
        return len(self.cols[0])

    def __getitem__(self, i: int) -> dict[str, float]:
        return dict(zip(self.names, (float(c[i]) for c in self.cols)))

    def __iter__(self):
        return (dict(zip(self.names, row)) for row in zip(*(c.tolist() for c in self.cols)))

    def __eq__(self, other) -> bool:
        same = isinstance(other, Columns) and self.names == other.names
        return same and all(np.array_equal(a.view(np.uint64), b.view(np.uint64))
                            for a, b in zip(self.cols, other.cols))

    def column(self, name: str) -> np.ndarray:
        return self.cols[self.names.index(name)]


def fmt_float(v: float) -> str:
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, ".17g")


def _columns(block: Columns, out: list[str]) -> None:
    """``block``: one ``%``-template if every entry is finite, else its row dicts."""
    table = np.column_stack(block.cols)
    # The rows print inf and nan as strings, and refuse a name that is not a str.
    if not np.isfinite(table).all() or not all(isinstance(k, str) for k in block.names):
        return _emit(list(block), out)
    row = "{" + ",".join(encode_basestring_ascii(k).replace("%", "%%") + ":%.17g"
                         for k in block.names) + "}"
    out.append(("[" + ",".join([row] * len(block)) + "]") % tuple(table.ravel().tolist()))


def _emit(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format(obj, ".17g") if math.isfinite(obj) else f'"{fmt_float(obj)}"')
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {type(k).__name__}")
            out.append(("," if i else "") + encode_basestring_ascii(k) + ":")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    elif isinstance(obj, Columns):
        _columns(obj, out)
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
