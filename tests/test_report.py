"""Canonical JSON/CSV emission: fixed float format, byte stability."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modstab.report import canonical_json, csv_lines, fmt_float


class TestFloatFormat:
    def test_seventeen_digits_round_trip(self):
        for v in (0.1, 1e-9, math.pi, 2.0 ** (-2 / 3), 1234567.89, -3.5e300, 5e-324):
            assert float(fmt_float(v)) == v

    def test_non_finite_spelled_out(self):
        assert fmt_float(math.inf) == "inf"
        assert fmt_float(-math.inf) == "-inf"
        assert fmt_float(math.nan) == "nan"

    def test_integral_floats_compact(self):
        assert fmt_float(2.0) == "2"
        assert fmt_float(-1000.0) == "-1000"


class TestCanonicalJson:
    def test_insertion_order_preserved(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"b":1,"a":2}\n'

    def test_scalars(self):
        text = canonical_json({"t": True, "f": False, "n": None, "i": 7, "x": 0.1})
        assert text == '{"t":true,"f":false,"n":null,"i":7,"x":0.10000000000000001}\n'

    def test_nested_lists(self):
        assert canonical_json([1, [2.5, "a"], {}]) == '[1,[2.5,"a"],{}]\n'

    def test_non_finite_as_strings(self):
        obj = json.loads(canonical_json({"v": math.inf, "w": -math.inf}))
        assert obj == {"v": "inf", "w": "-inf"}

    def test_string_escapes(self):
        text = canonical_json({"s": 'a"b\\c\nd\tü'})
        assert text == '{"s":"a\\"b\\\\c\\nd\\t\\u00fc"}\n'
        assert json.loads(text)["s"] == 'a"b\\c\nd\tü'

    def test_astral_characters_round_trip(self):
        # escaped as a UTF-16 surrogate pair, as JSON requires
        text = canonical_json({"s": "mono(\U0001d7cf,3)"})
        assert text == '{"s":"mono(\\ud835\\udfcf,3)"}\n'
        assert json.loads(text)["s"] == "mono(\U0001d7cf,3)"

    def test_output_parses_as_json(self):
        obj = {"schema": "modstab-report/1", "xs": [0.5, 1.0], "ok": True}
        assert json.loads(canonical_json(obj)) == obj

    def test_rejects_unserializable(self):
        with pytest.raises(TypeError):
            canonical_json({"bad": object()})
        with pytest.raises(TypeError):
            canonical_json({1: "non-string key"})

    def test_bool_not_confused_with_int(self):
        assert canonical_json([True, 1]) == "[true,1]\n"


# -- the emitter against the plain recursive one it replaced ------------------


def _reference_emit(obj, out):
    # The recursive isinstance chain canonical_json used before its
    # exact-type dispatch, key encoding and row templates.
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
            _reference_emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _reference_emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to canonical JSON")


def _reference_json(obj):
    out = []
    _reference_emit(obj, out)
    return "".join(out) + "\n"


def _outcome(serialize, obj):
    try:
        return serialize(obj)
    except TypeError as exc:
        return ("TypeError", str(exc))


EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
               2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308, 0.1]
floats = st.floats() | st.sampled_from(EDGE_FLOATS)
keys = st.text(alphabet=st.sampled_from('ax%"\\\n\u00fc\U0001d7cf'), max_size=4) | st.text(max_size=4)
leaves = (floats
          | floats.map(np.float64)
          | st.booleans()
          | st.none()
          | st.integers(min_value=-(2**70), max_value=2**70)
          | st.text(max_size=6)
          | st.sampled_from(["\u00fc", "\U0001d7cf", "\x7f\x00"]))
unknown = st.sampled_from([object(), {1.0}, b"x", 1j, np.int64(3), Ellipsis])


@st.composite
def point_lists(draw):
    # Lists of same-key records, the shape the row templates take; some
    # break the template's conditions (a non-finite value, another type,
    # another key order) and must take the generic path with equal bytes.
    names = draw(st.lists(keys, min_size=1, max_size=4, unique=True))
    value = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
    rows = [{k: draw(value) for k in names} for _ in range(draw(st.integers(1, 5)))]
    tweak = draw(st.sampled_from(["none", "inf", "np", "int", "bool", "order", "tuple"]))
    row, name = draw(st.sampled_from(rows)), draw(st.sampled_from(names))
    if tweak == "inf":
        row[name] = math.inf
    elif tweak == "np":
        row[name] = np.float64(row[name])
    elif tweak == "int":
        row[name] = 2**60 + 1
    elif tweak == "bool":
        row[name] = True
    elif tweak == "order" and len(names) > 1:
        items = list(row.items())
        row.clear()
        row.update(reversed(items))
    elif tweak == "tuple":
        return tuple(rows)
    return rows


trees = st.recursive(
    leaves | point_lists(),
    lambda children: (st.lists(children, max_size=4)
                      | st.tuples(children, children)
                      | st.dictionaries(keys, children, max_size=4)),
    max_leaves=30,
)
bad_trees = st.recursive(
    unknown | leaves,
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(keys | st.integers() | st.tuples(st.integers()),
                                        children, max_size=3)),
    max_leaves=12,
)


class TestEmitterMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(trees)
    @example([{"x": 1.0, "value": math.inf, "bound": 0.5, "gap": 0.0},
              {"x": 2.0, "value": 3.0, "bound": 0.5, "gap": 0.0}])
    @example([{"100%": 0.25, "%s": -0.0}, {"100%": 5e-324, "%s": 1e308}])
    @example({"a": [{"x": 1.0}], "b": [{"x": np.float64(2.0)}], "c": ({"x": 3.0},)})
    def test_same_bytes(self, tree):
        assert canonical_json(tree) == _reference_json(tree)

    @settings(max_examples=200, deadline=None)
    @given(bad_trees)
    @example({"ok": [1.0], 2: object()})
    @example([{"x": 1.0}, {1: 1.0}])
    @example([{"x": 1.0}, {"x": object()}])
    def test_same_bytes_or_same_error(self, tree):
        assert _outcome(canonical_json, tree) == _outcome(_reference_json, tree)


class TestCsv:
    def test_floats_and_bools(self):
        text = csv_lines(["a", "b", "c"], [[0.1, True, None], [2.0, False, "x"]])
        lines = text.splitlines()
        assert lines[0] == "a,b,c"
        assert lines[1] == "0.10000000000000001,true,"
        assert lines[2] == "2,false,x"

    def test_quoting(self):
        text = csv_lines(["v"], [['has,comma'], ['has"quote']])
        assert text.splitlines()[1] == '"has,comma"'
        assert text.splitlines()[2] == '"has""quote"'

    def test_trailing_newline(self):
        assert csv_lines(["a"], [[1]]).endswith("\n")
