"""Canonical JSON/CSV emission: fixed float format, byte stability."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modstab import Grid
from modstab.config import parse_experiment
from modstab.pipeline import report_csv, run_experiment
from modstab.report import Columns, canonical_json, csv_lines, fmt_float


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


# -- the emitter against an independent copy of its chain --------------------


def _reference_emit(obj, out):
    # The recursive isinstance chain, written apart from production so the
    # two can be compared: canonical_json is this chain again, plus a branch
    # that prints a Columns block through one template, and it writes strings
    # and keys with encode_basestring_ascii where this uses json.dumps.
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


class Str(str):
    pass


class Int(int):
    pass


class Float(float):
    pass


class Dict(dict):
    pass


class List(list):
    pass


EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
               2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308, 0.1]
floats = st.floats() | st.sampled_from(EDGE_FLOATS)
texts = st.text(alphabet=st.sampled_from('ax%"\\\n\u00fc\U0001d7cf'), max_size=4) | st.text(max_size=4)
keys = texts | texts.map(Str)
leaves = (floats
          | floats.map(np.float64)
          | floats.map(Float)
          | st.integers(min_value=-(2**70), max_value=2**70).map(Int)
          | st.text(max_size=6).map(Str)
          | st.booleans()
          | st.none()
          | st.integers(min_value=-(2**70), max_value=2**70)
          | st.text(max_size=6)
          | st.sampled_from(["\u00fc", "\U0001d7cf", "\x7f\x00"]))
unknown = st.sampled_from([object(), {1.0}, b"x", 1j, np.int64(3), Ellipsis])


@st.composite
def point_lists(draw):
    # Lists of same-key records, a per-point section read as rows; some
    # break the record shape (a non-finite value, another type, another key
    # order), and every one prints the bytes of the generic path.
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
                      | st.lists(children, max_size=4).map(List)
                      | st.tuples(children, children)
                      | st.dictionaries(keys, children, max_size=4)
                      | st.dictionaries(keys, children, max_size=4).map(Dict)),
    max_leaves=30,
)
bad_keys = keys | st.integers() | st.tuples(st.integers())
bad_trees = st.recursive(
    unknown | leaves,
    lambda children: (st.lists(children, max_size=3)
                      | st.lists(children, max_size=3).map(List)
                      | st.dictionaries(bad_keys, children, max_size=3)
                      | st.dictionaries(bad_keys, children, max_size=3).map(Dict)),
    max_leaves=12,
)


class TestEmitterMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(trees)
    @example([{"x": 1.0, "value": math.inf, "bound": 0.5, "gap": 0.0},
              {"x": 2.0, "value": 3.0, "bound": 0.5, "gap": 0.0}])
    @example([{"100%": 0.25, "%s": -0.0}, {"100%": 5e-324, "%s": 1e308}])
    @example({"a": [{"x": 1.0}], "b": [{"x": np.float64(2.0)}], "c": ({"x": 3.0},)})
    @example(Dict({Str("k\u00fc"): List([Str('s"'), Int(7), Float(0.1), Float(-math.inf)])}))
    def test_same_bytes(self, tree):
        assert canonical_json(tree) == _reference_json(tree)

    @settings(max_examples=200, deadline=None)
    @given(bad_trees)
    @example({"ok": [1.0], 2: object()})
    @example([{"x": 1.0}, {1: 1.0}])
    @example([{"x": 1.0}, {"x": object()}])
    @example(Dict({Str("a"): List([Float(1.0)]), Int(2): Str("b")}))
    def test_same_bytes_or_same_error(self, tree):
        assert _outcome(canonical_json, tree) == _outcome(_reference_json, tree)


@st.composite
def column_blocks(draw):
    # A per-point section as columns, with entries from EDGE_FLOATS; one
    # entry may be made non-finite, which sends the block down the row path.
    names = draw(st.lists(keys, min_size=1, max_size=5, unique=True))
    count = draw(st.integers(2, 6))
    value = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
    cols = [np.array([draw(value) for _ in range(count)]) for _ in names]
    if draw(st.booleans()):
        k, i = draw(st.integers(0, len(names) - 1)), draw(st.integers(0, count - 1))
        cols[k][i] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    return Columns(names, cols)


def _rows(block):
    # The block as the row dicts of plain floats it stands for.
    return [{k: float(c[i]) for k, c in zip(block.names, block.cols)} for i in range(len(block))]


class TestColumns:
    @settings(max_examples=300, deadline=None)
    @given(column_blocks())
    @example(Columns(["x", "value", "bound", "gap"],
                     [[-0.0, 5e-324], [1.7976931348623157e308, -5e-324],
                      [2.2250738585072014e-308, 0.1], [0.0, -1e308]]))
    @example(Columns(["100%", "%s", 'a"\\\n\u00fc\U0001d7cf'],
                     [[0.25, 1.0], [-0.0, 2.0], [3.0, 4.0]]))
    @example(Columns(["x", "gap"], [[1.0, 2.0], [0.5, math.inf]]))
    @example(Columns(["x", "gap"], [[math.nan, 2.0], [0.5, 0.0]]))
    def test_same_bytes_as_the_rows(self, block):
        rows = _rows(block)
        assert canonical_json(block) == _reference_json(rows)
        wrapped = {"points": block, "n": 1}
        assert canonical_json(wrapped) == _reference_json({"points": rows, "n": 1})

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_only_a_non_finite_block_takes_the_row_path(self, monkeypatch, bad):
        read = []
        iterate = Columns.__iter__
        monkeypatch.setattr(Columns, "__iter__", lambda self: read.append(self) or iterate(self))
        canonical_json(Columns(["x", "gap"], [[1.0, 2.0], [0.5, 5e-324]]))
        assert read == []
        block = Columns(["x", "gap"], [[1.0, 2.0], [0.5, bad]])
        assert canonical_json(block) == _reference_json(_rows(block))
        assert read == [block]

    @settings(max_examples=100, deadline=None)
    @given(column_blocks())
    def test_reads_as_its_rows(self, block):
        rows = _rows(block)
        assert len(block) == len(rows)
        by_index = [canonical_json(block[i]) for i in range(len(block))]
        assert by_index == list(map(canonical_json, rows))
        assert list(map(canonical_json, block)) == list(map(canonical_json, rows))
        assert canonical_json(block[-1]) == canonical_json(rows[-1])
        assert all(type(v) is float for row in block for v in row.values())

    def test_equality_is_by_raw_bits(self):
        block = Columns(["x", "v"], [[0.0, 1.0], [math.nan, 2.0]])
        assert block == Columns(["x", "v"], [[0.0, 1.0], [math.nan, 2.0]])
        assert block != Columns(["x", "v"], [[-0.0, 1.0], [math.nan, 2.0]])
        assert block != Columns(["x", "w"], [[0.0, 1.0], [math.nan, 2.0]])
        assert block != Columns(["x", "v"], [[0.0], [math.nan]])
        assert block != [{"x": 0.0, "v": math.nan}, {"x": 1.0, "v": 2.0}]

    @pytest.mark.parametrize("gap", [0.25, math.inf])
    def test_a_name_that_is_not_a_str_is_refused(self, gap):
        block = Columns(["x", 1], [[1.0, 2.0], [0.5, gap]])
        with pytest.raises(TypeError) as info:
            canonical_json(block)
        assert str(info.value) == "JSON object keys must be strings, got int"

    def test_rejects_ragged_or_unnamed_columns(self):
        with pytest.raises(ValueError):
            Columns(["x", "v"], [[0.0, 1.0], [2.0]])
        with pytest.raises(ValueError):
            Columns(["x", "v"], [[0.0, 1.0]])
        with pytest.raises(ValueError):
            Columns([], [])


REPORT_CFG = """\
[equation]
s = 3
q = 1
[modular]
spec = power:p=1
[phi]
expr = {expr}
[alpha]
spec = const:eps=0.1
[run]
method = all
grid = {grid}
seed = 7
"""


def _row_csv(report):
    # report_csv over the per-point sections read as row dicts.
    rows = []
    for method, sec in report["methods"].items():
        body = sec.get("limit") or sec.get("iteration")
        if body is None:
            continue
        n = body.get("achieved_n", body.get("iterations"))
        for point in list(body["points"]):
            rows.append([method, point["x"], point["value"], point["bound"], point["gap"],
                         n, body["saturated"]])
    return csv_lines(["method", "x", "value", "bound", "gap", "n", "saturated"], rows)


class TestReportColumns:
    @pytest.mark.parametrize("expr, grid", [
        ("mono(1,3) + sine(0.1,1)", "-10,10,41"),
        ("mono(1,3) + sine(0.1,1)", "-0.0,3,17"),
        ("mono(1,3) + sine(0.1,1)", "-3,-0.0,17"),
        ("mono(1,3) + mono(1e-30,99)", "-0.0001,0.0001,11"),  # saturated: inf gaps
    ])
    def test_points_are_columns_read_as_rows(self, expr, grid):
        cfg = parse_experiment(REPORT_CFG.format(expr=expr, grid=grid))
        report, _ = run_experiment(cfg)
        bodies = [sec.get("limit") or sec.get("iteration") for sec in report["methods"].values()]
        blocks = [body["points"] for body in bodies if body is not None]
        assert blocks
        want = np.array(cfg.grid.points()).view(np.uint64)
        for block in blocks:
            assert type(block) is Columns and block.names == ("x", "value", "bound", "gap")
            # The x column has the bits of grid.points(), a signed zero included.
            assert np.array_equal(block.column("x").view(np.uint64), want)
        assert report_csv(report) == _row_csv(report)

    def test_grid_array_has_the_bits_of_its_points(self):
        for lo, hi in ((-0.0, 1.0), (-1.0, -0.0), (-10.0, 10.0), (-1e307, 1e307)):
            grid = Grid(lo, hi, 41)
            pts = np.array(grid.points())
            assert np.array_equal(grid.point_array.view(np.uint64), pts.view(np.uint64))
            assert not grid.point_array.flags.writeable
        assert math.copysign(1.0, Grid(-1.0, -0.0, 5).points()[-1]) == -1.0

    def test_sections_stay_equal_across_runs(self):
        cfg = parse_experiment(REPORT_CFG.format(expr="mono(1,3) + sine(0.1,1)",
                                                 grid="-10,10,41"))
        first, _ = run_experiment(cfg)
        assert run_experiment(cfg)[0] == first
        assert run_experiment(dataclasses.replace(cfg, seed=8))[0] != first


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
