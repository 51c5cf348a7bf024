"""Canonical JSON/CSV emission: fixed float format, byte stability."""

import json
import math

import pytest

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
