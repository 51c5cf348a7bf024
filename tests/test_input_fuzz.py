"""The exit contract over raw input: config text, spec strings and argv, drawn from a grammar.

``tests/test_exit_contract.py`` draws values into one fixed config template.
Here the strategies write the input itself, in the manner of grammar-based
generation (Zeller et al., *The Fuzzing Book*, "Fuzzing with Grammars"), with
Hypothesis strategies (MacIver, Hatfield-Dodds et al., "Hypothesis: A new
approach to property-based testing", JOSS 4(43), 2019):

* config text with sections in any order, missing, duplicated or unknown,
  and the same for the keys of a section;
* numbers in every spelling Python's ``float()`` or ``int()`` accepts
  (``1_0``, Unicode digits, ``inf``, ``3.0`` where an integer goes), and
  some that neither accepts;
* CRLF line ends, a byte order mark, NUL and bytes that are not UTF-8,
  UTF-16;
* byte mutations of the committed golden configs;
* ``check-modular`` spec strings, and argv with number flags spelled the
  same ways.

The config fuzz runs once on clean configs, whose values are valid ones
spelled in the grammar, so that they run, and once for each spoiler, which
spoils a drawn config in one place: a value spelled off the grammar or out
of range, a section or a key missing, doubled or unknown, a stray line, or
bytes that are not printable ASCII.  For every draw:

* the exit code is 0, 2, 3 or 4, and no exception escapes ``main``;
* exits 3 and 4 print exactly one line on stderr, and exit 4 writes nothing;
* exits 0 and 2 write a report that parses;
* every number token of an accepted input is an ASCII decimal: the oracle
  here splits the accepted text into its number tokens on its own and
  matches each against ``NUMBER`` or ``INTEGER``.

Every run is derandomized and keeps no example database, so Tier-1 sees the
same draws every time.  Drawn grids have at most 9 points.
"""

import codecs
import contextlib
import csv
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from modstab.cli import main
from modstab.config import parse_experiment
from modstab.functions import parse_expression

GOLDEN = Path(__file__).resolve().parent / "golden"

# The oracle's own statement of the grammar: what an accepted token must match.
NUMBER = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
INTEGER = re.compile(r"[+-]?[0-9]+")

FUZZ = settings(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

# Spellings that float() or int() accept and the grammar refuses, some that
# neither accepts, and tokens at the grammar's edges: past the float range,
# an odd integer past it, and more digits than int() reads.
OFF_GRAMMAR = [
    "1_0", "1__0", "_1", "1_0e-1_0", "٣", "３", "\U0001d7cf", "١٣",
    "inf", "-Infinity", "nan", "NaN", "+inf", " 1", "²", "½",
    "0x10", "0b1", "1j", "1e", "e5", "1.2.3", "--1", "1e+-5", "", " ", "1 0", "1\x00",
    "1e400", "-1e400", "1" + "0" * 400 + "1", "9" * 5000,
]


def _grammar_spellings(value: str) -> list[str]:
    """``value`` as the grammar may write it: as is, signed, zero-padded, with blanks around."""
    unsigned = value.lstrip("+-")
    sign = value[: len(value) - len(unsigned)]
    return [value, f"{sign or '+'}{unsigned}", f"{sign}0{unsigned}", f" {value}\t"]


def _values(valid, invalid, integer: bool):
    """The clean and the dirty strategy of one value kind.  Clean: a ``valid`` value in a
    grammar spelling.  Dirty: that, or an ``invalid`` one, a fraction or an exponent
    where an integer goes, or a spelling off the grammar."""
    clean = st.sampled_from(sorted({s for v in valid for s in _grammar_spellings(str(v))}))
    off = [f"{v}.0" for v in valid] + [f"{v}e0" for v in valid] if integer else []
    dirty = st.one_of(clean, st.sampled_from([str(v) for v in invalid] + off),
                      st.sampled_from(OFF_GRAMMAR))
    return clean, dirty


KINDS = {
    "s": _values([3, 5], [4, 1, -3, 10**22 + 1], True),
    "q": _values(["1", "-1", "0.5", "-0.5"], ["0", "2", "1e-400"], False),
    "lo": _values(["-10", "-3.5", "-1e300", "-1"], ["10", "1e308"], False),
    "hi": _values(["10", "3.5", "1e300", "5"], ["-10", "-1e308"], False),
    "count": _values([2, 3, 5, 9], [1, 0, 1000001, -5], True),
    "tol": _values(["1e-9", "1e-300", "0.5"], ["0", "-1"], False),
    "n_max": _values([1, 2, 60, 1023], [1024, 0, -1], True),
    "seed": _values([0, 3, 2**53 + 1], [-1], True),
    "power": _values([0, 1, 3, 5, -1, 400], [], True),
    "param": _values(["0", "0.05", "1", "3.5", "6", "1e300", "1e+2", ".5"], ["-1"], False),
    "modular_p": _values(["1", "2", "2.5", "1023.5"], ["1024", "0.5", "-1"], False),
}
BLANK = st.sampled_from(["", " ", "\t"])


def _spec(kind: str, keys: dict, dirty: bool) -> st.SearchStrategy[str]:
    """A ``kind`` spec string; dirty, a key may be missing, doubled or unknown."""
    items = exact = st.tuples(*[st.tuples(st.just(k), v) for k, v in keys.items()])
    if dirty:
        some = st.lists(st.one_of(*[st.tuples(st.just(k), v) for k, v in keys.items()],
                                  st.tuples(st.just("foo"), st.just("9"))),
                        max_size=len(keys) + 1)
        items = st.one_of(exact, some)
    return st.tuples(BLANK, BLANK, items).map(
        lambda drawn: f"{kind}{drawn[0]}:{drawn[1]}" + ",".join(
            f"{k}{drawn[1]}={v}" for k, v in drawn[2]))


def _grammar(dirty: bool) -> dict:
    """The strategy of each config key's value; clean or dirty, as ``_values`` says."""
    v = {kind: pair[dirty] for kind, pair in KINDS.items()}
    modular = st.one_of(st.sampled_from(["exp", " exp "]),
                        _spec("power", {"p": v["modular_p"]}, dirty))
    control = st.one_of(_spec("power", {"theta": v["param"], "p": v["param"]}, dirty),
                        _spec("const", {"eps": v["param"]}, dirty))
    atom = st.one_of(
        st.builds("mono({},{})".format, v["param"], v["power"]),
        st.builds("sine({},{})".format, v["param"], v["param"]),
        st.builds("envnoise({},{},{})".format, v["param"], v["param"], v["seed"]),
    )
    methods = ["all", "t1", "t2", "fixedpoint"]
    if dirty:
        modular = st.one_of(modular, st.sampled_from(["exp:", "gauss", "power", "ｅxp", ""]))
        control = st.one_of(control, st.sampled_from(["lin:a=1", "power", "const:", ""]))
        atom = st.one_of(atom, st.sampled_from(["wave(1)", "mono(1)", "mono(1,3",
                                                "mono(1,3)*sine(1,1)"]))
        methods += ["banach", ""]
    term = st.one_of(atom, atom, st.builds("{}*{}".format, v["param"], atom),
                     st.builds("{}*{}".format, atom, v["param"]))
    expr = st.tuples(st.lists(term, min_size=1, max_size=3),
                     st.sampled_from([" + ", "+", "\t+ "])).map(lambda d: d[1].join(d[0]))

    def axis(values):
        return st.lists(values, min_size=1, max_size=2).map(",".join)

    return {
        "equation": {"s": v["s"], "q": v["q"]},
        "modular": {"spec": modular},
        "phi": {"expr": expr},
        "alpha": {"spec": control},
        "run": {"method": st.sampled_from(methods),
                "grid": st.tuples(v["lo"], v["hi"], v["count"]).map(",".join),
                "tol": v["tol"], "n_max": v["n_max"], "seed": v["seed"],
                "format": st.sampled_from(["json", "csv"] + ["xml"] * dirty),
                "out": st.just("ignored.json")},
        "sweep": {"s": axis(v["s"]), "q": axis(v["q"]), "p": axis(v["param"]),
                  "theta": axis(v["param"]), "outdir": st.just("ignored"),
                  "modular": axis(modular.filter(lambda t: "," not in t))},
    }


GRAMMAR = {False: _grammar(False), True: _grammar(True)}
# A clean sweep's control is a power control, which its p and theta axes need.
POWER_CONTROL = _spec("power", {"theta": KINDS["param"][0], "p": KINDS["param"][0]}, False)
# The keys a run needs; every other key of a section is drawn as optional.
REQUIRED = {"equation": ("s", "q"), "modular": ("spec",), "phi": ("expr",),
            "alpha": ("spec",), "run": ("method", "grid")}
# What can go wrong in a drawn config: nothing, or one of these, in one place,
# so that a refusal a draw meets is the one its spoiler made.
SPOILERS = (None, "value", "section", "key", "line", "bytes")


@st.composite
def config_files(draw, sweep: bool, spoiler: str | None) -> bytes:
    """The bytes of a config file: clean, or spoiled in one place by ``spoiler``."""
    names = list(REQUIRED) + ["sweep"] * sweep
    if spoiler == "section":
        how = draw(st.sampled_from(["drop", "double", "unknown", "order"]))
        if how == "drop":
            names.remove(draw(st.sampled_from(names)))
        elif how == "double":
            names.append(draw(st.sampled_from(names)))
        elif how == "unknown":
            names.append(draw(st.sampled_from(["run2", "Equation", "", "sweep", "x"])))
        else:
            names = draw(st.permutations(names))
    sections = []
    for name in names:
        chosen = list(REQUIRED.get(name, ()))
        # A sweep's [run] takes no out, nor format (which the key spoiler may add).
        optional = sorted(set(GRAMMAR[False].get(name, {})) - set(chosen)
                          - ({"out", "format"} if sweep else set()))
        if optional:
            chosen += draw(st.lists(st.sampled_from(optional), unique=True, max_size=3))
        sections.append((name, chosen))
    if spoiler == "key":
        name, chosen = draw(st.sampled_from(sections))
        how = draw(st.sampled_from(["drop", "double", "unknown"]))
        if how == "drop" and chosen:
            chosen.remove(draw(st.sampled_from(chosen)))
        elif how == "double" and chosen:
            chosen.append(draw(st.sampled_from(chosen)))
        elif how == "unknown":
            chosen.append(draw(st.sampled_from(["sede", "S", "spec2", "", "cap", "format"])))
        chosen[:] = draw(st.permutations(chosen))
    places = [(name, key) for name, chosen in sections for key in chosen]
    dirty = draw(st.sampled_from(places)) if spoiler == "value" and places else None
    lines = []
    for name, chosen in sections:
        lines.append(draw(st.sampled_from([f"[{name}]", f"[ {name} ]", f"[{name}]  "])))
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["# a comment", "; another", ""])))
        for key in chosen:
            value = GRAMMAR[(name, key) == dirty].get(name, {}).get(key, st.just("1"))
            if sweep and (name, key) == ("alpha", "spec") != dirty:
                value = POWER_CONTROL
            lines.append(f"{key}{draw(BLANK)}={draw(BLANK)}{draw(value)}")
    if spoiler == "line":
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["s = 3", "no equals sign", "[]", "[run", "="])))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"
    data = text.encode("utf-8")
    if spoiler == "bytes":
        how = draw(st.sampled_from(["bom", "byte", "utf16le", "utf16"]))
        if how == "bom":
            data = codecs.BOM_UTF8 + data
        elif how == "byte":
            at = draw(st.integers(0, len(data)))
            data = data[:at] + draw(st.sampled_from([b"\x00", b"\xff", b"\xe9", b"\x0c",
                                                     b"\x7f"])) + data[at:]
        else:
            data = text.encode("utf-16-le" if how == "utf16le" else "utf-16")
    return data


def _flags(dirty: bool) -> st.SearchStrategy[list[tuple[str, str]]]:
    """Number flags on the command line, spelled as config numbers are."""
    v = {kind: pair[dirty] for kind, pair in KINDS.items()}
    flags = [st.tuples(st.just("--tol"), v["tol"]), st.tuples(st.just("--n-max"), v["n_max"]),
             st.tuples(st.just("--seed"), v["seed"])]
    if dirty:
        flags.append(st.tuples(st.just("--bogus"), st.just("1")))
    return st.lists(st.one_of(*flags), max_size=2, unique_by=lambda flag: flag[0])


FLAGS = st.one_of(_flags(False), _flags(False), _flags(False), _flags(True))


def _expression_tokens(expr: str) -> tuple[list[str], list[str]]:
    """The number and the integer tokens of an expression: atom arguments, then factors."""
    atom = r"(mono|sine|envnoise)\(([^()]*)\)"
    numbers: list[str] = []
    integers: list[str] = []
    for name, args in re.findall(atom, expr):
        *floats, last = args.split(",")
        numbers += floats
        (numbers if name == "sine" else integers).append(last)
    # Between the atoms: the factors, and each '+' that joins two terms (any '+'
    # not after an exponent's e) or signs a factor.
    for piece in re.split(r"\*|(?<![eE])\+", re.sub(atom, "*", expr)):
        if piece.strip():
            numbers.append(piece)
    return numbers, integers


def _tokens(text: str) -> tuple[list[str], list[str]]:
    """The number and the integer tokens of an accepted config ``text``, split here and
    not by modstab: config values, grid parts, spec values, expression arguments and
    factors, sweep axis values."""
    numbers: list[str] = []
    integers: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line[0] in "#;[":
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        if key in ("s", "n_max", "seed"):  # in [equation], [run] or [sweep]
            integers += value.split(",")
        elif key in ("q", "tol", "p", "theta"):
            numbers += value.split(",")
        elif key == "grid":
            *ends, count = value.split(",")
            numbers += ends
            integers.append(count)
        elif key in ("spec", "modular"):
            numbers += re.findall(r"=([^,]*)", value)
        elif key == "expr":
            more_numbers, more_integers = _expression_tokens(value)
            numbers += more_numbers
            integers += more_integers
    return numbers, integers


def _check_report(path: str) -> None:
    """The report at ``path`` parses: JSON, or the CSV a run writes for ``format = csv``."""
    with open(path, encoding="ascii") as fh:
        text = fh.read()
    if text.startswith("{"):
        json.loads(text)
        return
    header, *rows = csv.reader(io.StringIO(text))
    assert header[0] == "method" and all(len(row) == len(header) for row in rows)


def _outcome(argv: list[str]) -> tuple[int, str]:
    """``main(argv)`` with stdout and stderr captured: its exit code and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def check_contract(command: str, data: bytes = b"", spec: str = "", flags=()) -> tuple[int, str]:
    """Run ``command`` on the config bytes ``data`` (``check-modular``: on ``spec``) with
    ``flags`` in a fresh directory; assert the contract, and for an accepted input the
    token oracle.  Return the exit code and the stderr text."""
    with tempfile.TemporaryDirectory() as workdir:
        out = os.path.join(workdir, "out")
        args = [a for flag in flags for a in flag]
        if command == "check-modular":
            code, err = _outcome(["check-modular", spec, *args, "--out", out])
        else:
            cfg = os.path.join(workdir, "input.cfg")
            with open(cfg, "wb") as fh:
                fh.write(data)
            code, err = _outcome([command, cfg, *args, "--out", out])
        assert code in (0, 2, 3, 4), (code, err)
        assert "Traceback" not in err
        if code in (3, 4):
            assert err.count("\n") == 1 and err.endswith("\n"), err
            assert code == 3 or not os.path.exists(out)
            return code, err
        if command == "sweep":
            with open(os.path.join(out, "summary.csv"), encoding="ascii") as fh:
                header, *rows = csv.reader(fh)
            assert all(len(row) == len(header) for row in rows)
            for name in os.listdir(out):
                if name.endswith(".json"):
                    _check_report(os.path.join(out, name))
        else:
            _check_report(out)
    if command == "check-modular":
        numbers, integers = re.findall(r"=([^,]*)", spec), []
    else:
        numbers, integers = _tokens(data.decode("ascii"))
    numbers += [value for flag, value in flags if flag == "--tol"]
    integers += [value for flag, value in flags if flag in ("--n-max", "--seed")]
    assert all(NUMBER.fullmatch(t.strip(" \t")) for t in numbers), numbers
    assert all(INTEGER.fullmatch(t.strip(" \t")) for t in integers), integers
    return code, err


@pytest.mark.parametrize("spoiler", SPOILERS)
def test_run_text_ends_in_a_contract_exit_code(spoiler):
    @settings(FUZZ, max_examples=40)
    @given(data=config_files(sweep=False, spoiler=spoiler), flags=FLAGS)
    def run(data, flags):
        check_contract("run", data, flags=flags)
    run()


@pytest.mark.parametrize("spoiler", SPOILERS)
def test_sweep_text_ends_in_a_contract_exit_code(spoiler):
    @settings(FUZZ, max_examples=8)
    @given(data=config_files(sweep=True, spoiler=spoiler), flags=FLAGS)
    def sweep(data, flags):
        check_contract("sweep", data, flags=flags)
    sweep()


@settings(FUZZ, max_examples=60)
@given(spec=st.one_of(GRAMMAR[False]["modular"]["spec"], GRAMMAR[True]["modular"]["spec"],
                      st.sampled_from(OFF_GRAMMAR).map("power:p={}".format)))
def test_check_modular_spec_ends_in_a_contract_exit_code(spec):
    check_contract("check-modular", spec=spec)


@st.composite
def mutated(draw) -> bytes:
    """A golden run config with one to three bytes replaced, inserted or deleted."""
    data = bytearray(draw(st.sampled_from(sorted(GOLDEN.glob("*.cfg")))).read_bytes())
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data) - 1))
        how = draw(st.sampled_from(["replace", "insert", "delete"]))
        byte = draw(st.one_of(st.sampled_from(b"0123456789.,=:+-_e[]#\n\r\t "),
                              st.integers(0, 255)))
        if how == "replace":
            data[at] = byte
        elif how == "insert":
            data.insert(at, byte)
        else:
            del data[at]
    return bytes(data)


@settings(FUZZ, max_examples=60)
@given(data=mutated())
def test_mutated_golden_config_ends_in_a_contract_exit_code(data):
    check_contract("run", data)


BASE = GOLDEN / "expand_fixedpoint_ok.cfg"  # exits 0 as committed
SWEEP_LINES = "\n[sweep]\nq = 1,-1\n"


def _base(old: str = "", new: str = "", sweep: bool = False) -> bytes:
    """The base golden config with ``old`` replaced by ``new``, as UTF-8 bytes."""
    text = BASE.read_text().replace(old, new) + (SWEEP_LINES if sweep else "")
    if sweep:
        text = text.replace("format = json\n", "")
    return text.encode("utf-8")


def _line(message: str) -> str:
    return f"config error: {message}\n"


def _bytes(byte: int, offset: int) -> str:
    return _line(f"config file has byte 0x{byte:02x} at offset {offset}; only printable ASCII, "
                 "tab, CR and LF are allowed")


def _offset(old: str, new: str, at: str) -> int:
    """The offset in the edited base config of the first byte of ``at`` in ``new``."""
    return BASE.read_text().encode().index(old.encode()) + new.encode().index(at.encode())


ALPHA = "spec = power:theta=0.05,p=1"
PHI = "expr = mono(1,3) + envnoise(0.01,1,11)"
# Inputs that ran, or ran as something else, before the grammar was one module:
# each now ends as pinned here, under run and sweep alike where a config holds it.
PINNED = [
    # An unknown key was ignored, and the report echoed it.
    pytest.param(ALPHA, "spec = power:theta=0.5,p=3.5,foo=9", _line(
        "malformed control spec 'power:theta=0.5,p=3.5,foo=9': unknown key 'foo'"),
        id="unknown_spec_key"),
    # The last of two p won.
    pytest.param(ALPHA, "spec = power:theta=1,p=2,p=3", _line(
        "malformed control spec 'power:theta=1,p=2,p=3': duplicate key 'p'"),
        id="duplicate_spec_key"),
    # float() read 1_0 and a fullwidth 2, while sine(1_0,1) was refused.
    pytest.param("spec = power:p=1\n", "spec = power:p=1_0\n", _line(
        "malformed modular spec 'power:p=1_0': p: not a number: '1_0'"), id="spec_1_0"),
    pytest.param(PHI, "expr = sine(1_0,1)", _line("malformed function atom 'sine(1_0,1)'"),
                 id="sine_1_0"),
    # Unicode digits ran; the file is now refused at their first byte.
    pytest.param(PHI, "expr = mono(١,٣)", _bytes(0xd9, _offset(PHI, "expr = mono(١,٣)", "١")),
                 id="arabic_indic_digits"),
    pytest.param("s = 3\n", "s = ３\n", _bytes(0xef, _offset("s = 3\n", "s = ３\n", "３")),
                 id="fullwidth_s"),
    pytest.param("grid = -10,10,41", "grid = -1_0,1_0,4_1",
                 _line("[run] grid: not a number: '-1_0'"), id="grid_1_0"),
    # s = 3.0 was refused and mono(1,3.0) accepted; now both are refused.
    pytest.param("s = 3\n", "s = 3.0\n", _line("[equation] s: not an integer: '3.0'"),
                 id="s_3.0"),
    pytest.param(PHI, "expr = mono(1,3.0)",
                 _line("mono power in 'mono(1,3.0)': not an integer: '3.0'"), id="mono_3.0"),
    # These two ended in a traceback (KeyError, OverflowError).
    pytest.param("spec = power:p=1\n", "", _line("missing required key 'spec' in [modular]"),
                 id="no_modular_spec"),
    pytest.param("s = 3\n", f"s = 1{'0' * 400}1\n",
                 _line("s must be at most 1.7976931348623157e308, the largest float"),
                 id="s_past_the_float_range"),
    # This one echoed all 5000 digits in its refusal.
    pytest.param("s = 3\n", f"s = {'9' * 5000}\n", _line(
        "[equation] s: integer of 5000 characters is too long"
        if hasattr(sys, "get_int_max_str_digits")  # int() has no limit before 3.10.7
        else "s must be at most 1.7976931348623157e308, the largest float"),
        id="s_of_5000_digits"),
]


@pytest.mark.parametrize("old, new, line", PINNED)
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_pinned_config_is_refused_with_one_line(command, old, new, line):
    assert old in BASE.read_text()
    assert check_contract(command, _base(old, new, command == "sweep")) == (4, line)


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_pinned_utf16_without_a_bom_is_refused_at_its_first_nul(command):
    # It used to exit 4 with "line 2: expected 'key = value', got '\x00'",
    # which named neither the encoding nor the byte.
    data = _base(sweep=command == "sweep").decode().encode("utf-16-le")
    assert check_contract(command, data) == (4, _bytes(0x00, 1))


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_pinned_fullwidth_n_max_is_refused(command):
    flags = [("--n-max", "６")]
    assert check_contract(command, _base(sweep=command == "sweep"), flags=flags) == (
        4, _line("--n-max: not an integer: '６'"))


@pytest.mark.parametrize("spec, token", [("power:p=1_0", "1_0"), ("power:p=２", "２"),
                                         ("power:p=1\x00", "1\x00")])
def test_pinned_check_modular_spec_is_refused(spec, token):
    assert check_contract("check-modular", spec=spec) == (
        4, _line(f"malformed modular spec {spec!r}: p: not a number: {token!r}"))


def test_pinned_envnoise_seed_past_2_to_the_53_is_the_seed_echoed():
    # Read through a float, the seed 2**53 + 1 evaluated as 2**53.
    new = "expr = mono(1,3) + envnoise(0.01,1,9007199254740993)"
    data = _base(PHI, new)
    assert check_contract("run", data)[0] in (0, 2)
    phi = parse_experiment(data.decode()).phi
    xs = np.linspace(-10.0, 10.0, 41)
    exact = mono_plus_noise(2**53 + 1).many(xs)
    assert phi.many(xs).tobytes() == exact.tobytes()
    assert exact.tobytes() != mono_plus_noise(2**53).many(xs).tobytes()


def mono_plus_noise(seed: int):
    return parse_expression(f"mono(1,3) + envnoise(0.01,1,{seed})")
