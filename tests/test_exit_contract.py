"""The exit-code contract is total: every input ends in 0, 2, 3 or 4.

Configs are drawn from values picked to leave the float range somewhere in a
run: huge and infinite grid ends, negative powers that hit the pole at zero,
frequencies whose products overflow into ``sin(inf)``, control parameters
that overflow or are not numbers, and a modular whose doubling constant is
not a float.  Whatever the draw, ``main`` must return normally with an exit
code of the contract, and a run that exits 0 or 2 must leave a JSON report.
Small sweeps over extreme control parameters, modulars, functions and grids
must do the same and leave their summary.
"""

import codecs
import json
import math
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modstab import cli
from modstab.cli import main
from modstab.config import parse_experiment
from modstab.sampling import MAX_GRID_POINTS

CONFIG = """\
[equation]
s = 3
q = {q}

[modular]
spec = {modular}

[phi]
expr = {phi}

[alpha]
spec = {alpha}

[run]
method = {method}
grid = {lo},{hi},5
tol = {tol}
seed = 3
"""

BASE = {"q": "1", "modular": "power:p=1", "phi": "mono(1,3) + sine(0.1,1)",
        "alpha": "const:eps=0.1", "method": "all", "lo": "-10", "hi": "10",
        "tol": "1e-9"}

CONTROL_PARAMETERS = ["0", "6", "1e300"]
ATOMS = st.one_of(
    st.builds("mono({},{})".format, st.sampled_from(["1", "1e308"]),
              st.sampled_from(["3", "-1", "-3", "400"])),
    st.builds("sine({},{})".format, st.sampled_from(["0.5", "1e308"]),
              st.sampled_from(["1", "1e308"])),
    st.builds("envnoise({},{},3)".format, st.sampled_from(["0.01", "1e308"]),
              st.sampled_from(["-0.5", "-2", "6"])),
)
RUNS = st.fixed_dictionaries({
    "q": st.sampled_from(["1", "0.5", "-1"]),
    "modular": st.sampled_from(["power:p=1", "power:p=20", "exp"]),
    "phi": st.lists(ATOMS, min_size=1, max_size=3).map(" + ".join),
    "alpha": st.one_of(
        st.builds("power:theta={},p={}".format, st.sampled_from(CONTROL_PARAMETERS),
                  st.sampled_from(CONTROL_PARAMETERS)),
        st.builds("const:eps={}".format, st.sampled_from(CONTROL_PARAMETERS)),
    ),
    "method": st.sampled_from(["t1", "t2", "fixedpoint", "all"]),
    "lo": st.sampled_from(["-10", "-1e60", "-1e308"]),
    "hi": st.sampled_from(["10", "1e60", "1e308"]),
    "tol": st.just("1e-9"),
})
# One number in four drawn configs is one a float cannot hold, or a power or
# seed that is not an integer, so that most draws run the routes and the rest
# exercise the config checks.
UNREPRESENTABLE = st.sampled_from([
    {"lo": "-inf"}, {"hi": "inf"}, {"modular": "power:p=1024"}, {"tol": "nan"},
    {"alpha": "power:theta=nan,p=6"}, {"alpha": "power:theta=6,p=nan"},
    {"alpha": "const:eps=nan"}, {"phi": "mono(1,1e400)"}, {"phi": "mono(1e400,3)"},
    {"phi": "sine(1,1e400)"}, {"phi": "envnoise(0.1,1,1e400)"},
    {"phi": "envnoise(0.1,1,-5)"}, {"phi": "mono(1,2.5)"}, {"phi": "envnoise(0.1,1,7.5)"},
])
CONFIGS = st.builds(lambda run, spoil: {**run, **spoil}, RUNS,
                    st.one_of(st.just({}), st.just({}), st.just({}), UNREPRESENTABLE))

# Runs that used to end in a traceback or in exit 2 without a report; each
# must exit 2 with its report.  (tests/test_cli.py pins the inputs that are
# config errors, exit 4.)
REPORTED_REPROS = [
    {"phi": "sine(1,1e308)"},                        # sin(inf)
    {"phi": "mono(1,3) + mono(0.001,-1)"},           # 0.0 ** -1
    {"phi": "mono(1,3) + envnoise(0.01,-0.5,3)"},    # 0.0 ** -0.5
    {"phi": "mono(1e308,3)"},                        # inf - inf residuals
    {"alpha": "power:theta=1,p=6", "lo": "-1e60", "hi": "1e60"},  # control overflow
    {"alpha": "power:theta=1,p=1e300"},              # ratio 2**(p/s) overflow
    # contract ratio inf * 0.0 = nan: tau**2 overflows, 2**(-p/s) underflows
    {"modular": "power:p=600", "alpha": "power:theta=1,p=5000"},
    # a vanishing control with a positive defect refutes the audit
    {"phi": "mono(1,3) + sine(0.5,1)", "alpha": "const:eps=0"},
]


def run_contract(argv: list[str], out: str) -> int:
    """Run ``main``; assert the contract and return the exit code."""
    if os.path.exists(out):
        os.remove(out)
    code = main([*argv, "--out", out])
    assert code in (0, 2, 3, 4)
    if code in (0, 2):
        with open(out, encoding="utf-8") as fh:
            json.loads(fh.read())
    return code


def run_config(fields: dict, workdir: str) -> int:
    cfg = os.path.join(workdir, "run.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(CONFIG.format(**{**BASE, **fields}))
    return run_contract(["run", cfg], os.path.join(workdir, "report.json"))


def test_a_grid_at_the_point_cap_is_accepted_and_not_built():
    cfg = parse_experiment(CONFIG.format(**BASE).replace(",5\n", f",{MAX_GRID_POINTS}\n"))
    assert cfg.grid.count == MAX_GRID_POINTS
    assert "point_array" not in vars(cfg.grid)  # built on first use only


def test_a_grid_past_the_point_cap_exits_4(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.format(**BASE).replace(",5\n", f",{MAX_GRID_POINTS + 1}\n"))
    assert run_contract(["run", str(cfg)], str(tmp_path / "report.json")) == 4
    assert capsys.readouterr().err == (
        f"config error: [run] grid: grid has {MAX_GRID_POINTS + 1} points, "
        f"exceeding the cap of {MAX_GRID_POINTS}\n")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["run", "{cfg}", "--n-max", "abc"], "argument --n-max: invalid int value: 'abc'"),
    (["run"], "the following arguments are required: config"),
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    (["sweep", "{cfg}", "--format", "csv"], "unrecognized arguments: --format csv"),
])
def test_a_refused_command_line_exits_4(tmp_path, capsys, argv, message):
    # 2 means a report was written; a command line the parser refuses writes
    # nothing, so it is a config error with one line on stderr.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.format(**BASE) + SWEEP)
    assert main([a.format(cfg=cfg) for a in argv]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"config error: {message}") and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["run.cfg"]


NOT_UTF8 = "config error: config file is not UTF-8: byte 0x{:02x} at offset {} ({})\n"


@pytest.mark.parametrize("encode, line", [
    (lambda text: b"\xff\xfe" + text.encode(), NOT_UTF8.format(0xff, 0, "invalid start byte")),
    (lambda text: codecs.BOM_UTF16_BE + text.encode("utf-16-be"),
     NOT_UTF8.format(0xfe, 0, "invalid start byte")),
    (lambda text: ("# caf\xe9\n" + text).encode("latin-1"),
     NOT_UTF8.format(0xe9, 5, "invalid continuation byte")),
    (lambda text: codecs.BOM_UTF8 + text.encode(),
     "config error: config file starts with a UTF-8 byte order mark (ef bb bf); "
     "save it as UTF-8 without one\n"),
], ids=["ff_fe", "utf16", "latin1", "utf8_bom"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_config_file_that_is_not_plain_utf8_exits_4(tmp_path, capsys, command, encode, line):
    # Decoding fails before any parse: one config error line that names the
    # offending byte and its offset in the file, and nothing written.  A BOM
    # is refused by name rather than skipped, as it was refused before.
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(encode(CONFIG.format(**BASE) + (SWEEP if command == "sweep" else "")))
    assert main([command, str(cfg), "--out", str(tmp_path / "out")]) == 4
    assert capsys.readouterr() == ("", line)
    assert os.listdir(tmp_path) == ["run.cfg"]


def test_a_crlf_config_writes_the_bytes_of_its_lf_twin(tmp_path):
    # The file is decoded as bytes, with no newline translation; the parser
    # splits lines itself, so \r\n reads as \n.
    text = CONFIG.format(**BASE)
    (tmp_path / "lf.cfg").write_bytes(text.encode())
    (tmp_path / "crlf.cfg").write_bytes(text.replace("\n", "\r\n").encode())
    codes = [main(["run", str(tmp_path / f"{name}.cfg"), "--out", str(tmp_path / f"{name}.json")])
             for name in ("lf", "crlf")]
    assert codes == [2, 2]  # the base config's t1 is refused
    assert (tmp_path / "lf.json").read_bytes() == (tmp_path / "crlf.json").read_bytes()


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["sweep", "--help"]])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as done:
        main(argv)
    assert done.value.code == 0 and capsys.readouterr().out.startswith("usage: modstab")


@settings(derandomize=True, deadline=None, max_examples=150)
@given(fields=CONFIGS)
def test_run_ends_in_a_contract_exit_code(fields):
    with tempfile.TemporaryDirectory() as workdir:
        run_config(fields, workdir)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(spec=st.one_of(
    st.just("exp"),
    st.builds("power:p={}".format, st.sampled_from(
        ["1", "2.5", "20", "1023.5", "1024", "1e300", "inf", "nan", "0.5", "x"])),
))
def test_check_modular_ends_in_a_contract_exit_code(spec):
    with tempfile.TemporaryDirectory() as workdir:
        run_contract(["check-modular", spec], os.path.join(workdir, "m.json"))


SWEEP_CONFIG = """\
[equation]
s = 3
q = 1

[modular]
spec = power:p=1

[phi]
expr = {phi}

[alpha]
spec = power:theta=1,p=1

[run]
method = all
grid = {lo},{hi},{count}
seed = 3

[sweep]
{axes}
"""


def _axis(values):
    return st.lists(st.sampled_from(values), max_size=len(values), unique=True)


SWEEPS = st.fixed_dictionaries({
    "phi": st.lists(ATOMS, min_size=1, max_size=2).map(" + ".join),
    "lo": st.sampled_from(["-10", "-1e300"]),
    "hi": st.sampled_from(["10", "1e300"]),
    "count": st.integers(2, 11),
    "axes": st.fixed_dictionaries({
        "p": _axis(["0", "6", "1e300"]),
        "theta": _axis(["0", "1e300"]),
        "modular": _axis(["power:p=1", "power:p=2", "exp"]),
    }).filter(lambda axes: math.prod(len(v) or 1 for v in axes.values()) <= 8),
})


@settings(derandomize=True, deadline=None, max_examples=40)
@given(fields=SWEEPS)
def test_sweep_ends_in_a_contract_exit_code(fields):
    # A cell that fails is an error row; whether that row should turn the
    # exit code to 2 is left open here.
    axes = "\n".join(f"{k} = {','.join(v)}" for k, v in fields["axes"].items() if v)
    with tempfile.TemporaryDirectory() as workdir:
        cfg = os.path.join(workdir, "sweep.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(SWEEP_CONFIG.format(**{**fields, "axes": axes}))
        out = os.path.join(workdir, "out")
        assert main(["sweep", cfg, "--out", out]) in (0, 2, 3, 4)
        assert os.path.exists(os.path.join(out, "summary.csv"))


@pytest.mark.parametrize("fields", REPORTED_REPROS)
def test_extreme_run_exits_2_with_report(fields, tmp_path):
    assert run_config(fields, str(tmp_path)) == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["exit_code"] == 2


def test_additivity_root_that_overflows_exits_2_with_report(tmp_path):
    # The benchmark's regime_edge expand config at s = 5 on a 3-point grid:
    # x**5 + x**5 at the ends lands where the root's first estimate r has
    # r**5 past the float range.  The root is finite all the same, so the
    # additivity check reads a finite defect there; phi is cubic, not a
    # solution at s = 5, so the check fails and the run exits 2 with its report.
    text = (Path(__file__).parents[1] / "perfbench/workloads/regime_edge_expand.cfg").read_text()
    text = re.sub(r"(?m)^s = .*$", "s = 5", text)
    text = re.sub(r"(?m)^grid = .*$",
                  "grid = -3.897060184062643e+61,3.897060184062643e+61,3", text)
    cfg = tmp_path / "root_overflow.cfg"
    cfg.write_text(text)
    assert run_contract(["run", str(cfg)], str(tmp_path / "report.json")) == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["s"] == 5 and report["exit_code"] == 2
    (check,) = [c for c in report["methods"]["t2"]["checks"] if c["name"] == "radical_additivity"]
    assert isinstance(check["worst_value"], float) and math.isfinite(check["worst_value"])
    assert not check["passed"]


SWEEP = "\n[sweep]\nq = 1,-0.5\n"


@pytest.mark.parametrize("message, line", [
    ("", "out of memory\n"),
    ("Unable to allocate 7.28 TiB", "out of memory: Unable to allocate 7.28 TiB\n"),
])
@pytest.mark.parametrize("command, target", [("run", "run_experiment"), ("sweep", "write_sweep")])
def test_running_out_of_memory_exits_3(tmp_path, capsys, monkeypatch, command, target,
                                       message, line):
    def exhausted(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, target, exhausted)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.format(**BASE) + (SWEEP if command == "sweep" else ""))
    assert main([command, str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == line
