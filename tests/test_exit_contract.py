"""The exit-code contract is total: every input ends in 0, 2, 3 or 4.

Configs are drawn from values picked to leave the float range somewhere in a
run: huge and infinite grid ends, negative powers that hit the pole at zero,
frequencies whose products overflow into ``sin(inf)``, control parameters
that overflow or are not numbers, and a modular whose doubling constant is
not a float.  Whatever the draw, ``main`` must return normally with an exit
code of the contract, and a run that exits 0 or 2 must leave a JSON report.
"""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modstab.cli import main

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
# One number in four drawn configs is one a float cannot hold, so that most
# draws run the routes and the rest exercise the config checks.
UNREPRESENTABLE = st.sampled_from([
    {"lo": "-inf"}, {"hi": "inf"}, {"modular": "power:p=1024"}, {"tol": "nan"},
    {"alpha": "power:theta=nan,p=6"}, {"alpha": "power:theta=6,p=nan"},
    {"alpha": "const:eps=nan"},
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


@pytest.mark.parametrize("fields", REPORTED_REPROS)
def test_extreme_run_exits_2_with_report(fields, tmp_path):
    assert run_config(fields, str(tmp_path)) == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["exit_code"] == 2
