"""Config document parsing and validation."""

import pytest

from modstab import ConfigError
from modstab.config import parse_experiment, parse_sweep

GOOD = """\
# comment line
[equation]
s = 3
q = 1

[modular]
spec = power:p=1

[phi]
expr = mono(1,3) + sine(0.1,1)

[alpha]
spec = const:eps=0.1

[run]
method = t2
grid = -10,10,41
tol = 1e-9
n_max = 60
seed = 42
out = report.json
format = json
"""


def test_parse_full_experiment():
    cfg = parse_experiment(GOOD)
    assert cfg.params.s == 3 and cfg.params.q == 1.0
    assert cfg.modular.kind == "power" and cfg.modular.p == 1.0
    assert cfg.phi(1.0) != 0.0
    assert cfg.alpha.kind == "constant" and cfg.alpha.eps == 0.1
    assert cfg.method == "t2"
    assert (cfg.grid.lo, cfg.grid.hi, cfg.grid.count) == (-10.0, 10.0, 41)
    assert cfg.tol == 1e-9 and cfg.n_max == 60 and cfg.seed == 42
    assert cfg.out == "report.json" and cfg.fmt == "json"


def test_defaults_applied():
    text = GOOD.replace("tol = 1e-9\n", "").replace("n_max = 60\n", "") \
               .replace("seed = 42\n", "").replace("out = report.json\n", "") \
               .replace("format = json\n", "")
    cfg = parse_experiment(text)
    assert cfg.tol == 1e-9 and cfg.n_max == 60 and cfg.seed == 0
    assert cfg.out is None and cfg.fmt == "json"


@pytest.mark.parametrize("mutation", [
    ("method = t2", "method = banach"),       # unknown method
    ("grid = -10,10,41", "grid = -10,10"),    # malformed grid
    ("grid = -10,10,41", "grid = 10,-10,41"), # lo >= hi
    ("grid = -10,10,41", "grid = -10,10,1"),  # too few points
    ("tol = 1e-9", "tol = 0"),                # nonpositive tol
    ("s = 3", "s = 4"),                       # even exponent
    ("q = 1", "q = 0"),                       # zero q
    ("q = 1", "q = 2"),                       # |q| > 1
    ("spec = power:p=1", "spec = power:p=0.3"),
    ("expr = mono(1,3) + sine(0.1,1)", "expr = wave(1)"),
    ("format = json", "format = xml"),
])
def test_invalid_configs_rejected(mutation):
    old, new = mutation
    with pytest.raises(ConfigError):
        parse_experiment(GOOD.replace(old, new))


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_experiment(GOOD + "\n[run2]\nfoo = 1\n")
    with pytest.raises(ConfigError):
        parse_experiment(GOOD.replace("seed = 42", "sede = 42"))


def test_missing_section_rejected():
    with pytest.raises(ConfigError):
        parse_experiment(GOOD.replace("[alpha]\nspec = const:eps=0.1\n", ""))


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError):
        parse_experiment("s = 3\n" + GOOD)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_experiment(GOOD.replace("s = 3", "s = 3\ns = 5"))


POWER_GOOD = GOOD.replace("spec = const:eps=0.1", "spec = power:theta=0.5,p=1")


def test_sweep_axes_and_order():
    # A p axis needs a power control in the base experiment.
    text = POWER_GOOD + "\n[sweep]\np = 1,2,4\ns = 3,5\noutdir = out\n"
    sw = parse_sweep(text)
    assert list(sw.axes.keys()) == ["s", "p"]  # canonical axis order
    assert sw.axes["p"] == ["1", "2", "4"]
    assert sw.outdir == "out"


def test_sweep_requires_sweep_section():
    with pytest.raises(ConfigError):
        parse_sweep(GOOD)


def test_run_rejects_sweep_section():
    with pytest.raises(ConfigError):
        parse_experiment(GOOD + "\n[sweep]\np = 1,2\n")


def test_sweep_cap_enforced():
    # 101 * 100 cells, one past the fixed cap of 10000, refused at parse time.
    p = ",".join(str(v) for v in range(1, 102))
    theta = ",".join(str(v / 100) for v in range(1, 101))
    text = POWER_GOOD + f"\n[sweep]\np = {p}\ntheta = {theta}\n"
    with pytest.raises(ConfigError, match="sweep has 10100 cells, exceeding the cap of 10000"):
        parse_sweep(text)


def test_empty_axis_rejected():
    with pytest.raises(ConfigError):
        parse_sweep(GOOD + "\n[sweep]\np = ,\n")


@pytest.mark.parametrize("axis, values, message", [
    ("s", "3,4", "s must be an odd integer >= 3, got 4"),
    ("s", "3,5.0", "invalid literal for int()"),
    ("q", "1,0", "q must satisfy 0 < |q| <= 1, got 0.0"),
    ("q", "0.5,-2", "q must satisfy 0 < |q| <= 1, got -2.0"),
    ("q", "1,x", "could not convert string to float"),
    ("p", "1,-1", "control parameters must be finite and >= 0"),
    ("p", "1,inf", "control parameters must be finite and >= 0"),
    ("theta", "0.5,nan", "control parameters must be finite and >= 0"),
    ("modular", "power:p=1,bogus", "unknown modular spec 'bogus'"),
    ("modular", "exp,power:p=0.5", "power modular needs exponent p >= 1"),
])
def test_sweep_axis_value_a_cell_cannot_parse_is_config_error(axis, values, message):
    bad = values.split(",")[-1]
    with pytest.raises(ConfigError, match=r"^\[sweep\] " + axis + " = ") as caught:
        parse_sweep(POWER_GOOD + f"\n[sweep]\n{axis} = {values}\n")
    assert f"[sweep] {axis} = {bad}: " in str(caught.value)
    assert message in str(caught.value)


@pytest.mark.parametrize("axis", ["p", "theta"])
def test_control_axis_needs_a_power_control(axis):
    with pytest.raises(ConfigError, match="need a power control function"):
        parse_sweep(GOOD + f"\n[sweep]\n{axis} = 1,2\n")


def test_sweep_axis_values_that_every_cell_parses_are_kept_as_text():
    sw = parse_sweep(POWER_GOOD + "\n[sweep]\ns = 3, 5\nq = -1,0.05\np = 0,1e300\n"
                     "theta = 0\nmodular = power:p=1,exp\n")
    assert sw.axes == {"s": ["3", "5"], "q": ["-1", "0.05"], "p": ["0", "1e300"],
                       "theta": ["0"], "modular": ["power:p=1", "exp"]}
