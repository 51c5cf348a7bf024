"""Byte-for-byte golden reports pinned from modstab 0.1.0.

Each ``tests/golden/<name>.cfg`` is run through the CLI and its report must
equal ``<name>.json`` (or ``.csv``) byte for byte; ``sweep_small/`` and
``sweep_axes/`` pin whole sweep directories.  The configs cover every route
both in and out of regime, a saturated fixed-point window and a libm-pow
modular, so any change to a hot path that moves a single output bit shows
here.  ``sweep_axes`` varies all five sweep axes with ``phi(0) != 0``, so a
result shared between cells under too coarse a key moves some cell's bytes,
and each of its cells must also equal a standalone run of that cell.
``large_grid/`` pins the 4001-point run at two seeds by the sha256 of its
868 kB report, so a one-ulp drift anywhere in its 4001 points and 34
iterate rows fails here; ``regime_edge/`` pins both sides of the
benchmark's ``regime_edge`` workload the same way, at the same two seeds.  ``check_modular/`` pins ``modstab check-modular``
in JSON and CSV for two power modulars, one whose doubling excess is ``nan``
at a ladder sample (``power:p=100``) and the ``exp`` modular.

Regenerate a golden only for an intended output change, and list each
changed field in CHANGES.md::

    PYTHONPATH=src python -m modstab.cli run tests/golden/NAME.cfg \\
        --out tests/golden/NAME.json
    PYTHONPATH=src python -m modstab.cli sweep tests/golden/SWEEP/sweep.cfg \\
        --out tests/golden/SWEEP/expected
    cd tests/golden/large_grid && for seed in 0 7; do \\
        PYTHONPATH=../../../src python -m modstab.cli run large_grid.cfg \\
        --seed $seed --out report_seed$seed.json; done && \\
        sha256sum report_seed*.json > expected.sha256 && rm report_seed*.json
    cd tests/golden/regime_edge && for side in expand contract; do \\
        for seed in 0 7; do PYTHONPATH=../../../src python -m modstab.cli run \\
        regime_edge_$side.cfg --seed $seed --out regime_edge_${side}_seed$seed.json; \\
        done; done && sha256sum regime_edge_*.json > expected.sha256 && \\
        rm regime_edge_*.json
    cd tests/golden/check_modular && for spec in power:p=1 power:p=2 \\
        power:p=100 exp; do name=$(echo $spec | tr ':=' '__'); \\
        PYTHONPATH=../../../src python -m modstab.cli check-modular $spec \\
        --out $name.json; \\
        PYTHONPATH=../../../src python -m modstab.cli check-modular $spec \\
        --format csv --out $name.csv; done
"""

import hashlib
import itertools
import os
from pathlib import Path

import pytest

from modstab.cli import main
from modstab.config import SWEEP_AXES, cell_config, parse_sweep
from modstab.pipeline import run_experiment
from modstab.report import canonical_json

GOLDEN = Path(__file__).parent / "golden"
RUN_CASES = sorted(p.stem for p in GOLDEN.glob("*.cfg"))


def _expected(name: str) -> Path:
    (path,) = [p for p in GOLDEN.glob(f"{name}.*") if p.suffix != ".cfg"]
    return path


def test_golden_cases_are_present():
    # Guards against the parametrized test below silently running nothing.
    assert len(RUN_CASES) >= 7
    for name in RUN_CASES:
        assert _expected(name).suffix in (".json", ".csv")


@pytest.mark.parametrize("name", RUN_CASES)
def test_run_report_is_byte_identical(name, tmp_path):
    expected = _expected(name)
    out = tmp_path / expected.name
    assert main(["run", str(GOLDEN / f"{name}.cfg"), "--out", str(out)]) == 2
    assert out.read_bytes() == expected.read_bytes()


LARGE_GRID = GOLDEN / "large_grid"
LARGE_GRID_DIGESTS = dict(
    line.split()[::-1] for line in (LARGE_GRID / "expected.sha256").read_text().splitlines())


@pytest.mark.parametrize("seed", [0, 7])
def test_large_grid_report_digest(seed, tmp_path):
    name = f"report_seed{seed}.json"
    out = tmp_path / name
    assert main(["run", str(LARGE_GRID / "large_grid.cfg"), "--seed", str(seed),
                 "--out", str(out)]) == 2
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LARGE_GRID_DIGESTS[name]


REGIME_EDGE = GOLDEN / "regime_edge"
REGIME_EDGE_DIGESTS = dict(
    line.split()[::-1] for line in (REGIME_EDGE / "expected.sha256").read_text().splitlines())


@pytest.mark.parametrize("side", ["expand", "contract"])
@pytest.mark.parametrize("seed", [0, 7])
def test_regime_edge_report_digest(side, seed, tmp_path):
    name = f"regime_edge_{side}_seed{seed}.json"
    out = tmp_path / name
    assert main(["run", str(REGIME_EDGE / f"regime_edge_{side}.cfg"), "--seed", str(seed),
                 "--out", str(out)]) == 2
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REGIME_EDGE_DIGESTS[name]


def _assert_sweep_matches(case: Path, tmp_path: Path) -> None:
    expected = case / "expected"
    out = tmp_path / "sweep"
    assert main(["sweep", str(case / "sweep.cfg"), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == sorted(os.listdir(expected))
    for name in sorted(os.listdir(expected)):
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name


def test_sweep_directory_is_byte_identical(tmp_path):
    _assert_sweep_matches(GOLDEN / "sweep_small", tmp_path)


def test_sweep_over_every_axis_is_byte_identical(tmp_path):
    _assert_sweep_matches(GOLDEN / "sweep_axes", tmp_path)


def test_each_sweep_cell_equals_a_standalone_run():
    # A sweep shares results between cells; a standalone run shares nothing
    # with other cells, so equal bytes show the sharing is exact.
    case = GOLDEN / "sweep_axes"
    sweep = parse_sweep((case / "sweep.cfg").read_text(encoding="utf-8"))
    axes = [axis for axis in SWEEP_AXES if axis in sweep.axes]
    assert axes == list(SWEEP_AXES)
    combos = list(itertools.product(*[sweep.axes[axis] for axis in axes]))
    assert len(combos) == len(list((case / "expected").glob("cell_*.json")))
    for idx, combo in enumerate(combos):
        report, _ = run_experiment(cell_config(sweep.base, dict(zip(axes, combo))))
        expected = (case / "expected" / f"cell_{idx:04d}.json").read_text(encoding="utf-8")
        assert canonical_json(report) == expected, idx


CHECK_MODULAR = GOLDEN / "check_modular"


@pytest.mark.parametrize("spec", ["power:p=1", "power:p=2", "power:p=100", "exp"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_check_modular_report_is_byte_identical(spec, fmt, tmp_path):
    name = f"{spec.replace(':', '_').replace('=', '_')}.{fmt}"
    out = tmp_path / name
    assert main(["check-modular", spec, "--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes() == (CHECK_MODULAR / name).read_bytes()
