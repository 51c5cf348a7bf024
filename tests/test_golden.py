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
iterate rows fails here; ``large_grid_cliff/`` pins the same config on a
grid of +-1e102, where most of phi's batches hold points whose power
overflows and reads ``inf``; ``regime_edge/`` pins both sides of the
benchmark's ``regime_edge`` workload the same way, at the same two seeds.
``check_modular/`` pins ``modstab check-modular``
in JSON and CSV for two power modulars, one whose doubling excess is ``nan``
at a ladder sample (``power:p=100``) and the ``exp`` modular.

Regenerate the goldens only for an intended output change, with
``tests/golden/regen.py``: it runs every config above on a parent commit and
on the working tree, prints the leaf diff by path pattern and every verdict
that flips, and only then, with ``--write``, rewrites the goldens and the
``expected.sha256`` files.  List each changed field in CHANGES.md::

    python tests/golden/regen.py HEAD --write
"""

import hashlib
import importlib.util
import itertools
import os
import sys
from pathlib import Path

import pytest

from modstab import iterates
from modstab.cli import main
from modstab.config import SWEEP_AXES, cell_config, parse_sweep
from modstab.pipeline import run_experiment
from modstab.report import canonical_json

GOLDEN = Path(__file__).parent / "golden"


def _regen():
    # tests/golden is not a package; its dataclasses need the module registered.
    spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The golden inventory is regen's, so the tool and these tests cannot disagree on it.
regen = _regen()
RUN_CASES = [cfg.stem for cfg in regen.RUN_CONFIGS]


def _expected(name: str) -> Path:
    return regen.expected_output(GOLDEN / f"{name}.cfg")


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


def _digests(case: Path) -> dict:
    return dict(line.split()[::-1]
                for line in (case / "expected.sha256").read_text().splitlines())


def _assert_digest(case: str, cfg: str, seed: int, name: str, tmp_path: Path) -> None:
    out = tmp_path / name
    assert main(["run", str(GOLDEN / case / cfg), "--seed", str(seed), "--out", str(out)]) == 2
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _digests(GOLDEN / case)[name]


def test_every_digest_is_checked():
    # Each expected.sha256 lists exactly the reports regen digests, in its order.
    for case in regen.DIGESTS:
        assert list(_digests(GOLDEN / case)) == [
            name for c, _, _, name in regen.digest_reports() if c == case]


@pytest.mark.parametrize("case,cfg,seed,name", regen.digest_reports(),
                         ids=[f"{case}/{name}" for case, _, _, name in regen.digest_reports()])
def test_report_digest(case, cfg, seed, name, tmp_path):
    _assert_digest(case, cfg, seed, name, tmp_path)


@pytest.mark.parametrize("budget", [1, 10**7])
def test_reports_do_not_depend_on_the_row_block_size(budget, monkeypatch, tmp_path):
    # A budget of 1 point fills one table row per phi pass; 10**7 fills every
    # row up to MAX_N in one, and on the +-1e102 grid the points whose power
    # raises fall inside blocks.  Neither may move a bit.
    monkeypatch.setattr(iterates, "BLOCK_POINTS", budget)
    for name in ("saturated_window", "asymmetric_offset", "contract_ok"):
        test_run_report_is_byte_identical(name, tmp_path)
    for case, cfg, seed, name in regen.digest_reports():
        if case in ("regime_edge", "large_grid_cliff") and seed == 0:
            _assert_digest(case, cfg, seed, name, tmp_path)


@pytest.mark.parametrize("sweep", regen.SWEEPS)
def test_sweep_directory_is_byte_identical(sweep, tmp_path):
    expected = GOLDEN / sweep / "expected"
    out = tmp_path / "sweep"
    assert main(["sweep", str(GOLDEN / sweep / "sweep.cfg"), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == sorted(os.listdir(expected))
    for name in sorted(os.listdir(expected)):
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name


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


@pytest.mark.parametrize("spec", regen.CHECK_MODULAR_SPECS)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_check_modular_report_is_byte_identical(spec, fmt, tmp_path):
    name = regen.check_modular_name(spec, fmt)
    out = tmp_path / name
    assert main(["check-modular", spec, "--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes() == (regen.CHECK_MODULAR / name).read_bytes()


def _report(series: dict, passed: bool = True) -> dict:
    """A small in-memory report: two routes with ``series`` and one check each."""
    section = {"regime": {"ok": True, "ratio": 0.5}, "series": dict(series),
               "checks": [{"name": "stability_bound", "passed": passed, "worst_value": 0.0}]}
    return {"schema": "modstab-report/1",
            "methods": {"t1": section, "t2": {**section, "series": dict(series)}},
            "regime_ok": True, "checks_passed": passed, "exit_code": 0 if passed else 2}


def test_the_diff_tool_groups_a_dropped_field_by_path_pattern():
    old = _report({"value": 0.25, "terms_used": 1, "converged": True})
    new = _report({"value": 0.25, "converged": True})
    changes = regen.diff_reports(old, new)
    assert [(c.path, c.kind) for c in changes] == [
        (("methods", "t1", "series", "terms_used"), "removed"),
        (("methods", "t2", "series", "terms_used"), "removed"),
    ]
    assert regen.summarize(changes) == ["methods.*.series.terms_used: 2 removed"]
    assert not any(c.flips_a_verdict for c in changes)
    assert regen.diff_reports(old, old) == []


def test_the_diff_tool_lists_a_flipped_verdict():
    old, new = _report({"value": 0.25}), _report({"value": 0.25}, passed=False)
    new["schema"] = "modstab-report/2"
    changes = regen.diff_reports(old, new)
    flips = [".".join(map(str, c.path)) for c in changes if c.flips_a_verdict]
    assert flips == ["checks_passed", "exit_code", "methods.t1.checks.0.passed",
                     "methods.t2.checks.0.passed"]
    assert regen.summarize(changes) == [
        "checks_passed: 1 changed (true -> false)",
        "exit_code: 1 changed (0 -> 2)",
        "methods.*.checks.*.passed: 2 changed (true -> false)",
        'schema: 1 changed ("modstab-report/1" -> "modstab-report/2")',
    ]


def test_the_diff_tool_compares_leaves_as_printed():
    # A removed verdict leaf is a removal, not a flip; -0 and 0 are different
    # leaves; and a value that moves two ways shows no single pair.
    old = regen.load_report('{"a":[-0,1,2],"ok":true,"x":{"b":1e300}}')
    new = regen.load_report('{"a":[0,1,3],"x":{"b":1.0000000000000001e+300}}')
    changes = regen.diff_reports(old, new)
    assert [(c.path, c.kind) for c in changes] == [
        (("a", 0), "changed"), (("a", 2), "changed"), (("ok",), "removed"),
        (("x", "b"), "changed")]
    assert not any(c.flips_a_verdict for c in changes)
    assert regen.summarize(changes) == ["a.*: 2 changed", "ok: 1 removed",
                                        "x.b: 1 changed (1e300 -> 1.0000000000000001e+300)"]
