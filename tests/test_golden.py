"""Byte-for-byte golden reports pinned from modstab 0.1.0.

Each ``tests/golden/<name>.cfg`` is run through the CLI and its report must
equal ``<name>.json`` (or ``.csv``) byte for byte; ``sweep_small/`` pins a
whole sweep directory.  The configs cover every route both in and out of
regime, a saturated fixed-point window and a libm-pow modular, so any change
to a hot path that moves a single output bit shows here.

Regenerate a golden only for an intended output change, and list each
changed field in CHANGES.md::

    PYTHONPATH=src python -m modstab.cli run tests/golden/NAME.cfg \\
        --out tests/golden/NAME.json
    PYTHONPATH=src python -m modstab.cli sweep tests/golden/sweep_small/sweep.cfg \\
        --out tests/golden/sweep_small/expected
"""

import os
from pathlib import Path

import pytest

from modstab.cli import main

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


def test_sweep_directory_is_byte_identical(tmp_path):
    case = GOLDEN / "sweep_small"
    expected = case / "expected"
    out = tmp_path / "sweep"
    assert main(["sweep", str(case / "sweep.cfg"), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == sorted(os.listdir(expected))
    for name in sorted(os.listdir(expected)):
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name
