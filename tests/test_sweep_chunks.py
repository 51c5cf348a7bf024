"""A sweep split across forked workers writes what one process writes.

``write_sweep`` cuts the cells into one contiguous chunk per CPU of the
affinity mask, runs chunk 0 itself and forks a worker per other chunk.  The
CPU count is patched here, so the forked path runs on any host: whatever the
chunking, the directory must hold the bytes of ``run_sweep``'s reports and
rows, and no worker may outlive the sweep, whether it succeeds or fails.
"""

import os
import signal
from pathlib import Path

import pytest

from modstab import pipeline
from modstab.cli import main
from modstab.config import parse_sweep
from modstab.pipeline import SWEEP_HEADER, run_sweep, write_sweep
from modstab.report import canonical_json, csv_lines

CASE = Path(__file__).parent / "golden" / "sweep_axes" / "sweep.cfg"
CELLS = 48  # 2 s x 2 q x 3 p x 2 theta x 2 modulars


@pytest.fixture(autouse=True)
def deadline():
    """Fail a test that waits on a worker for a minute, rather than hang."""
    def expire(signum, frame):
        raise TimeoutError("a sweep worker was still being waited for after 60 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def expected() -> dict[str, bytes]:
    rows, cells = run_sweep(parse_sweep(CASE.read_text(encoding="utf-8")))
    assert len(cells) == CELLS
    files = {f"{name}.json": canonical_json(report).encode() for name, report in cells}
    files["summary.csv"] = csv_lines(SWEEP_HEADER, rows).encode()
    return files


def _cpus(monkeypatch, count: int) -> list[int]:
    """Give this process ``count`` CPUs; the returned list collects fork pids."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    forked: list[int] = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", fork)
    return forked


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2, 3, CELLS + 5])
def test_every_chunking_writes_the_same_bytes(cpus, expected, monkeypatch, tmp_path):
    forked = _cpus(monkeypatch, cpus)
    sweep = parse_sweep(CASE.read_text(encoding="utf-8"))
    path, code = write_sweep(sweep, str(tmp_path))
    assert (path, code) == (str(tmp_path / "summary.csv"), 0)
    assert len(forked) == min(cpus, CELLS) - 1
    assert sorted(os.listdir(tmp_path)) == sorted(expected)
    for name, data in expected.items():
        assert (tmp_path / name).read_bytes() == data, name
    _assert_no_child_left()


def test_one_chunk_without_affinity_or_fork(expected, monkeypatch, tmp_path):
    forked = _cpus(monkeypatch, 4)
    monkeypatch.delattr(os, "sched_getaffinity")
    write_sweep(parse_sweep(CASE.read_text(encoding="utf-8")), str(tmp_path))
    assert forked == []
    assert (tmp_path / "summary.csv").read_bytes() == expected["summary.csv"]
    monkeypatch.undo()
    monkeypatch.delattr(os, "fork")
    assert pipeline._cpu_count() == 1


@pytest.mark.parametrize("cell", [30, 5], ids=["worker_chunk", "chunk_0"])
def test_unwritable_cell_exits_3_and_leaves_no_child(cell, monkeypatch, tmp_path, capsys):
    # With two CPUs chunk 0 holds cells 0-23 and the worker cells 24-47.
    forked = _cpus(monkeypatch, 2)
    out = tmp_path / "out"
    blocked = out / f"cell_{cell:04d}.json"
    blocked.mkdir(parents=True)
    assert main(["sweep", str(CASE), "--out", str(out)]) == 3
    assert len(forked) == 1
    assert capsys.readouterr().err == f"i/o error: [Errno 21] Is a directory: '{blocked}'\n"
    assert not (out / "summary.csv").exists()
    _assert_no_child_left()


def test_rows_beyond_the_pipe_buffer_arrive_whole():
    # A worker blocks on a full pipe until the parent drains it, so the
    # parent must read before it waits.
    rows = [[i, float(i), None, "x" * 20] for i in range(20_000)]
    workers = [pipeline._fork_chunk(lambda: rows)]
    (data,) = pipeline._join(workers)
    assert len(data) > 1 << 16
    assert pipeline._worker_rows(workers[0][0], data) == rows
    _assert_no_child_left()


def test_worker_failures_reach_the_parent():
    workers = [pipeline._fork_chunk(lambda: 1 / 0), pipeline._fork_chunk(lambda: os._exit(7))]
    raised, silent = pipeline._join(workers)
    _assert_no_child_left()
    with pytest.raises(ZeroDivisionError):
        pipeline._worker_rows(workers[0][0], raised)
    with pytest.raises(ChildProcessError, match="ended without sending its rows"):
        pipeline._worker_rows(workers[1][0], silent)
