"""Diff every golden output of a parent commit against the working tree; optionally rewrite.

Usage, from the repository root::

    python tests/golden/regen.py PARENT [--extra CONFIG ...] [--write]

``PARENT`` is any commit git names.  Its ``src/`` is extracted with
``git archive`` into a temporary directory, which registers nothing in
``.git`` and is gone when the tool ends.  Every golden config then runs
through the ``modstab`` CLI twice, once on the parent's ``src/`` and once on
the working tree's, in a fresh process each:

* each ``tests/golden/*.cfg`` run (JSON or CSV, as the config says);
* both sweep directories, ``sweep_small`` and ``sweep_axes``;
* ``check-modular`` in JSON and CSV for the four pinned specs;
* the digest directories ``large_grid``, ``large_grid_cliff`` and
  ``regime_edge`` at seeds 0 and 7;
* any ``--extra`` run config, as JSON whatever its format, which is diffed
  and never written.

The tool prints which outputs, exit codes and stderr texts are byte-identical,
then the leaf diff of every JSON output grouped by path pattern (a method
name and a list index read ``*``), for example
``methods.*.scaling_check.vanishing: 57 removed``, then every verdict leaf
(``VERDICT_KEYS``) whose value flips, one by one, and every exit code that
changes.  A leaf compares by its canonical JSON text, so ``-0`` and ``0``
differ.  With ``--write``, and only after that diff is printed, the working
tree's outputs replace the goldens and the ``expected.sha256`` files.

``diff_reports`` and ``summarize`` are pure functions over two report dicts;
``tests/test_golden.py`` tests them on in-memory reports.  The golden
inventory (``RUN_CONFIGS``, ``SWEEPS``, ``CHECK_MODULAR_SPECS``, ``SEEDS``,
``DIGESTS``) is kept here only: ``tests/test_golden.py`` checks each golden
it names against the working tree.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
REPO = GOLDEN.parents[1]

VERDICT_KEYS = frozenset({"passed", "ok", "hypothesis_ok", "regime_ok", "checks_passed",
                          "all_passed", "exit_code"})
RUN_CONFIGS = tuple(sorted(GOLDEN.glob("*.cfg")))
SWEEPS = ("sweep_small", "sweep_axes")
CHECK_MODULAR = GOLDEN / "check_modular"
CHECK_MODULAR_SPECS = ("power:p=1", "power:p=2", "power:p=100", "exp")
SEEDS = (0, 7)
# Each digest directory: its configs, in the order of its expected.sha256, and the
# report name of a config at a seed.
DIGESTS = {
    "large_grid": (("large_grid.cfg",), "report_seed{seed}.json"),
    "large_grid_cliff": (("large_grid_cliff.cfg",), "report_seed{seed}.json"),
    "regime_edge": (("regime_edge_expand.cfg", "regime_edge_contract.cfg"),
                    "{stem}_seed{seed}.json"),
}


def expected_output(cfg: Path) -> Path:
    """The golden of run config ``cfg``: its stem, with the suffix of its format."""
    (path,) = [p for p in GOLDEN.glob(f"{cfg.stem}.*") if p.suffix != ".cfg"]
    return path


def check_modular_name(spec: str, fmt: str) -> str:
    """The golden file of ``check-modular spec --format fmt``."""
    return f"{spec.replace(':', '_').replace('=', '_')}.{fmt}"


def digest_reports() -> list[tuple[str, str, int, str]]:
    """``(case, config, seed, report name)`` of every digested report."""
    return [(case, cfg, seed, template.format(stem=Path(cfg).stem, seed=seed))
            for case, (configs, template) in DIGESTS.items() for cfg in configs
            for seed in SEEDS]


# ---------------------------------------------------------------- the pure diff core

class Number(str):
    """A JSON number kept as its text, so that ``-0`` and ``0`` are different leaves."""


def load_report(text: str):
    """A JSON document with every number kept as its text (``Number``)."""
    return json.loads(text, parse_int=Number, parse_float=Number)


def leaves(tree, path: tuple = ()) -> dict[tuple, object]:
    """Every leaf of ``tree`` by its path; a list index is an ``int`` in the path."""
    if isinstance(tree, dict):
        items = tree.items()
    elif isinstance(tree, (list, tuple)):
        items = enumerate(tree)
    else:
        return {path: tree}
    out: dict[tuple, object] = {}
    for key, value in items:
        out.update(leaves(value, (*path, key)))
    return out


def pattern(path: tuple) -> str:
    """``path`` with each list index and each method name (the key under ``methods``)
    read ``*``, joined by dots."""
    parts = []
    for i, key in enumerate(path):
        wild = isinstance(key, int) or (i > 0 and path[i - 1] == "methods")
        parts.append("*" if wild else str(key))
    return ".".join(parts)


def _same(a, b) -> bool:
    # repr tells -0.0 from 0.0 and finds nan equal to nan, for reports built in memory.
    return type(a) is type(b) and repr(a) == repr(b)


def _text(value) -> str:
    """A leaf as its report prints it: a ``Number`` as its text, anything else as JSON."""
    return str(value) if isinstance(value, Number) else json.dumps(value)


def _path_key(path: tuple) -> list:
    # List indices sort as numbers, keys as text.
    return [(0, k, "") if isinstance(k, int) else (1, 0, str(k)) for k in path]


@dataclass(frozen=True)
class LeafChange:
    """One moved leaf: ``kind`` is ``removed``, ``added`` or ``changed``."""

    path: tuple
    kind: str
    old: object = None
    new: object = None

    @property
    def flips_a_verdict(self) -> bool:
        return self.kind == "changed" and bool(self.path) and self.path[-1] in VERDICT_KEYS


def diff_reports(old, new) -> list[LeafChange]:
    """Every leaf that differs between two reports, in path order: removed from ``old``,
    added in ``new``, or changed in value."""
    before, after = leaves(old), leaves(new)
    changes = []
    for path in sorted(before.keys() | after.keys(), key=_path_key):
        if path not in after:
            changes.append(LeafChange(path, "removed", old=before[path]))
        elif path not in before:
            changes.append(LeafChange(path, "added", new=after[path]))
        elif not _same(before[path], after[path]):
            changes.append(LeafChange(path, "changed", before[path], after[path]))
    return changes


def summarize(changes: list[LeafChange]) -> list[str]:
    """One line per path pattern and kind, with its count, in pattern order.  A pattern
    whose changes all go from one value to one other shows that pair."""
    groups: dict[tuple, list[LeafChange]] = collections.defaultdict(list)
    for change in changes:
        groups[pattern(change.path), change.kind].append(change)
    lines = []
    for (name, kind), members in sorted(groups.items()):
        line = f"{name}: {len(members)} {kind}"
        if kind == "changed":
            pairs = {(_text(c.old), _text(c.new)) for c in members}
            if len(pairs) == 1:
                (a, b), = pairs
                line += f" ({a} -> {b})"
        lines.append(line)
    return lines


# ---------------------------------------------------------------- running the CLI

@dataclass(frozen=True)
class Job:
    """One CLI call: ``argv`` after ``modstab``, run in a fresh directory, which then
    holds what the call wrote, under the names the goldens use."""

    label: str
    argv: tuple


def _run_jobs(extras: list[Path]) -> list[Job]:
    jobs = []
    for cfg in RUN_CONFIGS:
        jobs.append(Job(f"run {cfg.name}", ("run", str(cfg), "--out",
                                           expected_output(cfg).name)))
    for cfg in extras:
        jobs.append(Job(f"extra {cfg}", ("run", str(cfg.resolve()), "--format", "json",
                                         "--out", "extra.json")))
    for sweep in SWEEPS:
        jobs.append(Job(f"sweep {sweep}", ("sweep", str(GOLDEN / sweep / "sweep.cfg"),
                                           "--out", "expected")))
    for spec in CHECK_MODULAR_SPECS:
        for fmt in ("json", "csv"):
            name = check_modular_name(spec, fmt)
            jobs.append(Job(f"check-modular {name}",
                            ("check-modular", spec, "--format", fmt, "--out", name)))
    for case, cfg, seed, name in digest_reports():
        jobs.append(Job(f"{case} {name}", ("run", str(GOLDEN / case / cfg),
                                           "--seed", str(seed), "--out", name)))
    return jobs


@dataclass
class Outcome:
    code: int
    stdout: bytes
    stderr: bytes
    files: dict[str, bytes]


def _execute(job: Job, src: Path, workdir: Path) -> Outcome:
    workdir.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "modstab.cli", *job.argv], cwd=workdir,
                          env=env, capture_output=True, check=False)
    files = {p.relative_to(workdir).as_posix(): p.read_bytes()
             for p in sorted(workdir.rglob("*")) if p.is_file()}
    return Outcome(done.returncode, done.stdout, done.stderr, files)


def _extract_src(parent: str, into: Path) -> Path:
    tar = subprocess.run(["git", "archive", "--format=tar", parent, "src"], cwd=REPO,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        kwargs = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(into, **kwargs)
    return into / "src"


def _compare(jobs, old: dict, new: dict) -> tuple[list[str], list[LeafChange], list[str]]:
    """What ``main`` prints before the leaf changes, every leaf change, and every verdict
    leaf and exit code that flips."""
    notes, changes, flips = [], [], []
    files = identical = 0
    for job in jobs:
        a, b = old[job.label], new[job.label]
        if a.code != b.code:
            flips.append(f"{job.label}: exit code {a.code} -> {b.code}")
        if (a.stdout, a.stderr) != (b.stdout, b.stderr):
            notes.append(f"  {job.label}: stdout or stderr differs")
        for name in sorted(a.files.keys() | b.files.keys()):
            files += 1
            x, y = a.files.get(name), b.files.get(name)
            if x == y:
                identical += 1
            elif x is None or y is None:
                notes.append(f"  {job.label}: {name} {'added' if x is None else 'removed'}")
            elif not name.endswith(".json"):
                notes.append(f"  {job.label}: {name} differs, and is not JSON")
            else:
                moved = diff_reports(load_report(x.decode()), load_report(y.decode()))
                changes.extend(moved)
                flips.extend(f"{job.label}: {'.'.join(map(str, c.path))}: "
                             f"{_text(c.old)} -> {_text(c.new)}"
                             for c in moved if c.flips_a_verdict)
    same = sum(old[j.label].code == new[j.label].code for j in jobs)
    head = [f"{len(jobs)} commands: {same} with the same exit code; "
            f"{files} output files: {identical} byte-identical",
            "stdout, stderr and the files that are not JSON: "
            + ("see below" if notes else "identical")]
    return head + notes, changes, flips


def _write(jobs, new: dict) -> None:
    """Replace every golden with the working tree's output; extras are never written."""
    for sweep in SWEEPS:
        expected = GOLDEN / sweep / "expected"
        shutil.rmtree(expected)
        expected.mkdir()
    digests: dict[str, list[str]] = collections.defaultdict(list)
    for job in jobs:
        kind, _, _ = job.label.partition(" ")
        if kind == "extra":
            continue
        for name, data in new[job.label].files.items():
            if kind in DIGESTS:
                digests[kind].append(f"{hashlib.sha256(data).hexdigest()}  {name}\n")
            elif kind == "sweep":
                (GOLDEN / job.label.split()[1] / name).write_bytes(data)
            elif kind == "check-modular":
                (CHECK_MODULAR / name).write_bytes(data)
            else:
                (GOLDEN / name).write_bytes(data)
    for case, lines in digests.items():
        (GOLDEN / case / "expected.sha256").write_text("".join(lines), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", help="the commit to diff against, e.g. HEAD or HEAD~1")
    parser.add_argument("--extra", action="append", default=[], type=Path,
                        help="another run config to diff (never written); repeatable")
    parser.add_argument("--write", action="store_true",
                        help="after printing the diff, rewrite the goldens and digests")
    args = parser.parse_args(argv)
    jobs = _run_jobs(args.extra)
    with tempfile.TemporaryDirectory(prefix="golden-regen-") as tmp:
        tmp = Path(tmp)
        sides = {"parent": _extract_src(args.parent, tmp / "parent"), "tree": REPO / "src"}
        results = {side: {job.label: _execute(job, src, tmp / side / str(i))
                          for i, job in enumerate(jobs)}
                   for side, src in sides.items()}
    head, changes, flips = _compare(jobs, results["parent"], results["tree"])
    print(f"golden diff: {args.parent} -> working tree")
    print("\n".join(head))
    print("leaf changes by path pattern:" if changes else "leaf changes: none")
    for line in summarize(changes):
        print(f"  {line}")
    print("verdict flips:" if flips else "verdict flips: none")
    for line in flips:
        print(f"  {line}")
    if args.write:
        _write(jobs, results["tree"])
        print("wrote the goldens and expected.sha256 files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
