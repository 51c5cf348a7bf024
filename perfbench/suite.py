"""Collect, print and compare sets of benchmark runs.

Usage::

    # ten seeds of every workload, each run in its own process
    python3 perfbench/suite.py collect results.jsonl --runs 10 [--trace 1]
    # ten alternating pairs of two checkouts with identical benchmark code
    python3 perfbench/suite.py pair OUTDIR --parent CHECKOUT --change CHECKOUT
    # every metric by name and unit, one row per workload
    python3 perfbench/suite.py show results.jsonl
    # each side's median and quartiles per metric and workload, with a verdict
    python3 perfbench/suite.py compare OUTDIR/parent.jsonl OUTDIR/change.jsonl

Every run lasts the ``run_seconds`` of its checkout's BENCHMARK.json, so
both sides of a pair run as long as the benchmark fixes. ``--workloads``
takes a comma-separated subset of the workloads, and ``--first-seed`` the
seed of the first run.

A result set is a JSON-lines file: one line describing the machine, then one
line per run with the run's final JSON object and its detail file.

``compare`` labels each pairing of end-to-end metric and workload:

* improved: of at least ten pairs (the i-th run of each side), the change
  wins at least nine tenths, ties counting for neither, and the medians
  differ by more than the parent's interquartile range;
* no worse: the change's median is not worse than the parent's by more than
  the metric's bound, and the parent's spread is within that bound; or every
  change run beats every parent run;
* unresolved: the parent's spread is wider than the bound;
* worse: the spread resolves it and the median is worse by more than the bound.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

import common
from run import latency_tail

RUN_TIMEOUT_S = 900
MIN_PAIRS = 10  # fewer pairs than this never count as an improvement


def _read_first(path: str, prefix: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _last_level_cache() -> str | None:
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, None)
    try:
        entries = os.listdir(base)
    except OSError:
        return None
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level"), encoding="utf-8") as fh:
                level = int(fh.read())
            with open(os.path.join(base, entry, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, size), key=lambda t: t[0])
    return best[1]


def machine() -> dict:
    import numpy

    mem_kb = _read_first("/proc/meminfo", "MemTotal")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "last_level_cache": _last_level_cache(),
        "ram_gib": round(int(mem_kb.split()[0]) / 2**20, 2) if mem_kb else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_openmp_threads": common.BLAS_THREADS,
        "platform": platform.platform(),
    }


def bench_digest(checkout: str) -> str:
    """Hash of the benchmark's own files in ``checkout``."""
    sha = hashlib.sha256()
    paths = [os.path.join(checkout, "BENCHMARK.json")]
    for dirpath, dirnames, filenames in os.walk(os.path.join(checkout, "perfbench")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        sha.update(os.path.relpath(path, checkout).encode() + b"\0")
        with open(path, "rb") as fh:
            sha.update(fh.read())
    return sha.hexdigest()


def run_one(checkout: str, workload: str, seed: int, trace: int) -> dict:
    """One run of ``checkout``'s benchmark, for that checkout's run length."""
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    entry = {"workload": workload, "seed": seed, "trace": trace,
             "checkout": os.path.abspath(checkout), "exit_code": proc.returncode}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        entry["error"] = proc.stderr[-2000:]
        return entry
    entry["result"] = json.loads(lines[-1])
    with open(os.path.join(checkout, ".perfbench", workload, "result.json"),
              encoding="utf-8") as fh:
        entry["detail"] = json.load(fh)
    return entry


def _progress(entry: dict) -> None:
    tag = f"{entry['workload']} seed {entry['seed']} trace {entry['trace']}"
    if "error" in entry:
        print(f"{tag}: exit {entry['exit_code']}\n{entry['error']}", file=sys.stderr)
        return
    res = entry["result"]
    shown = ", ".join(f"{k} {v['value']:.4g}" for k, v in list(res["metrics"].items())[:4])
    print(f"{tag}: {res['attempted']} ops, {res['failed']} failed; {shown}", file=sys.stderr)


def _workloads(arg: str | None) -> list[str]:
    return list(common.WORKLOADS) if not arg else arg.split(",")


def cmd_collect(args) -> None:
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"machine": machine()}) + "\n")
        for workload in _workloads(args.workloads):
            for i in range(args.runs):
                entry = run_one(common.ROOT, workload, args.first_seed + i, args.trace)
                _progress(entry)
                fh.write(json.dumps(entry) + "\n")
                fh.flush()


def cmd_pair(args) -> None:
    if bench_digest(args.parent) != bench_digest(args.change):
        sys.exit("pair: the two checkouts have different benchmark files")
    os.makedirs(args.outdir, exist_ok=True)
    sides = {"parent": args.parent, "change": args.change}
    files = {side: open(os.path.join(args.outdir, f"{side}.jsonl"), "w", encoding="utf-8")
             for side in sides}
    try:
        for fh in files.values():
            fh.write(json.dumps({"machine": machine()}) + "\n")
        for workload in _workloads(args.workloads):
            for i in range(args.runs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    entry = run_one(sides[side], workload, args.first_seed + i, args.trace)
                    _progress(entry)
                    files[side].write(json.dumps(entry) + "\n")
                    files[side].flush()
    finally:
        for fh in files.values():
            fh.close()


def load(path: str) -> tuple[dict, list[dict]]:
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    return lines[0]["machine"], lines[1:]


def _runs(entries: list[dict], workload: str, trace: int) -> list[dict]:
    return [e for e in entries
            if e["workload"] == workload and e["trace"] == trace and "result" in e]


def _stats(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def _cell(values: list[float]) -> str:
    med, q1, q3 = _stats(values)
    spread = (q3 - q1) / abs(med) if med else 0.0
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] {100 * spread:.1f}%"


def _number(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else f"{v:.6g}"


def _machine_line(m: dict) -> str:
    return (f"machine: {m['nproc']} x {m['cpu_model']}, LLC {m['last_level_cache']}, "
            f"RAM {m['ram_gib']} GiB, Python {m['python']}, numpy {m['numpy']}, "
            f"BLAS/OpenMP threads {m['blas_openmp_threads']}")


def _table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
                     for r in [header] + rows)


def cmd_show(args) -> None:
    bench = common.load_benchmark()
    for path in args.files:
        m, entries = load(path)
        print(f"{path}\n{_machine_line(m)}\n")
        metrics = [(e["name"], e["unit"]) for e in bench["end_to_end"]]
        header = ["workload", "runs"] + [f"{n} [{u}]" for n, u in metrics] + [
            "failed_ratio", "latency_s.tail [s]", "host loop [ms]"]
        rows = []
        for workload in common.WORKLOADS:
            runs = _runs(entries, workload, 0)
            if not runs:
                continue
            row = [workload, str(len(runs))]
            row += [_cell([r["result"]["metrics"][n]["value"] for r in runs]) for n, _ in metrics]
            attempted = sum(r["result"]["attempted"] for r in runs)
            failed = sum(r["result"]["failed"] for r in runs)
            row.append(f"{failed / attempted:.3g} ({failed}/{attempted})")
            tail = latency_tail([s for r in runs for s in r["detail"]["latency_samples_s"]])
            row.append(f"p{tail['percentile']:.3g} {tail['value']:.4g} (n={tail['samples']})"
                       if tail else "n/a")
            row.append(_cell([statistics.median(r["detail"]["host_loop_ms"]) for r in runs]))
            rows.append(row)
        if rows:
            print("cells: median [first quartile, third quartile] spread (IQR / median); "
                  "host loop: median time of the fixed host-speed loop of hostspeed.py in each run")
            print(_table(header, rows) + "\n")
        traced = {w: _runs(entries, w, 1) for w in common.WORKLOADS}
        traced = {w: runs for w, runs in traced.items() if runs}
        if traced:
            print("per-layer metrics, per round: median over traced runs")
            header = ["metric", "unit"] + list(traced)
            rows = []
            for e in bench["per_layer"]:
                row = [e["name"], e["unit"]]
                for runs in traced.values():
                    values = [r["result"]["metrics"][e["name"]]["value"] for r in runs]
                    row.append(_number(statistics.median(values)))
                rows.append(row)
            print(_table(header, rows) + "\n")


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, int]:
    """The label of one metric on one workload, and the change's pair wins.

    The i-th run of each side form a pair; ``pair`` alternates which side
    runs first.
    """
    sign = 1.0 if better == "higher" else -1.0
    mp, q1, q3 = _stats(parent)
    mc = statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and sign * (mc - mp) > q3 - q1:
        return "improved", wins
    if all(sign * (c - p) > 0 for c in change for p in parent):
        return "no worse", wins
    if (q3 - q1) > bound * abs(mp):
        return "unresolved", wins
    return ("no worse" if -sign * (mc - mp) <= bound * abs(mp) else "worse"), wins


def cmd_compare(args) -> None:
    bench = common.load_benchmark()
    m_parent, parent = load(args.parent)
    m_change, change = load(args.change)
    print(f"parent {args.parent}\n{_machine_line(m_parent)}")
    print(f"change {args.change}\n{_machine_line(m_change)}\n")
    header = ["workload", "metric", "unit", "bound", "parent median [q1, q3]",
              "change median [q1, q3]", "change wins", "verdict"]
    rows = []
    for workload in common.WORKLOADS:
        p_runs, c_runs = _runs(parent, workload, 0), _runs(change, workload, 0)
        if not p_runs or not c_runs:
            continue
        for e in bench["end_to_end"]:
            name = e["name"]
            pv = [r["result"]["metrics"][name]["value"] for r in p_runs]
            cv = [r["result"]["metrics"][name]["value"] for r in c_runs]
            label, wins = verdict(pv, cv, e["better"], e["bound"])
            rows.append([workload, name, e["unit"], f"{e['bound']:g}",
                         "{:.4g} [{:.4g}, {:.4g}]".format(*_stats(pv)),
                         "{:.4g} [{:.4g}, {:.4g}]".format(*_stats(cv)),
                         f"{wins}/{min(len(pv), len(cv))}", label])
        failed = [sum(r["result"]["failed"] for r in runs) for runs in (p_runs, c_runs)]
        attempted = [sum(r["result"]["attempted"] for r in runs) for runs in (p_runs, c_runs)]
        rows.append([workload, "failed_ratio", "1", "-", f"{failed[0]}/{attempted[0]}",
                     f"{failed[1]}/{attempted[1]}", "-",
                     "no worse" if failed[1] * attempted[0] <= failed[0] * attempted[1]
                     else "worse"])
    print(_table(header, rows))


def main() -> None:
    parser = argparse.ArgumentParser(description="Collect, print and compare benchmark runs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("collect", "pair"):
        p = sub.add_parser(name)
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--first-seed", type=int, default=0)
        p.add_argument("--workloads", help="comma-separated subset of the workloads")
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    sub.choices["collect"].add_argument("out")
    sub.choices["pair"].add_argument("outdir")
    sub.choices["pair"].add_argument("--parent", required=True)
    sub.choices["pair"].add_argument("--change", required=True)
    show = sub.add_parser("show")
    show.add_argument("files", nargs="+")
    compare = sub.add_parser("compare")
    compare.add_argument("parent")
    compare.add_argument("change")
    args = parser.parse_args()
    {"collect": cmd_collect, "pair": cmd_pair, "show": cmd_show,
     "compare": cmd_compare}[args.command](args)


if __name__ == "__main__":
    main()
