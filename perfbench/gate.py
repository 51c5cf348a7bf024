"""Correctness gate: compare each operation's reports with recorded verdicts.

An exit-code check alone cannot tell a right answer from a wrong one here:
every ``method = all`` run exits 2, because one route is always outside its
regime, and ``modstab sweep`` always exits 0. The gate therefore compares
what each report says with reference observations recorded from the
benchmark's first commit, for the same modstab seed:

* discrete verdicts, as one string per report: the exit code, the regime
  ``ok`` of every route, every check's ``passed``, ``achieved_n`` /
  ``iterations``, the audit verdict, and the cross-checks;
* for a sweep, the row count of ``summary.csv`` and its ``converged`` column;
* per-point ``value`` and ``bound`` of every route that produced points:
  whole-section sums plus evenly spaced sample points, each within
  ``REL_TOL`` of the reference, relative to the larger of the two numbers
  and the section's mean magnitude.

Run ``python3 perfbench/gate.py record`` to record the reference again.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import sys

import common

REL_TOL = 1e-9
# Sample points kept per route section: every point of a section is covered
# by the sums, these catch a change that cancels out in a sum.
RUN_SAMPLES = 41
SWEEP_SAMPLES = 3


def _flag(value) -> str:
    return "1" if value else "0"


def report_verdict(report: dict) -> str:
    """The discrete verdicts of one report as a compact, ordered string."""
    audit = report["audit"]
    parts = [
        f"exit={report['exit_code']}",
        f"regime={_flag(report['regime_ok'])}",
        f"checks={_flag(report['checks_passed'])}",
        f"audit={_flag(audit['hypothesis_ok'])}/{audit['triples']}",
    ]
    for method, sec in report["methods"].items():
        item = [method, _flag(sec["regime"]["ok"])]
        if "certificate" in sec:
            item.append("cert" + _flag(sec["certificate"]["valid"]))
        body = sec.get("limit") or sec.get("iteration")
        if body is not None:
            n = body.get("achieved_n", body.get("iterations"))
            item.append(f"n{n}" + ("sat" if body["saturated"] else ""))
        checks = sec.get("checks", [])
        if checks:
            item.append("".join(c["name"][0] + _flag(c["passed"]) for c in checks))
        parts.append(":".join(item))
    for c in report.get("cross_checks", []):
        parts.append("~".join(c["methods"]) + ":" + _flag(c["passed"]))
    return ";".join(parts)


def _sample_indices(n: int, k: int) -> list[int]:
    if n <= k:
        return list(range(n))
    step = -(-(n - 1) // (k - 1))
    idx = list(range(0, n, step))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    return idx


def point_digest(points: list[dict], samples: int) -> dict:
    """Sums over every point plus ``[x, value, bound]`` at sampled indices."""
    values = [float(p["value"]) for p in points]
    bounds = [float(p["bound"]) for p in points]
    return {
        "count": len(points),
        "sum_value": math.fsum(values),
        "sum_abs_value": math.fsum(abs(v) for v in values),
        "sum_bound": math.fsum(bounds),
        "samples": [[float(points[i]["x"]), values[i], bounds[i]]
                    for i in _sample_indices(len(points), samples)],
    }


def observe(command: str, out: str, exit_code: int) -> dict:
    """Read one operation's output: a byte digest, verdicts and point digests."""
    if command == "run":
        names = [("report", out)]
    else:
        names = sorted((f[:-5], os.path.join(out, f))
                       for f in os.listdir(out) if f.endswith(".json"))
    sha = hashlib.sha256()
    observations = {"exit_code": str(exit_code)}
    points: dict[str, dict] = {}
    samples = RUN_SAMPLES if command == "run" else SWEEP_SAMPLES
    for name, path in names:
        with open(path, "rb") as fh:
            raw = fh.read()
        sha.update(name.encode() + b"\0" + raw)
        report = json.loads(raw)
        observations[name] = report_verdict(report)
        routes = {}
        for method, sec in report["methods"].items():
            body = sec.get("limit") or sec.get("iteration")
            if body is not None:
                routes[method] = point_digest(body["points"], samples)
        if routes:
            points[name] = routes
    if command == "sweep":
        with open(os.path.join(out, "summary.csv"), "rb") as fh:
            raw = fh.read()
        sha.update(b"summary.csv\0" + raw)
        lines = raw.decode().splitlines()
        col = lines[0].split(",").index("converged")
        observations["summary.rows"] = str(len(lines) - 1)
        observations["summary.converged"] = "".join(
            line.split(",")[col][0] for line in lines[1:])
    return {"sha256": sha.hexdigest(), "reports": len(names),
            "observations": observations, "points": points}


def _close(a: float, b: float, scale: float) -> bool:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), scale)


def _digest_problems(where: str, got: dict, want: dict) -> list[str]:
    if got["count"] != want["count"]:
        return [f"{where}: {got['count']} points, reference {want['count']}"]
    n = max(want["count"], 1)
    v_scale = want["sum_abs_value"] / n
    b_scale = abs(want["sum_bound"]) / n
    problems = []
    for key, scale in (("sum_value", want["sum_abs_value"]),
                       ("sum_abs_value", want["sum_abs_value"]),
                       ("sum_bound", abs(want["sum_bound"]))):
        if not _close(got[key], want[key], scale):
            problems.append(f"{where}: {key} {got[key]!r}, reference {want[key]!r}")
    for (x, v, b), (wx, wv, wb) in zip(got["samples"], want["samples"]):
        if x != wx or not _close(v, wv, v_scale) or not _close(b, wb, b_scale):
            problems.append(f"{where}: point x={x!r} (value {v!r}, bound {b!r}), "
                            f"reference x={wx!r} (value {wv!r}, bound {wb!r})")
    return problems


def check(observed: dict, reference: dict, seed: int) -> list[str]:
    """Every way ``observed`` departs from ``reference`` for ``seed``."""
    problems = []
    obs = observed["observations"]
    for key, by_value in reference["observations"].items():
        expected = next((v for v, seeds in by_value.items() if seed in seeds), None)
        if expected is None:
            problems.append(f"{key}: no reference recorded for modstab seed {seed}")
        elif obs.get(key) != expected:
            problems.append(f"{key}: got {obs.get(key)!r}, reference {expected!r}")
    for key in sorted(set(obs) - set(reference["observations"])):
        problems.append(f"{key}: unexpected output")
    for name, routes in observed["points"].items():
        for route, digest in routes.items():
            want = reference["points"].get(name, {}).get(route)
            if want is None:
                problems.append(f"{name}/{route}: points without a reference")
            else:
                problems.extend(_digest_problems(f"{name}/{route}", digest, want))
    return problems


def load_reference(workload: str) -> dict:
    with open(os.path.join(common.REFERENCE_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def output_path(workload: str, cfg: str) -> str:
    """Where operations of ``cfg`` write: a report file, or a sweep directory."""
    stem = os.path.join(common.WORK_DIR, workload, cfg[:-len(".cfg")])
    return stem if common.WORKLOADS[workload][0] == "sweep" else stem + ".json"


def run_operation(modstab, command: str, cfg: str, seed: int, out: str) -> int:
    """One `modstab run|sweep` through the CLI entry point; returns its exit code."""
    argv = [command, common.config_path(cfg), "--seed", str(seed), "--out", out]
    with contextlib.redirect_stdout(io.StringIO()):
        return modstab.cli.main(argv)


def record(workload: str) -> dict:
    """Run every config of ``workload`` once per modstab seed; build its reference."""
    modstab = common.import_modstab()
    command, cfgs = common.WORKLOADS[workload]
    os.makedirs(os.path.join(common.WORK_DIR, workload), exist_ok=True)
    configs = {}
    for cfg in cfgs:
        observations: dict[str, dict[str, list[int]]] = {}
        points: dict[str, dict] = {}
        out = output_path(workload, cfg)
        for seed in range(common.REFERENCE_SEEDS):
            if command == "sweep":
                shutil.rmtree(out, ignore_errors=True)
            code = run_operation(modstab, command, cfg, seed, out)
            seen = observe(command, out, code)
            for key, value in seen["observations"].items():
                observations.setdefault(key, {}).setdefault(value, []).append(seed)
            for name, routes in seen["points"].items():
                for route, digest in routes.items():
                    known = points.setdefault(name, {}).setdefault(route, digest)
                    if known != digest:
                        raise SystemExit(f"{cfg} {name}/{route}: points differ between seeds")
            print(f"recorded {workload} {cfg} seed {seed}", file=sys.stderr)
        configs[cfg] = {"observations": observations, "points": points}
    return {
        "workload": workload,
        "modstab_version": modstab.__version__,
        "rel_tol": REL_TOL,
        "seeds": common.REFERENCE_SEEDS,
        "configs": configs,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="record reference verdicts for workloads")
    rec.add_argument("workloads", nargs="*", default=sorted(common.WORKLOADS))
    args = parser.parse_args()
    common.cap_threads()
    for workload in args.workloads:
        reference = record(workload)
        path = os.path.join(common.REFERENCE_DIR, f"{workload}.json")
        text = json.dumps(reference, indent=1, sort_keys=True)
        # One line per list of numbers keeps the file short and diffable.
        text = re.sub(r"\[([^\[\]{}\"]*)\]",
                      lambda m: "[" + ",".join(m.group(1).split()).replace(",,", ",") + "]",
                      text)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
