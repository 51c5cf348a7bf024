"""Smoke check of the benchmark itself; exits 1 on the first failed assertion.

Usage: python3 perfbench/smoke.py

* Runs one short run (one round) of every workload, untraced and traced, and
  checks that every metric named in BENCHMARK.json is present with its unit,
  that all operations pass the gate, and that the root spans of the traced
  run cover the wall time the runner measured around the same operations.
* Runs every traced workload a second time and checks that its counts repeat.
* Feeds the gate deliberately corrupted reports and checks that each is
  flagged, and that a flagged operation counts as failed.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import common
import gate
import hostspeed
from run import RERUN_DIFFERS, Runner

SEED = 3
# Share of the measured wall time of the traced operations that their root
# spans must cover; the rest is the runner's own call into the CLI, tens of
# microseconds per operation. Leaving the CLI front end unspanned drops the
# share to about 0.9986 on regime_edge.
SPAN_COVERAGE = 0.9995


def check(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"smoke: FAILED: {message}")
    print(f"ok  {message}")


def run_once(workload: str, trace: int) -> dict:
    argv = [sys.executable, os.path.join(common.HERE, "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=common.ROOT, capture_output=True, text=True, timeout=600)
    check(proc.returncode == 0, f"{workload} trace {trace}: exit 0 ({proc.stderr[-500:]})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(workload: str, trace: int, result: dict, expected: list[dict]) -> None:
    tag = f"{workload} trace {trace}"
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{tag}: {result['attempted']} operations, none failed")
    metrics = result["metrics"]
    check(list(metrics) == [m["name"] for m in expected], f"{tag}: every metric present")
    check(all(metrics[m["name"]]["unit"] == m["unit"] for m in expected), f"{tag}: units")
    check(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
              for v in metrics.values()), f"{tag}: finite values")


def check_span_coverage(workload: str, metrics: dict) -> None:
    with open(os.path.join(common.WORK_DIR, workload, "result.json"), encoding="utf-8") as fh:
        measured = json.load(fh)["traced_round_wall_s"]
    covered = metrics["trace.traced_wall_s"]["value"]
    check(SPAN_COVERAGE * measured <= covered <= measured * (1 + 1e-9),
          f"{workload}: root spans cover {100 * covered / measured:.3f}% of the measured "
          f"wall time of the traced operations (at least {100 * SPAN_COVERAGE:g}%)")


def check_gate() -> None:
    modstab = common.import_modstab()
    workload, cfg = "regime_edge", "regime_edge_expand.cfg"
    os.makedirs(os.path.join(common.WORK_DIR, workload), exist_ok=True)
    runner = Runner(modstab, workload, SEED, hostspeed.HostClock())
    runner.operation(cfg)
    check(runner.failed == 0, "gate passes a genuine report")
    out = gate.output_path(workload, cfg)
    with open(out, encoding="utf-8") as fh:
        genuine = json.load(fh)

    def corrupted(edit) -> list[str]:
        # Rewriting the file always changes its bytes; the edits must also
        # be caught by the verdict and point checks on their own.
        report = json.loads(json.dumps(genuine))
        edit(report)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        problems, _ = runner.check_output(cfg, out, 2)
        check(RERUN_DIFFERS in problems, f"gate flags changed bytes ({edit.__name__})")
        return [p for p in problems if p != RERUN_DIFFERS]

    def flip_check(r):
        r["methods"]["t2"]["checks"][0]["passed"] = False

    def nudge_value(r):
        point = r["methods"]["t2"]["limit"]["points"][100]
        point["value"] *= 1.0 + 1e-6

    def nudge_bound(r):
        point = r["methods"]["fixedpoint"]["iteration"]["points"][7]
        point["bound"] *= 1.0 + 1e-6

    def drop_point(r):
        r["methods"]["t2"]["limit"]["points"].pop()

    def more_iterations(r):
        r["methods"]["fixedpoint"]["iteration"]["iterations"] += 1

    def reformat_only(r):
        pass

    check(corrupted(reformat_only) == [], "gate finds no problem but the bytes in a reformat")
    for edit in (flip_check, nudge_value, nudge_bound, drop_point, more_iterations):
        problems = corrupted(edit)
        check(bool(problems), f"gate flags a corrupted report ({edit.__name__}): {problems[:1]}")

    runner.reference[cfg]["observations"]["exit_code"] = {"0": list(range(common.REFERENCE_SEEDS))}
    runner.operation(cfg)
    check(runner.failed == 1 and runner.attempted == 2,
          "an operation that fails the gate counts as failed")


def main() -> None:
    common.cap_threads()
    bench = common.load_benchmark()
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] in ("count", "bytes")]
    for workload in common.WORKLOADS:
        check_result(workload, 0, run_once(workload, 0), bench["end_to_end"])
        first = run_once(workload, 1)
        check_result(workload, 1, first, bench["per_layer"])
        check_span_coverage(workload, first["metrics"])
        again = run_once(workload, 1)["metrics"]
        check(all(again[n]["value"] == first["metrics"][n]["value"] for n in counts),
              f"{workload}: per-layer counts repeat exactly across two traced runs")
    check_gate()
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
