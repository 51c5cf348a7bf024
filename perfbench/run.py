"""Run one modstab benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client thread drives modstab's CLI entry point in this process, in a
closed loop: each operation starts when the previous one has finished and
been checked. Operations repeat in rounds of one operation per workload
config, while the next round is predicted to end within ``--seconds``; the
first round always runs.

With ``--trace 0`` the run reports the end-to-end metrics. Operation times
are scaled to a reference host speed by ``hostspeed.py``, which times a
fixed loop around and during every operation; the wall times as measured go
to ``result.json`` beside them. ``setup_s`` is wall time. With
``--trace 1`` it times one untraced round, then repeats traced rounds and
reports the per-layer metrics of ``spans.py``; the spans are written to
``.perfbench/<workload>/spans.jsonl``. The metric names and units are
those of ``BENCHMARK.json``.

Every operation goes through the correctness gate of ``gate.py``, and a
config's reruns within one run must produce identical bytes. The last line
of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` operations, and ``metrics``. Details of the run, with every
latency sample, go to ``.perfbench/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import common
import gate
import hostspeed
import spans

SETUP_PROBES = 15
SHOWN_PROBLEMS = 20
RERUN_DIFFERS = "output bytes differ from the first operation of this config"


def measure_setup(workload: str) -> list[float]:
    """Seconds from spawning a fresh probe process until its "ready" line."""
    command, cfgs = common.WORKLOADS[workload]
    argv = [sys.executable, os.path.join(common.HERE, "probe.py"), command,
            *(common.config_path(c) for c in cfgs)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            sys.exit(f"perfbench: set-up probe exited {code} without getting ready")
        times.append(elapsed)
    return times


class Runner:
    """Runs and checks the operations of one workload."""

    def __init__(self, modstab, workload: str, bench_seed: int, clock: hostspeed.HostClock):
        self.modstab = modstab
        self.clock = clock
        self.workload = workload
        self.command, self.cfgs = common.WORKLOADS[workload]
        self.reference = gate.load_reference(workload)["configs"]
        self.seed = common.modstab_seed(bench_seed)
        self.first_sha: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.verified_reports = 0
        self.problems: list[str] = []

    def operation(self, cfg: str) -> tuple[float, float]:
        """Run and check one operation; return its wall and scaled seconds."""
        out = gate.output_path(self.workload, cfg)
        if os.path.isdir(out):
            shutil.rmtree(out)
        elif os.path.exists(out):
            os.remove(out)
        outcome = {}

        def call() -> None:
            try:
                outcome["code"] = gate.run_operation(self.modstab, self.command, cfg,
                                                     self.seed, out)
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                outcome["crash"] = exc

        times = self.clock.timed(call)
        self.attempted += 1
        problems, reports = (self.check_output(cfg, out, outcome["code"]) if "code" in outcome
                             else ([f"raised {outcome['crash']!r}"], 0))
        if problems:
            self.failed += 1
            self.problems.extend(f"operation {self.attempted} ({cfg}): {p}" for p in problems)
        else:
            self.verified_reports += reports
        return times

    def check_output(self, cfg: str, out: str, code: int) -> tuple[list[str], int]:
        """Gate problems of one operation's output, and the reports it holds."""
        try:
            seen = gate.observe(self.command, out, code)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"], 0
        problems = gate.check(seen, self.reference[cfg], self.seed)
        if seen["sha256"] != self.first_sha.setdefault(cfg, seen["sha256"]):
            problems.append(RERUN_DIFFERS)
        return problems, seen["reports"]

    def round(self) -> list[tuple[float, float]]:
        """One operation per config; returns their wall and scaled seconds."""
        return [self.operation(cfg) for cfg in self.cfgs]


def rounds_until(deadline: float):
    """Yield 1, 2, ... while the next round is predicted to end by ``deadline``.

    The first round always runs; the prediction is the mean round period so
    far, checks included, so a run never overshoots by a whole round.
    """
    begin = time.perf_counter()
    n = 0
    while True:
        n += 1
        yield n
        now = time.perf_counter()
        if now + (now - begin) / n > deadline:
            return


def latency_tail(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples above it, if any."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 11
    return {"percentile": 100.0 * (k + 1) / n, "value": sorted(samples)[k], "samples": n}


def main() -> None:
    parser = argparse.ArgumentParser(description="Run one modstab benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(common.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    common.cap_threads()
    modstab = common.import_modstab()
    setup = [] if args.trace else measure_setup(args.workload)

    work = os.path.join(common.WORK_DIR, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    clock = hostspeed.HostClock()
    runner = Runner(modstab, args.workload, args.seed, clock)

    bench = common.load_benchmark()
    deadline = time.perf_counter() + args.seconds
    detail: dict = {"workload": args.workload, "seed": args.seed,
                    "modstab_seed": runner.seed, "trace": args.trace}
    if args.trace:
        untraced = sum(wall for wall, _ in runner.round())
        rec = spans.Recorder()
        rounds, traced_wall = 0, 0.0
        with spans.instrument(rec):
            for rounds in rounds_until(deadline):
                traced_wall += sum(wall for wall, _ in runner.round())
        values = spans.per_layer_metrics(rec, rounds, untraced)
        catalogue = bench["per_layer"]
        rec.write(os.path.join(work, "spans.jsonl"))
        # The wall time the runner measured around the traced operations;
        # smoke.py checks that the root spans cover it.
        detail.update(traced_rounds=rounds, traced_round_wall_s=traced_wall / rounds)
    else:
        latencies, rates, wall_latencies = [], [], []
        with clock:
            for _ in rounds_until(deadline):
                verified = runner.verified_reports
                walls, scaled = zip(*runner.round())
                # A round's mean, so regime_edge's two sides never split the median.
                latencies.append(statistics.fmean(scaled))
                rates.append((runner.verified_reports - verified) / sum(scaled))
                wall_latencies.append(statistics.fmean(walls))
        values = {
            "latency_s.p50": statistics.median(latencies),
            "reports_per_s": statistics.median(rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup),
        }
        catalogue = bench["end_to_end"]
        detail.update(latency_samples_s=latencies, latency_tail=latency_tail(latencies),
                      setup_samples_s=setup, wall_latency_samples_s=wall_latencies)

    units = {m["name"]: m["unit"] for m in catalogue}
    values = {name: values[name] for name in units}
    detail.update(host_loop_ms=clock.loop_ms(), attempted=runner.attempted, failed=runner.failed,
                  failed_ratio=runner.failed / runner.attempted,
                  problems=runner.problems[:SHOWN_PROBLEMS])
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    for problem in runner.problems[:SHOWN_PROBLEMS]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"{args.workload}: {runner.attempted} operations, {runner.failed} failed "
          f"(failed_ratio {detail['failed_ratio']:.6g})")
    if detail.get("latency_tail"):
        tail = detail["latency_tail"]
        print(f"latency_s.tail p{tail['percentile']:.4g} {tail['value']:.6g} s "
              f"over {tail['samples']} samples")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    if not args.trace:
        print(f"latency_s.p50 as measured, unscaled: {statistics.median(wall_latencies):.6g} s")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))


if __name__ == "__main__":
    main()
