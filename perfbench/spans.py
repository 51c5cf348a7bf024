"""Span and counter recorder for the traced run, and the patches that feed it.

The recorder keeps every span in memory as ``[name, parent, start_ns,
end_ns]`` and writes them out when the run ends. ``instrument`` wraps the
public functions of each ``modstab`` module from outside the package and
installs each wrapper under every name it is looked up by: ``pipeline``
imports ``construct_limit`` and the checks by name, ``rho_eval`` is imported
into ``direct``, ``fixedpoint``, ``verify`` and ``equation``, and
``fixed_point_solve`` reaches ``audit_defect_hypothesis`` through its module
global. Nothing under ``src/`` changes.

Calls made millions of times per operation (``FunctionHandle.__call__``,
``rho_eval``, ``control_eval``, ``defect`` and ``pair_additivity_defect``)
are counted, not timed: a span each would cost more than the call. Their
time stays in the self time of the span that called them.

modstab is single-threaded, so spans nest strictly: a span's children run
one after another inside it, and its self time is its duration minus the
sum of its children's durations.
"""

from __future__ import annotations

import builtins
import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# module -> functions that get a span named "<module>.<function>".
SPANNED = {
    "cli": ("main",),
    "pipeline": ("run_experiment", "run_sweep", "write_sweep", "write_report_text"),
    "config": ("parse_experiment", "parse_sweep"),
    "report": ("canonical_json", "csv_lines"),
    "sampling": ("standard_ladder", "function_sample_points", "seeded_triples",
                 "corner_triples"),
    "functions": ("parse_expression",),
    "modular": ("parse_modular",),
    "equation": ("parse_control",),
    "direct": ("construct_limit", "limit_function", "series_bound_contract",
               "series_bound_expand", "contract_bound_closed_form"),
    "fixedpoint": ("estimate_contraction", "audit_defect_hypothesis", "fixed_point_solve"),
    "verify": ("verify_radical_additivity", "verify_oddness", "verify_stability_bound",
               "cross_check"),
}

# (module, function) -> counter bumped on each call, no span.
COUNTED = {
    ("modular", "rho_eval"): "modular.rho_evals",
    ("equation", "control_eval"): "equation.control_evals",
    ("equation", "defect"): "equation.defect_evals",
    ("equation", "pair_additivity_defect"): "verify.additivity_pairs_checked",
}

# Modules whose report files get a "<module>.write" span from open to close.
WRITERS = ("cli", "pipeline")

# The CLI front end counts as part of the pipeline layer.
LAYER_OF = {"cli": "pipeline"}
LAYERS = ("pipeline", "config", "report", "sampling", "functions", "modular",
          "equation", "direct", "fixedpoint", "verify")

_ABSENT = object()  # marks a patched attribute that did not exist before


class Recorder:
    """Spans and counters of one traced run, all kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1,
                           time.perf_counter_ns(), 0])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter_ns()
        self.stack.pop()

    def self_ns(self) -> list[int]:
        covered = [0] * len(self.spans)
        for _, parent, t0, t1 in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        return [(t1 - t0) - c for (_, _, t0, t1), c in zip(self.spans, covered)]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"counts": dict(sorted(self.counts.items()))}) + "\n")
            for idx, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps([idx, parent, name, t0, t1]) + "\n")


def _spanned(rec: Recorder, name: str, fn, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        if on_result is not None:
            on_result(rec.counts, args, kwargs, result)
        return result
    return wrapper


def _counted(counts: Counter, key: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


class _WriteSpan:
    """``open(..., "w")`` inside ``with``: one span from open to close."""

    def __init__(self, rec: Recorder, name: str, args, kwargs):
        self._rec = rec
        self._idx = rec.begin(name)
        try:
            self._fh = builtins.open(*args, **kwargs)
        except BaseException:
            rec.end(self._idx)
            raise

    def __enter__(self):
        return self._fh.__enter__()

    def __exit__(self, *exc):
        try:
            return self._fh.__exit__(*exc)
        finally:
            self._rec.end(self._idx)


def _writer_open(rec: Recorder, name: str):
    def traced_open(file, mode="r", *args, **kwargs):
        if "w" not in mode:
            return builtins.open(file, mode, *args, **kwargs)
        rec.counts["pipeline.files_written"] += 1
        return _WriteSpan(rec, name, (file, mode) + args, kwargs)
    return traced_open


def _grid_arg(args, kwargs):
    return kwargs["grid"] if "grid" in kwargs else args[3]


# span name -> hook(counts, args, kwargs, result) run after the call.
_RESULT_HOOKS = {
    "direct.construct_limit":
        lambda c, a, k, r: c.update({"direct.limit_steps": r.achieved_n}),
    "direct.series_bound_contract":
        lambda c, a, k, r: c.update({"direct.series_calls": 1,
                                     "direct.series_terms": r.terms_used}),
    "direct.series_bound_expand":
        lambda c, a, k, r: c.update({"direct.series_calls": 1,
                                     "direct.series_terms": r.terms_used}),
    "fixedpoint.audit_defect_hypothesis":
        lambda c, a, k, r: c.update({"fixedpoint.audit_calls": 1}),
    "fixedpoint.fixed_point_solve":
        lambda c, a, k, r: c.update({"fixedpoint.iterations": r.iterations}),
    "verify.verify_radical_additivity":
        lambda c, a, k, r: c.update(
            {"verify.additivity_pairs_total": _grid_arg(a, k).count ** 2}),
    "report.canonical_json": lambda c, a, k, r: c.update({"report.bytes": len(r)}),
    "report.csv_lines": lambda c, a, k, r: c.update({"report.bytes": len(r)}),
    "sampling.Grid.points":
        lambda c, a, k, r: c.update({"sampling.grid_points_calls": 1}),
}


@contextmanager
def instrument(rec: Recorder):
    """Wrap modstab's public functions for the duration of the block."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "modstab" or name.startswith("modstab.")]
    undo: list[tuple[object, str, object]] = []

    def install(owner, attr, replacement):
        undo.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, replacement)

    def replace_everywhere(original, replacement):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    install(mod, attr, replacement)

    try:
        mod = {m.__name__.rpartition(".")[2]: m for m in modules}
        for module, names in SPANNED.items():
            for fname in names:
                name = f"{module}.{fname}"
                original = getattr(mod[module], fname)
                replace_everywhere(original, _spanned(rec, name, original,
                                                      _RESULT_HOOKS.get(name)))
        for (module, fname), key in COUNTED.items():
            original = getattr(mod[module], fname)
            replace_everywhere(original, _counted(rec.counts, key, original))
        grid, handle = mod["sampling"].Grid, mod["functions"].FunctionHandle
        install(grid, "points", _spanned(rec, "sampling.Grid.points", grid.points,
                                         _RESULT_HOOKS["sampling.Grid.points"]))
        install(handle, "__call__", _counted(rec.counts, "functions.phi_evals",
                                             handle.__call__))
        for module in WRITERS:
            install(mod[module], "open", _writer_open(rec, f"{module}.write"))
        yield rec
    finally:
        for owner, attr, previous in reversed(undo):
            if previous is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)


def layer_of(span_name: str) -> str:
    module = span_name.split(".", 1)[0]
    return LAYER_OF.get(module, module)


# The per-layer metrics, with their units, are listed in BENCHMARK.json.
# Times are seconds per round and counts are per round; a round is one
# operation of each workload config.

# Timed metrics: metric -> (span names, use self time instead of duration).
_TIMED = {
    "config.parse_s": (("config.parse_experiment", "config.parse_sweep"), False),
    "pipeline.write_s": (("cli.write", "pipeline.write"), True),
    "report.serialize_s": (("report.canonical_json", "report.csv_lines"), False),
    "direct.construct_limit_s": (("direct.construct_limit",), False),
    "direct.series_s": (("direct.series_bound_contract", "direct.series_bound_expand"), False),
    "fixedpoint.certificate_s": (("fixedpoint.estimate_contraction",), False),
    "fixedpoint.audit_s": (("fixedpoint.audit_defect_hypothesis",), False),
    "fixedpoint.solve_self_s": (("fixedpoint.fixed_point_solve",), True),
    "verify.additivity_s": (("verify.verify_radical_additivity",), False),
    "verify.oddness_s": (("verify.verify_oddness",), False),
    "verify.bound_s": (("verify.verify_stability_bound",), False),
    "verify.cross_check_s": (("verify.cross_check",), False),
}

_COUNT_KEYS = (
    "pipeline.files_written", "report.bytes", "sampling.grid_points_calls",
    "functions.phi_evals", "modular.rho_evals", "equation.control_evals",
    "equation.defect_evals", "direct.limit_steps", "direct.series_calls",
    "direct.series_terms", "fixedpoint.audit_calls", "fixedpoint.iterations",
    "verify.additivity_pairs_total", "verify.additivity_pairs_checked",
)


def _per_round(total: int, rounds: int):
    value = total / rounds
    return int(value) if value.is_integer() else value


def per_layer_metrics(rec: Recorder, rounds: int, untraced_wall_s: float) -> dict:
    """Every per-layer metric, per round, from a recorder holding ``rounds``."""
    self_ns = rec.self_ns()
    duration: Counter = Counter()
    own: Counter = Counter()
    layer_self: Counter = Counter()
    traced_ns = 0
    for (name, parent, t0, t1), s in zip(rec.spans, self_ns):
        duration[name] += t1 - t0
        own[name] += s
        layer_self[layer_of(name)] += s
        if parent < 0:
            traced_ns += t1 - t0
    out = {}
    for metric, (names, use_self) in _TIMED.items():
        source = own if use_self else duration
        out[metric] = sum(source[n] for n in names) / 1e9 / rounds
    for key in _COUNT_KEYS:
        out[key] = _per_round(rec.counts[key], rounds)
    total = rec.counts["verify.additivity_pairs_total"]
    out["verify.additivity_useful_ratio"] = (
        rec.counts["verify.additivity_pairs_checked"] / total if total else 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] / 1e9 / rounds
    traced_wall_s = traced_ns / 1e9 / rounds
    out["trace.traced_wall_s"] = traced_wall_s
    out["trace.untraced_wall_s"] = untraced_wall_s
    out["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    return out
