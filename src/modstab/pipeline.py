"""Experiment orchestration: run the constructions, verify, and report.

``run_experiment`` produces a report dict (schema ``modstab-report/1``) plus
an exit code; ``run_sweep`` fans a base experiment out over parameter axes
and collects one summary row per cell and method.  Report dicts contain only
deterministic content -- no timestamps, no absolute paths -- so identical
configs yield identical bytes.

Every result is a pure function of its inputs, so a run keeps a memo, a
plain dict that lives as long as the run (``run_experiment``) or the chunk
of sweep cells that one process runs, keyed on exactly what each result
depends on.  ``run_sweep`` runs all cells as one chunk; ``write_sweep``
cuts them into one contiguous chunk per CPU and forks a worker per chunk
after the first, so each chunk has its own memo.  Within a sweep ``phi``,
the grid, the seed, ``tol`` and ``n_max`` are fixed, so the keys are:

* the ``IterateTable``: ``s``;
* the additivity check's pair geometry (``additivity_pairs``): ``s``;
* the audit's defects (``audit_defects``): ``s``, ``q`` and the modular;
* the power control's sums at the audit triples (``control_power_sums``):
  ``p``, since the control is ``theta`` times that sum;
* a ``construct_limit`` result: the route, ``s``, ``q`` and the modular;
* the additivity and oddness outcomes of a limit function: the function
  (route family, ``s``, step ``n`` and ``q*phi(0)`` offset) and the
  modular -- the fixed-point iterate at ``n`` is the expand limit at ``n``
  with offset ``0``, the same closure, so the two share one entry even
  within a single run;
* a cross-check: both functions and the modular.

What reads ``alpha`` -- the audit's ratios, the series bounds, the
stability-bound check, the certificate and ``fixed_point_solve`` -- runs in
every cell; the expand route's control line over the table points, which
t2, the certificate and ``fixed_point_solve`` all read, is computed once per
cell.  A shared result is the very value the cell would compute itself, so
reports are byte-identical with or without sharing, and the bytes a sweep
writes do not depend on how its cells are chunked.

A direct route's series bounds are one ``direct.route_bounds`` row over the
grid, which gives the route its regime probe, its ``series`` section and
its per-point bounds; ``fixed_point_solve`` reads the same formula.

The checks read each limit function at the sample points off the table row
it was built from (``_sampled``), through ``direct.approximant_row``, the
one place the approximant formula lives; so they see the handles' bits
(see ``verify``), and only points off the table call a handle.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import pickle

import numpy as np

from .config import SWEEP_AXES, ExperimentConfig, SweepConfig, cell_config
from .direct import (
    Mode,
    approximant_row,
    construct_limit,
    contract_bound_closed_form,
    route_bounds,
    route_line,
    route_ratio,
)
from .equation import (
    control_eval,
    control_eval_many,
    control_power_sums,
)
from .errors import ArgumentError, DefectHypothesisError, ModstabError
from .fixedpoint import (
    audit_defects,
    audit_ratios,
    estimate_contraction,
    fixed_point_solve,
)
from .iterates import IterateTable
from .modular import check_modular_axioms, estimate_delta2, parse_modular, pow_or_inf
from .report import canonical_json, csv_lines
from .sampling import corner_triples, seeded_triples, standard_ladder
from .verify import (
    Sampled,
    additivity_pairs,
    cross_check,
    verify_oddness,
    verify_radical_additivity,
    verify_stability_bound,
)

__all__ = [
    "run_experiment",
    "run_sweep",
    "run_modular_check",
    "write_report_text",
    "EXIT_OK",
    "EXIT_CHECK_FAILED",
    "EXIT_IO",
    "EXIT_CONFIG",
]

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_IO = 3
EXIT_CONFIG = 4

SCHEMA = "modstab-report/1"
AUDIT_TRIPLES = 500


def _outcome_dict(o) -> dict:
    point = o.worst_point
    if isinstance(point, tuple):
        point = list(point)
    return {
        "name": o.name,
        "passed": o.passed,
        "worst_point": point,
        "worst_value": o.worst_value,
        "tolerance": o.tolerance,
    }


def _once(memo: dict, key: tuple, compute):
    """``memo[key]``, computed by ``compute()`` the first time it is asked for."""
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _table(cfg: ExperimentConfig, memo: dict) -> IterateTable:
    # One table serves every route, so t2 and the fixed-point route share
    # their evaluations of phi.
    s = cfg.params.s
    return _once(memo, ("table", s), lambda: IterateTable(cfg.phi, s, cfg.grid))


def _audit(cfg: ExperimentConfig, memo: dict) -> dict:
    # The one audit of a run: the report shows it and the fixed-point route
    # is gated on it.
    def draw():
        found = seeded_triples(cfg.grid.lo, cfg.grid.hi, AUDIT_TRIPLES, cfg.seed)
        return found + corner_triples(cfg.grid.lo, cfg.grid.hi)

    triples = _once(memo, ("triples",), draw)
    defects = _once(memo, ("defects", cfg.params, cfg.modular),
                    lambda: audit_defects(cfg.phi, cfg.params, cfg.modular, triples))
    x, y, z = _once(memo, ("triple_columns",),
                    lambda: np.array(triples, dtype=float).reshape(-1, 3).T)
    sums = None
    if cfg.alpha.kind == "power":
        p = cfg.alpha.p
        sums = _once(memo, ("control_sums", p), lambda: control_power_sums(p, x, y, z))
    return audit_ratios(defects, control_eval_many(cfg.alpha, x, y, z, sums), triples)


def _sampled(table: IterateTable, key: tuple, function) -> Sampled:
    """The limit function ``key`` names, with its values off the table rows."""
    mode, _, n, offset = key
    with np.errstate(over="ignore", invalid="ignore"):
        return Sampled(function, table.point_array, approximant_row(table, mode, n, offset))


def _limit_checks(cfg: ExperimentConfig, memo: dict, key: tuple, function: Sampled) -> tuple:
    """Additivity and oddness of the limit function ``key`` names; neither reads alpha."""
    s = cfg.params.s
    pairs = _once(memo, ("pairs", s), lambda: additivity_pairs(s, cfg.grid))
    return _once(memo, ("checks", key, cfg.modular), lambda: (
        verify_radical_additivity(function, cfg.modular, s, cfg.grid, pairs),
        verify_oddness(function, cfg.modular, cfg.grid),
    ))


def _scaling_check(cfg: ExperimentConfig, mode: Mode, n: int) -> dict:
    # Rescaled control values must die out along the route's scaling; checked
    # at the grid's outer magnitude up to the achieved iteration count.
    r = max(abs(cfg.grid.lo), abs(cfg.grid.hi))
    s = cfg.params.s

    def value_at(k: int) -> float:
        if mode is Mode.CONTRACT:
            tau = cfg.modular.delta2_tau
            arg = r / 2.0 ** (k / s)
            return pow_or_inf(tau, k) * control_eval(cfg.alpha, arg, arg, arg)
        arg = 2.0 ** (k / s) * r
        return control_eval(cfg.alpha, arg, arg, arg) / 2.0**k

    initial, final = value_at(0), value_at(n)
    return {
        "n": n,
        "initial": initial,
        "final": final,
        "vanishing": final <= 1e-6 * max(1.0, initial),
    }


def _finish_route(cfg: ExperimentConfig, memo: dict, table: IterateTable, section: dict,
                  body: dict, key: tuple, function, values, bounds: list[float], gaps) -> dict:
    """Every route's ending: per-point rows in ``body``, the checks, the function.

    ``key`` names the limit function (see ``_sampled``); table row 0 is ``phi``.
    """
    body["points"] = [
        {"x": x, "value": v, "bound": b, "gap": g}
        for x, v, b, g in zip(cfg.grid.points(), values, bounds, gaps)
    ]
    sampled = _sampled(table, key, function)
    phi = Sampled(cfg.phi, table.point_array, table.row(0))
    checks = [
        verify_stability_bound(phi, sampled, cfg.modular, bounds, cfg.grid, shift=key[3]),
        *_limit_checks(cfg, memo, key, sampled),
    ]
    section["checks"] = [_outcome_dict(c) for c in checks]
    section["_function"] = (key, sampled)  # for cross-method checks; stripped later
    return section


def _unusable_bound(x_repr: float, bounds: dict, factor: str, ratio: float) -> str | None:
    # A route's refusal when its ratio is below 1 but a bound it sums is not a
    # number, which certifies nothing: the control overflowed (inf), or inf met 0.
    unusable = [f"{name} {v:.6g}" for name, v in bounds.items() if not math.isfinite(v)]
    if not unusable:
        return None
    return (f"error bound at the representative point {x_repr:.6g} is not finite "
            f"({', '.join(unusable)}) although the {factor} {ratio:.6g} < 1; "
            "no usable bound exists here")


def _limit_section(cfg: ExperimentConfig, mode: Mode, memo: dict, expand_line) -> dict:
    """Run one direct route: regime gate, series bounds, limit, checks.

    ``expand_line()`` is the cell's expand ``route_line`` over the table points.
    """
    section: dict = {}
    s = cfg.params.s
    lo, hi = abs(cfg.grid.lo), abs(cfg.grid.hi)
    x_repr = max(lo, hi)
    tau = cfg.modular.delta2_tau  # read by the contract route only
    if mode is Mode.CONTRACT and tau is None:
        section["regime"] = {
            "ok": False,
            "error": "contract route needs a modular with a finite doubling "
                     f"constant; {cfg.modular_spec} has none",
        }
        return section
    ratio = route_ratio(mode, cfg.alpha, s, tau)
    converged = ratio < 1.0
    # One bound row over the grid.  Every coordinate of the line enters
    # control_eval_many through abs, so the line is even in x bit for bit and
    # the grid end of largest magnitude gives the bound at x_repr.  A refused
    # route needs that one point only.
    if not converged:
        line, end = route_line(mode, cfg.alpha, s, np.array([x_repr])), 0
    else:
        table = _table(cfg, memo)
        cols = table.grid_index
        line = (expand_line()[cols] if mode is Mode.EXPAND
                else route_line(mode, cfg.alpha, s, table.point_array[cols]))
        end = 0 if lo >= hi else -1
    row = route_bounds(mode, tau, ratio, line)
    value = float(row[end])
    series = {"value": value, "terms_used": 1, "tail_estimate": 0.0, "upper": value + 0.0,
              "converged": converged, "ratio": ratio}
    if not converged:
        why = ("term ratio is nan: its factors overflow and underflow together"
               if math.isnan(ratio) else f"term ratio {ratio:.6g} >= 1")
        section["regime"] = {
            "ok": False,
            "ratio": ratio,
            "error": f"error-bound series diverges ({why}); no bound exists in this regime",
        }
        section["series"] = series
        return section
    section["regime"] = {"ok": True, "ratio": ratio}
    section["series"] = series
    representative = {"series bound": series["upper"]}
    if mode is Mode.CONTRACT and cfg.alpha.kind == "power":
        closed = contract_bound_closed_form(cfg.alpha.theta, cfg.alpha.p, s, tau, x_repr)
        section["closed_form"] = {
            "value_at_representative": closed,
            "formula": "theta*(2+2^(p/s))*tau^2/(2*(2^(p/s+1)-tau^2))*|x|^p",
        }
        representative["closed form"] = closed
    error = _unusable_bound(x_repr, representative, "term ratio", ratio)
    if error:
        section["regime"] = {"ok": False, "ratio": ratio, "error": error}
        return section

    limit = _once(memo, ("limit", mode, cfg.params, cfg.modular), lambda: construct_limit(
        mode, cfg.phi, cfg.params, cfg.modular, cfg.grid,
        tol=cfg.tol, n_max=cfg.n_max, table=table))
    bounds = (row + 0.0).tolist()  # upper = value + tail_estimate
    section["limit"] = {"achieved_n": limit.achieved_n, "saturated": limit.saturated}
    section["scaling_check"] = _scaling_check(cfg, mode, limit.achieved_n)
    shift = cfg.params.q * table.origin() if mode is Mode.EXPAND else 0.0
    return _finish_route(cfg, memo, table, section, section["limit"],
                         (mode, s, limit.achieved_n, shift), limit.function,
                         limit.values, bounds, limit.cauchy_gap)


def _fixedpoint_section(cfg: ExperimentConfig, audit: dict, memo: dict, expand_line) -> dict:
    section: dict = {}
    s = cfg.params.s
    if cfg.modular.delta2_tau is None:
        section["regime"] = {
            "ok": False,
            "error": "fixed-point route needs a modular with a finite doubling "
                     f"constant; {cfg.modular_spec} has none",
        }
        return section
    table = _table(cfg, memo)
    try:  # the sampled certificate is a cross-check; the gate is l_factor
        cert = estimate_contraction(cfg.alpha, s, table.points, line=expand_line())
    except ArgumentError as exc:
        section["regime"] = {"ok": False, "error": str(exc)}
        return section
    section["certificate"] = {
        "l_hat": cert.l_hat,
        "worst_sample": cert.worst_sample,
        "valid": cert.valid,
        "samples_checked": cert.samples_checked,
        "samples_skipped": cert.samples_skipped,
    }
    l_factor = route_ratio(Mode.EXPAND, cfg.alpha, s)
    if not l_factor < 1.0:
        section["regime"] = {
            "ok": False,
            "l_hat": l_factor,
            "error": f"contraction factor {l_factor:.6g} >= 1: "
                     "fixed-point route inapplicable",
        }
        return section
    try:
        result = fixed_point_solve(
            cfg.phi, cfg.params, cfg.modular, cfg.alpha, cfg.grid,
            tol=cfg.tol, n_max=cfg.n_max, audit=audit, table=table, line=expand_line(),
        )
    except DefectHypothesisError as exc:
        section["regime"] = {
            "ok": False,
            "error": str(exc),
            "worst_triple": list(exc.worst_triple),
            "ratio": exc.ratio,
        }
        return section
    # The fixed-point bound row is t2's, so it is gated as t2's is: at the
    # grid end of largest magnitude.
    lo, hi = abs(cfg.grid.lo), abs(cfg.grid.hi)
    end = 0 if lo >= hi else -1
    error = _unusable_bound(max(lo, hi), {"fixed-point bound": result.bound[end]},
                            "contraction factor", result.l_hat)
    if error:
        section["regime"] = {"ok": False, "l_hat": result.l_hat, "error": error}
        return section
    section["regime"] = {"ok": True, "l_hat": result.l_hat}
    section["iteration"] = {
        "iterations": result.iterations,
        "saturated": result.saturated,
        "rho_hat_gap": result.rho_hat_gap,
        "gap_history": list(result.gap_history),
        "delta_hat_window": result.delta_hat_window,
        "quasi_contraction_max": max(result.quasi_contraction)
        if result.quasi_contraction else None,
        "origin_offset": result.origin_offset,
    }
    # Iterate n is the expand limit at n with no offset: the same function.
    return _finish_route(cfg, memo, table, section, section["iteration"],
                         (Mode.EXPAND, s, result.iterations, 0.0), result.function,
                         result.values, list(result.bound), result.point_gap)


def run_experiment(cfg: ExperimentConfig) -> tuple[dict, int]:
    """Run the configured method(s); return (report, exit_code).

    Each call starts its own memo, so one run shares nothing with another.
    """
    return _run(cfg, {})


def _run(cfg: ExperimentConfig, memo: dict) -> tuple[dict, int]:
    methods = ("t1", "t2", "fixedpoint") if cfg.method == "all" else (cfg.method,)
    audit = _audit(cfg, memo)
    report: dict = {
        "schema": SCHEMA,
        "config": cfg.echo(),
        "audit": {**audit, "worst_triple": list(audit["worst_triple"])},
    }
    # t2 reads the expand line at the grid points, the certificate and
    # fixed_point_solve at every table point.  It reads alpha, so it is
    # computed at most once per cell and shared with no other.
    expand_line = functools.cache(lambda: route_line(
        Mode.EXPAND, cfg.alpha, cfg.params.s, _table(cfg, memo).point_array))
    sections: dict[str, dict] = {}
    for m in methods:
        if m == "t1":
            sections[m] = _limit_section(cfg, Mode.CONTRACT, memo, expand_line)
        elif m == "t2":
            sections[m] = _limit_section(cfg, Mode.EXPAND, memo, expand_line)
        else:
            sections[m] = _fixedpoint_section(cfg, audit, memo, expand_line)

    cross = []
    if cfg.method == "all":
        usable = {m: sec["_function"] for m, sec in sections.items() if "_function" in sec}
        names = sorted(usable)
        for a, b in itertools.combinations(names, 2):
            (key_a, fa), (key_b, fb) = usable[a], usable[b]
            out = _once(memo, ("cross", key_a, key_b, cfg.modular),
                        lambda: cross_check(fa, fb, cfg.modular, cfg.grid))
            entry = _outcome_dict(out)
            entry["methods"] = [a, b]
            cross.append(entry)

    regime_ok = all(sec.get("regime", {}).get("ok", False) for sec in sections.values())
    checks_ok = all(
        c["passed"] for sec in sections.values() for c in sec.get("checks", [])
    ) and all(c["passed"] for c in cross)
    for sec in sections.values():
        sec.pop("_function", None)
    report["methods"] = sections
    if cross:
        report["cross_checks"] = cross
    report["regime_ok"] = regime_ok
    report["checks_passed"] = checks_ok
    code = EXIT_OK if (regime_ok and checks_ok) else EXIT_CHECK_FAILED
    report["exit_code"] = code
    return report, code


def run_modular_check(spec_string: str) -> tuple[dict, int]:
    """Axiom certification and doubling estimate for one modular spec."""
    spec = parse_modular(spec_string)
    ladder = standard_ladder()
    axioms = check_modular_axioms(spec, ladder)
    tau_hat, diverged = estimate_delta2(spec, ladder)
    report = {
        "schema": SCHEMA,
        "modular": spec.spec_string(),
        "axioms": [
            {
                "name": e.name,
                "passed": e.passed,
                "worst_sample": list(e.worst_sample)
                if isinstance(e.worst_sample, tuple) else e.worst_sample,
                "worst_value": e.worst_value,
                "tolerance": e.tolerance,
            }
            for e in axioms.entries
        ],
        "delta2": {
            "tau_hat": tau_hat,
            "diverged": diverged,
            "declared": spec.delta2_tau,
        },
        "all_passed": axioms.all_passed,
    }
    return report, EXIT_OK if axioms.all_passed else EXIT_CHECK_FAILED


def report_csv(report: dict) -> str:
    """Flatten per-point limit records to CSV (one block of rows per method)."""
    header = ["method", "x", "value", "bound", "gap", "n", "saturated"]
    rows = []
    for method, sec in report.get("methods", {}).items():
        body = sec.get("limit") or sec.get("iteration")
        if body is None:
            continue
        n = body.get("achieved_n", body.get("iterations"))
        saturated = body["saturated"]
        for point in body["points"]:
            rows.append([method, point["x"], point["value"], point["bound"],
                         point["gap"], n, saturated])
    return csv_lines(header, rows)


def write_report_text(report: dict, fmt: str) -> str:
    return canonical_json(report) if fmt == "json" else report_csv(report)


SWEEP_HEADER = ["s", "q", "p", "theta", "modular", "method", "converged",
                "rate", "worst_slack", "achieved_n", "error"]


def _sweep_rows_for_cell(cfg: ExperimentConfig, report: dict) -> list[list]:
    rows = []
    p = cfg.alpha.p if cfg.alpha.kind == "power" else None
    theta = cfg.alpha.theta if cfg.alpha.kind == "power" else None
    tau = cfg.modular.delta2_tau
    for method, sec in report["methods"].items():
        regime = sec.get("regime", {})
        # t1 and the fixed-point route have no rate without a doubling constant.
        mode = Mode.CONTRACT if method == "t1" else Mode.EXPAND
        rate = (None if method != "t2" and tau is None
                else route_ratio(mode, cfg.alpha, cfg.params.s, tau))
        body = sec.get("limit") or sec.get("iteration")
        # "converged" tracks the regime gate (route_ratio < 1, and for the
        # fixed-point route the audit); a saturated construction still shows
        # its slack.
        converged = bool(regime.get("ok"))
        slack = None
        for c in sec.get("checks", []):
            if c["name"] == "stability_bound":
                slack = c["worst_value"]
        achieved = None if body is None else body.get("achieved_n", body.get("iterations"))
        rows.append([
            cfg.params.s, cfg.params.q, p, theta, cfg.modular_spec, method,
            converged, rate, slack, achieved, regime.get("error", ""),
        ])
    return rows


def _sweep_cells(sweep: SweepConfig) -> list[tuple[str, dict[str, str]]]:
    """Each cell's name and axis assignment, in canonical order."""
    axes = [(axis, sweep.axes[axis]) for axis in SWEEP_AXES if axis in sweep.axes]
    combos = itertools.product(*[vals for _, vals in axes]) if axes else [()]
    return [(f"cell_{idx:04d}", {axis: value for (axis, _), value in zip(axes, combo)})
            for idx, combo in enumerate(combos)]


def _run_cells(sweep: SweepConfig, cells: list) -> tuple[list[list], list[tuple[str, dict]]]:
    """Run ``cells`` in order with one memo; return (summary rows, named reports)."""
    memo: dict = {}
    rows: list[list] = []
    reports: list[tuple[str, dict]] = []
    for name, assignment in cells:
        try:
            cfg = cell_config(sweep.base, assignment)
            report, _ = _run(cfg, memo)
            reports.append((name, report))
            rows.extend(_sweep_rows_for_cell(cfg, report))
        except (ModstabError, ValueError, OverflowError) as exc:
            rows.append([
                assignment.get("s", sweep.base.params.s),
                assignment.get("q", sweep.base.params.q),
                assignment.get("p"), assignment.get("theta"),
                assignment.get("modular", sweep.base.modular_spec),
                sweep.base.method, False, None, None, None, str(exc),
            ])
    return rows, reports


def run_sweep(sweep: SweepConfig) -> tuple[list[list], list[tuple[str, dict]]]:
    """Run every sweep cell; return (summary rows, named per-cell reports).

    Cell order is the product of the axes in canonical order (s, q, p,
    theta, modular) with each axis in its configured value order.  A cell
    that fails outright is recorded in-row and the sweep continues.

    The cells share one memo (see the module docstring): each
    ``IterateTable``, defect list, limit and alpha-free check is computed
    once, for the first cell that needs it.  Only ``s``, ``q``, ``p``,
    ``theta`` and the modular vary between cells, and every shared result is
    keyed on all of those it reads, so a cell's report is byte-identical to
    the one ``run_experiment`` gives for that cell alone.
    """
    return _run_cells(sweep, _sweep_cells(sweep))


def _write_chunk(sweep: SweepConfig, cells: list, outdir: str) -> list[list]:
    """Run ``cells``, then write their reports to ``outdir``; return their summary rows."""
    rows, reports = _run_cells(sweep, cells)
    for name, report in reports:
        with open(os.path.join(outdir, f"{name}.json"), "w", encoding="utf-8") as fh:
            fh.write(canonical_json(report))
    return rows


def _cpu_count() -> int:
    """CPUs in this process's affinity mask; 1 where that or ``fork`` is unavailable."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


def _fork_chunk(run):
    """Call ``run()`` in a forked worker; return its pid and the read end of its pipe.

    The worker sends ``("rows", run())``, or ``("raised", exception)``, as
    one pickle and ends with ``os._exit``: it never returns into its caller.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                result = ("rows", run())
            except BaseException as exc:
                result = ("raised", exc)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _join(workers: list) -> list[bytes]:
    """Every worker's pipe contents, in order; every worker is reaped on every path.

    A pipe is drained before its worker is waited for, since a worker whose
    rows overflow the pipe buffer blocks until they are read.
    """
    sent: list[bytes] = []
    try:
        for pid, pipe in workers:
            with pipe:
                data = pipe.read()
            os.waitpid(pid, 0)
            sent.append(data)
    finally:
        for pid, pipe in workers[len(sent):]:
            pipe.close()  # a worker still writing gets EPIPE and exits
            os.waitpid(pid, 0)
    return sent


def _worker_rows(pid: int, data: bytes) -> list[list]:
    """A worker's rows, or what it raised, raised here."""
    try:
        kind, value = pickle.loads(data)
    except Exception:
        raise ChildProcessError(f"sweep worker {pid} ended without sending its rows") from None
    if kind == "raised":
        raise value
    return value


def write_sweep(sweep: SweepConfig, outdir: str) -> tuple[str, int]:
    """Execute a sweep and write summary.csv plus per-cell JSON reports.

    The cells, in ``run_sweep``'s order, are cut into contiguous chunks, one
    per CPU in this process's affinity mask and never more than there are
    cells.  This process runs chunk 0; each other chunk runs in a forked
    worker with its own memo, which writes its cells' reports itself and
    sends back its summary rows.  The rows are joined in chunk order, and a
    failure raises the error of the first chunk that failed, after every
    worker has ended.  With one CPU nothing forks.  Every report is the one
    ``run_experiment`` gives for its cell alone, so the bytes written do not
    depend on the chunking.
    """
    cells = _sweep_cells(sweep)
    count = min(_cpu_count(), len(cells))
    bounds = [len(cells) * i // count for i in range(count + 1)]
    chunks = [cells[a:b] for a, b in zip(bounds, bounds[1:])]
    os.makedirs(outdir, exist_ok=True)
    workers: list = []
    try:
        for chunk in chunks[1:]:
            workers.append(_fork_chunk(functools.partial(_write_chunk, sweep, chunk, outdir)))
        rows = _write_chunk(sweep, chunks[0], outdir)
    finally:
        sent = _join(workers)
    for (pid, _), data in zip(workers, sent):
        rows.extend(_worker_rows(pid, data))
    summary_path = os.path.join(outdir, "summary.csv")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(csv_lines(SWEEP_HEADER, rows))
    return summary_path, EXIT_OK
