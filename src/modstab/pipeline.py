"""Experiment orchestration: run the constructions, verify, and report.

``run_experiment`` produces a report dict (schema ``modstab-report/2``) plus
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
* the expand route's control line over the table points, which t2, the
  certificate and ``fixed_point_solve`` read: ``s`` and ``alpha``;
* the additivity check's pair geometry (``additivity_pairs``): ``s``;
* the audit's defects (``audit_defects``): ``s``, ``q`` and the modular;
* the power control's sums at the audit triples (``control_power_sums``):
  ``p``, since the control is ``theta`` times that sum;
* ``phi`` as the step-0 ``limit_function`` handle on the table, which the
  stability-bound checks read: ``s``;
* a ``construct_limit`` result: the route, ``s``, ``q`` and the modular;
* the additivity and oddness outcomes of a limit function: the function
  (route family, ``s``, step ``n`` and ``q*phi(0)`` offset) and the
  modular -- the fixed-point iterate at ``n`` is the expand limit at ``n``
  with offset ``0``, the same function, so the two share one entry even
  within a single run;
* a cross-check: both functions and the modular.

What else reads ``alpha`` -- the audit's ratios, the series bounds, the
stability-bound check, the certificate and ``fixed_point_solve`` -- runs in
every cell.  A shared result is the very value the cell would compute
itself, so reports are byte-identical with or without sharing, and the bytes
a sweep writes do not depend on how its cells are chunked.

A direct route's series bounds are one ``direct.route_bounds`` row over the
grid, which gives the route its ``series`` section and its per-point
bounds; ``fixed_point_solve`` reads the same formula.  The routes decide
and word every refusal (see ``direct``): a section calls them in one
``try``, and ``_refuse`` writes what they raise as its ``regime``.
``_finish_route`` puts a route's per-point section in its report as one
``report.Columns`` block of ``x``, ``value``, ``bound`` and ``gap``; the
stability-bound check and both emitters read the columns, not row dicts.
Each section returns a ``_Route`` record, from which ``_run`` builds the
report, the cross-checks and the verdicts, and ``_run_cells`` each summary
row.  A row's ``rate`` is the ratio its route was gated on, so it is empty
exactly where ``direct.doubling_constant`` refused the route.

Every function the checks read is a ``direct.limit_function`` handle on the
table, so only points off the table evaluate ``phi`` (see ``verify``).
"""

from __future__ import annotations

import functools
import itertools
import os
import pickle
from typing import NamedTuple

import numpy as np

from .config import SWEEP_AXES, ExperimentConfig, SweepConfig, axis_values, cell_config
from .direct import (Mode, construct_limit, doubling_constant, limit_function,
                     representative_point, require_convergent, require_finite_bound,
                     route_bounds, route_line, route_ratio)
from .equation import control_eval_many, control_power_sums
from .errors import (ArgumentError, ContractViolation, DefectHypothesisError, ModstabError,
                     RegimeError)
from .fixedpoint import audit_defects, audit_ratios, estimate_contraction, fixed_point_solve
from .iterates import IterateTable
from .modular import check_modular_axioms, estimate_delta2, parse_modular
from .report import Columns, canonical_json, csv_lines
from .sampling import corner_triples, seeded_triples, standard_ladder
from .verify import (additivity_pairs, cross_check, verify_oddness,
                     verify_radical_additivity, verify_stability_bound)

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

SCHEMA = "modstab-report/2"
AUDIT_TRIPLES = 500
# What a route raises when a hypothesis fails; a report shows it as the route's regime.
REFUSALS = (ContractViolation, RegimeError, DefectHypothesisError)


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
    """``memo[key]``, computed by ``compute()`` once; an array, being shared, read-only."""
    if key not in memo:
        value = memo[key] = compute()
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return memo[key]


def _table(cfg: ExperimentConfig, memo: dict) -> IterateTable:
    # One table serves every route, so t2 and the fixed-point route share
    # their evaluations of phi.
    s = cfg.params.s
    return _once(memo, ("table", s), lambda: IterateTable(cfg.phi, s, cfg.grid))


def _expand_line(cfg: ExperimentConfig, memo: dict) -> np.ndarray:
    # alpha is keyed by its repr: theta = -0.0 equals 0.0 but gives a line of -0.0.
    return _once(memo, ("expand_line", cfg.params.s, repr(cfg.alpha)), lambda: route_line(
        Mode.EXPAND, cfg.alpha, cfg.params.s, _table(cfg, memo).point_array))


def _audit(cfg: ExperimentConfig, memo: dict) -> dict:
    # The one audit of a run: the report shows it and the fixed-point route
    # is gated on it.  The triples are drawn once, as one (n, 3) array.
    lo, hi = cfg.grid.lo, cfg.grid.hi
    triples = _once(memo, ("triples",), lambda: np.array(
        seeded_triples(lo, hi, AUDIT_TRIPLES, cfg.seed) + corner_triples(lo, hi)))
    defects = _once(memo, ("defects", cfg.params, cfg.modular),
                    lambda: audit_defects(cfg.phi, cfg.params, cfg.modular, triples))
    x, y, z = triples.T
    sums = None
    if cfg.alpha.kind == "power":
        p = cfg.alpha.p
        sums = _once(memo, ("control_sums", p), lambda: control_power_sums(p, x, y, z))
    return audit_ratios(defects, control_eval_many(cfg.alpha, x, y, z, sums), triples)


def _phi(cfg: ExperimentConfig, memo: dict):
    # phi as the step-0 approximant: its values are the table's row 0.
    s = cfg.params.s
    return _once(memo, ("phi", s), lambda: limit_function(
        Mode.EXPAND, cfg.phi, cfg.params, 0, 0.0, _table(cfg, memo)))


def _limit_checks(cfg: ExperimentConfig, memo: dict, key: tuple, function) -> tuple:
    """Additivity and oddness of the limit function ``key`` names; neither reads alpha."""
    s = cfg.params.s
    pairs = _once(memo, ("pairs", s), lambda: additivity_pairs(s, cfg.grid))
    return _once(memo, ("checks", key, cfg.modular), lambda: (
        verify_radical_additivity(function, cfg.modular, s, cfg.grid, pairs),
        verify_oddness(function, cfg.modular, cfg.grid),
    ))


class _Route(NamedTuple):
    """A route's report section, and what ``_run`` and its summary row read: the rate it
    was gated on (``None`` without a doubling constant) and, if it finished, its step
    count, stability-bound ``slack``, ``(key, handle)`` function and check verdict."""

    section: dict
    rate: float | None
    steps: int | None = None
    slack: float | None = None
    function: tuple | None = None
    passed: bool = True


def _finish_route(cfg: ExperimentConfig, memo: dict, section: dict, body: dict, rate: float,
                  key: tuple, function, values, bounds, gaps) -> _Route:
    """Every route's ending: per-point columns in ``body``, the checks, the function.

    ``key`` names the limit function ``function``: route family, ``s``, step
    ``n`` and offset.
    """
    points = body["points"] = Columns(("x", "value", "bound", "gap"),
                                      (cfg.grid.point_array, values, bounds, gaps))
    bound = verify_stability_bound(_phi(cfg, memo), function, cfg.modular,
                                   points.column("bound"), cfg.grid, shift=key[3])
    checks = [bound, *_limit_checks(cfg, memo, key, function)]
    section["checks"] = [_outcome_dict(c) for c in checks]
    return _Route(section, rate, key[2], bound.worst_value, (key, function),
                  all(c.passed for c in checks))


def _refuse(section: dict, exc: Exception, rate: float | None = None) -> _Route:
    """The route ``section`` refused by ``exc``, whose own text is its ``regime``'s error."""
    regime = {"ok": False, **getattr(exc, "diagnostics", {}), "error": str(exc)}
    if isinstance(exc, DefectHypothesisError):
        regime.update(worst_triple=list(exc.worst_triple), ratio=exc.ratio)
    section["regime"] = regime
    return _Route(section, rate)


def _limit_section(cfg: ExperimentConfig, mode: Mode, memo: dict) -> _Route:
    """Run one direct route: regime gate, series bounds, limit, checks."""
    section: dict = {}
    s = cfg.params.s
    x_repr, end = representative_point(cfg.grid)
    ratio = None
    try:
        tau = doubling_constant("contract", cfg.modular) if mode is Mode.CONTRACT else None
        ratio = route_ratio(mode, cfg.alpha, s, tau)
        converged = ratio < 1.0
        section["regime"] = {"ok": True, "ratio": ratio}  # a refusal below replaces it
        # One bound row over the grid, gated and reported at x_repr, whether
        # or not the route converges.
        table = _table(cfg, memo)
        cols = table.grid_index
        line = (_expand_line(cfg, memo)[cols] if mode is Mode.EXPAND
                else route_line(mode, cfg.alpha, s, table.point_array[cols]))
        row = route_bounds(mode, tau, ratio, line)
        value = float(row[end])
        section["series"] = {"value": value, "converged": converged, "ratio": ratio}
        require_convergent(ratio)
        require_finite_bound(x_repr, "series bound", value, "ratio", ratio)
        limit = _once(memo, ("limit", mode, cfg.params, cfg.modular), lambda: construct_limit(
            mode, cfg.phi, cfg.params, cfg.modular, cfg.grid,
            tol=cfg.tol, n_max=cfg.n_max, table=table))
    except REFUSALS as exc:
        return _refuse(section, exc, ratio)

    bounds = row + 0.0  # so that a -0.0 bound prints as 0, as tests/test_cli.py pins
    section["limit"] = {"achieved_n": limit.achieved_n, "saturated": limit.saturated}
    shift = cfg.params.q * table.origin() if mode is Mode.EXPAND else 0.0
    return _finish_route(cfg, memo, section, section["limit"], ratio,
                         (mode, s, limit.achieved_n, shift), limit.function,
                         limit.values, bounds, limit.cauchy_gap)


def _fixedpoint_section(cfg: ExperimentConfig, audit: dict, memo: dict) -> _Route:
    section: dict = {}
    s = cfg.params.s
    rate = None
    try:
        doubling_constant("fixed-point", cfg.modular)
        rate = route_ratio(Mode.EXPAND, cfg.alpha, s)  # L: every later refusal keeps it
        table, line = _table(cfg, memo), _expand_line(cfg, memo)
        try:  # the sampled certificate is a cross-check; the gate is fixed_point_solve's
            cert = estimate_contraction(cfg.alpha, s, table.point_array, line=line)
        except ArgumentError as exc:  # nothing to certify
            return _refuse(section, exc, rate)
        section["certificate"] = {
            "l_hat": cert.l_hat,
            "worst_sample": cert.worst_sample,
            "valid": cert.valid,
            "samples_checked": cert.samples_checked,
            "samples_skipped": cert.samples_skipped,
        }
        result = fixed_point_solve(
            cfg.phi, cfg.params, cfg.modular, cfg.alpha, cfg.grid,
            tol=cfg.tol, n_max=cfg.n_max, audit=audit, table=table, line=line,
        )
    except REFUSALS as exc:
        return _refuse(section, exc, rate)
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
    return _finish_route(cfg, memo, section, section["iteration"], rate,
                         (Mode.EXPAND, s, result.iterations, 0.0), result.function,
                         result.values, result.bound, result.point_gap)


def run_experiment(cfg: ExperimentConfig) -> tuple[dict, int]:
    """Run the configured method(s); return (report, exit_code).

    Each call starts its own memo, so one run shares nothing with another.
    """
    return _run(cfg, {})[:2]


def _run(cfg: ExperimentConfig, memo: dict) -> tuple[dict, int, dict[str, _Route]]:
    """``run_experiment`` with the memo ``memo``; also return each method's ``_Route``."""
    methods = ("t1", "t2", "fixedpoint") if cfg.method == "all" else (cfg.method,)
    audit = _audit(cfg, memo)
    report: dict = {
        "schema": SCHEMA,
        "config": cfg.echo(),
        "audit": {**audit, "worst_triple": list(audit["worst_triple"])},
    }
    routes: dict[str, _Route] = {}
    for m in methods:
        if m == "t1":
            routes[m] = _limit_section(cfg, Mode.CONTRACT, memo)
        elif m == "t2":
            routes[m] = _limit_section(cfg, Mode.EXPAND, memo)
        else:
            routes[m] = _fixedpoint_section(cfg, audit, memo)

    cross = []
    if cfg.method == "all":
        usable = {m: r.function for m, r in routes.items() if r.function is not None}
        names = sorted(usable)
        for a, b in itertools.combinations(names, 2):
            (key_a, fa), (key_b, fb) = usable[a], usable[b]
            out = _once(memo, ("cross", key_a, key_b, cfg.modular),
                        lambda: cross_check(fa, fb, cfg.modular, cfg.grid))
            entry = _outcome_dict(out)
            entry["methods"] = [a, b]
            cross.append(entry)

    regime_ok = all(r.section["regime"]["ok"] for r in routes.values())
    checks_ok = all(r.passed for r in routes.values()) and all(c["passed"] for c in cross)
    report["methods"] = {m: r.section for m, r in routes.items()}
    if cross:
        report["cross_checks"] = cross
    report["regime_ok"] = regime_ok
    report["checks_passed"] = checks_ok
    code = EXIT_OK if (regime_ok and checks_ok) else EXIT_CHECK_FAILED
    report["exit_code"] = code
    return report, code, routes


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
        columns = (body["points"].column(k).tolist() for k in ("x", "value", "bound", "gap"))
        rows.extend([method, *point, n, body["saturated"]] for point in zip(*columns))
    return csv_lines(header, rows)


def write_report_text(report: dict, fmt: str) -> str:
    return canonical_json(report) if fmt == "json" else report_csv(report)


SWEEP_HEADER = ["s", "q", "p", "theta", "modular", "method", "converged",
                "rate", "worst_slack", "achieved_n", "error"]


def _summary_row(cell: list, method: str, route: _Route) -> list:
    """``method``'s ``SWEEP_HEADER`` row: ``cell`` (s, q, p, theta, modular), then ``route``'s
    regime verdict, rate, slack, step count and error; a saturated limit shows its slack."""
    regime = route.section["regime"]
    return [*cell, method, regime["ok"], route.rate, route.slack, route.steps,
            regime.get("error", "")]


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
    base = sweep.base
    for name, assignment in cells:
        try:
            cfg = cell_config(base, assignment)
            report, _, routes = _run(cfg, memo)
        except (ModstabError, ValueError, OverflowError) as exc:  # one row for the cell
            get = axis_values(assignment).get  # printed as a cell that runs prints them
            cell = [get("s", base.params.s), get("q", base.params.q), get("p"), get("theta"),
                    get("modular", base.modular_spec)]
            rows.append(_summary_row(cell, base.method, _refuse({}, exc)))
            continue
        reports.append((name, report))
        power = cfg.alpha.kind == "power"
        cell = [cfg.params.s, cfg.params.q, cfg.alpha.p if power else None,
                cfg.alpha.theta if power else None, cfg.modular_spec]
        rows.extend(_summary_row(cell, m, r) for m, r in routes.items())
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
