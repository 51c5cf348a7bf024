"""Experiment orchestration: run the constructions, verify, and report.

``run_experiment`` produces a report dict (schema ``modstab-report/1``) plus
an exit code; ``run_sweep`` fans a base experiment out over parameter axes
and collects one summary row per cell and method.  Report dicts contain only
deterministic content -- no timestamps, no absolute paths -- so identical
configs yield identical bytes.

Every result is a pure function of its inputs, so a run keeps a memo, a
plain dict that lives as long as the run (``run_experiment``) or the sweep
(``run_sweep``), keyed on exactly what each result depends on.  Within a
sweep ``phi``, the grid, the seed, ``tol`` and ``n_max`` are fixed, so the
keys are:

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
every cell.  A shared result is the very value the cell would compute
itself, so reports are byte-identical with or without sharing.

A direct route's series bounds are one ``direct.route_bounds`` row over the
grid, which gives the route its regime probe, its ``series`` section and
its per-point bounds; ``fixed_point_solve`` reads the same formula.

The checks read each limit function at the sample points off the table row
it was built from (``_sampled``), through ``direct.approximant_row``, the
one place the approximant formula lives; so they see the handles' bits
(see ``verify``), and only points off the table call a handle.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os

import numpy as np

from .config import SWEEP_AXES, ExperimentConfig, SweepConfig
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
    ControlFunction,
    EquationParams,
    control_eval,
    control_eval_many,
    control_power_sums,
)
from .errors import ArgumentError, ConfigError, DefectHypothesisError, ModstabError
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
    phi = Sampled(cfg.phi, table.point_array, table.expand(0))
    checks = [
        verify_stability_bound(phi, sampled, cfg.modular, bounds, cfg.grid, shift=key[3]),
        *_limit_checks(cfg, memo, key, sampled),
    ]
    section["checks"] = [_outcome_dict(c) for c in checks]
    section["_function"] = (key, sampled)  # for cross-method checks; stripped later
    return section


def _limit_section(cfg: ExperimentConfig, mode: Mode, memo: dict) -> dict:
    """Run one direct route: regime gate, series bounds, limit, checks."""
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
    if converged:
        table = _table(cfg, memo)
        xs, end = table.point_array[table.grid_index], (0 if lo >= hi else -1)
    else:
        xs, end = np.array([x_repr]), 0
    row = route_bounds(mode, tau, ratio, route_line(mode, cfg.alpha, s, xs))
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
    # A ratio below 1 certifies nothing when the bound it sums is not a
    # number: the control overflowed (inf), or inf met 0 (nan).
    unusable = [f"{name} {v:.6g}" for name, v in representative.items() if not math.isfinite(v)]
    if unusable:
        section["regime"] = {
            "ok": False,
            "ratio": ratio,
            "error": f"error bound at the representative point {x_repr:.6g} is not finite "
                     f"({', '.join(unusable)}) although the term ratio "
                     f"{ratio:.6g} < 1; no usable bound exists here",
        }
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


def _fixedpoint_section(cfg: ExperimentConfig, audit: dict, memo: dict) -> dict:
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
        cert = estimate_contraction(cfg.alpha, s, table.points)
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
            tol=cfg.tol, n_max=cfg.n_max, audit=audit, table=table,
        )
    except DefectHypothesisError as exc:
        section["regime"] = {
            "ok": False,
            "error": str(exc),
            "worst_triple": list(exc.worst_triple),
            "ratio": exc.ratio,
        }
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
    sections: dict[str, dict] = {}
    for m in methods:
        if m == "t1":
            sections[m] = _limit_section(cfg, Mode.CONTRACT, memo)
        elif m == "t2":
            sections[m] = _limit_section(cfg, Mode.EXPAND, memo)
        else:
            sections[m] = _fixedpoint_section(cfg, audit, memo)

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


def _cell_config(base: ExperimentConfig, assignment: dict[str, str]) -> ExperimentConfig:
    params = base.params
    alpha = base.alpha
    alpha_spec = base.alpha_spec
    modular = base.modular
    modular_spec = base.modular_spec
    if "s" in assignment or "q" in assignment:
        params = EquationParams(
            s=int(assignment.get("s", params.s)),
            q=float(assignment.get("q", params.q)),
        )
    if "p" in assignment or "theta" in assignment:
        if alpha.kind != "power":
            raise ConfigError(
                "sweep axes 'p'/'theta' need a power control function, "
                f"got {alpha_spec!r}"
            )
        alpha = ControlFunction.power(
            float(assignment.get("theta", alpha.theta)),
            float(assignment.get("p", alpha.p)),
        )
        alpha_spec = alpha.spec_string()
    if "modular" in assignment:
        modular_spec = assignment["modular"]
        modular = parse_modular(modular_spec)
    return dataclasses.replace(
        base, params=params, alpha=alpha, alpha_spec=alpha_spec,
        modular=modular, modular_spec=modular_spec,
    )


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
    memo: dict = {}
    axes = [(axis, sweep.axes[axis]) for axis in SWEEP_AXES if axis in sweep.axes]
    combos = itertools.product(*[vals for _, vals in axes]) if axes else [()]
    rows: list[list] = []
    cells: list[tuple[str, dict]] = []
    for idx, combo in enumerate(combos):
        assignment = {axis: value for (axis, _), value in zip(axes, combo)}
        name = f"cell_{idx:04d}"
        try:
            cfg = _cell_config(sweep.base, assignment)
            report, _ = _run(cfg, memo)
            cells.append((name, report))
            rows.extend(_sweep_rows_for_cell(cfg, report))
        except (ModstabError, ValueError, OverflowError) as exc:
            rows.append([
                assignment.get("s", sweep.base.params.s),
                assignment.get("q", sweep.base.params.q),
                assignment.get("p"), assignment.get("theta"),
                assignment.get("modular", sweep.base.modular_spec),
                sweep.base.method, False, None, None, None, str(exc),
            ])
    return rows, cells


def write_sweep(sweep: SweepConfig, outdir: str) -> tuple[str, int]:
    """Execute a sweep and write summary.csv plus per-cell JSON reports."""
    rows, cells = run_sweep(sweep)
    os.makedirs(outdir, exist_ok=True)
    for name, report in cells:
        with open(os.path.join(outdir, f"{name}.json"), "w", encoding="utf-8") as fh:
            fh.write(canonical_json(report))
    summary_path = os.path.join(outdir, "summary.csv")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(csv_lines(SWEEP_HEADER, rows))
    return summary_path, EXIT_OK
