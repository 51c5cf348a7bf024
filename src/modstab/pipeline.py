"""Experiment orchestration: run the constructions, verify, and report.

``run_experiment`` produces a report dict (schema ``modstab-report/1``) plus
an exit code; ``run_sweep`` fans a base experiment out over parameter axes
and collects one summary row per cell and method.  Report dicts contain only
deterministic content -- no timestamps, no absolute paths -- so identical
configs yield identical bytes.
"""

from __future__ import annotations

import dataclasses
import itertools
import os

from .config import SWEEP_AXES, ExperimentConfig, SweepConfig
from .direct import (
    Mode,
    construct_limit,
    contract_bound_closed_form,
    route_ratio,
    series_bound_contract,
    series_bound_expand,
)
from .equation import ControlFunction, EquationParams, control_eval
from .errors import ArgumentError, ConfigError, DefectHypothesisError, ModstabError
from .fixedpoint import (
    audit_defect_hypothesis,
    estimate_contraction,
    fixed_point_solve,
)
from .iterates import IterateTable
from .modular import check_modular_axioms, estimate_delta2, parse_modular, pow_or_inf
from .report import canonical_json, csv_lines
from .sampling import corner_triples, seeded_triples, standard_ladder
from .verify import cross_check, verify_oddness, verify_radical_additivity, verify_stability_bound

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
CHECK_TOL_LIMIT = 1e-6  # limit-derived objects
CHECK_TOL_BOUND = 1e-9  # bound domination slack
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


def _series_dict(sb) -> dict:
    return {
        "value": sb.value,
        "terms_used": sb.terms_used,
        "tail_estimate": sb.tail_estimate,
        "upper": sb.upper,
        "converged": sb.converged,
        "ratio": sb.ratio,
    }


def _audit(cfg: ExperimentConfig) -> dict:
    # The triples fixed_point_solve audits by default, so its result serves
    # the fixed-point route as well as the report.
    triples = seeded_triples(cfg.grid.lo, cfg.grid.hi, AUDIT_TRIPLES, cfg.seed)
    triples += corner_triples(cfg.grid.lo, cfg.grid.hi)
    return audit_defect_hypothesis(cfg.phi, cfg.params, cfg.modular, cfg.alpha, triples)


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


def _limit_section(cfg: ExperimentConfig, mode: Mode, table: IterateTable) -> dict:
    """Run one direct route: regime gate, series bounds, limit, checks."""
    section: dict = {}
    s = cfg.params.s
    if mode is Mode.CONTRACT:
        if cfg.modular.delta2_tau is None:
            section["regime"] = {
                "ok": False,
                "error": "contract route needs a modular with a finite doubling "
                         f"constant; {cfg.modular_spec} has none",
            }
            return section
        tau = cfg.modular.delta2_tau
        series_at = lambda x: series_bound_contract(cfg.alpha, tau, s, x)
    else:
        series_at = lambda x: series_bound_expand(cfg.alpha, s, x)

    x_repr = max(abs(cfg.grid.lo), abs(cfg.grid.hi))
    probe = series_at(x_repr)
    if not probe.converged:
        section["regime"] = {
            "ok": False,
            "ratio": probe.ratio,
            "error": f"error-bound series diverges (term ratio {probe.ratio:.6g} >= 1); "
                     "no bound exists in this regime",
        }
        section["series"] = _series_dict(probe)
        return section
    section["regime"] = {"ok": True, "ratio": probe.ratio}
    section["series"] = _series_dict(probe)
    if mode is Mode.CONTRACT and cfg.alpha.kind == "power":
        section["closed_form"] = {
            "value_at_representative": contract_bound_closed_form(
                cfg.alpha.theta, cfg.alpha.p, s, cfg.modular.delta2_tau, x_repr
            ),
            "formula": "theta*(2+2^(p/s))*tau^2/(2*(2^(p/s+1)-tau^2))*|x|^p",
        }

    limit = construct_limit(mode, cfg.phi, cfg.params, cfg.modular, cfg.grid,
                            tol=cfg.tol, n_max=cfg.n_max, table=table)
    pts = cfg.grid.points()
    bounds = [series_at(x).upper for x in pts]
    section["limit"] = {
        "achieved_n": limit.achieved_n,
        "saturated": limit.saturated,
        "points": [
            {"x": x, "value": v, "bound": b, "gap": g}
            for x, v, b, g in zip(pts, limit.values, bounds, limit.cauchy_gap)
        ],
    }
    section["scaling_check"] = _scaling_check(cfg, mode, limit.achieved_n)

    shift = cfg.params.q * table.origin() if mode is Mode.EXPAND else 0.0
    checks = [
        verify_stability_bound(cfg.phi, limit.function, cfg.modular, bounds,
                               cfg.grid, tol=CHECK_TOL_BOUND, shift=shift),
        verify_radical_additivity(limit.function, cfg.modular, s, cfg.grid,
                                  tol=CHECK_TOL_LIMIT),
        verify_oddness(limit.function, cfg.modular, cfg.grid, tol=CHECK_TOL_LIMIT),
    ]
    section["checks"] = [_outcome_dict(c) for c in checks]
    section["_function"] = limit.function  # for cross-method checks; stripped later
    return section


def _fixedpoint_section(cfg: ExperimentConfig, audit: dict, table: IterateTable) -> dict:
    section: dict = {}
    s = cfg.params.s
    if cfg.modular.delta2_tau is None:
        section["regime"] = {
            "ok": False,
            "error": "fixed-point route needs a modular with a finite doubling "
                     f"constant; {cfg.modular_spec} has none",
        }
        return section
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
            tol=cfg.tol, n_max=cfg.n_max, bound_tol=CHECK_TOL_BOUND,
            audit=audit, table=table,
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
    pts = cfg.grid.points()
    section["iteration"] = {
        "iterations": result.iterations,
        "saturated": result.saturated,
        "rho_hat_gap": result.rho_hat_gap,
        "gap_history": list(result.gap_history),
        "delta_hat_window": result.delta_hat_window,
        "quasi_contraction_max": max(result.quasi_contraction)
        if result.quasi_contraction else None,
        "origin_offset": result.origin_offset,
        "points": [
            {"x": x, "value": v, "bound": b, "gap": g}
            for x, v, b, g in zip(pts, result.values, result.bound, result.point_gap)
        ],
    }
    checks = [
        verify_stability_bound(cfg.phi, result.function, cfg.modular,
                               list(result.bound), cfg.grid, tol=CHECK_TOL_BOUND),
        verify_radical_additivity(result.function, cfg.modular, s, cfg.grid,
                                  tol=CHECK_TOL_LIMIT),
        verify_oddness(result.function, cfg.modular, cfg.grid, tol=CHECK_TOL_LIMIT),
    ]
    section["checks"] = [_outcome_dict(c) for c in checks]
    section["_function"] = result.function
    return section


def run_experiment(cfg: ExperimentConfig) -> tuple[dict, int]:
    """Run the configured method(s); return (report, exit_code)."""
    methods = ("t1", "t2", "fixedpoint") if cfg.method == "all" else (cfg.method,)
    audit = _audit(cfg)
    report: dict = {
        "schema": SCHEMA,
        "config": cfg.echo(),
        "audit": {**audit, "worst_triple": list(audit["worst_triple"])},
    }
    # One table serves every route, so t2 and the fixed-point route share
    # their evaluations of phi.
    table = IterateTable(cfg.phi, cfg.params.s, cfg.grid)
    sections: dict[str, dict] = {}
    for m in methods:
        if m == "t1":
            sections[m] = _limit_section(cfg, Mode.CONTRACT, table)
        elif m == "t2":
            sections[m] = _limit_section(cfg, Mode.EXPAND, table)
        else:
            sections[m] = _fixedpoint_section(cfg, audit, table)

    cross = []
    if cfg.method == "all":
        usable = {m: sec["_function"] for m, sec in sections.items() if "_function" in sec}
        names = sorted(usable)
        for a, b in itertools.combinations(names, 2):
            out = cross_check(usable[a], usable[b], cfg.modular, cfg.grid,
                              tol=CHECK_TOL_LIMIT)
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
    """
    axes = [(axis, sweep.axes[axis]) for axis in SWEEP_AXES if axis in sweep.axes]
    combos = itertools.product(*[vals for _, vals in axes]) if axes else [()]
    rows: list[list] = []
    cells: list[tuple[str, dict]] = []
    for idx, combo in enumerate(combos):
        assignment = {axis: value for (axis, _), value in zip(axes, combo)}
        name = f"cell_{idx:04d}"
        try:
            cfg = _cell_config(sweep.base, assignment)
            report, _ = run_experiment(cfg)
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
