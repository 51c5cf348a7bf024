"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json

import pytest

from modstab import (
    ControlFunction,
    EquationParams,
    Grid,
    ModularSpec,
    Mode,
    check_modular_axioms,
    construct_limit,
    contract_bound_closed_form,
    corner_triples,
    cross_check,
    defect,
    estimate_contraction,
    estimate_delta2,
    fixed_point_solve,
    monomial,
    parse_expression,
    seeded_triples,
    series_bound_contract,
    series_bound_expand,
    standard_ladder,
    verify_stability_bound,
)
from modstab.cli import main
from modstab.fixedpoint import audit_defect_hypothesis

ABS1 = ModularSpec.power(1)
GRID = Grid(-10, 10, 41)
SEED = 20260808


def _criterion(num, label, body):
    try:
        body()
    except BaseException:
        print(f"[acceptance] criterion {num} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({label}): PASS")


def test_criterion_1_exact_solution_defect():
    def body():
        triples = seeded_triples(-10, 10, 500, seed=SEED)
        for s in (3, 5, 7):
            for q in (1.0, -1.0, 0.5):
                params = EquationParams(s, q)
                for c in (-2.0, 1.0, 5.0):
                    phi = monomial(c, s)
                    worst = 0.0
                    max_phi = 0.0
                    for (x, y, z) in triples:
                        worst = max(worst, defect(params, phi, ABS1, x, y, z))
                        max_phi = max(max_phi, abs(phi(x)), abs(phi(y)), abs(phi(z)))
                    assert worst <= 1e-10 * (1.0 + max_phi), (s, q, c, worst)

    _criterion(1, "exact-solution defect", body)


def test_criterion_2_expand_route_reconstruction():
    def body():
        params = EquationParams(3, 1.0)
        phi = parse_expression("mono(1,3) + sine(0.1,1)")
        res = construct_limit(Mode.EXPAND, phi, params, ABS1, GRID, tol=1e-9)
        assert not res.saturated
        worst = max(abs(v - x**3) for v, x in zip(res.values, GRID.points()))
        assert worst <= 1e-6, worst
        alpha = ControlFunction.constant(0.1)
        bounds = [series_bound_expand(alpha, 3, x).upper for x in GRID.points()]
        assert bounds[0] == pytest.approx(0.1, rel=1e-9)
        out = verify_stability_bound(phi, res.function, ABS1, bounds, GRID)
        assert out.passed, out

    _criterion(2, "expand-route reconstruction", body)


def test_criterion_3_closed_form_bound():
    def body():
        sb = series_bound_contract(ControlFunction.power(1.0, 6.0), 2.0, 3, 1.0)
        cf = contract_bound_closed_form(1.0, 6.0, 3, 2.0, 1.0)
        assert sb.upper == pytest.approx(3.0, rel=1e-9)
        assert cf == pytest.approx(3.0, rel=1e-9)
        for theta in (0.5, 1.0, 2.0):
            for p in (6.5, 7.0, 8.0):
                for s in (3, 5):
                    for x in (0.5, 1.0, 3.0):
                        series = series_bound_contract(
                            ControlFunction.power(theta, p), 2.0, s, x)
                        closed = contract_bound_closed_form(theta, p, s, 2.0, x)
                        assert series.converged
                        assert series.upper == pytest.approx(closed, rel=1e-9)

    _criterion(3, "closed-form bound agreement", body)


def test_criterion_4_contract_route_end_to_end():
    def body():
        params = EquationParams(3, 1.0)
        phi = parse_expression("mono(1,3) + envnoise(0.004,6,7)")
        base = ControlFunction.power(0.004, 6.0)
        triples = seeded_triples(-10, 10, 500, seed=SEED) + corner_triples(-10, 10)
        audit = audit_defect_hypothesis(phi, params, ABS1, base, triples)
        k = audit["max_ratio"]
        assert k > 0.0
        alpha = ControlFunction.power(0.004 * k, 6.0)
        # scaled control dominates the defect on the audited sample
        rescaled = audit_defect_hypothesis(phi, params, ABS1, alpha, triples)
        assert rescaled["hypothesis_ok"]
        res = construct_limit(Mode.CONTRACT, phi, params, ABS1, GRID, tol=1e-9)
        assert not res.saturated
        worst = max(abs(v - x**3) for v, x in zip(res.values, GRID.points()))
        assert worst <= 1e-6, worst
        bounds = [series_bound_contract(alpha, 2.0, 3, x).upper for x in GRID.points()]
        out = verify_stability_bound(phi, res.function, ABS1, bounds, GRID)
        assert out.passed, out

    _criterion(4, "contract-route end to end", body)


def test_criterion_5_fixed_point_route():
    def body():
        params = EquationParams(3, 1.0)
        phi = parse_expression("mono(1,3) + mono(0.01,1)")
        alpha = ControlFunction.power(0.02, 1.0)
        samples = standard_ladder(-3, 3) + [-v for v in standard_ladder(-3, 3)]
        cert = estimate_contraction(alpha, 3, samples)
        assert cert.l_hat == pytest.approx(2.0 ** (-2 / 3), abs=1e-9)
        assert cert.valid
        triples = seeded_triples(-10, 10, 500, seed=SEED) + corner_triples(-10, 10)
        audit = audit_defect_hypothesis(phi, params, ABS1, alpha, triples)
        res = fixed_point_solve(phi, params, ABS1, alpha, GRID, tol=1e-9, audit=audit)
        assert not res.saturated
        for g0, g1 in zip(res.gap_history, res.gap_history[1:]):
            assert g1 <= (res.l_hat + 1e-9) * g0 + 1e-9
        coeff = 0.02 * (2.0 + 2.0 ** (1 / 3)) / (2.0 * (1.0 - 2.0 ** (-2 / 3)))
        for x in GRID.points():
            assert abs(0.01 * x) <= coeff * abs(x) + 1e-15
        out = verify_stability_bound(phi, res.function, ABS1, list(res.bound), GRID)
        assert out.passed, out

    _criterion(5, "fixed-point route", body)


def test_criterion_6_cross_method_uniqueness():
    def body():
        params = EquationParams(3, 1.0)
        phi = parse_expression("mono(1,3) + mono(0.01,1)")
        alpha = ControlFunction.power(0.02, 1.0)
        t2 = construct_limit(Mode.EXPAND, phi, params, ABS1, GRID, tol=1e-9)
        triples = seeded_triples(-10, 10, 500, seed=SEED) + corner_triples(-10, 10)
        audit = audit_defect_hypothesis(phi, params, ABS1, alpha, triples)
        fp = fixed_point_solve(phi, params, ABS1, alpha, GRID, tol=1e-9, audit=audit)
        worst = max(abs(a - b) for a, b in zip(t2.values, fp.values))
        assert worst <= 1e-6, worst
        assert cross_check(t2.function, fp.function, ABS1, GRID).passed

    _criterion(6, "cross-method uniqueness", body)


BASE_CFG = """\
[equation]
s = 3
q = 1

[modular]
spec = power:p=1

[phi]
expr = {phi}

[alpha]
spec = {alpha}

[run]
method = {method}
grid = -10,10,41
tol = 1e-9
n_max = 60
seed = 42
"""


def _run_cfg(tmp_path, name, **kw):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(BASE_CFG.format(**kw))
    out = tmp_path / f"{name}.json"
    code = main(["run", str(cfg), "--out", str(out)])
    return code, json.loads(out.read_text())


def test_criterion_7_divergence_detection(tmp_path):
    def body():
        # (a) contract route with constant control at tau = 2
        code, rep = _run_cfg(tmp_path, "a", phi="mono(1,3) + sine(0.1,1)",
                             alpha="const:eps=0.1", method="t1")
        sec = rep["methods"]["t1"]
        assert code == 2
        assert sec["regime"]["ratio"] == pytest.approx(2.0, rel=1e-12)
        assert not sec["series"]["converged"]
        assert "limit" not in sec  # no bound emitted

        # (b) fixed-point route at the boundary exponent p = s
        code, rep = _run_cfg(tmp_path, "b", phi="mono(1,3) + envnoise(0.001,3,5)",
                             alpha="power:theta=0.01,p=3", method="fixedpoint")
        sec = rep["methods"]["fixedpoint"]
        assert code == 2
        assert sec["certificate"]["l_hat"] == pytest.approx(1.0, abs=1e-9)
        assert not sec["certificate"]["valid"]
        assert "iteration" not in sec

        # (c) expand route with p > s
        code, rep = _run_cfg(tmp_path, "c", phi="mono(1,3) + envnoise(0.004,6,7)",
                             alpha="power:theta=0.016,p=6", method="t2")
        sec = rep["methods"]["t2"]
        assert code == 2
        assert sec["regime"]["ratio"] >= 1.0
        assert "limit" not in sec

    _criterion(7, "divergence detection", body)


def test_criterion_8_modular_axioms():
    def body():
        ladder = standard_ladder()
        for p in (1.0, 2.0, 3.0):
            spec = ModularSpec.power(p)
            assert check_modular_axioms(spec, ladder).all_passed
            tau, diverged = estimate_delta2(spec, ladder)
            assert tau == pytest.approx(2.0**p, rel=1e-9)
            assert not diverged
        exp_spec = ModularSpec.exp()
        assert check_modular_axioms(exp_spec, ladder).all_passed
        _, diverged = estimate_delta2(exp_spec, ladder)
        assert diverged

    _criterion(8, "modular axioms", body)


def test_criterion_9_determinism(tmp_path):
    def body():
        scenarios = [
            dict(phi="mono(1,3) + sine(0.1,1)", alpha="const:eps=0.1", method="t2"),
            dict(phi="mono(1,3) + mono(0.01,1)", alpha="power:theta=0.02,p=1",
                 method="fixedpoint"),
            dict(phi="mono(1,3) + envnoise(0.004,6,7)",
                 alpha="power:theta=0.016,p=6", method="t1"),
        ]
        for i, kw in enumerate(scenarios):
            cfg = tmp_path / f"s{i}.cfg"
            cfg.write_text(BASE_CFG.format(**kw))
            outs = []
            for run in ("x", "y"):
                out = tmp_path / f"s{i}{run}.json"
                main(["run", str(cfg), "--out", str(out)])
                outs.append(out.read_bytes())
            assert outs[0] == outs[1], f"scenario {i} not byte-identical"

    _criterion(9, "determinism", body)
