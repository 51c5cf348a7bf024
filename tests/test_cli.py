"""CLI behaviour: subcommands, exit codes, report files, determinism."""

import csv
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from modstab import (ContractViolation, DefectHypothesisError, Mode, ModstabError, RegimeError,
                     construct_limit, fixed_point_solve, pipeline, route_ratio,
                     series_bound_expand)
from modstab import cli
from modstab.cli import main
from modstab.config import parse_experiment
from modstab.direct import (doubling_constant, representative_point, require_convergent,
                            require_finite_bound)
from modstab.report import canonical_json

BASE = """\
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


def write_cfg(tmp_path, name="exp.cfg", phi="mono(1,3) + sine(0.1,1)",
              alpha="const:eps=0.1", method="t2", extra=""):
    path = tmp_path / name
    path.write_text(BASE.format(phi=phi, alpha=alpha, method=method) + extra)
    return path


class TestRun:
    def test_expand_route_all_pass(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "report.json"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["schema"] == "modstab-report/1"
        sec = rep["methods"]["t2"]
        assert sec["regime"]["ok"] and sec["series"]["converged"]
        assert sec["series"]["upper"] == pytest.approx(0.1, rel=1e-9)
        assert all(c["passed"] for c in sec["checks"])
        assert rep["exit_code"] == 0
        # per-point rows carry the full record
        pt = sec["limit"]["points"][0]
        assert set(pt) == {"x", "value", "bound", "gap"}

    def test_contract_constant_control_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, method="t1")
        out = tmp_path / "r.json"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        rep = json.loads(out.read_text())
        sec = rep["methods"]["t1"]
        assert not sec["regime"]["ok"]
        assert sec["regime"]["ratio"] == pytest.approx(2.0)
        assert "limit" not in sec  # no bound, no limit emitted

    def test_fixedpoint_supercritical_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, phi="mono(1,3) + envnoise(0.004,6,7)",
                        alpha="power:theta=0.016,p=6", method="fixedpoint")
        out = tmp_path / "r.json"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        rep = json.loads(out.read_text())
        sec = rep["methods"]["fixedpoint"]
        assert not sec["regime"]["ok"]
        assert sec["certificate"]["l_hat"] == pytest.approx(2.0, rel=1e-9)
        assert "iteration" not in sec

    def test_expand_supercritical_exponent_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, phi="mono(1,3) + envnoise(0.004,6,7)",
                        alpha="power:theta=0.016,p=6", method="t2")
        out = tmp_path / "r.json"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        rep = json.loads(out.read_text())
        assert rep["methods"]["t2"]["regime"]["ratio"] >= 1.0

    def test_method_all_cross_checks(self, tmp_path):
        cfg = write_cfg(tmp_path, phi="mono(1,3) + mono(0.004,6)",
                        alpha="power:theta=0.016,p=6", method="all")
        out = tmp_path / "r.json"
        code = main(["run", str(cfg), "--out", str(out)])
        rep = json.loads(out.read_text())
        # t1 converges for p=6 > s=3; t2 and fixedpoint are supercritical
        assert rep["methods"]["t1"]["regime"]["ok"]
        assert not rep["methods"]["t2"]["regime"]["ok"]
        assert code == 2

    def test_csv_format(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "report.csv"
        assert main(["run", str(cfg), "--out", str(out), "--format", "csv"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,x,value,bound,gap,n,saturated"
        assert len(lines) == 42  # header + 41 grid rows
        first = lines[1].split(",")
        assert first[0] == "t2" and float(first[1]) == -10.0
        assert float(first[2]) == pytest.approx(-1000.0, abs=1e-6)

    def test_overrides_applied(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "r.json"
        assert main(["run", str(cfg), "--out", str(out), "--tol", "1e-6",
                     "--n-max", "30", "--seed", "7"]) == 0
        rep = json.loads(out.read_text())
        assert rep["config"]["tol"] == 1e-6
        assert rep["config"]["n_max"] == 30
        assert rep["config"]["seed"] == 7

    def test_config_parse_error_exits_4(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[equation]\ns = 4\nq = 1\n")
        assert main(["run", str(bad)]) == 4

    def test_missing_config_exits_3(self, tmp_path):
        assert main(["run", str(tmp_path / "none.cfg")]) == 3

    def test_unwritable_output_exits_3(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 3  # path is a dir

    def test_byte_identical_reports(self, tmp_path):
        cfg = write_cfg(tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["run", str(cfg), "--out", str(a)]) == 0
        assert main(["run", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_audit_reported_but_not_gating(self, tmp_path):
        # sine defect exceeds eps=0.1 on triples, yet the final bound holds
        cfg = write_cfg(tmp_path)
        out = tmp_path / "r.json"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["audit"]["max_ratio"] > 1.0
        assert not rep["audit"]["hypothesis_ok"]


OVERFLOW_CFG = """\
[equation]
s = 3
q = 1

[modular]
spec = {modular}

[phi]
expr = mono(1,3) + mono(1e-30,99)

[alpha]
spec = const:eps=0.1

[run]
method = all
grid = {grid}
"""


class TestOverflowingRuns:
    # The degree-99 term overflows once the scaling routes push arguments
    # far out; such a run must still exit 2 with a report, not a traceback.

    def _run(self, tmp_path, modular, grid):
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(OVERFLOW_CFG.format(modular=modular, grid=grid))
        out = tmp_path / "r.json"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        return json.loads(out.read_text())

    def test_power_modular_overflow_writes_report(self, tmp_path):
        # rho(u) = u**2 overflows on the fixed-point route's large gaps
        rep = self._run(tmp_path, "power:p=2", "-0.5,0.5,11")
        fixedpoint = rep["methods"]["fixedpoint"]
        assert fixedpoint["regime"]["ok"]
        assert not any(c["passed"] for c in fixedpoint["checks"])

    def test_saturated_limit_fails_checks_with_inf(self, tmp_path):
        # the saturated fixed-point iterate overflows inside the checks
        rep = self._run(tmp_path, "power:p=1", "-0.001,0.001,11")
        checks = rep["methods"]["fixedpoint"]["checks"]
        assert not any(c["passed"] for c in checks if c["name"] != "oddness")
        additivity = [c for c in checks if c["name"] == "radical_additivity"]
        assert additivity[0]["worst_value"] == "inf"

    @staticmethod
    def _assert_audit_refuses_fixedpoint(rep):
        # an overflowing defect counts as inf, which the control cannot cover
        assert rep["audit"]["max_defect"] == "inf"
        assert not rep["audit"]["hypothesis_ok"]
        regime = rep["methods"]["fixedpoint"]["regime"]
        assert not regime["ok"] and regime["ratio"] == "inf"

    def test_overflowing_grid_refuses_fixedpoint(self, tmp_path):
        # x**3 overflows in the audit's radical combination
        rep = self._run(tmp_path, "power:p=1", "-1e120,1e120,41")
        self._assert_audit_refuses_fixedpoint(rep)

    def test_overflowing_control_refuses_fixedpoint(self, tmp_path):
        # |x|**2 overflows in the control and x**3 in the radical
        # combination: an inf control certifies no defect, so L = 0.79 < 1
        # is not enough to run the fixed-point route
        cfg = write_cfg(tmp_path, alpha="power:theta=1,p=2", method="all")
        cfg.write_text(cfg.read_text().replace("-10,10,41", "-1e200,1e200,41"))
        out = tmp_path / "r.json"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        self._assert_audit_refuses_fixedpoint(json.loads(out.read_text()))

    def test_overflowing_phi_refuses_fixedpoint(self, tmp_path):
        # x**400 overflows in phi at the audit triples
        cfg = write_cfg(tmp_path, phi="mono(1,400)", method="all")
        out = tmp_path / "r.json"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        self._assert_audit_refuses_fixedpoint(json.loads(out.read_text()))


class TestUnrepresentableConfig:
    # Numbers a float cannot hold, or that make the run's arithmetic leave
    # the float range before it starts, are config errors (exit 4).

    def _run(self, tmp_path, capsys, old="", new="", args=()):
        cfg = write_cfg(tmp_path, method="all")
        if old:
            cfg.write_text(cfg.read_text().replace(old, new))
        out = tmp_path / "r.json"
        code = main(["run", str(cfg), "--out", str(out), *args])
        assert not out.exists()
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["-inf,10,11", "-1e308,1.7e308,11"])
    def test_grid_span_must_be_finite(self, tmp_path, capsys, grid):
        code, err = self._run(tmp_path, capsys, "grid = -10,10,41", f"grid = {grid}")
        assert code == 4
        assert "grid needs lo < hi with a finite hi - lo" in err

    def test_doubling_constant_must_be_finite(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, "spec = power:p=1", "spec = power:p=1024")
        assert code == 4
        assert "exponent p=1024 is too large" in err

    def test_doubling_constant_must_be_finite_check_modular(self, capsys):
        assert main(["check-modular", "power:p=1024"]) == 4
        assert "exponent p=1024 is too large" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["power:theta=nan,p=1", "power:theta=1,p=nan",
                                       "power:theta=1,p=inf", "const:eps=nan"])
    def test_control_parameters_must_be_finite(self, tmp_path, capsys, alpha):
        code, err = self._run(tmp_path, capsys, "spec = const:eps=0.1", f"spec = {alpha}")
        assert code == 4
        assert "control parameters must be finite" in err

    def test_tol_must_be_finite(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, "tol = 1e-9", "tol = nan")
        assert code == 4
        assert "[run] tol must be positive and finite, got nan" in err

    def test_tol_override_must_be_finite(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, args=("--tol", "nan"))
        assert code == 4
        assert "--tol must be positive and finite" in err

    @pytest.mark.parametrize("expr, message", [
        ("mono(1,1e400)", "number 1e400 in 'mono(1,1e400)' must be finite"),
        ("mono(1e400,3)", "number 1e400 in 'mono(1e400,3)' must be finite"),
        ("sine(1,1e400)", "number 1e400 in 'sine(1,1e400)' must be finite"),
        ("envnoise(0.1,1,1e400)", "number 1e400 in 'envnoise(0.1,1,1e400)' must be finite"),
        ("envnoise(0.1,1,-5)", "envnoise seed must be non-negative, got -5"),
        ("mono(1,2.5)", "mono power must be an integer, got 2.5 in 'mono(1,2.5)'"),
        ("envnoise(0.1,1,7.5)", "envnoise seed must be an integer, got 7.5"),
    ])
    def test_expression_numbers_must_be_usable(self, tmp_path, capsys, expr, message):
        code, err = self._run(tmp_path, capsys, "expr = mono(1,3) + sine(0.1,1)",
                              f"expr = {expr}")
        assert code == 4
        assert err.startswith("config error: ") and message in err

    def test_n_max_beyond_float_powers(self, tmp_path, capsys):
        # 2**n_max must be a float: 2.0**1024 overflows in every route
        code, err = self._run(tmp_path, capsys, "n_max = 60", "n_max = 1024")
        assert code == 4
        assert "[run] n_max must be in 1..1023" in err
        code, err = self._run(tmp_path, capsys, args=("--n-max", "1024"))
        assert code == 4
        assert "--n-max must be in 1..1023" in err


    def test_seed_must_be_non_negative(self, tmp_path, capsys):
        # numpy seeds only from non-negative integers
        code, err = self._run(tmp_path, capsys, "seed = 42", "seed = -1")
        assert code == 4
        assert "[run] seed must be non-negative, got -1" in err
        code, err = self._run(tmp_path, capsys, args=("--seed", "-1"))
        assert code == 4
        assert "--seed must be non-negative, got -1" in err


class TestRegimeGates:
    def _run(self, tmp_path, grid="-10,10,41", **kw):
        cfg = write_cfg(tmp_path, method="all", **kw)
        cfg.write_text(cfg.read_text().replace("grid = -10,10,41", f"grid = {grid}"))
        out = tmp_path / "r.json"
        code = main(["run", str(cfg), "--out", str(out)])
        return code, json.loads(out.read_text())

    @pytest.mark.parametrize("alpha", ["const:eps=0", "power:theta=0,p=1", "const:eps=-0"])
    def test_zero_control_refuses_fixedpoint(self, tmp_path, alpha):
        code, rep = self._run(tmp_path, phi="mono(1,3)", alpha=alpha)
        assert code == 2
        sec = rep["methods"]["fixedpoint"]
        assert sec["regime"] == {
            "ok": False,
            "error": "estimate_contraction: control vanished at every sample; "
                     "nothing to certify",
        }
        assert "certificate" not in sec and "iteration" not in sec
        # t2 still runs.  Its series value keeps the sign of eps = -0, but
        # every printed bound is +0: the bound array adds 0.0.
        raw = json.loads((tmp_path / "r.json").read_text(), parse_int=str)["methods"]["t2"]
        assert raw["series"]["value"] == ("-0" if alpha == "const:eps=-0" else "0")
        assert {pt["bound"] for pt in raw["limit"]["points"]} == {"0"}

    def test_zero_control_refutes_the_audit(self, tmp_path):
        # alpha = 0 allows no defect, so the sine defect is an infinite ratio
        code, rep = self._run(tmp_path, phi="mono(1,3) + sine(0.5,1)", alpha="const:eps=0")
        assert code == 2
        audit = rep["audit"]
        assert audit["max_ratio"] == "inf" and not audit["hypothesis_ok"]
        assert audit["max_defect"] > 1.0

    def test_boundary_p_equals_s_refuses_every_route(self, tmp_path):
        # at p = s = 3 and tau = 2 every ratio is exactly 1
        code, rep = self._run(tmp_path, phi="mono(1,3) + envnoise(0.001,3,5)",
                              alpha="power:theta=0.01,p=3")
        assert code == 2
        for route in ("t1", "t2"):
            regime = rep["methods"][route]["regime"]
            assert not regime["ok"] and regime["ratio"] == 1.0
        fixedpoint = rep["methods"]["fixedpoint"]
        assert not fixedpoint["regime"]["ok"] and fixedpoint["regime"]["l_hat"] == 1.0
        assert not fixedpoint["certificate"]["valid"]

    def test_non_finite_bound_refuses_the_route(self, tmp_path):
        # The contract ratio 2 * 2**(-1e300/3) underflows to 0, while
        # |x|**1e300 overflows: the series bound is inf and the closed form
        # inf * 0 = nan, so a ratio below 1 certifies nothing.
        cfg = write_cfg(tmp_path, alpha="power:theta=1,p=1e300", method="t1")
        out = tmp_path / "r.json"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        rep = json.loads(out.read_text())
        sec = rep["methods"]["t1"]
        assert sec["regime"] == {
            "ok": False,
            "ratio": 0,
            "error": "error bound at the representative point 10 is not finite "
                     "(series bound inf, closed form nan) although the term ratio "
                     "0 < 1; no usable bound exists here",
        }
        assert sec["series"]["upper"] == "inf" and sec["series"]["converged"]
        assert sec["closed_form"]["value_at_representative"] == "nan"
        assert "limit" not in sec and "checks" not in sec
        assert not rep["regime_ok"]

    @pytest.mark.parametrize("method", ["fixedpoint", "t2"])
    def test_non_finite_bound_refuses_the_fixed_point_route_as_t2(self, tmp_path, method):
        # theta = 1e307 overflows the control at |x| = 10: the bound there is
        # inf on both routes, which share it, so a factor below 1 certifies
        # nothing on either.
        cfg = write_cfg(tmp_path, phi="mono(0,3)", alpha="power:theta=1e307,p=2",
                        method=method)
        cfg.write_text(cfg.read_text().replace("grid = -10,10,41", "grid = -10,10,5"))
        out = tmp_path / "r.json"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        rep = json.loads(out.read_text())
        sec = rep["methods"][method]
        factor, key, name = (("contraction factor", "l_hat", "fixed-point bound")
                             if method == "fixedpoint" else ("term ratio", "ratio", "series bound"))
        assert sec["regime"] == {
            "ok": False,
            key: 0.7937005259840997,
            "error": "error bound at the representative point 10 is not finite "
                     f"({name} inf) although the {factor} 0.793701 < 1; "
                     "no usable bound exists here",
        }
        assert "iteration" not in sec and "limit" not in sec and "checks" not in sec
        if method == "fixedpoint":
            assert sec["certificate"]["valid"]
        assert not rep["regime_ok"]

    def test_nan_ratio_is_not_called_a_large_ratio(self, tmp_path):
        # tau**2 = 2**1200 overflows and 2**(-1e300/3) underflows: inf * 0
        cfg = write_cfg(tmp_path, alpha="power:theta=1,p=1e300", method="t1")
        cfg.write_text(cfg.read_text().replace("spec = power:p=1\n", "spec = power:p=600\n"))
        out = tmp_path / "r.json"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        regime = json.loads(out.read_text())["methods"]["t1"]["regime"]
        assert regime["ratio"] == "nan" and not regime["ok"]
        assert "nan >=" not in regime["error"]
        assert regime["error"].startswith("error-bound series diverges (term ratio is nan")

    def test_fixedpoint_bounds_equal_expand_bounds(self, tmp_path):
        for phi, alpha, grid in [
            ("mono(1,3) + mono(0.01,1)", "power:theta=0.02,p=1", "-10,10,41"),
            # a = 1.5e-323 is subnormal with an odd last bit, so (0.5*a)/(1-L)
            # and a/(2*(1-L)) round apart: 2e-323 against 1.5e-323
            ("mono(0,3)", "power:theta=5e-324,p=0", "-2,2,5"),
        ]:
            _, rep = self._run(tmp_path, phi=phi, alpha=alpha, grid=grid)
            t2, fixedpoint = rep["methods"]["t2"], rep["methods"]["fixedpoint"]
            assert t2["regime"]["ok"] and fixedpoint["regime"]["ok"]
            assert fixedpoint["regime"]["l_hat"] == t2["regime"]["ratio"]
            t2_bounds = [pt["bound"] for pt in t2["limit"]["points"]]
            assert [pt["bound"] for pt in fixedpoint["iteration"]["points"]] == t2_bounds


def _construct_contract(cfg, audit):
    construct_limit(Mode.CONTRACT, cfg.phi, cfg.params, cfg.modular, cfg.grid,
                    tol=cfg.tol, n_max=cfg.n_max)


def _solve(cfg, audit):
    fixed_point_solve(cfg.phi, cfg.params, cfg.modular, cfg.alpha, cfg.grid,
                      tol=cfg.tol, n_max=cfg.n_max, audit=audit)


def _direct_gates(mode):
    """The route-layer gates a direct route passes before ``construct_limit``."""
    def gates(cfg, audit):
        tau = doubling_constant("contract", cfg.modular) if mode is Mode.CONTRACT else None
        ratio = route_ratio(mode, cfg.alpha, cfg.params.s, tau)
        require_convergent(ratio)
        x, _ = representative_point(cfg.grid)
        bound = series_bound_expand(cfg.alpha, cfg.params.s, x).upper
        require_finite_bound(x, {"series bound": bound}, "ratio", ratio)
    return gates


BOUNDARY = {"phi": "mono(1,3) + envnoise(0.001,3,5)", "alpha": "power:theta=0.01,p=3"}
NON_FINITE = {"phi": "mono(0,3)", "alpha": "power:theta=1e307,p=2", "grid": "-10,10,5"}


@pytest.mark.parametrize("method, config, route, raised", [
    ("t1", {"modular": "exp"}, _construct_contract, ContractViolation),
    ("fixedpoint", {"modular": "exp"}, _solve, ContractViolation),
    ("t1", BOUNDARY, _direct_gates(Mode.CONTRACT), RegimeError),
    ("t2", BOUNDARY, _direct_gates(Mode.EXPAND), RegimeError),
    ("fixedpoint", BOUNDARY, _solve, RegimeError),
    ("t2", NON_FINITE, _direct_gates(Mode.EXPAND), RegimeError),
    ("fixedpoint", NON_FINITE, _solve, RegimeError),
    ("fixedpoint", {"phi": "mono(1,3) + sine(0.1,1)", "alpha": "const:eps=0.05"},
     _solve, DefectHypothesisError),
], ids=["t1-exp", "fixedpoint-exp", "t1-diverged", "t2-diverged", "fixedpoint-L-1",
        "t2-non-finite", "fixedpoint-non-finite", "fixedpoint-audit"])
def test_a_report_prints_the_routes_own_refusal(tmp_path, method, config, route, raised):
    # Each refusal is worded once, in the route layer: the report's regime is
    # the error the library call raises, its text and its fields, in order.
    config = {"modular": "power:p=1", "grid": "-10,10,41", **config}
    cfg = write_cfg(tmp_path, method=method, phi=config.get("phi", "mono(1,3) + sine(0.1,1)"),
                    alpha=config.get("alpha", "const:eps=0.1"))
    cfg.write_text(cfg.read_text().replace("spec = power:p=1", f"spec = {config['modular']}")
                   .replace("grid = -10,10,41", f"grid = {config['grid']}"))
    out = tmp_path / "r.json"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    with pytest.raises(raised) as err:
        route(parse_experiment(cfg.read_text()), report["audit"])
    exc = err.value
    if raised is DefectHypothesisError:
        expected = {"ok": False, "error": str(exc), "worst_triple": list(exc.worst_triple),
                    "ratio": exc.ratio}
    else:
        expected = {"ok": False, **getattr(exc, "diagnostics", {}), "error": str(exc)}
    regime = report["methods"][method]["regime"]
    assert list(regime.items()) == list(expected.items())
    assert '"regime":' + canonical_json(expected)[:-1] in out.read_text()
    assert not report["regime_ok"]


def test_astral_characters_round_trip(tmp_path):
    # float() accepts any Unicode digit, here MATHEMATICAL BOLD DIGIT ONE
    expr = "mono(\U0001d7cf,3)"
    cfg = tmp_path / "astral.cfg"
    cfg.write_text(BASE.format(phi=expr, alpha="const:eps=0.1", method="t2"),
                   encoding="utf-8")
    out = tmp_path / "r.json"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="ascii"))["config"]["phi"] == expr


class TestSweep:
    def test_exponent_sweep_regimes(self, tmp_path):
        cfg = write_cfg(tmp_path, phi="mono(1,3) + envnoise(0.01,1,11)",
                        alpha="power:theta=0.05,p=1",
                        extra="\n[sweep]\np = 1,2,4,5,6\noutdir = "
                              + str(tmp_path / "sw") + "\n")
        assert main(["sweep", str(cfg)]) == 0
        lines = (tmp_path / "sw" / "summary.csv").read_text().splitlines()
        assert lines[0].startswith("s,q,p,theta,modular,method,converged")
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 5
        by_p = {float(r[2]): r for r in rows}
        for p in (1.0, 2.0):
            assert by_p[p][6] == "true"
            assert float(by_p[p][7]) == pytest.approx(2.0 ** (p / 3) / 2.0, rel=1e-9)
        for p in (4.0, 5.0, 6.0):
            assert by_p[p][6] == "false"
            assert float(by_p[p][7]) >= 1.0
        # per-cell reports exist
        assert (tmp_path / "sw" / "cell_0000.json").exists()

    def test_contract_sweep_over_s(self, tmp_path):
        cfg = write_cfg(tmp_path, phi="mono(1,3) + mono(0.004,6)",
                        alpha="power:theta=0.016,p=6", method="t1",
                        extra="\n[sweep]\ns = 3,5\noutdir = "
                              + str(tmp_path / "sw") + "\n")
        main(["sweep", str(cfg)])
        lines = (tmp_path / "sw" / "summary.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        # series ratio r = 2*2^(-p/s) < 1 for p=6 at both s=3 and s=5
        for row in rows:
            assert row[6] == "true"
            assert float(row[7]) < 1.0
        by_s = {int(r[0]): r for r in rows}
        # the cubic is a solution only for s=3; the s=5 cell shows its
        # failure through a huge bound slack rather than a hidden error
        assert float(by_s[3][8]) <= 1e-9
        assert float(by_s[5][8]) > 1.0

    def test_theta_axis_on_constant_control_is_config_error(self, tmp_path, capsys):
        # A theta axis cannot be applied to a constant control: no cell could run.
        cfg = write_cfg(tmp_path, extra="\n[sweep]\ntheta = 0.1,0.2\noutdir = "
                                        + str(tmp_path / "sw") + "\n")
        assert main(["sweep", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("config error: [sweep] theta = 0.1: ")
        assert "need a power control function" in err
        assert not (tmp_path / "sw").exists()

    def test_bad_modular_axis_value_is_config_error(self, tmp_path, capsys):
        # The same spec under [modular] is a config error; under [sweep] too,
        # before any cell runs or any file is written.
        out = tmp_path / "sw"
        cfg = write_cfg(tmp_path, alpha="power:theta=0.5,p=1",
                        extra="\n[sweep]\nmodular = power:p=1,bogus\n")
        assert main(["sweep", str(cfg), "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            "config error: [sweep] modular = bogus: unknown modular spec 'bogus' "
            "(expected 'power:p=...' or 'exp')\n")
        assert not out.exists()
        run_cfg = write_cfg(tmp_path, name="run.cfg").read_text().replace(
            "spec = power:p=1", "spec = bogus")
        (tmp_path / "run.cfg").write_text(run_cfg)
        assert main(["run", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "r.json")]) == 4

    def test_empty_axes_single_cell(self, tmp_path):
        cfg = write_cfg(tmp_path, extra="\n[sweep]\noutdir = "
                                        + str(tmp_path / "sw") + "\n")
        assert main(["sweep", str(cfg)]) == 0
        lines = (tmp_path / "sw" / "summary.csv").read_text().splitlines()
        assert len(lines) == 2  # header + the base experiment row

    def test_non_integer_cap_is_config_error(self, tmp_path, capsys):
        # The cap is fixed: a cap key, whatever its value, is an unknown key.
        cfg = write_cfg(tmp_path, extra="\n[sweep]\np = 1,2\ncap = abc\noutdir = "
                                        + str(tmp_path / "sw") + "\n")
        assert main(["sweep", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "unknown key(s) ['cap'] in [sweep]" in err
        assert not (tmp_path / "sw").exists()

    def _summary(self, tmp_path, axes):
        """Run a sweep of ``axes`` over the envnoise base on 11 points; return its rows."""
        cfg = write_cfg(tmp_path, phi="mono(1,3) + envnoise(0.01,1,11)",
                        alpha="power:theta=0.05,p=1", method="all",
                        extra=f"\n[sweep]\n{axes}\n")
        cfg.write_text(cfg.read_text().replace("grid = -10,10,41", "grid = -10,10,11"))
        assert main(["sweep", str(cfg), "--out", str(tmp_path / "sw")]) == 0
        with open(tmp_path / "sw" / "summary.csv", newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == pipeline.SWEEP_HEADER
        return rows

    def test_refused_fixed_point_rows_keep_their_rate(self, tmp_path):
        # Every way the fixed-point route is refused, with the rate L it was
        # gated on: the certificate at theta = 0, the audit at theta = 1e307,
        # L >= 1 at p >= s = 3, and no doubling constant on exp (no rate).
        rows = self._summary(tmp_path, "p = 1,3,4\ntheta = 0,0.05,1e307\n"
                                       "modular = power:p=1,exp")
        fixed = {(p, theta, modular): (converged, rate, error)
                 for _, _, p, theta, modular, method, converged, rate, _, _, error in rows
                 if method == "fixedpoint"}
        vanished = "estimate_contraction: control vanished at every sample; nothing to certify"
        thetas = ("0", "0.050000000000000003", "9.9999999999999999e+306")
        expected = {(p, theta, "exp"): (
            "false", "", "fixed-point route needs a modular with a finite doubling constant; "
                         "exp has none") for p in ("1", "3", "4") for theta in thetas}
        for p, rate, ratio in (("3", "1", "1"), ("4", "1.2599210498948732", "1.25992")):
            expected[p, thetas[0], "power:p=1"] = ("false", rate, vanished)
            for theta in thetas[1:]:
                expected[p, theta, "power:p=1"] = (
                    "false", rate, f"contraction factor {ratio} >= 1: fixed-point route "
                                   "inapplicable")
        l_hat = "0.6299605249474366"
        expected["1", thetas[0], "power:p=1"] = ("false", l_hat, vanished)
        expected["1", thetas[1], "power:p=1"] = ("true", l_hat, "")
        expected["1", thetas[2], "power:p=1"] = (
            "false", l_hat, "equation defect exceeds the control function: ratio inf at "
                            "triple (3.9473605811872776, -8.11645304224701, 9.512447032735118)")
        assert fixed == expected

    def test_a_cell_that_fails_is_one_error_row(self, tmp_path, monkeypatch):
        # The row holds the assignment's values, the base's where it has
        # none, and the base method; the cells after it still run.
        build = pipeline.cell_config

        def cell_config(base, assignment):
            if assignment.get("p") == "2":
                raise ModstabError("no cell at p = 2")
            return build(base, assignment)

        monkeypatch.setattr(pipeline, "cell_config", cell_config)
        rows = self._summary(tmp_path, "p = 1,2,4")
        assert [row[2] for row in rows] == ["1"] * 3 + ["2"] + ["4"] * 3
        assert rows[3] == ["3", "1", "2", "", "power:p=1", "all", "false", "", "", "",
                           "no cell at p = 2"]
        assert [row[5] for row in rows[4:]] == ["t1", "t2", "fixedpoint"]
        assert rows[4][6] == "true" and rows[4][9] != ""

    def test_sweep_determinism(self, tmp_path):
        cfg = write_cfg(tmp_path, phi="mono(1,3) + envnoise(0.01,1,11)",
                        alpha="power:theta=0.05,p=1",
                        extra="\n[sweep]\np = 1,2\noutdir = PLACEHOLDER\n")
        text = cfg.read_text()
        for d in ("s1", "s2"):
            (tmp_path / f"{d}.cfg").write_text(text.replace("PLACEHOLDER",
                                                            str(tmp_path / d)))
            assert main(["sweep", str(tmp_path / f"{d}.cfg")]) == 0
        a = (tmp_path / "s1" / "summary.csv").read_bytes()
        b = (tmp_path / "s2" / "summary.csv").read_bytes()
        assert a == b
        ca = (tmp_path / "s1" / "cell_0001.json").read_bytes()
        cb = (tmp_path / "s2" / "cell_0001.json").read_bytes()
        assert ca == cb


class TestCheckModular:
    @pytest.mark.parametrize("spec", ["power:p=1", "power:p=2", "power:p=3", "exp"])
    def test_builtins_pass(self, spec, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["check-modular", spec, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["all_passed"]
        names = {e["name"] for e in rep["axioms"]}
        assert {"zero_at_zero", "sign_symmetry", "scaling_monotonicity"} <= names

    def test_power_delta2(self, tmp_path):
        out = tmp_path / "m.json"
        main(["check-modular", "power:p=3", "--out", str(out)])
        rep = json.loads(out.read_text())
        assert rep["delta2"]["tau_hat"] == pytest.approx(8.0, rel=1e-9)
        assert not rep["delta2"]["diverged"]

    def test_exp_divergence_flagged(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["check-modular", "exp", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["delta2"]["diverged"]
        assert rep["delta2"]["declared"] is None

    def test_csv_output(self, capsys):
        assert main(["check-modular", "power:p=2", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "name,passed,worst_sample,worst_value,tolerance"

    def test_bad_spec_exits_4(self):
        assert main(["check-modular", "gauss"]) == 4


def test_stdout_when_no_out(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    cfg.write_text(cfg.read_text())
    assert main(["run", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith('{"schema":"modstab-report/1"')


def test_readme_config_runs(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (text,) = re.findall(r"^```ini\n(.*?)^```$", readme, re.M | re.S)
    cfg = parse_experiment(text)
    assert (cfg.method, cfg.fmt, cfg.out) == ("t2", "json", "report.json")
    path = tmp_path / "readme.cfg"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "readme.json"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["methods"]["t2"]["regime"]["ok"]


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys, monkeypatch):
    # The parser is built once per process; each call through it must still
    # give the exit code and the bytes of a fresh process, a refused argv too.
    monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
    cfg = str(write_cfg(tmp_path))
    sweep_cfg = str(Path(__file__).parent / "golden" / "sweep_small" / "sweep.cfg")
    outdir = tmp_path / "sweep"
    calls = [
        ["run", cfg],
        ["sweep", sweep_cfg, "--out", str(outdir)],
        ["check-modular", "power:p=2", "--format", "csv"],
        ["run", cfg, "--n-max", "many"],
        ["run", cfg, "--seed", "3"],
    ]

    def written():
        return {p.name: p.read_bytes() for p in outdir.iterdir()} if outdir.exists() else {}

    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    fresh = []
    for argv in calls:
        done = subprocess.run([sys.executable, "-m", "modstab.cli", *argv],
                              capture_output=True, env=env, check=False)
        fresh.append((done.returncode, done.stdout.decode(), done.stderr.decode(), written()))
        shutil.rmtree(outdir, ignore_errors=True)

    assert cli._build_parser() is cli._build_parser()
    for argv, want in zip(calls, fresh):
        got = (main(argv), *capsys.readouterr(), written())
        shutil.rmtree(outdir, ignore_errors=True)
        assert got == want, argv
    assert [code for code, *_ in fresh] == [0, 0, 0, 4, 0]
