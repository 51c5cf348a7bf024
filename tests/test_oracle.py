"""Every report against the exact radical mapping ``c*x**s`` (``tests/oracle.py``).

The reports are every committed JSON golden that runs routes, the sweep
cells included, and the benchmark's ``large_grid``, ``regime_edge_expand``
and ``regime_edge_contract`` configs run in process at seed 0.  Two
properties, in 200-bit mpmath:

* a route whose ``stability_bound`` check passed has ``rho(phi(x) - shift -
  c*x**s) <= bound`` at every point, with ``shift = q*phi(0)`` on t2 and 0
  on the other routes: the certificate holds for the exact solution, with
  no slack;
* a route that is not saturated has ``|value - c*x**s| / (1 + |c*x**s|)``
  at most ``delta / (1 - r)`` at every point (``value_tolerance``).

The tolerance is derived from ``tol``.  A route stops once the modular of
its step stays below ``tol`` (the fixed-point route: its sampled gap), so
that step moves a value by at most ``delta = rho^-1(tol)``: ``tol**(1/p)``
for ``power:p``, ``log1p(tol)`` for ``exp``.  The modular grows with
``|u|``.  If the later steps shrink geometrically by the route's ratio
``r`` (``regime.ratio``, or ``l_hat`` on the fixed-point route), the value
lies within ``delta * r / (1 - r) < delta / (1 - r)`` of the limit, and
``1 + |c*x**s| >= 1`` turns that into a relative bound.  That is a model of
the walk, not a theorem, and the measured errors sit well inside it: at
most 3.1e-6 against 7.2e-5 on ``power:p=2`` (``delta = sqrt(tol)``), and
3.4e-10 against 2.3e-9 on ``power:p=1`` at ``tol = 1e-9``.  Rounding, about
1e-13 relative, fits inside it too.
"""

import dataclasses
import functools
import json
import math
from pathlib import Path

import mpmath
import pytest

import oracle
from modstab.config import parse_experiment
from modstab.pipeline import run_experiment
from modstab.report import canonical_json

GOLDEN = Path(__file__).parent / "golden"
WORKLOADS = Path(__file__).parents[1] / "perfbench" / "workloads"
GOLDEN_REPORTS = sorted(p.relative_to(GOLDEN).as_posix() for p in GOLDEN.rglob("*.json")
                        if "methods" in json.loads(p.read_text(encoding="utf-8")))
RUNS = ["large_grid", "regime_edge_expand", "regime_edge_contract"]
CASES = [f"golden/{name}" for name in GOLDEN_REPORTS] + [f"run/{name}" for name in RUNS]


@functools.cache
def _report(case: str) -> dict:
    """The report ``case`` names, as its canonical JSON parses."""
    kind, _, name = case.partition("/")
    if kind == "golden":
        return json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    cfg = parse_experiment((WORKLOADS / f"{name}.cfg").read_text(encoding="utf-8"))
    report, _ = run_experiment(dataclasses.replace(cfg, seed=0))
    return json.loads(canonical_json(report))


def value_tolerance(route: oracle.Route) -> float:
    """``delta / (1 - r)``: see the module docstring."""
    kind, _, p = route.spec.partition(":p=")
    delta = math.log1p(route.tol) if kind == "exp" else route.tol ** (1.0 / float(p))
    return delta / (1.0 - route.ratio)


@pytest.mark.parametrize("case", CASES)
def test_certified_bounds_hold_for_the_exact_solution(case):
    for route in oracle.routes(_report(case)):
        if route.certified:
            assert oracle.bound_violations(route) == [], route.method


@pytest.mark.parametrize("case", CASES)
def test_converged_values_are_the_exact_solution(case):
    for route in oracle.routes(_report(case)):
        if not route.saturated:
            worst = max(oracle.relative_errors(route))
            assert worst <= value_tolerance(route), (route.method, worst)


def test_the_oracle_reads_enough_routes():
    # Guards against the properties above passing on nothing: 22 certified
    # routes (13 outside the sweep cells), and a value check on every
    # modular kind, power:p=2 and a ratio close to 1 included.
    routes = [r for case in CASES for r in oracle.routes(_report(case))]
    assert sum(r.certified for r in routes) == 22
    converged = [r for r in routes if not r.saturated]
    assert {r.spec for r in converged} == {"power:p=1", "power:p=2", "exp"}
    assert {r.method for r in converged} == {"t2", "fixedpoint"}
    assert max(r.ratio for r in converged) > 0.97


def test_the_oracle_finds_a_violated_bound_and_a_wrong_value():
    # A bound one step short of the exact distance, and a value off c*x**s.
    report = _report("golden/expand_fixedpoint_ok.json")
    route = oracle.routes(report)[0]
    row = max(route.points, key=lambda r: r["bound"])
    with mpmath.workprec(oracle.PREC):
        c = oracle.exact_coefficient(route.phi, route.s)
        exact = oracle.rho_exact(route.spec, oracle.phi_exact(route.phi, row["x"])
                                 - route.shift - c * row["x"] ** route.s)
    row["bound"] = mpmath.mpf(math.nextafter(float(exact), 0.0))
    assert [v[0] for v in oracle.bound_violations(route)] == [float(row["x"])]
    row["value"] += 1e-3 * (1 + abs(c * row["x"] ** route.s))
    assert max(oracle.relative_errors(route)) > value_tolerance(route)
