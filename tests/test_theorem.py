"""The paper's stability theorem as a generated property (``tests/oracle.py``).

Two families of ``phi`` know their exact radical mapping ``c*x**s`` and
satisfy the defect hypothesis at every triple by construction, with
``|r|**s <= (|x|**s + |y|**s + |z|**s) / |q|`` for the radical root ``r``
and the power-mean inequality:

* ``mono(c,s) + envnoise(a,p,seed)`` under ``rho = power:p=1``, with the
  control ``power:theta=a*K,p``, ``K = 1 + |q|**(1 - p/s) * max(1,
  3**(p/s - 1))``: the defect is at most ``a * (|x|**p + |y|**p + |z|**p)
  + |q| * a * |r|**p``;
* ``mono(c,s) + sine(a,b) + mono(d,0)`` with the control
  ``const:eps=(a + |d|)*(3 + |q|)``, where ``phi(0) = d`` is not 0.

Each control carries a relative margin of ``1e-12`` over the derived
constant.  Over draws of ``s`` in {3, 5, 7}, ``q``, ``c``, ``a``, ``p``
away from ``s`` and grids from +-1e-3 to +-1e6, every route that runs to its
checks (its regime is ok) has ``rho(phi(x) - shift - c*x**s) <= bound`` at
every grid point in 200-bit mpmath, and, unless it saturated or is a
fixed-point route under a control line above 1 (``_stops_within_tol``), a
``value`` within ``tests/test_oracle.py``'s ``value_tolerance`` of
``c*x**s``; at ``p = s`` every route refuses.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from modstab.config import parse_experiment
from modstab.pipeline import run_experiment
from modstab.report import canonical_json
from test_oracle import value_tolerance

CONFIG = """\
[equation]
s = {s}
q = {q!r}

[modular]
spec = power:p=1

[phi]
expr = {phi}

[alpha]
spec = {alpha}

[run]
method = all
grid = {lo!r},{hi!r},{count}
seed = 3
"""

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=100)
MARGIN = 1.0 + 1e-12

odd_s = st.sampled_from([3, 5, 7])
qs = st.builds(lambda sign, mag: sign * mag, st.sampled_from([-1.0, 1.0]),
               st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
coefficients = st.floats(-5.0, 5.0)
amplitudes = st.floats(1e-3, 1.0)


def _grid(half, symmetric, count):
    # A symmetric grid, or one shifted off the origin so that -x leaves the table.
    return (-half, half, count) if symmetric else (-half / 3.0, half, count)


grids = st.builds(_grid, st.floats(-3.0, 6.0).map(lambda e: 10.0**e),  # the half-width
                  st.booleans(), st.sampled_from([5, 9, 21]))


def _report(s, q, phi, alpha, grid):
    lo, hi, count = grid
    cfg = parse_experiment(CONFIG.format(s=s, q=q, phi=phi, alpha=alpha, lo=lo, hi=hi,
                                         count=count))
    report, _ = run_experiment(cfg)
    return json.loads(canonical_json(report))


def _envnoise_case(s, q, c, a, p, seed):
    k = 1.0 + abs(q) ** (1.0 - p / s) * max(1.0, 3.0 ** (p / s - 1.0))
    return (f"mono({c!r},{s}) + envnoise({a!r},{p!r},{seed})",
            f"power:theta={a * k * MARGIN!r},p={p!r}")


def _stops_within_tol(route) -> bool:
    """Whether the route's stop rule bounds the modular of its last step by ``tol``, as
    ``value_tolerance`` assumes.  t1 and t2 stop on that modular.  The fixed-point route
    stops on its sampled gap, the step's modular over the control line ``alpha(x, x,
    -2^(1/s) x)``, which is ``bound * 2 * (1 - l_hat)`` at a point; that gap bounds the
    step by ``tol`` only where the line is at most 1 (ROADMAP item 20)."""
    return route.method != "fixedpoint" or all(
        row["bound"] * 2 * (1 - route.ratio) <= 1 for row in route.points)


def _assert_certified(report):
    for route in oracle.routes(report):
        assert oracle.bound_violations(route) == [], route.method
        if not route.saturated and _stops_within_tol(route):
            worst = max(oracle.relative_errors(route))
            assert worst <= value_tolerance(route), (route.method, worst)


@PROFILE
@given(s=odd_s, q=qs, c=coefficients, a=amplitudes, seed=st.integers(0, 2**32 - 1),
       t=st.one_of(st.floats(0.1, 0.9), st.floats(1.1, 2.0)), grid=grids)
def test_envnoise_family_bounds_hold_for_the_exact_solution(s, q, c, a, seed, t, grid):
    phi, alpha = _envnoise_case(s, q, c, a, t * s, seed)
    _assert_certified(_report(s, q, phi, alpha, grid))


@PROFILE
@given(s=odd_s, q=qs, c=coefficients, a=amplitudes, b=st.floats(0.1, 10.0),
       d=st.floats(-1.0, 1.0), grid=grids)
def test_offset_family_bounds_hold_for_the_exact_solution(s, q, c, a, b, d, grid):
    phi = f"mono({c!r},{s}) + sine({a!r},{b!r}) + mono({d!r},0)"
    alpha = f"const:eps={(a + abs(d)) * (3.0 + abs(q)) * MARGIN!r}"
    _assert_certified(_report(s, q, phi, alpha, grid))


@settings(PROFILE, max_examples=25)
@given(s=odd_s, q=qs, c=coefficients, a=amplitudes, seed=st.integers(0, 2**32 - 1),
       grid=grids)
def test_every_route_refuses_at_p_equal_to_s(s, q, c, a, seed, grid):
    phi, alpha = _envnoise_case(s, q, c, a, float(s), seed)
    report = _report(s, q, phi, alpha, grid)
    assert [sec["regime"]["ok"] for sec in report["methods"].values()] == [False] * 3


def test_a_contract_bound_that_underflows_to_zero_is_certified():
    # At p = 1e300 the contract ratio 2 * 2**(-1e300/3) underflows to 0 and
    # |x|**1e300 to 0 inside the unit interval, so t1's bound is 1 at the
    # ends and 0 at +-0.5 and 0.  The one bound is finite, so t1 runs; the
    # expand ratio 2**(1e300/3)/2 overflows, and t2 and the fixed point refuse.
    report = _report(3, 1.0, "mono(1,3)", "power:theta=1,p=1e300", (-1.0, 1.0, 5))
    t1 = report["methods"]["t1"]
    assert t1["regime"] == {"ok": True, "ratio": 0}
    assert t1["series"] == {"value": 1, "converged": True, "ratio": 0}
    assert t1["limit"]["achieved_n"] == 2 and all(c["passed"] for c in t1["checks"])
    assert [row["bound"] for row in t1["limit"]["points"]] == [1, 0, 0, 0, 1]
    assert [sec["regime"]["ok"] for sec in report["methods"].values()] == [True, False, False]
    (route,) = oracle.routes(report)
    assert route.method == "t1" and oracle.bound_violations(route) == []
