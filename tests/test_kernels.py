"""The array kernels against the scalar code they replace, and the work they save.

Equivalence tests keep an inline copy of the scalar reference and assert bit
equality (``float.hex``), not closeness.  The counting tests show that one
run evaluates ``phi`` once per scaling step and sample point across the
expand and fixed-point routes and audits the defect hypothesis once, and that
a sweep computes each result that does not read ``alpha`` once per distinct
input it does read.
"""

import dataclasses
import itertools
import math
import pathlib
from collections import Counter

import numpy as np
import pytest

import modstab.pipeline as pipeline_mod
import modstab.verify as verify_mod
from modstab import (
    ArgumentError,
    ControlFunction,
    EquationParams,
    FunctionHandle,
    Grid,
    IterateTable,
    ModularSpec,
    Mode,
    approximant_contract,
    approximant_expand,
    approximant_row,
    construct_limit,
    control_eval,
    control_eval_many,
    control_power_sums,
    estimate_contraction,
    fixed_point_solve,
    limit_function,
    pair_additivity_defect,
    parse_expression,
    rho_eval,
    rho_eval_array,
    route_bounds,
    route_line,
    route_ratio,
    series_bound_contract,
    series_bound_expand,
    verify_radical_additivity,
)
from modstab.config import parse_experiment, parse_sweep
from modstab.fixedpoint import (
    _delta_hat_window,
    _quasi_contraction,
    _rho_hat_rows,
    audit_ratios,
)

P3 = EquationParams(3, 1.0)
EXPERIMENT = """
[equation]
s = 3
q = 1
[modular]
spec = power:p=1
[phi]
expr = mono(1,3) + {noise}
[alpha]
spec = power:theta={theta},p=1
[run]
method = all
grid = -10,10,41
seed = 7
"""
ABS1 = ModularSpec.power(1)
SQUARE = ModularSpec.power(2)


def bits(values):
    return [float(v).hex() for v in values]


# -- strided additivity pairs ------------------------------------------------


def _old_pairs(pts):
    pairs = [(x, y) for x in pts for y in pts]
    if len(pairs) > verify_mod.MAX_ADDITIVITY_PAIRS:
        stride = -(-len(pairs) // verify_mod.MAX_ADDITIVITY_PAIRS)
        pairs = pairs[::stride]
    return pairs


def _visited_pairs(monkeypatch, grid):
    # The pairs the check visits, in order, as the geometry it builds lists them.
    built = []
    real = verify_mod.additivity_pairs

    def record(s, grid):
        built.append(real(s, grid))
        return built[-1]

    monkeypatch.setattr(verify_mod, "additivity_pairs", record)
    verify_radical_additivity(parse_expression("mono(1,3)"), ABS1, 3, grid)
    (pairs,) = built
    pts = pairs.points.tolist()
    return [(pts[i], pts[j]) for i, j in zip(pairs.first.tolist(), pairs.second.tolist())]


@pytest.mark.parametrize("count", [2, 7, 44, 45, 47, 100])
def test_strided_pairs_match_sliced_pair_list(monkeypatch, count):
    grid = Grid(-3.0, 5.0, count)
    assert _visited_pairs(monkeypatch, grid) == _old_pairs(grid.points())


def test_strided_pairs_match_on_the_large_grid(monkeypatch):
    # The old list would hold 16,008,001 tuples; islice over the product
    # visits the same row-major sequence with the same step, unbuilt.
    grid = Grid(-10.0, 10.0, 4001)
    pts = grid.points()
    stride = -(-len(pts) ** 2 // verify_mod.MAX_ADDITIVITY_PAIRS)
    expected = list(itertools.islice(itertools.product(pts, pts), 0, None, stride))
    seen = _visited_pairs(monkeypatch, grid)
    assert len(seen) == 2000
    assert seen == expected


def test_strided_check_outcome_matches_old_loop():
    grid = Grid(-10.0, 10.0, 47)  # 2209 pairs: stride 2, uneven tail
    a = parse_expression("mono(1,3) + sine(0.1,1)")
    worst, worst_at = -1.0, None
    for x, y in _old_pairs(grid.points()):
        d = pair_additivity_defect(a, ABS1, 3, x, y)
        if d > worst:
            worst, worst_at = d, (x, y)
    out = verify_radical_additivity(a, ABS1, 3, grid)
    assert out.worst_point == worst_at
    assert out.worst_value.hex() == worst.hex()


# -- rho over arrays ---------------------------------------------------------


# Where expm1 overflows (709.78...) and where |u|**100 does (about 1.2e3).
OVERFLOW_EDGES = [709.78, 709.782712893384, -709.782712893384, math.nextafter(709.782712893384, 800),
                  710.0, -710.0, 1.2e3, -1.2e3, 1.3e3, 1e300, 5e-324]


@pytest.mark.parametrize("spec", [ABS1, SQUARE, ModularSpec.power(1.5), ModularSpec.exp(),
                                  ModularSpec.power(100)])
def test_rho_eval_array_matches_scalar(spec):
    rng = np.random.default_rng(5)
    normal = rng.normal(0.0, 30.0, 400)
    for u in (np.concatenate([normal, [0.0, -0.0, math.inf, -math.inf, math.nan]]),
              np.concatenate([normal, OVERFLOW_EDGES])):
        got = rho_eval_array(spec, u)
        want = [rho_eval(spec, v) if math.isfinite(v) else math.inf for v in u.tolist()]
        assert bits(got) == bits(want)
    # The same entries laid out in two dimensions, as the axiom checks pass them.
    assert bits(rho_eval_array(spec, normal.reshape(20, 20)).ravel()) == bits(want[:400])


# -- fixed-point gap window --------------------------------------------------


def _old_rho_hat_values(vals_f, vals_g, denoms, rho):
    best = 0.0
    for vf, vg, a in zip(vals_f, vals_g, denoms):
        diff = vf - vg
        ratio = rho_eval(rho, diff) / a if math.isfinite(diff) else math.inf
        if ratio > best:
            best = ratio
    return best


def _old_window_stats(window, denoms, rho):
    gap_history, quasi = [], []
    for n in range(len(window) - 1):
        gap = _old_rho_hat_values(window[n + 1], window[n], denoms, rho)
        gap_history.append(gap)
        if n >= 1:
            d_fg = gap_history[n - 1]
            d_f_lf = gap_history[n - 1]
            d_g_lg = gap
            d_f_lg = _old_rho_hat_values(window[n - 1], window[n + 1], denoms, rho)
            denom = max(d_fg, d_f_lf, d_g_lg, d_f_lg)
            if denom > 0.0:
                quasi.append(gap / denom)
    delta_hat = 0.0
    for i in range(len(window)):
        for j in range(i + 1, len(window)):
            d = _old_rho_hat_values(window[i], window[j], denoms, rho)
            if d > delta_hat:
                delta_hat = d
    return gap_history, quasi, delta_hat


def _new_window_stats(window, denoms, rho):
    w = np.array(window)
    d = np.array(denoms)
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = _rho_hat_rows(w[1:] - w[:-1], d, rho)
        quasi = _quasi_contraction(w, gaps, d, rho)
        delta_hat = _delta_hat_window(w, d, rho)
    return gaps.tolist(), quasi.tolist(), delta_hat


def _contracting_window(rng, rows, cols, rate):
    # A converging iterate sequence with roundoff-scale noise, so the gaps,
    # ratios and pairwise extremes all exercise their rounding.
    limit = rng.normal(0.0, 50.0, cols)
    start = rng.normal(0.0, 1.0, cols)
    return [(limit + start * rate**k + rng.normal(0.0, 1e-13, cols)).tolist()
            for k in range(rows)]


@pytest.mark.parametrize("rho", [ABS1, SQUARE], ids=["p1", "p2"])
@pytest.mark.parametrize("seed", range(4))
def test_window_kernels_match_scalar_loop(rho, seed):
    rng = np.random.default_rng(seed)
    cols = 57
    window = _contracting_window(rng, 3 + 7 * seed, cols, 0.6)
    denoms = rng.uniform(0.01, 5.0, cols).tolist()
    old_gaps, old_quasi, old_delta = _old_window_stats(window, denoms, rho)
    new_gaps, new_quasi, new_delta = _new_window_stats(window, denoms, rho)
    assert bits(new_gaps) == bits(old_gaps)
    assert bits(new_quasi) == bits(old_quasi)
    assert new_delta.hex() == old_delta.hex()
    assert max(new_quasi).hex() == max(old_quasi).hex()


@pytest.mark.parametrize("rho", [ABS1, SQUARE], ids=["p1", "p2"])
def test_window_kernels_match_with_saturated_iterates(rho):
    rng = np.random.default_rng(11)
    cols = 23
    window = _contracting_window(rng, 12, cols, 0.5)
    for k in range(6, 12):  # one sample runs away and saturates ...
        window[k][4] = math.inf
    window[9][17] = -math.inf  # ... another flips sign at infinity
    window[10][17] = math.inf
    denoms = rng.uniform(0.01, 5.0, cols).tolist()
    old_gaps, old_quasi, old_delta = _old_window_stats(window, denoms, rho)
    new_gaps, new_quasi, new_delta = _new_window_stats(window, denoms, rho)
    assert math.inf in old_gaps and any(math.isnan(q) for q in old_quasi)
    assert bits(new_gaps) == bits(old_gaps)
    assert bits(new_quasi) == bits(old_quasi)
    assert new_delta == old_delta == math.inf
    assert max(new_quasi).hex() == max(old_quasi).hex()


def test_window_kernels_with_empty_sample_set():
    window = [[], [], []]
    assert _new_window_stats(window, [], ABS1) == ([0.0, 0.0], [], 0.0)


# -- the shared iterate table -------------------------------------------------


def test_table_rows_match_scalar_approximants():
    phi = parse_expression("mono(1,3) + mono(0.3,0) + envnoise(0.01,1,11)")
    params = EquationParams(3, 0.5)
    grid = Grid(-4.0, 4.0, 9)
    table = IterateTable(phi, params.s, grid)
    offset = params.q * phi(0.0)
    phi0 = parse_expression("mono(1,3) + sine(0.1,1)")  # phi0(0) = 0.0
    table0 = IterateTable(phi0, 3, grid)
    for n in (0, 1, 5, 17):
        expand = approximant_row(table, Mode.EXPAND, n, offset)
        contract = approximant_row(table, Mode.CONTRACT, n)
        assert bits(expand) == bits(approximant_expand(phi, params, n, x) for x in table.points)
        assert bits(contract) == bits(approximant_contract(phi, params, n, x)
                                      for x in table.points)
        # offset 0 is the fixed-point iterate Lam**n(phi), and the expand
        # approximant where q*phi(0) is 0.0
        iterate = approximant_row(table0, Mode.EXPAND, n)
        assert bits(iterate) == bits(phi0(2.0 ** (n / 3) * x) / 2.0**n for x in table0.points)
        assert bits(iterate) == bits(approximant_expand(phi0, params, n, x)
                                     for x in table0.points)
    assert [table.points[i] for i in table.grid_index] == grid.points()


def test_contract_handle_matches_table_rows():
    # the t1 report's values and gaps come from the table; its checks
    # evaluate the limit handle, so both must compute 2**(-n/s) * x
    phi = parse_expression("mono(1,3) + sine(0.1,1) + envnoise(0.01,1,11)")
    table = IterateTable(phi, 3, Grid(-10.0, 10.0, 401))
    for n in range(1, 61):
        handle = limit_function(Mode.CONTRACT, phi, P3, n)
        assert bits(handle(x) for x in table.points) == bits(2.0**n * table.contract(n))


@pytest.mark.parametrize("expr", [
    *(f"mono(1,3) + envnoise(0.01,{p},11)" for p in (0.5, 1.0, 2.9, 3.1)),
    "mono(1e-30,99) + sine(0.1,1)",  # rows overflow: batches go point by point
])
def test_table_rows_equal_the_scalar_handle_on_a_strided_grid(expr):
    # Rows come from FunctionHandle.many; every 37th point against phi itself.
    phi = parse_expression(expr)
    table = IterateTable(phi, 3, Grid(-10.0, 10.0, 4001))
    pts = table.points[::37]
    for n in range(0, 34, 3):
        assert bits(table.expand(n)[::37]) == bits(phi(2.0 ** (n / 3) * x) for x in pts)
        assert bits(table.contract(n)[::37]) == bits(phi(2.0 ** (-n / 3) * x) for x in pts)


def test_table_refuses_a_different_grid():
    phi = parse_expression("mono(1,3)")
    table = IterateTable(phi, 3, Grid(-1.0, 1.0, 5))
    with pytest.raises(ValueError):
        construct_limit(Mode.EXPAND, phi, P3, ABS1, Grid(-1.0, 1.0, 7), table=table)


def test_method_all_calls_phi_once_per_step_and_point(monkeypatch):
    cfg = parse_experiment(EXPERIMENT.format(noise="envnoise(0.01,1,11)", theta=0.05))
    base = cfg.phi
    calls = Counter()
    counting = [False]

    def expr(x):
        if counting[0]:
            calls[x] += 1
        return base.expr(x)

    def counted(route):
        def wrapper(*args, **kwargs):
            counting[0] = True
            try:
                return route(*args, **kwargs)
            finally:
                counting[0] = False
        return wrapper

    # Count phi inside the two routes only: the audit and the checks
    # evaluate phi at their own sample points.
    monkeypatch.setattr(pipeline_mod, "construct_limit", counted(construct_limit))
    monkeypatch.setattr(pipeline_mod, "fixed_point_solve", counted(fixed_point_solve))
    cfg = dataclasses.replace(cfg, phi=FunctionHandle(expr, base.description))
    report, _ = pipeline_mod.run_experiment(cfg)

    t2 = report["methods"]["t2"]["limit"]["achieved_n"]
    fp = report["methods"]["fixedpoint"]["iteration"]["iterations"]
    assert t2 >= 2 and fp >= 2
    points = IterateTable(base, 3, cfg.grid).points
    per_step = Counter(2.0 ** (n / 3) * x for n in range(max(t2, fp) + 1) for x in points)
    # Each (n, x) is evaluated exactly once across t2 and the fixed-point
    # route; beyond that, phi(0) is taken once by the table (the q*phi(0)
    # offset and origin_offset) and once by limit_function.
    assert calls - per_step == Counter({0.0: 2})
    assert not per_step - calls


# -- the checks read the table ------------------------------------------------


def _scalar_additivity(a, rho, s, grid):
    # The check as one scalar loop over the strided pairs.
    pts = grid.points()
    n = len(pts)
    stride = -(-n * n // verify_mod.MAX_ADDITIVITY_PAIRS)
    worst, worst_at = -1.0, (pts[0], pts[0])
    for k in range(0, n * n, stride):
        x, y = pts[k // n], pts[k % n]
        try:
            d = pair_additivity_defect(a, rho, s, x, y)
        except OverflowError:
            d = math.inf
        if d > worst:
            worst, worst_at = d, (x, y)
    return worst_at, worst


def _scalar_oddness(a, rho, grid):
    worst, worst_at = rho_eval(rho, a(0.0)), 0.0
    for x in grid.points():
        d = rho_eval(rho, a(x) + a(-x))
        if d > worst:
            worst, worst_at = d, x
    return worst_at, worst


def _scalar_bound(phi, a, rho, bounds, grid, shift=0.0):
    pts = grid.points()
    worst, worst_at = -math.inf, pts[0]
    for x, b in zip(pts, bounds):
        excess = rho_eval(rho, phi(x) - shift - a(x)) - b
        if excess > worst:
            worst, worst_at = excess, x
    return worst_at, worst


def _scalar_cross(a1, a2, rho, grid):
    worst, worst_at = -1.0, grid.lo
    for x in grid.points():
        d = rho_eval(rho, a1(x) - a2(x))
        if d > worst:
            worst, worst_at = d, x
    return worst_at, worst


OFFSET_PHI = "mono(1,3) + mono(0.01,0) + envnoise(0.01,1,11)"
TABLE_CASES = {
    # q = -0.5 and phi(0) != 0: t2 and the fixed-point route, strided pairs
    "offset_expand": EXPERIMENT.replace("q = 1", "q = -0.5").replace(
        "grid = -10,10,41", "grid = -10,10,61").format(
        noise="mono(0.01,0) + envnoise(0.01,1,11)", theta=0.05),
    # the same on an asymmetric grid: -x leaves the table for x > 3
    "offset_asymmetric": EXPERIMENT.replace("q = 1", "q = -0.5").replace(
        "grid = -10,10,41", "grid = -3,5,21").replace(
        "spec = power:p=1", "spec = power:p=2").format(
        noise="mono(0.01,0) + envnoise(0.01,1,11)", theta=0.05),
    # t1 in regime (p > s) with the same offset: 2**n * phi(0) runs away
    "offset_contract": EXPERIMENT.replace("q = 1", "q = -0.5").replace(
        "p=1\n[run]", "p=3.5\n[run]").format(
        noise="mono(0.01,0) + envnoise(0.01,3.5,11)", theta=0.5),
}


def _table_case(name):
    if name == "saturated_window":
        path = pathlib.Path(__file__).parent / "golden" / "saturated_window.cfg"
        return parse_experiment(path.read_text(encoding="utf-8"))
    return parse_experiment(TABLE_CASES[name])


def _spy_checks(monkeypatch):
    """Run every check the pipeline makes against its scalar loop on the handles.

    Returns the ``Sampled`` functions the checks were given, by check name.
    """
    seen = {"bound_phi": [], "bound": [], "additivity": [], "oddness": [], "cross": []}

    def same(outcome, scalar):
        worst_at, worst = scalar
        assert outcome.worst_point == worst_at
        assert outcome.worst_value.hex() == float(worst).hex()

    def spy(attr, check):
        real = getattr(pipeline_mod, attr)

        def wrapper(*args, **kwargs):
            outcome = real(*args, **kwargs)
            check(outcome, *args, **kwargs)
            return outcome
        monkeypatch.setattr(pipeline_mod, attr, wrapper)

    def bound(out, phi, a, rho, bounds, grid, shift=0.0):
        seen["bound_phi"].append(phi)
        seen["bound"].append(a)
        same(out, _scalar_bound(phi.function, a.function, rho, bounds, grid, shift))

    def additivity(out, a, rho, s, grid, pairs):
        seen["additivity"].append(a)
        same(out, _scalar_additivity(a.function, rho, s, grid))

    def oddness(out, a, rho, grid):
        seen["oddness"].append(a)
        same(out, _scalar_oddness(a.function, rho, grid))

    def cross(out, a1, a2, rho, grid):
        seen["cross"] += [a1, a2]
        same(out, _scalar_cross(a1.function, a2.function, rho, grid))

    spy("verify_stability_bound", bound)
    spy("verify_radical_additivity", additivity)
    spy("verify_oddness", oddness)
    spy("cross_check", cross)
    return seen


@pytest.mark.parametrize("name", [*TABLE_CASES, "saturated_window"])
def test_checks_read_the_handles_bits_off_the_table(monkeypatch, name):
    cfg = _table_case(name)
    seen = _spy_checks(monkeypatch)
    report, _ = pipeline_mod.run_experiment(cfg)
    routes = {m for m, sec in report["methods"].items() if "checks" in sec}
    assert routes == ({"t1"} if name == "offset_contract" else {"t2", "fixedpoint"})
    assert len(seen["bound"]) == len(routes) and seen["additivity"] and seen["oddness"]
    sampled = [f for group in seen.values() for f in group]
    finite = non_finite = 0
    for f in sampled:
        handle = [f.function(x) for x in f.points.tolist()]
        for table_value, value in zip(f.values.tolist(), handle):
            if math.isfinite(table_value):
                assert table_value.hex() == value.hex()
                finite += 1
            else:
                assert not math.isfinite(value)
                non_finite += 1
    assert finite > 0
    if name == "saturated_window":
        assert non_finite > 0 and report["methods"]["fixedpoint"]["iteration"]["saturated"]
    if name == "offset_asymmetric":  # some -x are off the table
        pts = cfg.grid.points()
        assert not set(-x for x in pts) <= set(sampled[0].points.tolist())


def test_additivity_ties_go_to_the_first_pair_visited():
    # A constant function has the same defect at every pair, so the worst
    # pair is the first in row-major strided order, on the table and off it.
    grid = Grid(-3.0, 5.0, 47)
    a = parse_expression("mono(0.25,0)")
    table = IterateTable(a, 3, grid)
    sampled = verify_mod.Sampled(a, table.point_array, table.expand(0))
    for f in (a, sampled):
        out = verify_radical_additivity(f, ABS1, 3, grid)
        assert out.worst_point == (grid.lo, grid.lo) and out.worst_value == 0.25


# -- the audit's control sums, shared across theta ----------------------------


def _scalar_audit_ratios(defects, alpha, triples):
    # The audit's ratio step as one scalar loop over control_eval.
    max_defect, max_ratio, worst = 0.0, 0.0, triples[0]
    for d, (x, y, z) in zip(defects, triples):
        if d > max_defect:
            max_defect = d
        a = control_eval(alpha, x, y, z)
        ratio = d / a if 0.0 < a < math.inf else (math.inf if d > 0.0 else 0.0)
        if ratio > max_ratio:
            max_ratio, worst = ratio, (x, y, z)
    return {"triples": len(triples), "max_defect": max_defect, "max_ratio": max_ratio,
            "worst_triple": worst, "hypothesis_ok": max_ratio <= 1.0 + 1e-9}


def _columns(triples):
    return np.array(triples, dtype=float).reshape(-1, 3).T


def _hexed(audit):
    return {k: v.hex() if isinstance(v, float) else v for k, v in audit.items()}


def test_control_sums_keep_control_eval_bits():
    rng = np.random.default_rng(2)
    triples = [tuple(t) for t in rng.uniform(-40.0, 40.0, (60, 3)).tolist()]
    triples += [(0.0, -0.0, 1e-300), (1e200, 1.0, 2.0), (1.5e154, 1.5e154, 0.0),
                (1e308, -1e308, 1e308), (-3.0, 3.0, 0.0)]
    x, y, z = _columns(triples)
    for p in (0.0, 0.5, 1.0, 2.9, 3.0, 6.0, 300.0):
        sums = control_power_sums(p, x, y, z)
        for theta in (0.0, 1e-300, 0.05, 1.0, 1e300):
            alpha = ControlFunction.power(theta, p)
            got = control_eval_many(alpha, x, y, z, sums)
            want = [control_eval(alpha, *t) for t in triples]
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]


def _alpha_line(alpha, s, x):
    # The expand route's line alpha(x, x, -2**(1/s) x), written out at one point.
    return control_eval(alpha, x, x, -(2.0 ** (1.0 / s)) * x)


def _contract_line(alpha, s, x):
    # The contract route's line alpha(x/2**(1/s), x/2**(1/s), -x) at one point.
    return control_eval(alpha, x / 2.0 ** (1 / s), x / 2.0 ** (1 / s), -x)


def _series_sum(first, ratio):
    # The geometric series summed in closed form at one point: its first
    # term over 1 - ratio, or no finite bound once the ratio is not below 1.
    if not ratio < 1.0:
        return 0.0 if first == 0.0 else math.inf
    return first / (1.0 - ratio)


def test_control_twin_and_series_bounds_keep_the_scalar_bits():
    rng = np.random.default_rng(3)
    xs = np.concatenate([rng.uniform(-40.0, 40.0, 120),
                         [0.0, -0.0, 5e-324, 1e-300, 1e100, -1e200, 1.5e154, 1e308, -1e308]])
    tiny = xs.tolist().index(5e-324)
    ys, zs = rng.permutation(xs), -xs
    alphas = [ControlFunction.power(theta, p) for theta in (0.0, 1e-300, 0.5, 1e300)
              for p in (0.0, 0.5, 1.0, 2.9, 3.0, 6.0, 300.0)]
    alphas += [ControlFunction.constant(0.0), ControlFunction.constant(0.25)]
    converged = 0
    divergent = {Mode.EXPAND: set(), Mode.CONTRACT: set()}
    underflowed = {Mode.EXPAND: set(), Mode.CONTRACT: set()}

    def check_bounds(mode, alpha, s, tau, firsts):
        nonlocal converged
        ratio = route_ratio(mode, alpha, s, tau)
        want = [_series_sum(first, ratio) for first in firsts]
        got = route_bounds(mode, tau, ratio, route_line(mode, alpha, s, xs))
        assert bits(got) == bits(want)
        if mode is Mode.CONTRACT:
            at_one_point = [series_bound_contract(alpha, tau, s, x) for x in xs.tolist()]
        else:
            at_one_point = [series_bound_expand(alpha, s, x) for x in xs.tolist()]
        assert bits(b.value for b in at_one_point) == bits(want)
        if ratio < 1.0:
            converged += 1
        else:
            divergent[mode].update(want)
            if math.inf in want:
                underflowed[mode].add(want[tiny])

    for alpha in alphas:
        want = [control_eval(alpha, *t) for t in zip(xs.tolist(), ys.tolist(), zs.tolist())]
        assert bits(control_eval_many(alpha, xs, ys, zs)) == bits(want)
        for s in (3, 5):
            line = route_line(Mode.EXPAND, alpha, s, xs)
            assert bits(line) == bits(_alpha_line(alpha, s, x) for x in xs.tolist())
            line = route_line(Mode.CONTRACT, alpha, s, xs)
            assert bits(line) == bits(_contract_line(alpha, s, x) for x in xs.tolist())
            check_bounds(Mode.EXPAND, alpha, s, None,
                         [0.5 * _alpha_line(alpha, s, x) for x in xs.tolist()])
            for tau in (2.0, 4.0):
                check_bounds(Mode.CONTRACT, alpha, s, tau,
                             [0.5 * (tau * tau / 2.0) * _contract_line(alpha, s, x)
                              for x in xs.tolist()])
    # A divergent series has no finite bound, but a vanishing first term sums
    # to 0, also where it underflows at 5e-324 while the rest of the row is inf.
    assert divergent == {Mode.EXPAND: {0.0, math.inf}, Mode.CONTRACT: {0.0, math.inf}}
    assert underflowed == {Mode.EXPAND: {0.0}, Mode.CONTRACT: {0.0, math.inf}}
    assert converged > 40
    # the draws reach the overflow fallback, and a zero control stays 0 there
    big = np.array([1.0, 1e300, 2.0])
    assert bits(control_eval_many(ControlFunction.power(0.5, 6.0), big, big, big)) == bits(
        [1.5, math.inf, 96.0])
    assert bits(control_eval_many(ControlFunction.power(0.0, 6.0), big, big, big)) == bits(
        [0.0, 0.0, 0.0])


def _scalar_contraction(alpha, s, samples):
    # estimate_contraction as one scalar loop over control_eval.
    root = 2.0 ** (1.0 / s)
    l_hat, worst, skipped = -math.inf, None, 0
    for x in samples:
        denom = 2.0 * _alpha_line(alpha, s, x)
        if denom <= 0.0:
            skipped += 1
            continue
        ratio = control_eval(alpha, root * x, root * x, -(root * root) * x) / denom
        if ratio > l_hat:
            l_hat, worst = ratio, x
    return worst, l_hat, skipped


def test_estimate_contraction_matches_the_scalar_loop():
    # Zero samples are skipped; 1e200 overflows its powers (inf / inf is
    # nan, passed over) and 1e300 too; theta = 0 skips every sample.
    samples = [0.0, -0.0, 5e-324, 1e-300, -3.0, 2.5, 1e200, -1e300, 7.0, -7.0, 40.0]
    for alpha in [ControlFunction.power(t, p) for t in (0.0, 1e-300, 0.5, 1e300)
                  for p in (0.0, 0.5, 1.0, 2.9, 3.0, 6.0)] + [ControlFunction.constant(0.25)]:
        for s in (3, 5):
            worst, l_hat, skipped = _scalar_contraction(alpha, s, samples)
            if worst is None:
                with pytest.raises(ArgumentError, match="control vanished"):
                    estimate_contraction(alpha, s, samples)
                continue
            cert = estimate_contraction(alpha, s, samples)
            assert (cert.worst_sample, cert.l_hat.hex(), cert.samples_skipped) == (
                worst, l_hat.hex(), skipped)


def test_audit_ratios_match_the_scalar_loop():
    # Defects with ties, zeros, an inf and a nan; controls that vanish, that
    # overflow in a power (1e200**2) and that overflow by addition
    # (2 * 1.5e154**2), at theta = 0 too.
    rng = np.random.default_rng(4)
    triples = [tuple(t) for t in rng.uniform(-10.0, 10.0, (80, 3)).tolist()]
    triples += [(1e200, 1.0, 2.0), (1.5e154, 1.5e154, 0.0), (0.0, 0.0, 0.0)]
    defects = rng.choice([0.0, 0.25, 1e-3, 7.0], len(triples)).tolist()
    defects[5], defects[9], defects[-3], defects[-2] = math.inf, math.nan, 3.0, 2.0
    controls = [ControlFunction.constant(e) for e in (0.0, 0.1, 7.0)]
    controls += [ControlFunction.power(t, p) for p in (0.0, 1.0, 2.0, 3.5)
                 for t in (0.0, 1e-300, 0.01, 1.0)]
    x, y, z = _columns(triples)
    sums = {}
    for alpha in controls:
        want = _hexed(_scalar_audit_ratios(defects, alpha, triples))
        got = audit_ratios(defects, control_eval_many(alpha, x, y, z), triples)
        assert _hexed(got) == want
        if alpha.kind == "power":
            shared = sums.setdefault(alpha.p, control_power_sums(alpha.p, x, y, z))
            got = audit_ratios(defects, control_eval_many(alpha, x, y, z, shared), triples)
            assert _hexed(got) == want
    quiet = _scalar_audit_ratios([0.0] * len(triples), controls[1], triples)
    assert quiet["worst_triple"] == triples[0]
    assert audit_ratios([0.0] * len(triples), control_eval_many(controls[1], x, y, z),
                        triples) == quiet


# -- one defect audit per experiment -------------------------------------------


def test_run_experiment_audits_once_and_keeps_tuple_message(monkeypatch):
    cfg = parse_experiment(EXPERIMENT.format(noise="sine(0.5,1)", theta=0.01))
    calls = []
    real = pipeline_mod.audit_defects

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline_mod, "audit_defects", counted)
    report, _ = pipeline_mod.run_experiment(cfg)
    assert len(calls) == 1
    regime = report["methods"]["fixedpoint"]["regime"]
    worst = report["audit"]["worst_triple"]
    assert isinstance(worst, list) and regime["worst_triple"] == worst
    assert regime["error"].endswith(f"at triple {tuple(worst)}")


# -- one computation per sweep for what does not read alpha --------------------

SWEEP = """
[equation]
s = 3
q = 1
[modular]
spec = power:p=1
[phi]
expr = {expr}
[alpha]
spec = power:theta=0.05,p=1
[run]
method = all
grid = -10,10,11
seed = 3
[sweep]
s = 3,5
q = 1,-1
p = 1,3.5
theta = 0.001,0.05
modular = power:p=1,exp
"""


def _spy_sweep_work(monkeypatch):
    """Record the arguments of every call the sweep makes to its shared stages."""
    calls = {name: [] for name in ("table", "defects", "sums", "pairs", "limit",
                                   "additivity", "oddness", "cross", "bound")}

    def spy(attr, name, key):
        real = getattr(pipeline_mod, attr)

        def wrapper(*args, **kwargs):
            calls[name].append(key(*args, **kwargs))
            return real(*args, **kwargs)
        monkeypatch.setattr(pipeline_mod, attr, wrapper)

    spy("IterateTable", "table", lambda phi, s, grid: s)
    spy("audit_defects", "defects", lambda phi, params, rho, triples: (params, rho))
    spy("control_power_sums", "sums", lambda p, x, y, z: p)
    spy("additivity_pairs", "pairs", lambda s, grid: s)
    spy("construct_limit", "limit", lambda mode, phi, params, rho, *a, **k: (mode, params, rho))
    spy("verify_radical_additivity", "additivity", lambda a, rho, s, grid, *_: (a, rho, s))
    spy("verify_oddness", "oddness", lambda a, rho, grid: (a, rho))
    spy("cross_check", "cross", lambda a1, a2, rho, grid: (a1, a2, rho))
    spy("verify_stability_bound", "bound", lambda *a, **k: None)
    return calls


def _limit_keys(report, phi0):
    """The limit function behind each route's checks, named by what defines it.

    The fixed-point iterate ``n`` is the expand limit at ``n`` with no offset.
    """
    cfg = report["config"]
    keys = {}
    for method, sec in report["methods"].items():
        if "checks" not in sec:
            continue
        if method == "t1":
            keys[method] = ("contract", cfg["s"], sec["limit"]["achieved_n"], 0.0)
        elif method == "t2":
            keys[method] = ("expand", cfg["s"], sec["limit"]["achieved_n"], cfg["q"] * phi0)
        else:
            keys[method] = ("expand", cfg["s"], sec["iteration"]["iterations"], 0.0)
    return keys


@pytest.mark.parametrize("expr", ["mono(1,3) + envnoise(0.01,1,11)",
                                  "mono(1,3) + mono(0.01,0) + envnoise(0.01,1,11)"],
                         ids=["phi0_zero", "phi0_nonzero"])
def test_sweep_computes_alpha_free_results_once(monkeypatch, expr):
    sweep = parse_sweep(SWEEP.format(expr=expr))
    calls = _spy_sweep_work(monkeypatch)
    _, cells = pipeline_mod.run_sweep(sweep)
    assert len(cells) == 32

    def once_each(name, expected):
        assert sorted(Counter(calls[name]).values()) == [1] * len(expected)
        assert set(calls[name]) == expected

    s_values = {int(v) for v in sweep.axes["s"]}
    params = {EquationParams(s, float(q)) for s in s_values for q in sweep.axes["q"]}
    modulars = {ModularSpec.power(1), ModularSpec.exp()}
    once_each("table", s_values)
    once_each("defects", {(p, m) for p in params for m in modulars})
    # the audit's control is theta times a sum that reads only p; the
    # additivity pairs read only s (every s here has a route in regime)
    once_each("sums", {float(p) for p in sweep.axes["p"]})
    once_each("pairs", s_values)
    # t1 runs only with a doubling constant, t2 only below p = s
    assert set(calls["limit"]) <= {(mode, p, m) for mode in Mode for p in params
                                   for m in modulars}
    assert len(calls["limit"]) == len(set(calls["limit"])) > 0

    phi0 = sweep.base.phi(0.0)
    functions, pairs, sections = set(), set(), 0
    for _, report in cells:
        keys = _limit_keys(report, phi0)
        modular = report["config"]["modular"]
        sections += len(keys)
        functions |= {(key, modular) for key in keys.values()}
        pairs |= {(keys[a], keys[b], modular)
                  for a, b in (c["methods"] for c in report.get("cross_checks", []))}
    assert len(calls["additivity"]) == len(calls["oddness"]) == len(functions) < sections
    assert len(calls["cross"]) == len(pairs) > 0
    # The stability bound reads alpha: one check per route section, every cell.
    assert len(calls["bound"]) == sections
    if phi0 == 0.0:  # t2 and the fixed-point iterate are one function
        assert any(_limit_keys(r, phi0).get("t2") == _limit_keys(r, phi0).get("fixedpoint")
                   for _, r in cells)


def test_sweeps_do_not_share_a_memo(monkeypatch):
    sweep = parse_sweep(SWEEP.format(expr="mono(1,3) + envnoise(0.01,1,11)"))
    calls = _spy_sweep_work(monkeypatch)
    first = pipeline_mod.run_sweep(sweep)
    once = {name: len(seen) for name, seen in calls.items()}
    assert pipeline_mod.run_sweep(sweep) == first
    assert {name: len(seen) for name, seen in calls.items()} == {
        name: 2 * n for name, n in once.items()}
