"""The array kernels against the scalar code they replace, and the work they save.

Equivalence tests keep an inline copy of the scalar reference and assert bit
equality (``float.hex``), not closeness.  The counting tests show that one
run evaluates ``phi`` once per scaling step and sample point across the
expand and fixed-point routes, and audits the defect hypothesis once.
"""

import dataclasses
import itertools
import math
from collections import Counter

import numpy as np
import pytest

import modstab.fixedpoint as fixedpoint_mod
import modstab.pipeline as pipeline_mod
import modstab.verify as verify_mod
from modstab import (
    EquationParams,
    FunctionHandle,
    Grid,
    IterateTable,
    ModularSpec,
    Mode,
    approximant_contract,
    approximant_expand,
    construct_limit,
    fixed_point_solve,
    limit_function,
    parse_expression,
    rho_eval,
    rho_eval_array,
    verify_radical_additivity,
)
from modstab.config import parse_experiment
from modstab.fixedpoint import _delta_hat_window, _quasi_contraction, _rho_hat_rows

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
    seen = []

    def record(a, rho, s, x, y):
        seen.append((x, y))
        return 0.0

    monkeypatch.setattr(verify_mod, "pair_additivity_defect", record)
    verify_radical_additivity(parse_expression("mono(1,3)"), ABS1, 3, grid)
    return seen


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
        d = verify_mod.pair_additivity_defect(a, ABS1, 3, x, y)
        if d > worst:
            worst, worst_at = d, (x, y)
    out = verify_radical_additivity(a, ABS1, 3, grid)
    assert out.worst_point == worst_at
    assert out.worst_value.hex() == worst.hex()


# -- rho over arrays ---------------------------------------------------------


@pytest.mark.parametrize("spec", [ABS1, SQUARE, ModularSpec.power(1.5), ModularSpec.exp()])
def test_rho_eval_array_matches_scalar(spec):
    rng = np.random.default_rng(5)
    u = np.concatenate([rng.normal(0.0, 30.0, 400), [0.0, -0.0, math.inf, -math.inf, math.nan]])
    got = rho_eval_array(spec, u)
    want = [rho_eval(spec, v) if math.isfinite(v) else math.inf for v in u.tolist()]
    assert bits(got) == bits(want)


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
    for n in (0, 1, 5, 17):
        expand = (table.expand(n) - offset) / 2.0**n
        contract = 2.0**n * table.contract(n)
        assert bits(expand) == bits(approximant_expand(phi, params, n, x) for x in table.points)
        assert bits(contract) == bits(approximant_contract(phi, params, n, x)
                                      for x in table.points)
    assert [table.points[i] for i in table.grid_index] == grid.points()


def test_contract_handle_matches_table_rows():
    # the t1 report's values and gaps come from the table; its checks
    # evaluate the limit handle, so both must compute 2**(-n/s) * x
    phi = parse_expression("mono(1,3) + sine(0.1,1) + envnoise(0.01,1,11)")
    table = IterateTable(phi, 3, Grid(-10.0, 10.0, 401))
    for n in range(1, 61):
        handle = limit_function(Mode.CONTRACT, phi, P3, n)
        assert bits(handle(x) for x in table.points) == bits(2.0**n * table.contract(n))


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


# -- one defect audit per experiment -------------------------------------------


def test_run_experiment_audits_once_and_keeps_tuple_message(monkeypatch):
    cfg = parse_experiment(EXPERIMENT.format(noise="sine(0.5,1)", theta=0.01))
    calls = []
    real = fixedpoint_mod.audit_defect_hypothesis

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fixedpoint_mod, "audit_defect_hypothesis", counted)
    monkeypatch.setattr(pipeline_mod, "audit_defect_hypothesis", counted)
    report, _ = pipeline_mod.run_experiment(cfg)
    assert len(calls) == 1
    regime = report["methods"]["fixedpoint"]["regime"]
    worst = report["audit"]["worst_triple"]
    assert isinstance(worst, list) and regime["worst_triple"] == worst
    assert regime["error"].endswith(f"at triple {tuple(worst)}")
