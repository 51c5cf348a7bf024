"""The array kernels against the scalar code they replace, and the work they save.

Equivalence tests hold each kernel to its scalar reference in
``tests/reference.py`` and assert bit equality (``float.hex``), not
closeness.  The counting tests show that one
run evaluates ``phi`` once per scaling step and sample point across the
expand and fixed-point routes and audits the defect hypothesis once, and that
a sweep computes each result that does not read ``alpha`` once per distinct
input it does read.
"""

import dataclasses
import itertools
import math
import pathlib
import re
from collections import Counter

import numpy as np
import pytest
import reference as ref

import modstab.iterates as iterates_mod
import modstab.pipeline as pipeline_mod
import modstab.verify as verify_mod
from modstab import (
    ArgumentError,
    ContractViolation,
    ControlFunction,
    EquationParams,
    FunctionHandle,
    Grid,
    IterateTable,
    ModularSpec,
    Mode,
    approximant_row,
    audit_defects,
    construct_limit,
    control_eval,
    control_eval_many,
    control_power_sums,
    estimate_contraction,
    fixed_point_solve,
    limit_function,
    parse_expression,
    rho_eval,
    rho_eval_array,
    route_bounds,
    route_line,
    route_ratio,
    seeded_triples,
    series_bound_contract,
    series_bound_expand,
    verify_radical_additivity,
)
from modstab.config import cell_config, parse_experiment, parse_sweep
from modstab.fixedpoint import _rho_hat_rows, _walk, audit_ratios
from modstab.report import canonical_json
from modstab.sampling import function_sample_points

P3 = EquationParams(3, 1.0)
OFFSET_PHI = "mono(1,3) + mono(0.01,0) + envnoise(0.01,1,11)"
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
    node = ref.parse("mono(1,3) + sine(0.1,1)")
    worst, worst_at = -1.0, None
    for x, y in _old_pairs(grid.points()):
        d = ref.pair_additivity_defect(node, ABS1, 3, x, y)
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
        want = [ref.rho(spec, v) for v in u.tolist()]
        assert bits(got) == bits(want)
        assert bits(rho_eval(spec, v) for v in u.tolist()) == bits(want)  # the one-point wrapper
    # The same entries laid out in two dimensions, as the axiom checks pass them.
    assert bits(rho_eval_array(spec, normal.reshape(20, 20)).ravel()) == bits(want[:400])


# -- fixed-point gap window --------------------------------------------------


def _new_window_stats(window, denoms, rho):
    # tol = 0: no gap falls below it, so the fold reads every row and saturates.
    gaps, quasi, delta_hat, saturated = _walk(map(np.array, window), np.array(denoms), rho, 0.0)
    assert saturated
    return gaps, quasi, delta_hat


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
    old_gaps, old_quasi, old_delta = ref.window_stats(window, denoms, rho)
    new_gaps, new_quasi, new_delta = _new_window_stats(window, denoms, rho)
    assert bits(new_gaps) == bits(old_gaps)
    assert bits(new_quasi) == bits(old_quasi)
    assert new_delta.hex() == old_delta.hex()
    assert max(new_quasi).hex() == max(old_quasi).hex()


@pytest.mark.parametrize("rho", [ABS1, SQUARE], ids=["p1", "p2"])
def test_window_kernels_match_with_saturated_iterates(rho):
    rng = np.random.default_rng(11)
    cols = 23
    finite = _contracting_window(rng, 12, cols, 0.5)
    window = [row[:] for row in finite]
    for k in range(6, 12):  # one sample runs away and saturates ...
        window[k][4] = math.inf
        window[k][8] = math.nan if k % 2 else 1.0  # ... one is nan now and then ...
        window[k][12] = math.inf if k % 2 else -math.inf  # ... one swaps infinities
    window[9][17] = -math.inf  # ... another flips sign at infinity
    window[10][17] = math.inf
    denoms = rng.uniform(0.01, 5.0, cols).tolist()
    denoms[6] = math.inf  # every ratio there is 0
    subnormal = [*denoms[:9], 5e-324, *denoms[10:]]  # every ratio there overflows
    assert math.inf not in ref.window_stats(window, denoms, rho)[0][:5]
    # One odd column in a finite window: nan once, +inf throughout (inf - inf
    # is nan, which counts as infinite), both infinities, or signed zeros.
    odd = [[math.nan if k == 3 else 1.0 for k in range(12)], [math.inf] * 12,
           [math.inf if k % 2 else -math.inf for k in range(12)],
           [-0.0 if k % 2 else 0.0 for k in range(12)]]
    cases = [(window, denoms), (window, subnormal),
             *(([[v, *row[1:]] for v, row in zip(column, finite)], denoms) for column in odd)]
    for i, (win, den) in enumerate(cases):
        old_gaps, old_quasi, old_delta = ref.window_stats(win, den, rho)
        new_gaps, new_quasi, new_delta = _new_window_stats(win, den, rho)
        assert bits(new_gaps) == bits(old_gaps)
        assert bits(new_quasi) == bits(old_quasi)
        assert new_delta.hex() == old_delta.hex()
        assert max(new_quasi).hex() == max(old_quasi).hex()
        if i < 5:  # all but the signed zeros
            assert math.inf in old_gaps and any(math.isnan(q) for q in old_quasi)
            assert new_delta == math.inf
    assert new_delta < math.inf  # a signed-zero column has a zero range


def test_window_fold_stops_at_the_first_gap_below_tol():
    rng = np.random.default_rng(5)
    cols = 31
    window = _contracting_window(rng, 20, cols, 0.6)
    denoms = rng.uniform(0.01, 5.0, cols).tolist()
    full_gaps = ref.window_stats(window, denoms, ABS1)[0]
    k = 9
    tol = math.nextafter(full_gaps[k - 1], math.inf)  # gap k-1 is the first below tol
    assert min(full_gaps[:k - 1]) >= tol
    read = []

    def rows():
        for row in window:
            read.append(row)
            yield np.array(row)

    gaps, quasi, delta_hat, saturated = _walk(rows(), np.array(denoms), ABS1, tol)
    assert len(gaps) == k and not saturated
    assert len(read) == k + 1  # no row past the stopping one is asked for
    old_gaps, old_quasi, old_delta = ref.window_stats(window[:k + 1], denoms, ABS1)
    assert bits(gaps) == bits(old_gaps)
    assert bits(quasi) == bits(old_quasi)
    assert delta_hat.hex() == old_delta.hex()


def test_window_kernels_with_empty_sample_set():
    window = [[], [], []]
    assert _new_window_stats(window, [], ABS1) == ([0.0, 0.0], [], 0.0)


# -- the shared iterate table -------------------------------------------------


def test_table_rows_match_scalar_approximants():
    text = "mono(1,3) + mono(0.3,0) + envnoise(0.01,1,11)"
    phi, node = parse_expression(text), ref.parse(text)
    params = EquationParams(3, 0.5)
    grid = Grid(-4.0, 4.0, 9)
    table = IterateTable(phi, params.s, grid)
    offset = params.q * phi(0.0)
    assert offset.hex() == (params.q * ref.value(node, 0.0)).hex()
    text0 = "mono(1,3) + sine(0.1,1)"  # phi0(0) = 0.0
    table0, node0 = IterateTable(parse_expression(text0), 3, grid), ref.parse(text0)
    points, points0 = table.point_array.tolist(), table0.point_array.tolist()
    for n in (0, 1, 5, 17):
        expand = approximant_row(table, Mode.EXPAND, n, offset)
        contract = approximant_row(table, Mode.CONTRACT, n)
        assert bits(expand) == bits(ref.approximant_expand(node, params, n, x)
                                    for x in points)
        assert bits(contract) == bits(ref.approximant_contract(node, params, n, x)
                                      for x in points)
        # offset 0 is the fixed-point iterate Lam**n(phi), and the expand
        # approximant where q*phi(0) is 0.0
        iterate = approximant_row(table0, Mode.EXPAND, n)
        assert bits(iterate) == bits(ref.fixed_point_iterate(node0, 3, n, x)
                                     for x in points0)
        assert bits(iterate) == bits(ref.approximant_expand(node0, params, n, x)
                                     for x in points0)
    assert table.point_array[table.grid_index].tolist() == grid.points()


def test_contract_handle_matches_table_rows():
    # the t1 report's values and gaps come from the table; its checks
    # evaluate the limit handle, so both must compute 2**(-n/s) * x
    text = "mono(1,3) + sine(0.1,1) + envnoise(0.01,1,11)"
    phi, node = parse_expression(text), ref.parse(text)
    table = IterateTable(phi, 3, Grid(-10.0, 10.0, 401))
    points = table.point_array.tolist()
    for n in range(1, 61):
        handle = limit_function(Mode.CONTRACT, phi, P3, n, 0.0)
        want = bits(ref.approximant_contract(node, P3, n, x) for x in points)
        assert bits(2.0**n * table.row(-n)) == want
        assert bits(handle.many(table.point_array)) == want


@pytest.mark.parametrize("mode, text, shifted", [
    (Mode.CONTRACT, OFFSET_PHI, False), (Mode.EXPAND, OFFSET_PHI, True),
    (Mode.EXPAND, OFFSET_PHI, False), (Mode.EXPAND, "sine(0.1,1)", True),
], ids=["t1", "t2", "fixedpoint", "t2-offset-minus-zero"])
def test_limit_function_is_the_approximant_row(mode, text, shifted):
    # Every route's final handle and its table rows are one sequence, on the
    # table and off it.  OFFSET_PHI and q are the asymmetric_offset golden's,
    # so t2's q*phi(0) is not 0; with phi(0) = 0.0 it is -0.0, where
    # phi(-0.0) - -0.0 is +0.0.
    phi, node = parse_expression(text), ref.parse(text)
    params = EquationParams(3, -0.5)
    offset = params.q * phi(0.0) if shifted else 0.0
    assert (offset != 0.0) == (shifted and text == OFFSET_PHI)
    table = IterateTable(phi, 3, Grid(-3.0, 5.0, 61))
    points = table.point_array.tolist()
    for n in (0, 1, 7, 30, 60):
        handle = limit_function(mode, phi, params, n, offset)
        on_table = limit_function(mode, phi, params, n, offset, table)
        tree = ref.limit(mode, node, 3, n, offset)
        want = bits(ref.value(tree, x) for x in points)
        assert bits(approximant_row(table, mode, n, offset)) == want
        assert bits(handle.many(table.point_array)) == want
        assert bits(on_table.many(table.point_array)) == want
        assert bits(handle(x) for x in points[::10]) == want[::10]
        off = [-2.99, -0.0, 0.3, 4.99]  # none is a sample point
        want = bits(ref.value(tree, x) for x in off)
        assert bits(on_table.many(off)) == want == bits(handle.many(off))


@pytest.mark.parametrize("expr", [
    *(f"mono(1,3) + envnoise(0.01,{p},11)" for p in (0.5, 1.0, 2.9, 3.1)),
    "mono(1e-30,99) + sine(0.1,1)",  # rows overflow: the closure marks those points
])
def test_table_rows_equal_the_scalar_handle_on_a_strided_grid(expr):
    # Rows come from FunctionHandle.many; every 37th point against the reference.
    phi, node = parse_expression(expr), ref.parse(expr)
    table = IterateTable(phi, 3, Grid(-10.0, 10.0, 4001))
    pts = table.point_array[::37].tolist()
    for n in range(0, 34, 3):
        assert bits(table.row(n)[::37]) == bits(ref.value(node, 2.0 ** (n / 3) * x) for x in pts)
        assert bits(table.row(-n)[::37]) == bits(ref.value(node, 2.0 ** (-n / 3) * x)
                                                 for x in pts)


def test_table_fills_rows_in_blocks_of_the_same_bits():
    # A pass evaluates the row asked for and the missing rows beyond it, away
    # from 0: a row has the bits of a lone phi.many pass over it, row 0 is a
    # pass of its own and no row past MAX_N is evaluated.
    base = parse_expression("mono(1,3) + sine(0.1,1) + envnoise(0.01,1,11)")
    batches = []

    def expr(xs, raised):
        batches.append(len(xs))
        return base.expr(xs, raised)

    table = IterateTable(FunctionHandle(expr, base.description), 3, Grid(-10.0, 10.0, 401))
    size = len(table.point_array)
    width = iterates_mod.BLOCK_POINTS // size
    assert 1 < width < 70
    for k in [0, *range(1, 70), *range(-1, -70, -1)]:
        assert bits(table.row(k)) == bits(base.many(2.0 ** (k / 3) * table.point_array))
    held = width * -(-69 // width)  # rows 1..held and -1..-held
    assert batches == [size] + [width * size] * (2 * held // width)

    # A block skips the rows the table holds; one at the cap stops at MAX_N.
    batches.clear()
    cap = iterates_mod.MAX_N
    for k in (held + 2, held + 1, cap - 2, -(cap - 2), cap):
        table.row(k)
    assert batches == [width * size, size, 3 * size, 3 * size]
    assert bits(table.row(cap)) == bits(base.many(2.0 ** (cap / 3) * table.point_array))


def test_table_refuses_a_different_grid():
    phi = parse_expression("mono(1,3)")
    table = IterateTable(phi, 3, Grid(-1.0, 1.0, 5))
    with pytest.raises(ValueError):
        construct_limit(Mode.EXPAND, phi, P3, ABS1, Grid(-1.0, 1.0, 7), table=table)
    # a limit handle reads only the table's phi and s
    for other_phi, params in ((parse_expression("mono(1,3)"), P3), (phi, EquationParams(5, 1.0))):
        with pytest.raises(ArgumentError, match="different phi or s"):
            limit_function(Mode.EXPAND, other_phi, params, 1, 0.0, table)


@pytest.mark.parametrize("bad", [
    {"tol": 0.0}, {"n_max": 0}, {"n_max": 1024},
    {"rho": ModularSpec.exp()},          # no doubling constant
    {"grid": Grid(-1.0, 1.0, 7)},        # the table was built for another grid
], ids=["tol", "n_max-0", "n_max-1024", "no-doubling-constant", "foreign-table"])
def test_contract_and_fixed_point_routes_refuse_alike(bad):
    phi = parse_expression("mono(1,3)")
    table = IterateTable(phi, 3, Grid(-1.0, 1.0, 5))
    args = {"rho": ABS1, "grid": table.grid, "tol": 1e-9, "n_max": 60, **bad}
    with pytest.raises((ArgumentError, ContractViolation)) as t1:
        construct_limit(Mode.CONTRACT, phi, P3, table=table, **args)
    with pytest.raises((ArgumentError, ContractViolation)) as fp:
        fixed_point_solve(phi, P3, alpha=ControlFunction.power(0.5, 1),
                          audit={"hypothesis_ok": True}, table=table, **args)
    assert type(fp.value) is type(t1.value)
    assert str(fp.value) == str(t1.value).replace("contract route", "fixed-point route")
    if "rho" in bad:  # the text a report prints for the same refusal
        assert str(t1.value) == ("contract route needs a modular with a finite doubling "
                                 "constant; exp has none")


@pytest.mark.parametrize("grid, scalar_calls", [
    ("-10,10,41", 0),   # 0.0 is a grid point
    ("-3,5,61", 1),     # no grid point is 0
    ("-3,-0.0,17", 1),  # -0.0 is, and phi(-0.0) need not have the bits of phi(0.0)
])
def test_phi_at_zero_is_read_off_row_zero(monkeypatch, grid, scalar_calls):
    cfg = parse_experiment(EXPERIMENT.format(noise="envnoise(0.01,1,11)", theta=0.05)
                           .replace("grid = -10,10,41", f"grid = {grid}"))
    sizes = []
    many = FunctionHandle.many

    def spy(self, xs):
        if self is cfg.phi:
            sizes.append(len(xs))
        return many(self, xs)

    monkeypatch.setattr(FunctionHandle, "many", spy)
    report, _ = pipeline_mod.run_experiment(cfg)
    assert report["methods"]["t2"]["regime"]["ok"]
    # The q*phi(0) offset and origin_offset cost a one-point batch only
    # when no sample point is 0.0.
    assert sizes.count(1) == scalar_calls
    monkeypatch.undo()
    table = IterateTable(cfg.phi, 3, cfg.grid)
    assert bits([table.origin()]) == bits([cfg.phi(0.0)])


def test_method_all_calls_phi_once_per_step_and_point(monkeypatch):
    cfg = parse_experiment(EXPERIMENT.format(noise="envnoise(0.01,1,11)", theta=0.05))
    base = cfg.phi
    calls = Counter()
    counting = [False]

    def expr(xs, raised):
        if counting[0]:
            calls.update(xs.tolist())
        return base.expr(xs, raised)

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
    points = IterateTable(base, 3, cfg.grid).point_array.tolist()
    # Row 0 is a pass of its own, and the table fills the rows after it a
    # block of `width` at a time: the last row evaluated ends the block that
    # holds the last step either route reads.
    width = max(1, iterates_mod.BLOCK_POINTS // len(points))
    last = min(-(-max(t2, fp) // width) * width, iterates_mod.MAX_N)
    per_step = Counter(2.0 ** (n / 3) * x for n in range(last + 1) for x in points)
    # Each (n, x) is evaluated exactly once across t2 and the fixed-point
    # route, and nothing outside the walk's blocks is: the grid holds 0, so
    # phi(0) -- the q*phi(0) offset and origin_offset -- is read off the
    # table's row 0.
    assert calls == per_step


# -- samples -------------------------------------------------------------------


@pytest.mark.parametrize("lo, hi", [
    (-10.0, 10.0), (-1e300, 1e300), (0.0, 1e300), (-5e-324, 5e-324), (1e-310, 2e-310),
])
@pytest.mark.parametrize("seed", [0, 3, 7])
def test_seeded_triples_match_the_per_coordinate_draws(lo, hi, seed):
    got = seeded_triples(lo, hi, 200, seed)
    assert all(type(t) is tuple and all(type(v) is float for v in t) for t in got)
    assert [bits(t) for t in got] == [bits(t) for t in ref.seeded_triples(lo, hi, 200, seed)]


@pytest.mark.parametrize("grid", [
    Grid(-10.0, 10.0, 4001), Grid(-5e-324, 5e-324, 5), Grid(-1e-323, 1e-323, 9),
    Grid(-0.0, 1.0, 3), Grid(-1.0, 0.0, 3),
    # They hold 0.0 and then -0.0: a plain np.unique may keep either zero.
    Grid(-5e-324, -0.0, 4), Grid(-1e-323, -0.0, 17), Grid(-1.5e-323, -0.0, 33),
], ids=repr)
def test_function_sample_points_keep_the_bits_of_a_sorted_set(grid):
    got = function_sample_points(grid)
    assert got.dtype == np.float64 and not got.flags.writeable
    assert bits(got) == bits(ref.sample_points(grid))
    table = IterateTable(parse_expression("mono(1,3)"), 3, grid)
    assert bits(table.point_array) == bits(got) and not table.point_array.flags.writeable


# -- the checks read the table ------------------------------------------------


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
    """The config and the reference tree of its ``phi``."""
    if name == "saturated_window":
        path = pathlib.Path(__file__).parent / "golden" / "saturated_window.cfg"
        text = path.read_text(encoding="utf-8")
    else:
        text = TABLE_CASES[name]
    return parse_experiment(text), ref.parse(re.search(r"^expr = (.*)$", text, re.M)[1])


def _spy_checks(monkeypatch, cfg, phi_tree):
    """Run every check the pipeline makes against its scalar reference loop.

    ``phi_tree`` is the reference tree of ``cfg.phi``, and so of its step-0
    handle; each limit function the checks are given gets its tree from the
    key ``_finish_route`` names it by.  Returns the handles the checks were
    given, by check name, and a map from each to its tree.
    """
    seen = {"bound_phi": [], "bound": [], "additivity": [], "oddness": [], "cross": []}
    trees = {}
    real_phi, real_finish = pipeline_mod._phi, pipeline_mod._finish_route

    def phi_handle(*args):
        out = real_phi(*args)
        trees[id(out)] = (out, phi_tree)
        return out

    def finish(cfg, memo, section, body, rate, key, function, *columns):
        mode, s, n, offset = key
        trees[id(function)] = (function, ref.limit(mode, phi_tree, s, n, offset))
        return real_finish(cfg, memo, section, body, rate, key, function, *columns)
    monkeypatch.setattr(pipeline_mod, "_phi", phi_handle)
    monkeypatch.setattr(pipeline_mod, "_finish_route", finish)

    def tree(f):
        return trees[id(f)][1]

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
        same(out, ref.stability_bound(tree(phi), tree(a), rho, bounds, grid, shift))

    def additivity(out, a, rho, s, grid, pairs):
        seen["additivity"].append(a)
        same(out, ref.additivity(tree(a), rho, s, grid, verify_mod.MAX_ADDITIVITY_PAIRS))

    def oddness(out, a, rho, grid):
        seen["oddness"].append(a)
        same(out, ref.oddness(tree(a), rho, grid))

    def cross(out, a1, a2, rho, grid):
        seen["cross"] += [a1, a2]
        same(out, ref.cross(tree(a1), tree(a2), rho, grid))

    spy("verify_stability_bound", bound)
    spy("verify_radical_additivity", additivity)
    spy("verify_oddness", oddness)
    spy("cross_check", cross)
    return seen, tree


@pytest.mark.parametrize("name", [*TABLE_CASES, "saturated_window"])
def test_checks_read_the_handles_bits_off_the_table(monkeypatch, name):
    cfg, phi = _table_case(name)
    seen, tree = _spy_checks(monkeypatch, cfg, phi)
    report, _ = pipeline_mod.run_experiment(cfg)
    routes = {m for m, sec in report["methods"].items() if "checks" in sec}
    assert routes == ({"t1"} if name == "offset_contract" else {"t2", "fixedpoint"})
    assert len(seen["bound"]) == len(routes) and seen["additivity"] and seen["oddness"]
    handles = [f for group in seen.values() for f in group]
    points = function_sample_points(cfg.grid)  # the table's sample points
    finite = non_finite = 0
    for f in handles:
        scalar = [ref.value(tree(f), x) for x in points.tolist()]
        for table_value, value in zip(f.many(points).tolist(), scalar):
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
        assert not set(-x for x in cfg.grid.points()) <= set(points.tolist())


@pytest.mark.parametrize("grid", ["-10,10,41", "-3,5,21"])
def test_checks_evaluate_phi_only_off_the_table(monkeypatch, grid):
    # Each check reads its handles at some points; phi runs once for each
    # of them that is not a table sample point, and never for the others.
    cfg = parse_experiment(EXPERIMENT.format(noise="envnoise(0.01,1,11)", theta=0.05)
                           .replace("grid = -10,10,41", f"grid = {grid}"))
    base = cfg.phi
    points = function_sample_points(cfg.grid)
    evaluated = []

    def expr(xs, raised):
        evaluated.append(len(xs))
        return base.expr(xs, raised)

    def off_table(*queries):
        return sum(int(np.count_nonzero(~np.isin(q, points))) for q in queries)

    asked = {  # check -> the points it reads its handles at, off the table
        "verify_stability_bound": lambda phi, a, rho, bounds, grid, shift=0.0:
            off_table(grid.point_array, grid.point_array),
        "verify_radical_additivity": lambda a, rho, s, grid, pairs:
            off_table(pairs.points, pairs.roots),
        "verify_oddness": lambda a, rho, grid:
            off_table(np.zeros(1), grid.point_array, -grid.point_array),
        "cross_check": lambda a1, a2, rho, grid: off_table(grid.point_array, grid.point_array),
    }
    counts = Counter()
    for attr, want in asked.items():
        def wrapper(*args, real=getattr(pipeline_mod, attr), want=want, attr=attr, **kwargs):
            evaluated.clear()
            outcome = real(*args, **kwargs)
            assert sum(evaluated) == want(*args, **kwargs), attr
            counts[attr] += sum(evaluated)
            return outcome
        monkeypatch.setattr(pipeline_mod, attr, wrapper)
    cfg = dataclasses.replace(cfg, phi=FunctionHandle(expr, base.description))
    report, _ = pipeline_mod.run_experiment(cfg)
    assert {m for m, sec in report["methods"].items() if "checks" in sec} == {"t2", "fixedpoint"}
    assert counts["verify_radical_additivity"] > 0  # the roots leave the table
    assert counts["verify_stability_bound"] == counts["cross_check"] == 0
    assert (counts["verify_oddness"] > 0) == (grid == "-3,5,21")


def test_additivity_ties_go_to_the_first_pair_visited():
    # A constant function has the same defect at every pair, so the worst
    # pair is the first in row-major strided order, on the table and off it.
    grid = Grid(-3.0, 5.0, 47)
    a = parse_expression("mono(0.25,0)")
    on_table = limit_function(Mode.EXPAND, a, P3, 0, 0.0, IterateTable(a, 3, grid))
    for f in (a, on_table):
        out = verify_radical_additivity(f, ABS1, 3, grid)
        assert out.worst_point == (grid.lo, grid.lo) and out.worst_value == 0.25


# -- the audit's control sums, shared across theta ----------------------------


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
            want = [ref.control(alpha, *t) for t in triples]
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
            assert bits(control_eval(alpha, *t) for t in triples) == bits(want)


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
        want = [ref.series_sum(first, ratio) for first in firsts]
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
        triples = list(zip(xs.tolist(), ys.tolist(), zs.tolist()))
        want = [ref.control(alpha, *t) for t in triples]
        assert bits(control_eval_many(alpha, xs, ys, zs)) == bits(want)
        assert bits(control_eval(alpha, *t) for t in triples) == bits(want)
        for s in (3, 5):
            line = route_line(Mode.EXPAND, alpha, s, xs)
            assert bits(line) == bits(ref.alpha_line(alpha, s, x) for x in xs.tolist())
            line = route_line(Mode.CONTRACT, alpha, s, xs)
            assert bits(line) == bits(ref.contract_line(alpha, s, x) for x in xs.tolist())
            check_bounds(Mode.EXPAND, alpha, s, None,
                         [0.5 * ref.alpha_line(alpha, s, x) for x in xs.tolist()])
            for tau in (2.0, 4.0):
                check_bounds(Mode.CONTRACT, alpha, s, tau,
                             [0.5 * (tau * tau / 2.0) * ref.contract_line(alpha, s, x)
                              for x in xs.tolist()])
    # A divergent series has no finite bound, but a vanishing first term sums
    # to 0, also where it underflows at 5e-324 while the rest of the row is inf.
    assert divergent == {Mode.EXPAND: {0.0, math.inf}, Mode.CONTRACT: {0.0, math.inf}}
    assert underflowed == {Mode.EXPAND: {0.0}, Mode.CONTRACT: {0.0, math.inf}}
    assert converged > 40
    # the draws reach a power that overflows, and a zero control stays 0 there
    big = np.array([1.0, 1e300, 2.0])
    assert bits(control_eval_many(ControlFunction.power(0.5, 6.0), big, big, big)) == bits(
        [1.5, math.inf, 96.0])
    assert bits(control_eval_many(ControlFunction.power(0.0, 6.0), big, big, big)) == bits(
        [0.0, 0.0, 0.0])


def test_estimate_contraction_matches_the_scalar_loop():
    # Zero samples are skipped; 1e200 overflows its powers (inf / inf is
    # nan, passed over) and 1e300 too; theta = 0 skips every sample.
    samples = [0.0, -0.0, 5e-324, 1e-300, -3.0, 2.5, 1e200, -1e300, 7.0, -7.0, 40.0]
    for alpha in [ControlFunction.power(t, p) for t in (0.0, 1e-300, 0.5, 1e300)
                  for p in (0.0, 0.5, 1.0, 2.9, 3.0, 6.0)] + [ControlFunction.constant(0.25)]:
        for s in (3, 5):
            worst, l_hat, skipped = ref.contraction(alpha, s, samples)
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
        want = _hexed(ref.audit_ratios(defects, alpha, triples))
        got = audit_ratios(defects, control_eval_many(alpha, x, y, z), triples)
        assert _hexed(got) == want
        if alpha.kind == "power":
            shared = sums.setdefault(alpha.p, control_power_sums(alpha.p, x, y, z))
            got = audit_ratios(defects, control_eval_many(alpha, x, y, z, shared), triples)
            assert _hexed(got) == want
    quiet = ref.audit_ratios([0.0] * len(triples), controls[1], triples)
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


# -- results are read-only float64 arrays from route to report ----------------


def test_route_results_are_read_only_arrays():
    phi, grid = parse_expression("mono(1,3) + mono(0.01,1)"), Grid(-10.0, 10.0, 41)
    alpha = ControlFunction.power(0.02, 1.0)
    limit = construct_limit(Mode.EXPAND, phi, P3, ABS1, grid)
    triples = np.array(seeded_triples(-10.0, 10.0, 50, 0))
    x, y, z = triples.T
    audit = audit_ratios(audit_defects(phi, P3, ABS1, triples),
                         control_eval_many(alpha, x, y, z), triples)
    fp = fixed_point_solve(phi, P3, ABS1, alpha, grid, audit=audit)
    for arr in (limit.values, limit.cauchy_gap, fp.values, fp.point_gap, fp.bound):
        assert type(arr) is np.ndarray and arr.dtype == np.float64 and arr.shape == (41,)
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    assert type(fp.gap_history) is tuple and type(fp.quasi_contraction) is tuple


def test_the_memo_shares_read_only_arrays_that_the_report_holds_uncopied():
    cfg = parse_experiment(EXPERIMENT.format(noise="envnoise(0.01,1,11)", theta=0.05))
    memo: dict = {}
    report, _, _ = pipeline_mod._run(cfg, memo)
    arrays = {key: v for key, v in memo.items() if isinstance(v, np.ndarray)}
    assert {key[0] for key in arrays} == {"triples", "defects", "control_sums", "expand_line"}
    assert memo[("triples",)].shape == (508, 3)
    assert not any(a.flags.writeable for a in arrays.values())
    limit = memo[("limit", Mode.EXPAND, cfg.params, cfg.modular)]
    assert not (limit.values.flags.writeable or limit.cauchy_gap.flags.writeable)
    points = report["methods"]["t2"]["limit"]["points"]
    assert points.column("value") is limit.values and points.column("gap") is limit.cauchy_gap


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
    calls = {name: [] for name in ("table", "expand_line", "defects", "sums", "pairs", "limit",
                                   "additivity", "oddness", "cross", "bound")}

    def spy(attr, name, key, keep=lambda *a, **k: True):
        real = getattr(pipeline_mod, attr)

        def wrapper(*args, **kwargs):
            if keep(*args, **kwargs):
                calls[name].append(key(*args, **kwargs))
            return real(*args, **kwargs)
        monkeypatch.setattr(pipeline_mod, attr, wrapper)

    spy("IterateTable", "table", lambda phi, s, grid: s)
    # The expand line over the table points; the contract route's line and
    # the one-point lines of refused routes are not counted.
    spy("route_line", "expand_line", lambda mode, alpha, s, xs: (s, alpha),
        keep=lambda mode, alpha, s, xs: mode is Mode.EXPAND and xs.size > 1)
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
    # the expand line reads s, alpha and the table points, the same in every cell
    once_each("expand_line", {(s, ControlFunction.power(float(theta), float(p)))
                              for s in s_values for p in sweep.axes["p"]
                              for theta in sweep.axes["theta"]})
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


def test_a_signed_zero_theta_has_its_own_expand_line():
    # ControlFunction.power(-0.0, p) equals the one at theta = 0.0, but its
    # line, and so the t2 series bound the report prints, is -0.0.
    sweep = parse_sweep(SWEEP.format(expr="mono(1,3) + envnoise(0.01,1,11)").replace(
        "s = 3,5\nq = 1,-1\np = 1,3.5\ntheta = 0.001,0.05\nmodular = power:p=1,exp",
        "theta = 0,-0"))
    _, cells = pipeline_mod.run_sweep(sweep)
    values = [report["methods"]["t2"]["series"]["value"] for _, report in cells]
    assert [math.copysign(1.0, v) for v in values] == [1.0, -1.0]
    for (_, report), theta in zip(cells, ("0", "-0")):
        alone, _ = pipeline_mod.run_experiment(cell_config(sweep.base, {"theta": theta}))
        assert canonical_json(report) == canonical_json(alone)


def test_sweeps_do_not_share_a_memo(monkeypatch):
    sweep = parse_sweep(SWEEP.format(expr="mono(1,3) + envnoise(0.01,1,11)"))
    calls = _spy_sweep_work(monkeypatch)
    first = pipeline_mod.run_sweep(sweep)
    once = {name: len(seen) for name, seen in calls.items()}
    assert pipeline_mod.run_sweep(sweep) == first
    assert {name: len(seen) for name, seen in calls.items()} == {
        name: 2 * n for name, n in once.items()}
