"""The array twins of the radical equation's scalar routines, held to them bit for bit.

``radical_root_many`` is ``radical_root`` over an array, ``audit_defects``
is the per-triple ``defect`` loop and ``additivity_pairs`` with the check
over it is the per-pair ``pair_additivity_defect`` loop.  Every comparison
is of the raw IEEE bits, so a sign of zero or of ``nan`` counts, and an
``OverflowError`` must come exactly where the scalar routine raises one.
"""

import math

import numpy as np
import pytest

from modstab import (
    EquationParams,
    Grid,
    ModularSpec,
    additivity_pairs,
    audit_defects,
    corner_triples,
    defect,
    pair_additivity_defect,
    parse_expression,
    radical_root,
    radical_root_many,
    seeded_triples,
    verify_radical_additivity,
)

MODULARS = [ModularSpec.power(1), ModularSpec.power(2), ModularSpec.exp()]
MAX = 1.7976931348623157e308


def raw_bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


# -- radical_root_many -------------------------------------------------------


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.0, -1.0,
           8.0, -27.0, math.inf, -math.inf, math.nan, -math.nan, 1e300, -1e300,
           3.3e300, MAX, -MAX, 1.2345e-300]


def _scale_values():
    rng = np.random.default_rng(15)
    mantissas = rng.uniform(-10.0, 10.0, 3000)
    return (mantissas * 10.0 ** rng.integers(-320, 300, 3000)).tolist()


@pytest.mark.parametrize("s", [3, 5, 7, 9, 101])
def test_radical_root_many_matches_scalar(s):
    values = SPECIAL + _scale_values()
    want = []
    for v in values:
        try:
            want.append(radical_root(v, s))
        except OverflowError:
            want.append(None)
    kept = [v for v, w in zip(values, want) if w is not None]
    assert raw_bits(radical_root_many(np.array(kept), s)) == raw_bits(
        [w for w in want if w is not None])


@pytest.mark.parametrize("s", [3, 5])
def test_radical_root_many_raises_exactly_where_the_scalar_raises(s):
    # Within some hundred ulps of the largest float, r**s rounds past it.
    t, raised = MAX, 0
    for _ in range(600):
        for v in (t, -t):
            try:
                radical_root(v, s)
                scalar_raises = False
            except OverflowError:
                scalar_raises = True
            try:
                radical_root_many(np.array([1.0, v, 2.0]), s)
                twin_raises = False
            except OverflowError:
                twin_raises = True
            assert twin_raises == scalar_raises, (v, s)
            raised += scalar_raises
        t = math.nextafter(t, 0.0)
    if s == 5:
        assert raised > 0  # the loop saw the raising case at all


def test_radical_root_many_refuses_an_even_exponent():
    with pytest.raises(ValueError):
        radical_root_many(np.array([1.0]), 4)


# -- audit_defects -----------------------------------------------------------


def _scalar_defects(phi, params, rho, triples):
    out = []
    for triple in triples:
        try:
            out.append(defect(params, phi, rho, *triple))
        except OverflowError:
            out.append(math.inf)
    return out


def _triples(lo, hi, seed):
    return seeded_triples(lo, hi, 500, seed) + corner_triples(lo, hi)


PHIS = [
    "mono(1,3) + envnoise(0.01,1,11)",
    "mono(2,5) + sine(0.1,1)",
    "mono(1,3) + mono(1e-30,99)",  # overflows, so the twin falls back point by point
]


@pytest.mark.parametrize("s", [3, 5])
@pytest.mark.parametrize("q", [1.0, -1.0, 0.5, 1e-300])
@pytest.mark.parametrize("rho", MODULARS, ids=lambda m: m.spec_string())
def test_audit_defects_match_scalar_loop(s, q, rho):
    params = EquationParams(s, q)
    for lo, hi in ((-10.0, 10.0), (-1e62, 1e62), (-1e102, 1e102)):
        triples = _triples(lo, hi, 7)
        for expr in PHIS:
            phi = parse_expression(expr)
            got = audit_defects(phi, params, rho, triples)
            assert isinstance(got, list)
            assert raw_bits(got) == raw_bits(_scalar_defects(phi, params, rho, triples)), (
                expr, lo)


@pytest.mark.parametrize("rho", MODULARS, ids=lambda m: m.spec_string())
def test_audit_defects_where_powers_overflow(rho):
    # 1e103**3 leaves the float range; 5e102**3 does not, but three of them summed do.
    triples = [(1e103, 1.0, 2.0), (1.0, -1e103, 0.0), (5e102, 5e102, 5e102),
               (-5e102, 5e102, -5e102), (0.0, 0.0, 0.0), (-0.0, 1.0, -1.0), (1.0, 2.0, 3.0)]
    params = EquationParams(3, 1.0)
    phi = parse_expression(PHIS[0])
    got = audit_defects(phi, params, rho, triples)
    assert got[:2] == [math.inf, math.inf]
    assert raw_bits(got) == raw_bits(_scalar_defects(phi, params, rho, triples))


def test_audit_defects_fall_back_where_a_root_overflows():
    # x**5 / q lands within a few ulps of the largest float, where
    # radical_root raises: that triple counts as inf, the rest as the loop.
    x = 3.897060184062673e+61
    params = EquationParams(5, 0.5)
    with pytest.raises(OverflowError):
        radical_root(x**5 / 0.5, 5)
    triples = [(1.0, 2.0, 3.0), (x, 0.0, 0.0), (-4.0, 0.5, 7.0)]
    phi = parse_expression(PHIS[1])
    got = audit_defects(phi, params, MODULARS[1], triples)
    assert got[1] == math.inf
    assert raw_bits(got) == raw_bits(_scalar_defects(phi, params, MODULARS[1], triples))


# -- additivity pairs --------------------------------------------------------


def _scalar_pair_defect(a, rho, s, x, y):
    try:
        return pair_additivity_defect(a, rho, s, x, y)
    except OverflowError:
        return math.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("s", [3, 5])
@pytest.mark.parametrize("grid", [Grid(-10.0, 10.0, 41), Grid(-3.0, 5.0, 47),
                                  Grid(-1e103, 1e103, 41), Grid(-1e62, 1e62, 101),
                                  Grid(-10.0, 10.0, 4001)],
                         ids=["41", "47", "1e103", "1e62", "4001"])
@pytest.mark.parametrize("rho", MODULARS, ids=lambda m: m.spec_string())
def test_additivity_outcomes_match_pair_loop(s, grid, rho):
    a = parse_expression("mono(1,3) + sine(0.1,1)")
    pairs = additivity_pairs(s, grid)
    pts = pairs.points.tolist()
    visited = list(zip(pairs.first.tolist(), pairs.second.tolist()))
    # The roots, one per unordered pair, in ascending (min, max) order.
    finite = [(i, j) for (i, j), ok in zip(visited, pairs.finite.tolist()) if ok]
    unordered = sorted({(min(i, j), max(i, j)) for i, j in finite})
    assert len(pairs.roots) == len(unordered)
    want_roots = [radical_root(pts[i] ** s + pts[j] ** s, s) for i, j in unordered]
    assert raw_bits(pairs.roots) == raw_bits(want_roots)
    assert [unordered[k] for k in pairs.root_of.tolist()] == [
        (min(i, j), max(i, j)) for i, j in finite]
    # The outcome is the scalar running maximum over the visited pairs.
    worst, worst_at = -1.0, (pts[0], pts[0])
    for i, j in visited:
        d = _scalar_pair_defect(a, rho, s, pts[i], pts[j])
        if d > worst:
            worst, worst_at = d, (pts[i], pts[j])
    out = verify_radical_additivity(a, rho, s, grid, pairs)
    assert out.worst_point == worst_at
    assert raw_bits([out.worst_value]) == raw_bits([worst])


def test_additivity_grid_where_power_sums_overflow():
    # On this grid x**3 is a float at the inner points, but two of them summed
    # are not: those roots are inf, and the check sees inf without a warning.
    grid = Grid(-1e103, 1e103, 41)
    pairs = additivity_pairs(3, grid)
    assert 0 < int(pairs.finite.sum()) < len(pairs.first)
    assert np.isinf(pairs.roots).any() and np.isfinite(pairs.roots).any()
