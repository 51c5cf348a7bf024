"""The radical equation's array kernels, held to their scalar references bit for bit.

``functions.power`` is builtin ``pow`` over an array, with a mask of the
entries where ``pow`` raises.  ``radical_root_many`` is the reference
``radical_root`` over an array, ``audit_defects`` is the per-triple
``defect`` loop and ``additivity_pairs`` with the check over it is the
per-pair ``pair_additivity_defect`` loop; the references are in
``tests/reference.py``.  Every comparison is of the raw IEEE bits, so a
sign of zero or of ``nan`` counts.  A kernel never raises: where a power
``x**s`` leaves the float range a defect is ``inf``.  Every finite input
has a finite root, the largest floats included.
"""

import math

import numpy as np
import pytest
import reference as ref

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
    radical_root_many,
    seeded_triples,
    verify_radical_additivity,
)
from modstab.functions import power

MODULARS = [ModularSpec.power(1), ModularSpec.power(2), ModularSpec.exp()]
MAX = 1.7976931348623157e308


def raw_bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.0, -1.0,
           8.0, -27.0, math.inf, -math.inf, math.nan, -math.nan, 1e300, -1e300,
           3.3e300, MAX, -MAX, 1.2345e-300]


def _scale_values():
    rng = np.random.default_rng(15)
    mantissas = rng.uniform(-10.0, 10.0, 3000)
    return (mantissas * 10.0 ** rng.integers(-320, 300, 3000)).tolist()


# -- functions.power ---------------------------------------------------------


def _walk(t, count, toward):
    out = []
    for _ in range(count):
        out.append(t)
        t = math.nextafter(t, toward)
    return out


def _overflow_edge(k):
    # The 600 floats below the largest, their k-th roots, and 300 ulps on
    # each side of the largest float's k-th root: x**k leaves the float
    # range among these bases.
    tops = _walk(MAX, 600, 0.0)
    edge = pow(MAX, 1.0 / k)
    return (tops + [pow(t, 1.0 / k) for t in tops]
            + _walk(edge, 300, 0.0) + _walk(edge, 300, math.inf))


def _check_power(bases, exponent):
    want, hit = ref.power(bases, exponent)
    raised = np.zeros(len(bases), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # what every caller holds
        got = power(np.array(bases), exponent, raised)
        bare = power(np.array(bases), exponent)
    assert raw_bits(got) == raw_bits(want), exponent
    assert np.flatnonzero(raised).tolist() == hit, exponent
    assert raw_bits(bare) == raw_bits(want), exponent
    return hit


POWER_BASES = SPECIAL + _scale_values() + _overflow_edge(3) + _overflow_edge(5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("exponent", [3, 5, 2, 4, 1, 0, 7, 100, -1, -2, -3,
                                      pytest.param(2**1100, id="2**1100")])
def test_power_matches_builtin_pow_at_integer_exponents(exponent):
    # Negative bases included: pow takes the sign from an odd exponent.
    hit = _check_power(POWER_BASES, exponent)
    if exponent in (3, 5):
        assert 0 < len(hit) < len(POWER_BASES)
    if exponent < 0:  # 0.0 and -0.0 to a negative power, without a divide warning
        assert {0, 1} <= set(hit)
    if exponent == 2**1100:  # pow cannot convert the exponent, at any base
        assert len(hit) == len(POWER_BASES)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("exponent", [0.5, 2.9, 3.1, 1 / 3, 1 / 5, 1 / 101, 100.0])
def test_power_matches_builtin_pow_at_fractional_exponents(exponent):
    # On non-negative bases: pow gives a complex number for a negative one.
    # A nan base keeps its sign either way.
    bases = [b if math.isnan(b) else abs(b) for b in POWER_BASES]
    hit = _check_power(bases, exponent)
    if exponent in (2.9, 3.1, 100.0):
        assert hit


# -- radical_root_many -------------------------------------------------------


def _scalar_roots(values, s):
    return [ref.radical_root(v, s) for v in values]


@pytest.mark.parametrize("s", [3, 5, 7, 9, 101])
def test_radical_root_many_matches_scalar(s):
    values = SPECIAL + _scale_values()
    assert raw_bits(radical_root_many(np.array(values), s)) == raw_bits(_scalar_roots(values, s))


@pytest.mark.parametrize("s", [3, 5])
def test_radical_root_many_matches_scalar_where_r_to_the_s_overflows(s):
    # Within some hundred ulps of the largest float, the first estimate r
    # has r**s past the float range, and both forms take the rewritten
    # Newton step there: the roots are finite and keep the scalar's bits,
    # and the entries beside them keep theirs.
    t, overflowed = MAX, 0
    for _ in range(600):
        for v in (t, -t):
            want = ref.radical_root(v, s)
            got = radical_root_many(np.array([1.0, v, 2.0]), s)
            assert math.isfinite(got[1]), (v, s)
            assert raw_bits(got) == raw_bits(_scalar_roots([1.0, v, 2.0], s))
            assert raw_bits(got[1:2]) == raw_bits([want])
            try:
                (abs(v) ** (1.0 / s)) ** s
            except OverflowError:
                overflowed += 1
        t = math.nextafter(t, 0.0)
    if s == 5:
        assert overflowed > 0  # the loop saw the rewritten step at all


def test_radical_root_many_refuses_an_even_exponent():
    with pytest.raises(ValueError):
        radical_root_many(np.array([1.0]), 4)


# -- audit_defects -----------------------------------------------------------


def _scalar_defects(expr, params, rho, triples):
    phi = ref.parse(expr)
    return [ref.defect(params, phi, rho, *triple) for triple in triples]


def _triples(lo, hi, seed):
    return seeded_triples(lo, hi, 500, seed) + corner_triples(lo, hi)


PHIS = [
    "mono(1,3) + envnoise(0.01,1,11)",
    "mono(2,5) + sine(0.1,1)",
    "mono(1,3) + mono(1e-30,99)",  # overflows: the closure marks those points, which read inf
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
            want = _scalar_defects(expr, params, rho, triples)
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            assert raw_bits(got) == raw_bits(want), (expr, lo)
            # the one-triple wrapper over the same kernel
            assert raw_bits([defect(params, phi, rho, *t) for t in triples[::50]]) == raw_bits(
                want[::50])


@pytest.mark.parametrize("rho", MODULARS, ids=lambda m: m.spec_string())
def test_audit_defects_where_powers_overflow(rho):
    # 1e103**3 leaves the float range; 5e102**3 does not, but three of them summed do.
    triples = [(1e103, 1.0, 2.0), (1.0, -1e103, 0.0), (5e102, 5e102, 5e102),
               (-5e102, 5e102, -5e102), (0.0, 0.0, 0.0), (-0.0, 1.0, -1.0), (1.0, 2.0, 3.0)]
    params = EquationParams(3, 1.0)
    phi = parse_expression(PHIS[0])
    got = audit_defects(phi, params, rho, triples)
    assert isinstance(got, np.ndarray) and got[:2].tolist() == [math.inf, math.inf]
    assert raw_bits(got) == raw_bits(_scalar_defects(PHIS[0], params, rho, triples))
    # The one-point wrapper reads inf there too, where it used to raise.
    assert raw_bits([defect(params, phi, rho, *t) for t in triples]) == raw_bits(got)


def test_audit_defects_match_scalar_where_the_root_polish_overflows():
    # x**5 / q lands within a few ulps of the largest float, where the
    # root's first estimate r has r**5 past the float range: the root w is
    # still finite, and that triple's defect is the scalar loop's.  The
    # constant phi is a float at w, so its defect is too; mono(2,5) is not.
    x = 3.897060184062673e+61
    params = EquationParams(5, 0.5)
    r = (x**5 / 0.5) ** (1 / 5)
    with pytest.raises(OverflowError):
        r**5
    assert math.isfinite(ref.radical_root(x**5 / 0.5, 5))
    triples = [(1.0, 2.0, 3.0), (x, 0.0, 0.0), (-4.0, 0.5, 7.0)]
    for expr, finite in ((PHIS[1], False), ("mono(3,0)", True)):
        phi = parse_expression(expr)
        got = audit_defects(phi, params, MODULARS[1], triples)
        assert math.isfinite(got[1]) == finite
        assert raw_bits(got) == raw_bits(_scalar_defects(expr, params, MODULARS[1], triples))


# -- additivity pairs --------------------------------------------------------


# At s = 5 the sum x**5 + x**5 of the end points lands where the root's
# first estimate r has r**5 past the float range.
ROOT_OVERFLOW_GRID = Grid(-3.897060184062643e+61, 3.897060184062643e+61, 3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("s", [3, 5])
@pytest.mark.parametrize("grid", [Grid(-10.0, 10.0, 41), Grid(-3.0, 5.0, 47),
                                  Grid(-1e103, 1e103, 41), Grid(-1e62, 1e62, 101),
                                  Grid(-10.0, 10.0, 4001), ROOT_OVERFLOW_GRID],
                         ids=["41", "47", "1e103", "1e62", "4001", "root-overflow"])
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
    want_roots = _scalar_roots([pts[i] ** s + pts[j] ** s for i, j in unordered], s)
    assert raw_bits(pairs.roots) == raw_bits(want_roots)
    assert [unordered[k] for k in pairs.root_of.tolist()] == [
        (min(i, j), max(i, j)) for i, j in finite]
    # The outcome is the scalar running maximum over the visited pairs.
    node = ref.parse("mono(1,3) + sine(0.1,1)")
    worst, worst_at = -1.0, (pts[0], pts[0])
    for k, (i, j) in enumerate(visited):
        d = ref.pair_additivity_defect(node, rho, s, pts[i], pts[j])
        if d > worst:
            worst, worst_at = d, (pts[i], pts[j])
        if k % 40 == 0:  # the one-pair wrapper over the same kernels
            assert raw_bits([pair_additivity_defect(a, rho, s, pts[i], pts[j])]) == raw_bits([d])
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


def test_additivity_where_the_root_polish_overflows_matches_pair_loop():
    # Every pair's root is finite, the end points' included, and the check
    # is the pair loop's: a constant function has defect 3 at every pair,
    # and the first pair visited is the worst.
    pairs = additivity_pairs(5, ROOT_OVERFLOW_GRID)
    assert pairs.finite.all() and np.isfinite(pairs.roots).all()
    a, rho = parse_expression("mono(3,0)"), MODULARS[0]
    pts = pairs.points.tolist()
    want = [ref.pair_additivity_defect(ref.parse("mono(3,0)"), rho, 5, pts[i], pts[j])
            for i, j in zip(pairs.first.tolist(), pairs.second.tolist())]
    assert set(want) == {3.0}
    out = verify_radical_additivity(a, rho, 5, ROOT_OVERFLOW_GRID, pairs)
    assert out.worst_value == 3.0
    assert out.worst_point == (pts[0], pts[0])
