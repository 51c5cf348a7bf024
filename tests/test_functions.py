"""Expression grammar and deterministic evaluation of function handles."""

import functools
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference as ref
from modstab import (
    ArgumentError,
    ConfigError,
    ControlFunction,
    EquationParams,
    Grid,
    IterateTable,
    ModularSpec,
    Mode,
    audit_defect_hypothesis,
    corner_triples,
    envelope_noise,
    fixed_point_solve,
    limit_function,
    monomial,
    parse_expression,
    seeded_triples,
    sine,
)
from modstab.functions import mapped

xs = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def test_monomial():
    f = monomial(5.0, 3)
    assert f(2.0) == 40.0
    assert f.description == "mono(5,3)"


def test_sine():
    f = sine(0.1, 2.0)
    assert f(1.0) == pytest.approx(0.1 * math.sin(2.0), rel=1e-15)


def test_parse_sum_matches_parts():
    f = parse_expression("mono(1,3) + sine(0.1,1)")
    assert f(1.5) == pytest.approx(1.5**3 + 0.1 * math.sin(1.5), rel=1e-15)


def test_parse_scalar_multiple():
    f = parse_expression("2*mono(1,3)")
    g = parse_expression("mono(1,3)*2")
    assert f(3.0) == 54.0 == g(3.0)


def test_parse_negative_coefficients():
    f = parse_expression("mono(-2,5) + sine(-0.5,1.5)")
    assert f(1.0) == pytest.approx(-2.0 - 0.5 * math.sin(1.5), rel=1e-15)


@pytest.mark.parametrize("bad", ["", "mono(1)", "mono(1,2,3)", "wave(1,2)",
                                 "mono(1,3) * sine(1,1)", "mono(a,3)",
                                 # numbers a float cannot hold, and a negative seed
                                 "mono(1,1e400)", "mono(1e400,3)", "sine(1,1e400)",
                                 "envnoise(0.1,1,1e400)", "envnoise(0.1,1,-5)",
                                 "1e400*mono(1,3)",
                                 # a power or a seed that is not an integer
                                 "mono(1,2.5)", "envnoise(0.1,1,7.5)"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ConfigError):
        parse_expression(bad)


def test_parse_accepts_integral_spellings():
    # a power or a seed written with a zero fraction is that integer
    assert parse_expression("mono(1,3.0)").description == "mono(1,3)"
    f, g = parse_expression("envnoise(0.1,1,7.0)"), parse_expression("envnoise(0.1,1,7)")
    assert f.description == g.description and f(1.5) == g(1.5)


@pytest.mark.parametrize("build, message", [
    (lambda: monomial(1.0, 2.5), "mono power must be an integer, got 2.5"),
    (lambda: monomial(1.0, -0.5), "mono power must be an integer, got -0.5"),
    (lambda: monomial(1.0, math.inf), "mono power must be an integer, got inf"),
    (lambda: envelope_noise(0.1, 1.0, 7.5), "envnoise seed must be an integer, got 7.5"),
    (lambda: envelope_noise(0.1, 1.0, -1), "envnoise seed must be non-negative, got -1"),
    (lambda: envelope_noise(0.1, 1.0, -2.0), "envnoise seed must be non-negative, got -2"),
])
def test_constructors_refuse_what_the_parser_refuses(build, message):
    # a bare int() used to truncate: monomial(1, 2.5) was x**2
    with pytest.raises(ArgumentError, match=f"^{message}$"):
        build()


def test_constructors_accept_integral_values():
    assert monomial(1.0, 3.0).description == "mono(1,3)" == monomial(1.0, np.int64(3)).description
    assert monomial(1.0, 3.0)(4.0) == 64.0
    f, g = envelope_noise(0.1, 1.0, 7.0), envelope_noise(0.1, 1.0, 7)
    assert f.description == g.description and f(1.5) == g(1.5)
    # an int seed past 2**53 stays exact instead of passing through a float
    assert envelope_noise(0.1, 1.0, 2**60 + 1).description.endswith(f",{2**60 + 1})")


@given(x=xs)
def test_envnoise_bounded_by_envelope(x):
    f = envelope_noise(0.25, 2.0, seed=13)
    assert abs(f(x)) <= 0.25 * abs(x) ** 2.0 + 1e-300


@given(x=xs, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_envnoise_deterministic_bits(x, seed):
    a = envelope_noise(0.1, 1.0, seed)(x)
    b = envelope_noise(0.1, 1.0, seed)(x)
    assert a == b  # identical bit pattern, not just approximate


def test_envnoise_different_seeds_differ():
    vals = {round(envelope_noise(1.0, 0.0, s)(1.0), 12) for s in range(8)}
    assert len(vals) > 1


def test_parse_is_reproducible():
    f = parse_expression("mono(1,3) + envnoise(0.1,2,42)")
    g = parse_expression("mono(1,3) + envnoise(0.1,2,42)")
    for x in (-3.7, 0.0, 0.1, 9.99):
        assert f(x) == g(x)


P3 = EquationParams(3, 1.0)


def test_contract_limit_handle():
    g = limit_function(Mode.CONTRACT, monomial(1.0, 3), P3, 3, 0.0)  # 8 * (x/2)^3 = x^3
    assert g(3.0) == pytest.approx(27.0, rel=1e-15)


def test_expand_limit_handle_subtracts_the_offset():
    f = limit_function(Mode.EXPAND, monomial(1.0, 3), P3, 0, 7.0)
    assert f(2.0) == 1.0


def test_evaluation_finite_on_bounded_interval():
    f = parse_expression("mono(1,7) + envnoise(0.5,3,3)")
    for x in [i / 7.0 for i in range(-70, 71)]:
        assert math.isfinite(f(x))


@pytest.mark.parametrize("expr, x", [
    ("mono(1,400)", 10.0),               # x**400 overflows
    ("mono(1,3) + mono(0.5,-1)", 0.0),   # 0.0 ** -1
    ("envnoise(0.01,-0.5,3)", 0.0),      # 0.0 ** -0.5
    ("sine(1,1e308)", 10.0),             # sin(inf)
])
def test_unrepresentable_value_is_inf(expr, x):
    assert parse_expression(expr)(x) == math.inf


def test_unconvertible_argument_still_raises():
    with pytest.raises(ValueError):
        monomial(1.0, 3)("abc")


def test_sum_folds_left_on_every_python():
    # 0 + 1e16 + 1 rounds back to 1e16; a compensated sum() (3.12+) gives 1.0
    f = parse_expression("mono(1e16,0) + mono(1,0) + mono(-1e16,0)")
    assert f(0.5) == 0.0


# -- handles against the scalar expression tree ---------------------------------
#
# The reference is the expression tree of ``tests/reference.py``, evaluated
# point by point with the builtin ``**``, ``math.sin`` and ``math.cos``:
# every handle must give its bits at every input.  The tree's ``Sum`` folds
# left from the int 0, as ``sum()`` did before Python 3.12.


_rng = random.Random(20240820)
INPUTS = (
    [_rng.uniform(-10.0, 10.0) for _ in range(40)]
    + [_rng.choice((-1.0, 1.0)) * 10.0 ** _rng.uniform(-300.0, 300.0) for _ in range(40)]
    + [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
       1e308, -1e308, math.inf, -math.inf, math.nan, 10.0, 1.0, -1.0]
)

ATOMS = [
    ("mono(1.5,3)", ref.Mono(1.5, 3)),
    ("mono(-2,0)", ref.Mono(-2.0, 0)),
    ("mono(0.5,-1)", ref.Mono(0.5, -1)),
    ("mono(1,400)", ref.Mono(1.0, 400)),
    ("mono(1e308,3)", ref.Mono(1e308, 3)),
    ("sine(0.1,2)", ref.Sine(0.1, 2.0)),
    ("sine(-0.5,1.5)", ref.Sine(-0.5, 1.5)),
    ("sine(1,1e308)", ref.Sine(1.0, 1e308)),
    ("envnoise(0.01,1,11)", ref.EnvNoise(0.01, 1.0, 11)),
    ("envnoise(0.01,-0.5,3)", ref.EnvNoise(0.01, -0.5, 3)),
    ("envnoise(0.004,6,7)", ref.EnvNoise(0.004, 6.0, 7)),
]
MULTIPLES = [
    ("3*mono(1,3)", ref.Scale(3.0, ref.Mono(1.0, 3))),
    ("mono(1,3)*3", ref.Scale(3.0, ref.Mono(1.0, 3))),
    ("-0.25*sine(2,1)", ref.Scale(-0.25, ref.Sine(2.0, 1.0))),
    ("envnoise(0.5,2,13)*1e-3", ref.Scale(1e-3, ref.EnvNoise(0.5, 2.0, 13))),
]
SUMS = [
    # -0.0 + -0.0 at x = -0.0: the fold from the int 0 gives 0.0
    ("mono(1,3) + mono(2,3)", ref.Sum((ref.Mono(1.0, 3), ref.Mono(2.0, 3)))),
    ("mono(1,3) + sine(0.1,1)", ref.Sum((ref.Mono(1.0, 3), ref.Sine(0.1, 1.0)))),
    ("mono(1,3) + mono(0.5,-1)", ref.Sum((ref.Mono(1.0, 3), ref.Mono(0.5, -1)))),
    ("mono(1,3) + 2*sine(0.1,1) + envnoise(0.01,1,11)",
     ref.Sum((ref.Mono(1.0, 3), ref.Scale(2.0, ref.Sine(0.1, 1.0)), ref.EnvNoise(0.01, 1.0, 11)))),
    ("mono(1e16,0) + mono(1,0) + mono(-1e16,0)",
     ref.Sum((ref.Mono(1e16, 0), ref.Mono(1.0, 0), ref.Mono(-1e16, 0)))),
]
EXPRESSIONS = ATOMS + MULTIPLES + SUMS


def _assert_same_bits(handle, node):
    _assert_values(handle, [ref.value(node, x) for x in INPUTS])


def _assert_values(handle, want):
    # at each of INPUTS, one point at a time and in one batch
    assert [handle(x).hex() for x in INPUTS] == [v.hex() for v in want]
    assert [v.hex() for v in handle.many(INPUTS).tolist()] == [v.hex() for v in want]


@pytest.mark.parametrize("text, node", EXPRESSIONS, ids=[t for t, _ in EXPRESSIONS])
def test_parsed_closure_matches_tree(text, node):
    f = parse_expression(text)
    _assert_same_bits(f, node)
    assert f.description == node.describe()


# Each handle against the reference's approximants, at offsets of either sign.

@pytest.mark.parametrize("n, s", [(0, 3), (1, 3), (5, 3), (60, 5), (1023, 3)])
@pytest.mark.parametrize("text, node", [ATOMS[0], ATOMS[8], SUMS[3]],
                         ids=["mono", "envnoise", "sum"])
def test_contract_limit_function_matches_the_reference(text, node, n, s):
    params = EquationParams(s, 1.0)
    _assert_values(limit_function(Mode.CONTRACT, parse_expression(text), params, n, 0.0),
                   [ref.approximant_contract(node, params, n, x) for x in INPUTS])


@pytest.mark.parametrize("offset", [-7.0, 1e-300, -0.0, 0.0, 1e308])
@pytest.mark.parametrize("text, node", [ATOMS[0], ATOMS[9], SUMS[0]],
                         ids=["mono", "envnoise", "sum"])
def test_expand_limit_function_matches_the_reference(text, node, offset):
    phi = parse_expression(text)
    for n in (0, 2):
        want = [ref.approximant_expand(node, P3, n, x, offset) for x in INPUTS]
        _assert_values(limit_function(Mode.EXPAND, phi, P3, n, offset), want)
        if offset.hex() == "0x0.0p+0":  # the fixed-point iterate
            assert [v.hex() for v in want] == [ref.fixed_point_iterate(node, 3, n, x).hex()
                                               for x in INPUTS]
    if offset == 0.0 and text == "mono(1.5,3)":
        # phi(-0.0) is -0.0, and -0.0 - -0.0 is +0.0: at offset -0.0 the
        # handle gives the table row's +0.0, not phi's -0.0
        assert limit_function(Mode.EXPAND, phi, P3, 0, offset)(-0.0).hex() == (-offset).hex()


# -- one pass over an array against the scalar tree -------------------------------
#
# ``FunctionHandle.many(xs)`` must give the reference tree's value at each
# point bit for bit, including every point where the tree reads ``inf``
# because its arithmetic raised.

SPECIAL_POINTS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1e300, -1e300,
                  1e200, -1e103, 1.0, -1.0, math.inf, -math.inf, math.nan]
point_lists = st.lists(st.one_of(st.sampled_from(SPECIAL_POINTS),
                                 st.floats(-50.0, 50.0),
                                 st.floats(allow_nan=True, allow_infinity=True)),
                       max_size=24)
numbers = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324, 1e-300, 1e300]),
                    st.floats(-1e3, 1e3))
atom_texts = st.one_of(
    st.builds("mono({!r},{})".format, numbers, st.integers(-4, 120)),
    st.builds("sine({!r},{!r})".format, numbers, numbers),
    st.builds("envnoise({!r},{!r},{})".format, numbers,
              st.one_of(st.sampled_from([-1.5, 0.0, 0.5, 2.9, 99.0]), st.floats(-3.0, 40.0)),
              st.integers(0, 2**32 - 1)),
)
term_texts = st.one_of(atom_texts, st.builds("{!r}*{}".format, numbers, atom_texts))
expression_texts = st.lists(term_texts, min_size=1, max_size=4).map(" + ".join)


def _assert_many_is_scalar(f, node, points):
    got = f.many(np.array(points, dtype=float))
    assert got.dtype == np.float64 and got.shape == (len(points),)
    want = [ref.value(node, x).hex() for x in points]
    assert [v.hex() for v in got.tolist()] == want
    assert [f(x).hex() for x in points[:3]] == want[:3]  # one point at a time


@given(text=expression_texts, points=point_lists)
def test_many_matches_scalar_handle(text, points):
    _assert_many_is_scalar(parse_expression(text), ref.parse(text), points)


@given(text=expression_texts, points=point_lists, n=st.integers(0, 1023),
       offset=numbers, mode=st.sampled_from(list(Mode)))
def test_many_matches_limit_function_handles_at_any_offset(text, points, n, offset, mode):
    # Off a table, the handle is the reference's approximant as a function of
    # x.  On one, it returns the table row at each sample point (-0.0 finds
    # 0.0), the approximant formula applied to phi's values, and the former
    # elsewhere.
    f, node = parse_expression(text), ref.parse(text)
    _assert_many_is_scalar(limit_function(mode, f, P3, n, offset),
                           ref.limit(mode, node, 3, n, offset), points)
    table = IterateTable(f, 3, Grid(-3.0, 5.0, 9))
    on_table = table.point_array.tolist()
    handle = limit_function(mode, f, P3, n, offset, table)
    for x, got in zip(points, handle.many(np.array(points, dtype=float)).tolist()):
        if x in on_table:
            at = on_table[on_table.index(x)]
            want = (ref.approximant_contract(node, P3, n, at) if mode is Mode.CONTRACT
                    else ref.approximant_expand(node, P3, n, at, offset))
        else:
            want = ref.value(ref.limit(mode, node, 3, n, offset), x)
        assert got.hex() == want.hex()


@given(text=expression_texts, points=point_lists, n=st.integers(0, 60),
       q=st.sampled_from([1.0, 0.5, -1.0]), mode=st.sampled_from(list(Mode)))
def test_many_matches_limit_function_handles(text, points, n, q, mode):
    phi, node = parse_expression(text), ref.parse(text)
    offset = q * ref.value(node, 0.0)
    _assert_many_is_scalar(limit_function(mode, phi, EquationParams(3, q), n, offset),
                           ref.limit(mode, node, 3, n, offset), points)


@functools.cache
def _fixed_point_handle():
    text = "mono(1,3) + mono(0.2,0) + envnoise(0.01,1,11)"
    phi = parse_expression(text)
    grid = Grid(-4.0, 4.0, 9)
    alpha = ControlFunction.power(0.5, 1)
    triples = seeded_triples(grid.lo, grid.hi, 200, 0) + corner_triples(grid.lo, grid.hi)
    params = EquationParams(3, 1.0)
    audit = audit_defect_hypothesis(phi, params, ModularSpec.power(1), alpha, triples)
    result = fixed_point_solve(phi, params, ModularSpec.power(1), alpha, grid, audit=audit)
    return result.function, ref.limit(Mode.EXPAND, ref.parse(text), 3, result.iterations, 0.0)


@given(points=point_lists)
def test_many_matches_the_fixed_point_handle(points):
    _assert_many_is_scalar(*_fixed_point_handle(), points)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("fn, args, raising", [
    (pow, ([2.0, 1e200, -3.0, 1e103, math.nan], [3, 2, 5, 3, 2]), OverflowError),
    (pow, ([1.0, 0.0, -0.0, 2.0], [-1, -1, -3, -1]), ZeroDivisionError),
    (math.cos, ([1.0, math.inf, math.nan, -math.inf, -0.0],), ValueError),
])
def test_mapped_marks_exactly_the_entries_that_raise(fn, args, raising):
    want, hit = [], []
    for i, point in enumerate(zip(*args)):
        try:
            want.append(fn(*point))
        except raising:
            want.append(math.nan)
            hit.append(i)
    assert hit and len(hit) < len(want)
    raised = np.zeros(len(want), dtype=bool)
    raised[0] = True  # a mark set before the call stays set
    got = mapped(fn, *args, raised=raised)
    assert got.dtype == np.float64 and _bits(got) == _bits(want)
    assert np.flatnonzero(raised).tolist() == sorted({0, *hit})
    # without a mask to mark, the same values; with nothing raising, no mark
    assert _bits(mapped(fn, *args)) == _bits(want)
    calm = np.zeros(len(want), dtype=bool)
    kept = [list(a)[:hit[0]] for a in args]
    assert _bits(mapped(fn, *kept, raised=calm)) == _bits(want[:hit[0]]) and not calm.any()


@pytest.mark.parametrize("text, points, raising, at", [
    ("mono(1,3) + envnoise(0.01,0.5,11)", [-2.0, 0.5, 1e200, 3.0, -0.0], OverflowError, 2),
    ("mono(2,-1) + sine(0.1,1)", [-3.0, 0.0, 1e-300, 7.5], ZeroDivisionError, 1),
    ("envnoise(0.01,1,11)", [1.0, -math.inf, 2.0], ValueError, 1),  # cos(-inf)
])
def test_batch_where_one_point_raises_goes_point_by_point(text, points, raising, at):
    # The scalar tree raises at point `at` only.  The closure does not go
    # point by point: it gives nan there, marks it, and the tree's bits at
    # every other point; many then reads inf there, as the tree's value does.
    f, node = parse_expression(text), ref.parse(text)
    for i, x in enumerate(points):
        if i == at:
            with pytest.raises(raising):
                node(x)
        else:
            node(x)
    xs = np.array(points)
    raised = np.zeros(len(points), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        once = f.expr(xs, raised).tolist()
    assert np.flatnonzero(raised).tolist() == [at] and math.isnan(once[at])
    del once[at]
    assert _bits(once) == _bits([ref.value(node, x) for i, x in enumerate(points) if i != at])
    got = f.many(xs).tolist()
    assert [i for i, v in enumerate(got) if v == math.inf] == [at]
    assert _bits(got) == _bits([ref.value(node, x) for x in points])


def test_many_runs_the_twin_without_the_scalar_closure():
    # On the far grids x**3 and |x|**2.9 overflow at many points (on the
    # +-1e102 one once the argument is scaled by 2**10).  A handle has one
    # closure, over arrays, and every limit handle's pass over a grid gives
    # the reference's bits there, inf where a power raised.
    text = "mono(1,3) + 0.5*sine(0.1,2) + envnoise(0.01,2.9,4)"
    f, node = parse_expression(text), ref.parse(text)
    steps = [(Mode.EXPAND, 0, 0.0), (Mode.CONTRACT, 996, 0.0), (Mode.EXPAND, 30, 0.0),
             (Mode.EXPAND, 0, -2.5), (Mode.EXPAND, 3, 7.0)]  # (mode, n, offset)
    for end in (10.0, 1e102, 1e200):
        xs = np.linspace(-end, end, 101)
        for mode, n, offset in steps:
            g = limit_function(mode, f, P3, n, offset)
            tree = ref.limit(mode, node, 3, n, offset)
            assert _bits(g.many(xs)) == _bits([ref.value(tree, x) for x in xs.tolist()]), end
        far = limit_function(Mode.EXPAND, f, P3, 30, 0.0).many(xs)  # x * 2**10
        assert np.isinf(far).any() == (end > 10.0)


def test_a_sum_that_overflows_by_multiplication_stays_nan():
    # At 1e100 both powers are floats, 1e10 times them is +-inf, and the sum
    # is a real nan: no scalar routine raised, so it must not read inf.  At
    # 1e103 the power itself raises, and the handle reads inf.
    f = parse_expression("mono(1e10,3) + mono(-1e10,3)")
    node = ref.parse("mono(1e10,3) + mono(-1e10,3)")
    xs = np.array([1e100, -1e100, 1e103, -1e103, 2.0])
    want = [ref.value(node, x) for x in xs.tolist()]
    assert math.isnan(want[0]) and math.isnan(want[1]) and want[2] == want[3] == math.inf
    assert _bits(f.many(xs)) == _bits(want)
