"""Expression grammar and deterministic evaluation of function handles."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from modstab import ConfigError, envelope_noise, monomial, parse_expression, sine

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


def test_parse_envnoise_seed_metadata():
    f = parse_expression("mono(1,3) + envnoise(0.004,6,7)")
    assert f.seed == 7


@pytest.mark.parametrize("bad", ["", "mono(1)", "mono(1,2,3)", "wave(1,2)",
                                 "mono(1,3) * sine(1,1)", "mono(a,3)"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ConfigError):
        parse_expression(bad)


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


def test_scaled_handle():
    f = monomial(1.0, 3)
    g = f.scaled(outer=8.0, inner=0.5)  # 8 * (x/2)^3 = x^3
    assert g(3.0) == pytest.approx(27.0, rel=1e-15)


def test_shifted_handle():
    f = monomial(1.0, 3).shifted(-7.0)
    assert f(2.0) == 1.0


def test_plus_handle():
    f = monomial(1.0, 3).plus(sine(0.1, 1.0))
    assert f(2.0) == pytest.approx(8.0 + 0.1 * math.sin(2.0), rel=1e-15)


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
