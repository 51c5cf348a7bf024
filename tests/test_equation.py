"""Radical arithmetic, equation defect, and control functions."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference as ref
from modstab import (
    ArgumentError,
    ControlFunction,
    EquationParams,
    ModularSpec,
    control_eval,
    defect,
    monomial,
    pair_additivity_defect,
    parse_control,
    parse_expression,
    radical_root_many,
    seeded_triples,
)

ABS1 = ModularSpec.power(1)
coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def radical_root(t, s):
    return float(radical_root_many(np.array([t]), s)[0])


class TestRadicalRoot:
    @pytest.mark.parametrize("t,s,expected", [(8.0, 3, 2.0), (-27.0, 3, -3.0),
                                              (32.0, 5, 2.0), (0.0, 3, 0.0)])
    def test_exact_powers(self, t, s, expected):
        assert radical_root(t, s) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("s", [2, 4, 1, 0, -3])
    def test_rejects_bad_exponent(self, s):
        with pytest.raises(ArgumentError):
            radical_root(8.0, s)

    @given(x=coords, s=st.sampled_from([3, 5, 7]))
    def test_inverts_odd_power(self, x, s):
        assert radical_root(x**s, s) == pytest.approx(x, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("s", [5, 101])
    def test_root_within_one_ulp_where_the_polish_overflows(self, s):
        # Among the 4000 largest floats, the ones whose first estimate r has
        # r**s past the float range: the Newton step there is taken in its
        # rewritten form, and the root is still within 1 ulp of the exact one.
        t, hit = sys.float_info.max, []
        for _ in range(4000):
            try:
                (t ** (1.0 / s)) ** s
            except OverflowError:
                hit.append(t)
            t = math.nextafter(t, 0.0)
        assert len(hit) > 50
        signed_hits = [signed for v in hit for signed in (v, -v)]
        roots = radical_root_many(np.array(signed_hits), s).tolist()
        with mpmath.workprec(200):
            for signed, r in zip(signed_hits, roots):
                exact = mpmath.root(mpmath.mpf(abs(signed)), s)
                assert math.copysign(1.0, r) == math.copysign(1.0, signed)
                assert abs(mpmath.mpf(abs(r)) - exact) <= math.ulp(r), (signed, s)


class TestRadicalCombine:
    """The reference's combined argument, the one the defect kernel is held to."""

    def test_cancelling_triple(self):
        params = EquationParams(3, 1.0)
        got = ref.radical_combine(params, 1.0, 1.0, -(2.0 ** (1 / 3)))
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_simple_triple(self):
        # (1 + 8 + 27)^(1/3) = 36^(1/3)
        got = ref.radical_combine(EquationParams(3, 1.0), 1.0, 2.0, 3.0)
        assert got == pytest.approx(36.0 ** (1 / 3), rel=1e-12)

    def test_q_half(self):
        # (3/0.5)^(1/3) = 6^(1/3)
        got = ref.radical_combine(EquationParams(3, 0.5), 1.0, 1.0, 1.0)
        assert got == pytest.approx(6.0 ** (1 / 3), rel=1e-12)

    @given(x=coords, y=coords, z=coords,
           s=st.sampled_from([3, 5]), q=st.sampled_from([1.0, -1.0, 0.5]))
    def test_odd_symmetry(self, x, y, z, s, q):
        params = EquationParams(s, q)
        lhs = ref.radical_combine(params, -x, -y, -z)
        rhs = -ref.radical_combine(params, x, y, z)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestParamsValidation:
    @pytest.mark.parametrize("s,q", [(2, 1.0), (1, 1.0), (3, 0.0), (3, 1.5), (3, -2.0)])
    def test_rejected(self, s, q):
        with pytest.raises(ArgumentError):
            EquationParams(s, q)

    @pytest.mark.parametrize("s,q", [(3, 1.0), (5, -1.0), (7, 0.5), (3, -0.25)])
    def test_accepted(self, s, q):
        EquationParams(s, q)


class TestDefect:
    def test_exact_solution_vanishes(self):
        params = EquationParams(3, 1.0)
        phi = monomial(5.0, 3)
        for (x, y, z) in seeded_triples(-10, 10, 50, seed=1):
            assert defect(params, phi, ABS1, x, y, z) <= 1e-12 * (1 + 5e3)

    @settings(max_examples=60)
    @given(x=coords, y=coords, z=coords,
           s=st.sampled_from([3, 5, 7]), q=st.sampled_from([1.0, -1.0, 0.5]),
           c=st.sampled_from([-2.0, 1.0, 5.0]))
    def test_exact_family_property(self, x, y, z, s, q, c):
        params = EquationParams(s, q)
        phi = monomial(c, s)
        mags = 1.0 + abs(c) * max(abs(x), abs(y), abs(z), 1.0) ** s
        assert defect(params, phi, ABS1, x, y, z) <= 1e-12 * mags

    def test_sine_perturbation_value(self):
        # combined argument cancels to 0, leaving 0.1*(2 sin 1 - sin 2^(1/3))
        params = EquationParams(3, 1.0)
        phi = parse_expression("mono(1,3) + sine(0.1,1)")
        expected = abs(0.1 * (2.0 * math.sin(1.0) - math.sin(2.0 ** (1 / 3))))
        got = defect(params, phi, ABS1, 1.0, 1.0, -(2.0 ** (1 / 3)))
        assert got == pytest.approx(expected, rel=1e-9)
        assert got == pytest.approx(0.0731, abs=2e-4)

    def test_zero_function(self):
        params = EquationParams(3, 1.0)
        phi = monomial(0.0, 1)
        assert defect(params, phi, ModularSpec.exp(), 1.0, 2.0, 3.0) == 0.0

    def test_overflowing_power_is_inf(self):
        # 1e60**7 is not a float: the defect is inf, where it used to raise
        params = EquationParams(7, 1.0)
        assert defect(params, monomial(1.0, 7), ABS1, 1.0, 1e60, 2.0) == math.inf
        assert pair_additivity_defect(monomial(1.0, 7), ABS1, 7, 1e60, 2.0) == math.inf

    @settings(max_examples=40)
    @given(x=coords, y=coords, z=coords)
    def test_permutation_invariance(self, x, y, z):
        params = EquationParams(3, 1.0)
        phi = parse_expression("mono(1,3) + sine(0.3,2)")
        base = defect(params, phi, ABS1, x, y, z)
        for perm in ((y, x, z), (z, y, x), (y, z, x)):
            assert defect(params, phi, ABS1, *perm) == pytest.approx(base, rel=1e-9, abs=1e-12)


class TestPairAdditivity:
    def test_exact_cube(self):
        assert pair_additivity_defect(monomial(1.0, 3), ABS1, 3, 2.0, 3.0) <= 1e-12 * 36

    def test_antipodal_pair(self):
        assert pair_additivity_defect(monomial(1.0, 3), ABS1, 3, 4.0, -4.0) == 0.0

    def test_sine_perturbation_value(self):
        phi = parse_expression("mono(1,3) + sine(0.1,1)")
        expected = abs(0.1 * (math.sin(2.0 ** (1 / 3)) - 2.0 * math.sin(1.0)))
        got = pair_additivity_defect(phi, ABS1, 3, 1.0, 1.0)
        assert got == pytest.approx(expected, rel=1e-9)


class TestControl:
    def test_power_at_ones(self):
        assert control_eval(ControlFunction.power(1.0, 6.0), 1.0, 1.0, 1.0) == 3.0

    def test_power_on_scaling_line(self):
        # alpha(x, x, -2^(1/3) x) = theta*(2 + 2^(1/3))*|x| for p=1
        alpha = ControlFunction.power(0.02, 1.0)
        x = 3.0
        expected = 0.02 * (2.0 + 2.0 ** (1 / 3)) * x
        got = control_eval(alpha, x, x, -(2.0 ** (1 / 3)) * x)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got / x == pytest.approx(0.06520, abs=1e-5)

    def test_constant(self):
        assert control_eval(ControlFunction.constant(0.1), 5.0, -7.0, 0.0) == 0.1

    @given(x=coords, y=coords, z=coords,
           c=st.floats(min_value=-5.0, max_value=5.0).filter(lambda v: abs(v) > 1e-3),
           p=st.floats(min_value=0.0, max_value=6.0))
    @example(x=0.0, y=0.0, z=5e-324, c=1.5, p=0.0625)  # c*z rounds to 2 subnormal ulps
    def test_power_homogeneity(self, x, y, z, c, p):
        # alpha(c*v) = |c|**p * alpha(v), taken exactly at the pre-images
        # fl(c*v)/c of the arguments control_eval receives: the rounding of
        # c*v is not the control's error.
        args = (c * x, c * y, c * z)
        lhs = control_eval(ControlFunction.power(0.7, p), *args)
        with mpmath.workdps(50):
            c_, p_ = mpmath.mpf(c), mpmath.mpf(p)
            exact = mpmath.mpf(0.7) * mpmath.fsum(abs(mpmath.mpf(v) / c_) ** p_ for v in args)
            rhs = float(abs(c_) ** p_ * exact)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-30)

    def test_power_zero_at_origin(self):
        assert control_eval(ControlFunction.power(2.0, 3.0), 0.0, 0.0, 0.0) == 0.0

    def test_parse_round_trip(self):
        a = parse_control("power:theta=0.02,p=1")
        assert a.kind == "power" and a.theta == 0.02 and a.p == 1.0
        b = parse_control("const:eps=0.1")
        assert b.kind == "constant" and b.eps == 0.1

    @pytest.mark.parametrize("bad", ["power:p=1", "const:", "power:theta=-1,p=2", "lin:a=1"])
    def test_parse_rejects_malformed(self, bad):
        from modstab import ConfigError
        with pytest.raises(ConfigError):
            parse_control(bad)
