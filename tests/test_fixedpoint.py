"""Scaling-operator contraction, induced modular distance, and iteration."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modstab import (
    ArgumentError,
    ContractViolation,
    ControlFunction,
    DefectHypothesisError,
    EquationParams,
    Grid,
    ModularSpec,
    Mode,
    RegimeError,
    audit_defect_hypothesis,
    construct_limit,
    estimate_contraction,
    fixed_point_solve,
    lambda_apply,
    monomial,
    parse_expression,
    rho_hat_distance,
    route_ratio,
    series_bound_expand,
    standard_ladder,
)
from modstab.sampling import function_sample_points

ABS1 = ModularSpec.power(1)
P3 = EquationParams(3, 1.0)
SAMPLES = standard_ladder(-3, 3) + [-x for x in standard_ladder(-3, 3)]


class TestLambdaApply:
    @pytest.mark.parametrize("s", [3, 5, 7])
    @pytest.mark.parametrize("c", [-2.0, 1.0, 5.0])
    def test_exact_solutions_are_fixed_points(self, s, c):
        g = monomial(c, s)
        for x in (0.5, 1.0, 5.0, -3.25):
            assert lambda_apply(g, s, x) == pytest.approx(g(x), rel=1e-14)

    def test_constant_halves(self):
        g = monomial(4.0, 0)
        assert lambda_apply(g, 3, 17.0) == 2.0

    def test_identity_map_value(self):
        # g(x) = x: (2^(1/3) * 1) / 2 = 2^(-2/3)
        got = lambda_apply(monomial(1.0, 1), 3, 1.0)
        assert got == pytest.approx(2.0 ** (-2 / 3), rel=1e-14)
        assert got == pytest.approx(0.62996, abs=1e-5)

    def test_rejects_even_s(self):
        with pytest.raises(ArgumentError):
            lambda_apply(monomial(1.0, 3), 4, 1.0)


class TestEstimateContraction:
    def test_power_p1(self):
        cert = estimate_contraction(ControlFunction.power(0.5, 1.0), 3, SAMPLES)
        assert cert.l_hat == pytest.approx(2.0 ** (-2 / 3), rel=1e-9)
        assert cert.valid

    def test_power_boundary_p_equals_s(self):
        cert = estimate_contraction(ControlFunction.power(1.0, 3.0), 3, SAMPLES)
        assert cert.l_hat == pytest.approx(1.0, rel=1e-12)
        assert not cert.valid  # strict contraction required, boundary excluded

    def test_power_p6_invalid(self):
        cert = estimate_contraction(ControlFunction.power(1.0, 6.0), 3, SAMPLES)
        assert cert.l_hat == pytest.approx(2.0, rel=1e-9)
        assert not cert.valid

    def test_constant_half(self):
        cert = estimate_contraction(ControlFunction.constant(0.3), 3, SAMPLES)
        assert cert.l_hat == pytest.approx(0.5, rel=1e-14)
        assert cert.valid

    def test_zero_samples_skipped(self):
        cert = estimate_contraction(ControlFunction.power(1.0, 1.0), 3, [0.0, 1.0])
        assert cert.samples_skipped == 1 and cert.samples_checked == 1

    def test_all_skipped_is_error(self):
        with pytest.raises(ArgumentError):
            estimate_contraction(ControlFunction.power(1.0, 1.0), 3, [0.0])

    @given(p=st.floats(min_value=0.0, max_value=6.0), s=st.sampled_from([3, 5, 7]))
    def test_power_formula(self, p, s):
        # ratio is constant in x and equals 2^(p/s - 1)
        cert = estimate_contraction(ControlFunction.power(1.0, p), s, SAMPLES)
        assert cert.l_hat == pytest.approx(2.0 ** (p / s - 1.0), rel=1e-9)

    @pytest.mark.parametrize("count", [41, 401, 4001])
    @pytest.mark.parametrize("p", [0.5, 1, 1.5, 2, 2.5, 2.9, 3, 3.1, 3.5, 4, 5, 6])
    def test_cross_check_agrees_with_closed_form(self, p, count):
        # the sampled certificate a report shows, on the points a run samples,
        # gives the same verdict as the closed-form gate
        alpha = ControlFunction.power(0.05, p)
        cert = estimate_contraction(alpha, 3, function_sample_points(Grid(-10, 10, count)))
        assert cert.valid == (route_ratio(Mode.EXPAND, alpha, 3) < 1.0)


class TestRhoHatDistance:
    def test_zero_for_equal_functions(self):
        f = parse_expression("mono(1,3) + sine(0.2,1)")
        alpha = ControlFunction.power(0.02, 1.0)
        assert rho_hat_distance(f, f, alpha, ABS1, 3, SAMPLES) == 0.0

    def test_linear_perturbation_ratio(self):
        # |0.01x| / (0.02*(2+2^(1/3))*|x|) is constant in x
        f = parse_expression("mono(1,3) + mono(0.01,1)")
        g = monomial(1.0, 3)
        alpha = ControlFunction.power(0.02, 1.0)
        got = rho_hat_distance(f, g, alpha, ABS1, 3, SAMPLES)
        expected = 0.01 / (0.02 * (2.0 + 2.0 ** (1 / 3)))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.15337, abs=1e-5)

    def test_sine_against_constant_control(self):
        # sup |0.1 sin x| / 0.1 is ~1 when a near-peak sample is included
        f = parse_expression("mono(1,3) + sine(0.1,1)")
        g = monomial(1.0, 3)
        alpha = ControlFunction.constant(0.1)
        samples = SAMPLES + [math.pi / 2]
        got = rho_hat_distance(f, g, alpha, ABS1, 3, samples)
        assert got == pytest.approx(1.0, abs=1e-6)

    def test_all_zero_denominators_error(self):
        alpha = ControlFunction.power(1.0, 2.0)
        with pytest.raises(ArgumentError):
            rho_hat_distance(monomial(1.0, 3), monomial(1.0, 3), alpha, ABS1, 3, [0.0])


class TestStrictContraction:
    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(min_value=-0.05, max_value=0.05),
           b=st.floats(min_value=-0.05, max_value=0.05))
    def test_operator_contracts_pairs(self, a, b):
        # rho_hat(Lam f - Lam g) <= L * rho_hat(f - g) + 1e-9 for convex rho
        s = 3
        alpha = ControlFunction.power(0.02, 1.0)
        cert = estimate_contraction(alpha, s, SAMPLES)
        f = parse_expression("mono(1,3)").plus(monomial(a, 1))
        g = parse_expression("mono(1,3)").plus(monomial(b, 1))
        lf = f.scaled(outer=0.5, inner=2.0 ** (1 / s))
        lg = g.scaled(outer=0.5, inner=2.0 ** (1 / s))
        lhs = rho_hat_distance(lf, lg, alpha, ABS1, s, SAMPLES)
        rhs = cert.l_hat * rho_hat_distance(f, g, alpha, ABS1, s, SAMPLES)
        assert lhs <= rhs + 1e-9


class TestFixedPointSolve:
    def test_linear_perturbation_scenario(self):
        phi = parse_expression("mono(1,3) + mono(0.01,1)")
        alpha = ControlFunction.power(0.02, 1.0)
        grid = Grid(-10, 10, 41)
        res = fixed_point_solve(phi, P3, ABS1, alpha, grid)
        assert not res.saturated
        worst = max(abs(v - x**3) for v, x in zip(res.values, grid.points()))
        assert worst <= 1e-6
        assert all(res.bound_ok)
        # geometric decay of successive gaps at factor l_hat (absolute slack
        # absorbs the cancellation noise of the iterate differences)
        for g0, g1 in zip(res.gap_history, res.gap_history[1:]):
            assert g1 <= res.l_hat * g0 + 1e-9

    def test_exact_solution_converges_immediately(self):
        res = fixed_point_solve(monomial(1.0, 3), P3, ABS1,
                                ControlFunction.constant(0.1), Grid(-5, 5, 11))
        assert res.iterations == 1
        assert res.rho_hat_gap <= 1e-12  # ulp-scale scaling residue only
        for v, x in zip(res.values, Grid(-5, 5, 11).points()):
            assert v == pytest.approx(x**3, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n_max", [0, 1024])
    def test_n_max_outside_float_powers_rejected(self, n_max):
        # 2.0**1024 overflows: the step count must stay in 1..1023
        with pytest.raises(ArgumentError, match="n_max must be in 1..1023"):
            fixed_point_solve(monomial(1.0, 3), P3, ABS1, ControlFunction.constant(0.1),
                              Grid(-5, 5, 11), n_max=n_max)

    def test_invalid_certificate_is_regime_error(self):
        phi = parse_expression("mono(1,3) + envnoise(0.004,6,7)")
        alpha = ControlFunction.power(0.016, 6.0)
        with pytest.raises(RegimeError):
            fixed_point_solve(phi, P3, ABS1, alpha, Grid(-10, 10, 11))

    def test_boundary_exponent_is_regime_error(self):
        # L = 2^(p/s)/2 is exactly 1 at p = s: no contraction
        alpha = ControlFunction.power(0.01, 3.0)
        assert route_ratio(Mode.EXPAND, alpha, 3) == 1.0
        with pytest.raises(RegimeError):
            fixed_point_solve(parse_expression("mono(1,3) + envnoise(0.001,3,5)"),
                              P3, ABS1, alpha, Grid(-10, 10, 11))

    @pytest.mark.parametrize("expr, alpha", [
        ("mono(1,3) + mono(0.01,1)", ControlFunction.power(0.02, 1.0)),
        ("mono(1,3) + sine(0.01,1)", ControlFunction.constant(0.1)),
    ])
    def test_closed_form_factor_and_expand_bounds(self, expr, alpha):
        phi = parse_expression(expr)
        grid = Grid(-10, 10, 21)
        res = fixed_point_solve(phi, P3, ABS1, alpha, grid)
        assert res.l_hat == route_ratio(Mode.EXPAND, alpha, 3)
        assert list(res.bound) == [series_bound_expand(alpha, 3, x).upper
                                   for x in grid.points()]

    def test_unverified_defect_hypothesis_raises(self):
        # sine defect reaches ~0.4 but the control allows only 0.05
        phi = parse_expression("mono(1,3) + sine(0.1,1)")
        alpha = ControlFunction.constant(0.05)
        with pytest.raises(DefectHypothesisError) as err:
            fixed_point_solve(phi, P3, ABS1, alpha, Grid(-10, 10, 11))
        assert err.value.worst_triple is not None
        assert err.value.ratio > 1.0

    def test_requires_doubling_constant(self):
        with pytest.raises(ContractViolation):
            fixed_point_solve(monomial(1.0, 3), P3, ModularSpec.exp(),
                              ControlFunction.constant(0.1), Grid(-5, 5, 11))

    def test_bound_dominates_final_error(self):
        phi = parse_expression("mono(1,3) + mono(0.01,1)")
        alpha = ControlFunction.power(0.02, 1.0)
        grid = Grid(-10, 10, 41)
        res = fixed_point_solve(phi, P3, ABS1, alpha, grid)
        # bound(x) = alpha(x, x, -2^(1/3)x) / (2*(1-L))
        coeff = 0.02 * (2.0 + 2.0 ** (1 / 3)) / (2.0 * (1.0 - 2.0 ** (-2 / 3)))
        for x, b in zip(grid.points(), res.bound):
            assert b == pytest.approx(coeff * abs(x), rel=1e-12, abs=1e-15)
            assert abs(0.01 * x) <= b + 1e-12

    def test_quasi_contraction_diagnostic_below_one(self):
        phi = parse_expression("mono(1,3) + mono(0.01,1)")
        res = fixed_point_solve(phi, P3, ABS1, ControlFunction.power(0.02, 1.0),
                                Grid(-10, 10, 21))
        assert res.quasi_contraction
        assert max(res.quasi_contraction) < 1.0
        assert res.delta_hat_window < math.inf

    def test_agrees_with_expand_route(self):
        # the fixed-point iterates are the expand approximants when phi(0) = 0
        phi = parse_expression("mono(1,3) + mono(0.01,1)")
        alpha = ControlFunction.power(0.02, 1.0)
        grid = Grid(-10, 10, 41)
        fp = fixed_point_solve(phi, P3, ABS1, alpha, grid)
        t2 = construct_limit(Mode.EXPAND, phi, P3, ABS1, grid)
        for a, b in zip(fp.values, t2.values):
            assert a == pytest.approx(b, abs=1e-6)


class TestAuditDefectHypothesis:
    TRIPLES = [(1.0, 2.0, -0.5), (0.0, 0.0, 0.0), (-3.0, 0.25, 2.0)]

    def test_vanishing_control_with_defect_is_an_inf_ratio(self):
        # alpha = 0 allows no defect at all, so any defect refutes it
        phi = parse_expression("mono(1,3) + sine(0.5,1)")
        audit = audit_defect_hypothesis(phi, P3, ABS1, ControlFunction.constant(0.0),
                                        self.TRIPLES)
        assert audit["max_ratio"] == math.inf and not audit["hypothesis_ok"]
        assert audit["worst_triple"] == self.TRIPLES[0]
        assert audit["max_defect"] > 0.0

    def test_vanishing_control_without_defect_passes(self):
        # at (0, 0, 0) both the defect and the power control vanish
        audit = audit_defect_hypothesis(monomial(1.0, 3), P3, ABS1,
                                        ControlFunction.power(1.0, 2.0),
                                        [(0.0, 0.0, 0.0)])
        assert audit["max_defect"] == 0.0 and audit["max_ratio"] == 0.0
        assert audit["hypothesis_ok"]

    @pytest.mark.parametrize("expr, p, triple", [
        # |x|**4 overflows, the defect of phi(x) = x stays finite
        ("mono(1,1)", 4.0, (1e100, 2e100, 5e99)),
        # |x|**2 overflows and x**3 leaves the range: defect inf
        ("mono(1,3) + sine(0.5,1)", 2.0, (1e200, 1e200, -1e200)),
    ])
    def test_overflowed_control_certifies_nothing(self, expr, p, triple):
        audit = audit_defect_hypothesis(parse_expression(expr), P3, ABS1,
                                        ControlFunction.power(1.0, p), [triple])
        assert audit["max_defect"] > 0.0
        assert audit["max_ratio"] == math.inf and not audit["hypothesis_ok"]
