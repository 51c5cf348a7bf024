"""Verification checks: additivity, oddness, bound domination, agreement."""

import math

import pytest

from modstab import (
    ArgumentError,
    ControlFunction,
    EquationParams,
    Grid,
    ModularSpec,
    Mode,
    audit_defect_hypothesis,
    construct_limit,
    corner_triples,
    fixed_point_solve,
    monomial,
    parse_expression,
    seeded_triples,
    series_bound_expand,
    verify_oddness,
    verify_radical_additivity,
    verify_stability_bound,
    cross_check,
)

ABS1 = ModularSpec.power(1)
P3 = EquationParams(3, 1.0)


class TestRadicalAdditivity:
    def test_exact_cubic_passes(self):
        out = verify_radical_additivity(monomial(1.0, 3), ABS1, 3, Grid(-10, 10, 21))
        assert out.passed and out.worst_value <= 1e-9

    def test_zero_function_passes(self):
        out = verify_radical_additivity(monomial(0.0, 1), ABS1, 3, Grid(-5, 5, 9))
        assert out.passed and out.worst_value == 0.0

    def test_sine_perturbation_fails_at_unit_pair(self):
        # on the single-point grid {1} the worst pair is (1,1) with defect
        # 0.1*|sin(2^(1/3)) - 2 sin 1|
        phi = parse_expression("mono(1,3) + sine(0.1,1)")
        out = verify_radical_additivity(phi, ABS1, 3, Grid(1 - 1e-12, 1, 2))
        assert not out.passed
        expected = abs(0.1 * (math.sin(2.0 ** (1 / 3)) - 2.0 * math.sin(1.0)))
        assert out.worst_value == pytest.approx(expected, rel=1e-6)

    def test_pair_thinning_bounds_work(self):
        # 101^2 pairs get thinned by stride but the check still runs
        out = verify_radical_additivity(monomial(2.0, 3), ABS1, 3, Grid(-10, 10, 101))
        assert out.passed


class TestOddness:
    def test_odd_function_passes(self):
        phi = parse_expression("mono(1,3) + sine(0.1,1)")
        assert verify_oddness(phi, ABS1, Grid(-10, 10, 21)).passed

    def test_constant_offset_fails_at_origin(self):
        phi = parse_expression("mono(1,3) + mono(1,0)")
        out = verify_oddness(phi, ABS1, Grid(-10, 10, 21))
        assert not out.passed
        assert out.worst_value >= 1.0  # rho(phi(0)) = 1 already fails


    def test_overflowing_evaluation_is_an_inf_violation(self):
        # x**99 overflows at x = 1e4: a failed check, not an OverflowError
        out = verify_oddness(monomial(1.0, 99), ABS1, Grid(-1e4, 1e4, 3))
        assert not out.passed and out.worst_value == math.inf
        assert out.worst_point == -1e4

class TestStabilityBound:
    def test_identical_functions_pass_with_zero(self):
        phi = monomial(1.0, 3)
        grid = Grid(-5, 5, 11)
        bounds = [0.0] * grid.count
        out = verify_stability_bound(phi, phi, ABS1, bounds, grid)
        assert out.passed and out.worst_value <= 0.0

    def test_constant_control_bound_dominates_sine(self):
        phi = parse_expression("mono(1,3) + sine(0.1,1)")
        a = monomial(1.0, 3)
        grid = Grid(-10, 10, 41)
        bounds = [series_bound_expand(ControlFunction.constant(0.1), 3, x).upper
                  for x in grid.points()]
        out = verify_stability_bound(phi, a, ABS1, bounds, grid)
        assert out.passed  # sup |0.1 sin x| <= 0.1 on the grid

    def test_violation_detected(self):
        phi = parse_expression("mono(1,3) + sine(0.1,1)")
        a = monomial(1.0, 3)
        grid = Grid(-10, 10, 41)
        bounds = [0.01] * grid.count
        out = verify_stability_bound(phi, a, ABS1, bounds, grid)
        assert not out.passed

    def test_shift_applied(self):
        # phi = x^3 + 7 vs a = x^3 matches only after removing q*phi(0) = 7
        phi = parse_expression("mono(1,3) + mono(7,0)")
        a = monomial(1.0, 3)
        grid = Grid(-5, 5, 11)
        bounds = [1e-12] * grid.count
        assert not verify_stability_bound(phi, a, ABS1, bounds, grid).passed
        assert verify_stability_bound(phi, a, ABS1, bounds, grid, shift=7.0).passed

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ArgumentError):
            verify_stability_bound(monomial(1.0, 3), monomial(1.0, 3), ABS1,
                                   [0.0] * 5, Grid(-5, 5, 11))


class TestCrossCheck:
    def test_identical(self):
        out = cross_check(monomial(1.0, 3), monomial(1.0, 3), ABS1, Grid(-5, 5, 11))
        assert out.passed and out.worst_value == 0.0

    def test_offset_fails_tight_tolerance(self):
        a1 = monomial(1.0, 3)
        a2 = parse_expression("mono(1,3) + mono(0.001,0)")
        out = cross_check(a1, a2, ABS1, Grid(-5, 5, 11))
        assert not out.passed
        assert out.worst_value == pytest.approx(1e-3, rel=1e-9)

    def test_expand_and_fixed_point_limits_agree(self):
        phi = parse_expression("mono(1,3) + mono(0.01,1)")
        alpha = ControlFunction.power(0.02, 1.0)
        grid = Grid(-10, 10, 41)
        t2 = construct_limit(Mode.EXPAND, phi, P3, ABS1, grid)
        triples = seeded_triples(-10, 10, 500, 0) + corner_triples(-10, 10)
        audit = audit_defect_hypothesis(phi, P3, ABS1, alpha, triples)
        fp = fixed_point_solve(phi, P3, ABS1, alpha, grid, audit=audit)
        assert cross_check(t2.function, fp.function, ABS1, grid).passed


class TestReproducibility:
    def test_outcomes_identical_across_runs(self):
        phi = parse_expression("mono(1,3) + envnoise(0.05,1,99)")
        grid = Grid(-10, 10, 21)
        a = verify_radical_additivity(phi, ABS1, 3, grid)
        b = verify_radical_additivity(phi, ABS1, 3, grid)
        assert a == b  # same worst point, same worst value, bit for bit
