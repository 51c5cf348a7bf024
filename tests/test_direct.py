"""Direct-method constructions, series bounds, and the closed-form bound."""

import math

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modstab import (
    ArgumentError,
    ContractViolation,
    ControlFunction,
    EquationParams,
    Grid,
    ModularSpec,
    Mode,
    RegimeError,
    IterateTable,
    approximant_row,
    construct_limit,
    contract_bound_closed_form,
    control_eval,
    defect,
    limit_function,
    monomial,
    parse_expression,
    route_ratio,
    seeded_triples,
    series_bound_contract,
    series_bound_expand,
)

ABS1 = ModularSpec.power(1)
P3 = EquationParams(3, 1.0)


def brute_contract_series(alpha, tau, s, x, terms=400):
    """Independent oracle: direct summation of the contract-route series."""
    total = 0.0
    for j in range(1, terms + 1):
        a = control_eval(alpha, x / 2 ** (j / s), x / 2 ** (j / s), -x / 2 ** ((j - 1) / s))
        total += 0.5 * (tau * tau / 2.0) ** j * a
    return total


def brute_expand_series(alpha, s, x, terms=400):
    """Independent oracle: the expand-route series of a power control, summed
    term by term in 50-digit mpmath.

    Term ``j`` evaluates the control at the exact multiples ``2**(j/s)`` of
    the floats ``x`` and ``fl(-(2**(1/s)) * x)`` that the closed form
    receives, so no argument is rounded, not even to the subnormal spacing.
    """
    z = -(2.0 ** (1 / s)) * x
    with mpmath.workdps(50):
        theta, p = mpmath.mpf(alpha.theta), mpmath.mpf(alpha.p)
        total = mpmath.mpf(0)
        for j in range(terms):
            scale = mpmath.mpf(2) ** (mpmath.mpf(j) / s)
            a = theta * (2 * abs(scale * x) ** p + abs(scale * z) ** p)
            term = a / 2 ** (j + 1)
            total += term
            if term <= mpmath.mpf(10) ** -30 * total:
                break
        return float(total)



def truncated_series_upper(term_at, j_start, ratio, tol=1e-9):
    """Reference: the partial-sum loop the closed-form series bounds replaced.

    Sums terms until the geometric tail after the last one falls below
    ``tol`` times the total, and returns the total plus that tail.
    """
    first = term_at(j_start)
    if ratio >= 1.0:
        return 0.0 if first == 0.0 else math.inf
    total = 0.0
    j = j_start
    term = first
    while True:
        total += term
        tail = term * ratio / (1.0 - ratio)
        if tail <= tol * total or tail == 0.0:
            return total + tail
        j += 1
        term = term_at(j)

def approximant(mode, phi, n, x):
    """The n-th approximant at ``x``: ``approximant_row`` off a table holding ``x``.

    The route's ``limit_function`` handle gives the same bits at ``x``.
    """
    table = IterateTable(phi, P3.s, Grid(x - 1.0, x, 2))
    offset = P3.q * table.origin() if mode is Mode.EXPAND else 0.0
    value = float(approximant_row(table, mode, n, offset)[table.grid_index[1]])
    assert limit_function(mode, phi, P3, n, offset)(x).hex() == value.hex()
    return value


class TestApproximants:
    def test_contract_fixes_exact_solution(self):
        # 2^n * (x / 2^(n/3))^3 = x^3
        got = approximant(Mode.CONTRACT, monomial(1.0, 3), 7, 2.0)
        assert got == pytest.approx(8.0, rel=1e-12)

    def test_contract_shrinks_higher_order_term(self):
        # 2^10 * ((1/2^(10/3))^3 + 0.004 (1/2^(10/3))^6) = 1 + 0.004/2^10
        phi = parse_expression("mono(1,3) + mono(0.004,6)")
        got = approximant(Mode.CONTRACT, phi, 10, 1.0)
        assert got == pytest.approx(1.0 + 0.004 / 2**10, rel=1e-12)
        assert got == pytest.approx(1.00000390625, rel=1e-11)

    def test_contract_identity_at_zero_steps(self):
        phi = parse_expression("mono(2,3) + sine(0.5,2)")
        assert approximant(Mode.CONTRACT, phi, 0, 1.7) == phi(1.7)

    def test_expand_fixes_exact_solution(self):
        got = approximant(Mode.EXPAND, monomial(1.0, 3), 12, 1.0)
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_expand_decays_sine_term(self):
        # (t^3 + 0.1 sin t)/2^10 at t = 2^(10/3): oracle by direct arithmetic
        phi = parse_expression("mono(1,3) + sine(0.1,1)")
        t = 2.0 ** (10 / 3)
        expected = (t**3 + 0.1 * math.sin(t)) / 2**10
        got = approximant(Mode.EXPAND, phi, 10, 1.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.9999405, abs=1e-7)

    def test_expand_removes_constant_offset(self):
        # phi = x^3 + 7, q = 1: the offset q*phi(0) = 7 is subtracted
        phi = parse_expression("mono(1,3) + mono(7,0)")
        assert approximant(Mode.EXPAND, phi, 0, 2.0) == 8.0


    @pytest.mark.parametrize("mode", list(Mode))
    def test_negative_step_rejected(self, mode):
        # Step -n of one route would be a row of the other route.
        phi = monomial(1.0, 3)
        table = IterateTable(phi, 3, Grid(-1.0, 1.0, 5))
        with pytest.raises(ArgumentError, match="approximant step must be >= 0, got -1"):
            approximant_row(table, mode, -1)
        with pytest.raises(ArgumentError, match="approximant step must be >= 0, got -1"):
            limit_function(mode, phi, P3, -1, 0.0)


class TestConstructLimit:
    def test_expand_reconstructs_cubic(self):
        phi = parse_expression("mono(1,3) + sine(0.1,1)")
        grid = Grid(-10, 10, 41)
        res = construct_limit(Mode.EXPAND, phi, P3, ABS1, grid, tol=1e-9)
        assert not res.saturated
        worst = max(abs(v - x**3) for v, x in zip(res.values, grid.points()))
        assert worst <= 1e-6
        assert all(g <= 1e-9 for g in res.cauchy_gap)
        assert res.achieved_n <= 60

    def test_contract_reconstructs_cubic(self):
        phi = parse_expression("mono(1,3) + mono(0.004,6)")
        grid = Grid(-10, 10, 41)
        res = construct_limit(Mode.CONTRACT, phi, P3, ABS1, grid, tol=1e-9)
        assert not res.saturated
        worst = max(abs(v - x**3) for v, x in zip(res.values, grid.points()))
        assert worst <= 1e-6

    def test_exact_solution_is_immediate(self):
        res = construct_limit(Mode.EXPAND, monomial(1.0, 3), P3, ABS1, Grid(-5, 5, 11))
        assert res.achieved_n <= 4 and not res.saturated
        for v, x in zip(res.values, Grid(-5, 5, 11).points()):
            assert v == pytest.approx(x**3, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n_max", [0, 1024])
    def test_n_max_outside_float_powers_rejected(self, n_max):
        # 2.0**1024 overflows: the step count must stay in 1..1023
        with pytest.raises(ArgumentError, match="n_max must be in 1..1023"):
            construct_limit(Mode.EXPAND, monomial(1.0, 3), P3, ABS1,
                            Grid(-5, 5, 11), n_max=n_max)

    def test_contract_requires_doubling_constant(self):
        with pytest.raises(ContractViolation):
            construct_limit(Mode.CONTRACT, monomial(1.0, 3), P3,
                            ModularSpec.exp(), Grid(-1, 1, 5))

    def test_expand_works_without_doubling_constant(self):
        res = construct_limit(Mode.EXPAND, monomial(1.0, 3), P3,
                              ModularSpec.exp(), Grid(-1, 1, 5))
        assert not res.saturated

    def test_limit_function_matches_grid_values(self):
        phi = parse_expression("mono(1,3) + sine(0.1,1)")
        grid = Grid(-10, 10, 21)
        res = construct_limit(Mode.EXPAND, phi, P3, ABS1, grid)
        for v, x in zip(res.values, grid.points()):
            assert res.function(x) == pytest.approx(v, rel=1e-12, abs=1e-12)

    def test_divergent_iteration_saturates(self):
        # p > s growth: expand approximants grow like 2^(n(p/s - 1))
        phi = parse_expression("mono(1,3) + mono(0.004,6)")
        res = construct_limit(Mode.EXPAND, phi, P3, ABS1, Grid(-10, 10, 11), n_max=20)
        assert res.saturated

    def test_overflowing_iteration_freezes_points(self):
        # a degree-99 monomial overflows the rescaled argument quickly; the
        # run saturates with the last finite approximants kept per point
        phi = parse_expression("mono(1,99)")
        res = construct_limit(Mode.EXPAND, phi, P3, ABS1, Grid(-10, 10, 5), n_max=60)
        assert res.saturated
        assert all(math.isfinite(v) for v in res.values)

    def test_constructed_limit_satisfies_equation(self):
        phi = parse_expression("mono(1,3) + sine(0.1,1)")
        res = construct_limit(Mode.EXPAND, phi, P3, ABS1, Grid(-10, 10, 21))
        for (x, y, z) in seeded_triples(-10, 10, 60, seed=3):
            assert defect(P3, res.function, ABS1, x, y, z) <= 1e-6


class TestSeriesBounds:
    def test_contract_power_equals_three(self):
        sb = series_bound_contract(ControlFunction.power(1.0, 6.0), 2.0, 3, 1.0)
        assert sb.converged and sb.ratio == pytest.approx(0.5, rel=1e-12)
        assert sb.upper == pytest.approx(3.0, rel=1e-9)

    def test_contract_matches_brute_force(self):
        alpha = ControlFunction.power(0.7, 5.0)
        sb = series_bound_contract(alpha, 2.0, 3, 2.5)
        assert sb.converged
        assert sb.upper == pytest.approx(brute_contract_series(alpha, 2.0, 3, 2.5), rel=1e-9)

    def test_contract_zero_argument(self):
        sb = series_bound_contract(ControlFunction.power(1.0, 6.0), 2.0, 3, 0.0)
        assert sb.value == 0.0 and sb.upper == 0.0

    def test_contract_constant_control_diverges(self):
        sb = series_bound_contract(ControlFunction.constant(0.1), 2.0, 3, 1.0)
        assert not sb.converged
        assert sb.ratio == pytest.approx(2.0, rel=1e-12)
        assert math.isinf(sb.value)

    def test_contract_rejects_small_tau(self):
        with pytest.raises(ArgumentError):
            series_bound_contract(ControlFunction.power(1.0, 6.0), 1.5, 3, 1.0)

    def test_expand_constant_equals_eps(self):
        sb = series_bound_expand(ControlFunction.constant(0.1), 3, 123.0)
        assert sb.converged and sb.ratio == 0.5
        assert sb.upper == pytest.approx(0.1, rel=1e-9)

    def test_expand_power_value(self):
        # closed geometric sum: 0.01*(2 + 2^(1/3)) / (1 - 2^(-2/3))
        alpha = ControlFunction.power(0.02, 1.0)
        sb = series_bound_expand(alpha, 3, 1.0)
        expected = 0.01 * (2.0 + 2.0 ** (1 / 3)) / (1.0 - 2.0 ** (-2 / 3))
        assert sb.upper == pytest.approx(expected, rel=1e-9)
        assert sb.upper == pytest.approx(0.08810, abs=1e-5)
        assert sb.upper == pytest.approx(brute_expand_series(alpha, 3, 1.0), rel=1e-9)

    def test_expand_boundary_exponent_diverges(self):
        sb = series_bound_expand(ControlFunction.power(1.0, 3.0), 3, 1.0)
        assert not sb.converged and sb.ratio == pytest.approx(1.0, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(theta=st.floats(min_value=0.01, max_value=3.0),
           p=st.floats(min_value=0.0, max_value=2.5),
           x=st.floats(min_value=-8.0, max_value=8.0))
    @example(theta=1.0, p=0.015625, x=5e-324)
    def test_expand_brute_force_property(self, theta, p, x):
        alpha = ControlFunction.power(theta, p)
        sb = series_bound_expand(alpha, 3, x)
        assert sb.converged
        assert sb.upper == pytest.approx(brute_expand_series(alpha, 3, x, terms=1500),
                                         rel=1e-8, abs=1e-12)

    def test_monotone_truncation(self):
        # partial sums are nondecreasing in J; value+tail dominates them all
        alpha = ControlFunction.power(1.0, 6.0)
        sb = series_bound_contract(alpha, 2.0, 3, 1.0)
        running = 0.0
        for j in range(1, sb.terms_used + 50):
            a = control_eval(alpha, 1.0 / 2 ** (j / 3), 1.0 / 2 ** (j / 3),
                             -1.0 / 2 ** ((j - 1) / 3))
            term = 0.5 * 2.0**j * a
            assert term >= 0.0
            running += term
            assert running <= sb.upper * (1 + 1e-12)



class TestClosedFormSeries:
    XS = (0.0, 0.5, -0.5, 10.0, -10.0)
    TAU = 2.0

    def _reference(self, route, alpha, s, x, ratio):
        tau = self.TAU
        if route == "contract":
            def term_at(j):
                a = control_eval(alpha, x / 2.0 ** (j / s), x / 2.0 ** (j / s),
                                 -x / 2.0 ** ((j - 1) / s))
                return 0.5 * (tau * tau / 2.0) ** j * a
            return truncated_series_upper(term_at, 1, ratio)

        def term_at(j):
            a = control_eval(alpha, 2.0 ** (j / s) * x, 2.0 ** (j / s) * x,
                             -(2.0 ** ((j + 1) / s)) * x)
            return 0.5 * 2.0**-j * a
        return truncated_series_upper(term_at, 0, ratio)

    @pytest.mark.parametrize("route", ["contract", "expand"])
    @pytest.mark.parametrize("s", [3, 5])
    @pytest.mark.parametrize("p", [0.5, 2.9, 3.1, 6.0])
    def test_matches_truncated_sum(self, route, s, p):
        for alpha in (ControlFunction.power(0.5, p), ControlFunction.constant(0.1)):
            for x in self.XS:
                if route == "contract":
                    sb = series_bound_contract(alpha, self.TAU, s, x)
                else:
                    sb = series_bound_expand(alpha, s, x)
                ref = self._reference(route, alpha, s, x, sb.ratio)
                assert sb.converged == (sb.ratio < 1.0)
                assert math.isclose(sb.upper, ref, rel_tol=1e-12), (alpha, x, sb, ref)
                assert sb.terms_used == 1 and sb.tail_estimate == 0.0
                assert sb.value == sb.upper

    def test_expand_next_to_regime_edge_is_finite(self):
        # ratio 2**(2.9999/3)/2 = 1 - 2.3e-5: a truncated sum runs into
        # overflow or underflow of the individual terms long before its tail
        # is small, and returned inf (or, at tiny x, too small a sum).
        p = 2.9999
        alpha = ControlFunction.power(1.0, p)
        ratio = 2.0 ** (p / 3) / 2.0
        expected = 0.5 * (2.0 + 2.0 ** (p / 3)) / (1.0 - ratio)
        sb = series_bound_expand(alpha, 3, 1.0)
        assert sb.converged and sb.ratio == ratio
        assert sb.upper == pytest.approx(expected, rel=1e-12)
        small = series_bound_expand(alpha, 3, 1e-6)
        assert small.upper == pytest.approx(expected * 1e-6**p, rel=1e-12)


class TestRouteRatio:
    @pytest.mark.parametrize("p", [0.5, 2.9, 3.0, 3.1, 6.0])
    @pytest.mark.parametrize("s", [3, 5])
    @pytest.mark.parametrize("tau", [2.0, 4.0])
    def test_power_control(self, p, s, tau):
        alpha = ControlFunction.power(0.7, p)
        contract = route_ratio(Mode.CONTRACT, alpha, s, tau)
        assert contract == pytest.approx(tau**2 / 2 * 2 ** (-p / s), rel=1e-15)
        assert route_ratio(Mode.EXPAND, alpha, s) == pytest.approx(2 ** (p / s) / 2, rel=1e-15)
        # the series carry the same number, bit for bit
        assert series_bound_contract(alpha, tau, s, 1.5).ratio == contract
        assert series_bound_expand(alpha, s, 1.5).ratio == route_ratio(Mode.EXPAND, alpha, s)

    @pytest.mark.parametrize("tau", [2.0, 2.5, 4.0])
    def test_constant_control(self, tau):
        alpha = ControlFunction.constant(0.3)
        assert route_ratio(Mode.CONTRACT, alpha, 3, tau) == tau * tau / 2
        assert route_ratio(Mode.EXPAND, alpha, 3) == 0.5
        assert route_ratio(Mode.EXPAND, alpha, 3, tau) == 0.5  # tau plays no part

    def test_contract_needs_tau(self):
        with pytest.raises(ArgumentError):
            route_ratio(Mode.CONTRACT, ControlFunction.constant(0.1), 3)


class TestClosedFormBound:
    def test_reference_point(self):
        # (2+4)*4 / (2*(8-4)) = 3
        assert contract_bound_closed_form(1.0, 6.0, 3, 2.0, 1.0) == pytest.approx(3.0, rel=1e-12)

    def test_zero_argument(self):
        assert contract_bound_closed_form(1.0, 6.0, 3, 2.0, 0.0) == 0.0

    def test_theta_scaling(self):
        # 0.004 * 3 * 2^6 = 0.768
        got = contract_bound_closed_form(0.004, 6.0, 3, 2.0, 2.0)
        assert got == pytest.approx(0.768, rel=1e-12)

    def test_regime_error_below_threshold(self):
        # the contract ratio (tau^2/2)*2^(-p/s) is exactly 1 at p = s = 3, tau = 2
        assert route_ratio(Mode.CONTRACT, ControlFunction.power(1.0, 3.0), 3, 2.0) == 1.0
        with pytest.raises(RegimeError):
            contract_bound_closed_form(1.0, 3.0, 3, 2.0, 1.0)
        with pytest.raises(RegimeError):
            contract_bound_closed_form(1.0, 2.0, 3, 2.0, 1.0)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("p", [6.5, 7.0, 8.0])
    @pytest.mark.parametrize("s", [3, 5])
    @pytest.mark.parametrize("x", [0.5, 1.0, 3.0])
    def test_matches_series_across_sweep(self, theta, p, s, x):
        tau = 2.0
        series = series_bound_contract(ControlFunction.power(theta, p), tau, s, x)
        closed = contract_bound_closed_form(theta, p, s, tau, x)
        assert series.upper == pytest.approx(closed, rel=1e-9)


class TestBoundValidity:
    def test_contract_bound_dominates_reconstruction_error(self):
        phi = parse_expression("mono(1,3) + mono(0.004,6)")
        alpha = ControlFunction.power(0.016, 6.0)  # defect <= 4*theta*(sum |.|^6)
        grid = Grid(-10, 10, 41)
        res = construct_limit(Mode.CONTRACT, phi, P3, ABS1, grid)
        for x, v in zip(grid.points(), res.values):
            bound = series_bound_contract(alpha, 2.0, 3, x).upper
            assert abs(phi(x) - v) <= bound + 1e-9

    def test_expand_bound_dominates_reconstruction_error(self):
        phi = parse_expression("mono(1,3) + sine(0.1,1)")
        alpha = ControlFunction.constant(0.4)  # defect <= 0.4 everywhere
        grid = Grid(-10, 10, 41)
        res = construct_limit(Mode.EXPAND, phi, P3, ABS1, grid)
        for x, v in zip(grid.points(), res.values):
            bound = series_bound_expand(alpha, 3, x).upper
            assert abs(phi(x) - v) <= bound + 1e-9
