"""Scaling-operator contraction, induced modular distance, and iteration."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from modstab import (
    ArgumentError,
    ContractViolation,
    ControlFunction,
    DefectHypothesisError,
    EquationParams,
    FunctionHandle,
    Grid,
    IterateTable,
    ModularSpec,
    Mode,
    RegimeError,
    audit_defect_hypothesis,
    audit_ratios,
    construct_limit,
    corner_triples,
    estimate_contraction,
    fixed_point_solve,
    limit_function,
    monomial,
    parse_expression,
    route_line,
    route_ratio,
    seeded_triples,
    series_bound_expand,
    standard_ladder,
    verify_stability_bound,
)
from modstab.iterates import MAX_N
from modstab.sampling import function_sample_points

ABS1 = ModularSpec.power(1)
P3 = EquationParams(3, 1.0)
SAMPLES = standard_ladder(-3, 3) + [-x for x in standard_ladder(-3, 3)]


def solve(phi, rho, alpha, grid, **kwargs):
    """``fixed_point_solve`` audited on 500 seeded triples plus the box corners."""
    triples = seeded_triples(grid.lo, grid.hi, 500, 0) + corner_triples(grid.lo, grid.hi)
    audit = audit_defect_hypothesis(phi, P3, rho, alpha, triples)
    return fixed_point_solve(phi, P3, rho, alpha, grid, audit=audit, **kwargs)


def field_bits(result):
    """Every field of a result but its function handle, numbers as raw IEEE bits."""
    return {f.name: np.array(getattr(result, f.name), dtype=float).view(np.uint64).tolist()
            for f in dataclasses.fields(result) if f.name != "function"}


class TestLambdaApply:
    """One application of ``Lam(g)(x) = g(2**(1/s) * x) / 2``, built as
    ``fixed_point_solve`` builds its final iterate: the expand
    ``limit_function`` at step 1 and offset 0."""

    @staticmethod
    def lam(g, s):
        return limit_function(Mode.EXPAND, g, EquationParams(s, 1.0), 1, 0.0)

    @pytest.mark.parametrize("s", [3, 5, 7])
    @pytest.mark.parametrize("c", [-2.0, 1.0, 5.0])
    def test_exact_solutions_are_fixed_points(self, s, c):
        g = monomial(c, s)
        for x in (0.5, 1.0, 5.0, -3.25):
            assert self.lam(g, s)(x) == pytest.approx(g(x), rel=1e-14)

    def test_constant_halves(self):
        assert self.lam(monomial(4.0, 0), 3)(17.0) == 2.0

    def test_identity_map_value(self):
        # g(x) = x: (2^(1/3) * 1) / 2 = 2^(-2/3)
        got = self.lam(monomial(1.0, 1), 3)(1.0)
        assert got == pytest.approx(2.0 ** (-2 / 3), rel=1e-14)
        assert got == pytest.approx(0.62996, abs=1e-5)


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

    def test_samples_as_an_array_or_a_list(self):
        alpha = ControlFunction.power(0.05, 1.0)
        cert = estimate_contraction(alpha, 3, np.array(SAMPLES))
        assert field_bits(cert) == field_bits(estimate_contraction(alpha, 3, SAMPLES))
        assert type(cert.worst_sample) is float and type(cert.samples_checked) is int
        with pytest.raises(ArgumentError, match="nonempty"):
            estimate_contraction(alpha, 3, np.array([]))

    def test_a_callers_line_is_used_or_refused(self):
        alpha = ControlFunction.power(0.05, 1.0)
        line = route_line(Mode.EXPAND, alpha, 3, np.array(SAMPLES))
        given_line = estimate_contraction(alpha, 3, SAMPLES, line=line)
        assert field_bits(given_line) == field_bits(estimate_contraction(alpha, 3, SAMPLES))
        with pytest.raises(ArgumentError, match=r"^line has shape \(\d+,\), the samples"):
            estimate_contraction(alpha, 3, SAMPLES, line=line[1:])


def rho_hat_distance(f, g, alpha, s, samples):
    """The reference estimate of ``rho_hat(f - g)`` for two expression trees.

    The sampled supremum of ``|f(x) - g(x)| / alpha(x, x, -2**(1/s) x)``.
    """
    return ref.rho_hat_distance([ref.value(f, x) for x in samples],
                                [ref.value(g, x) for x in samples],
                                [ref.alpha_line(alpha, s, x) for x in samples], ABS1)


class TestRhoHatDistance:
    def test_zero_for_equal_functions(self):
        f = ref.parse("mono(1,3) + sine(0.2,1)")
        alpha = ControlFunction.power(0.02, 1.0)
        assert rho_hat_distance(f, f, alpha, 3, SAMPLES) == 0.0

    def test_linear_perturbation_ratio(self):
        # |0.01x| / (0.02*(2+2^(1/3))*|x|) is constant in x
        f = ref.parse("mono(1,3) + mono(0.01,1)")
        g = ref.Mono(1.0, 3)
        alpha = ControlFunction.power(0.02, 1.0)
        got = rho_hat_distance(f, g, alpha, 3, SAMPLES)
        expected = 0.01 / (0.02 * (2.0 + 2.0 ** (1 / 3)))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.15337, abs=1e-5)

    def test_sine_against_constant_control(self):
        # sup |0.1 sin x| / 0.1 is ~1 when a near-peak sample is included
        f = ref.parse("mono(1,3) + sine(0.1,1)")
        g = ref.Mono(1.0, 3)
        alpha = ControlFunction.constant(0.1)
        samples = SAMPLES + [math.pi / 2]
        got = rho_hat_distance(f, g, alpha, 3, samples)
        assert got == pytest.approx(1.0, abs=1e-6)

    def test_all_zero_denominators_error(self):
        alpha = ControlFunction.power(1.0, 2.0)
        with pytest.raises(ValueError):
            rho_hat_distance(ref.Mono(1.0, 3), ref.Mono(1.0, 3), alpha, 3, [0.0])


class TestStrictContraction:
    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(min_value=-0.05, max_value=0.05),
           b=st.floats(min_value=-0.05, max_value=0.05))
    def test_operator_contracts_pairs(self, a, b):
        # rho_hat(Lam f - Lam g) <= L * rho_hat(f - g) + 1e-9 for convex rho
        s = 3
        alpha = ControlFunction.power(0.02, 1.0)
        cert = estimate_contraction(alpha, s, SAMPLES)
        f = ref.parse(f"mono(1,3) + mono({a!r},1)")
        g = ref.parse(f"mono(1,3) + mono({b!r},1)")
        lf = ref.scaled(f, 0.5, 2.0 ** (1 / s))
        lg = ref.scaled(g, 0.5, 2.0 ** (1 / s))
        lhs = rho_hat_distance(lf, lg, alpha, s, SAMPLES)
        rhs = cert.l_hat * rho_hat_distance(f, g, alpha, s, SAMPLES)
        assert lhs <= rhs + 1e-9


class TestFixedPointSolve:
    def test_linear_perturbation_scenario(self):
        phi = parse_expression("mono(1,3) + mono(0.01,1)")
        alpha = ControlFunction.power(0.02, 1.0)
        grid = Grid(-10, 10, 41)
        res = solve(phi, ABS1, alpha, grid)
        assert not res.saturated
        worst = max(abs(v - x**3) for v, x in zip(res.values, grid.points()))
        assert worst <= 1e-6
        assert verify_stability_bound(phi, res.function, ABS1, list(res.bound), grid).passed
        # geometric decay of successive gaps at factor l_hat (absolute slack
        # absorbs the cancellation noise of the iterate differences)
        for g0, g1 in zip(res.gap_history, res.gap_history[1:]):
            assert g1 <= res.l_hat * g0 + 1e-9

    def test_exact_solution_converges_immediately(self):
        res = solve(monomial(1.0, 3), ABS1, ControlFunction.constant(0.1), Grid(-5, 5, 11))
        assert res.iterations == 1
        assert res.rho_hat_gap <= 1e-12  # ulp-scale scaling residue only
        for v, x in zip(res.values, Grid(-5, 5, 11).points()):
            assert v == pytest.approx(x**3, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n_max", [0, 1024])
    def test_n_max_outside_float_powers_rejected(self, n_max):
        # 2.0**1024 overflows: the step count must stay in 1..1023
        with pytest.raises(ArgumentError, match="n_max must be in 1..1023"):
            solve(monomial(1.0, 3), ABS1, ControlFunction.constant(0.1), Grid(-5, 5, 11),
                  n_max=n_max)

    def test_invalid_certificate_is_regime_error(self):
        phi = parse_expression("mono(1,3) + envnoise(0.004,6,7)")
        alpha = ControlFunction.power(0.016, 6.0)
        with pytest.raises(RegimeError):
            solve(phi, ABS1, alpha, Grid(-10, 10, 11))

    def test_boundary_exponent_is_regime_error(self):
        # L = 2^(p/s)/2 is exactly 1 at p = s: no contraction
        alpha = ControlFunction.power(0.01, 3.0)
        assert route_ratio(Mode.EXPAND, alpha, 3) == 1.0
        with pytest.raises(RegimeError) as err:
            solve(parse_expression("mono(1,3) + envnoise(0.001,3,5)"), ABS1, alpha,
                  Grid(-10, 10, 11))
        assert str(err.value) == "contraction factor 1 >= 1: fixed-point route inapplicable"
        assert err.value.diagnostics == {"l_hat": 1.0}

    def test_non_finite_bound_is_refused_before_phi_is_evaluated(self):
        # theta = 1e307 overflows the control at |x| = 10, so the bound there
        # is inf although L < 1: the route certifies nothing, and must not
        # iterate to find that out.
        base = parse_expression("mono(0,3)")
        evaluated = []

        def expr(xs, raised):
            evaluated.extend(xs.tolist())
            return base.expr(xs, raised)

        alpha = ControlFunction.power(1e307, 2.0)
        with pytest.raises(RegimeError) as err:
            fixed_point_solve(FunctionHandle(expr, base.description), P3, ABS1, alpha,
                              Grid(-10, 10, 5), audit={"hypothesis_ok": True})
        assert err.value.diagnostics == {"l_hat": route_ratio(Mode.EXPAND, alpha, 3)}
        assert evaluated == []

    @pytest.mark.parametrize("expr, alpha", [
        ("mono(1,3) + mono(0.01,1)", ControlFunction.power(0.02, 1.0)),
        ("mono(1,3) + sine(0.01,1)", ControlFunction.constant(0.1)),
    ])
    def test_closed_form_factor_and_expand_bounds(self, expr, alpha):
        phi = parse_expression(expr)
        grid = Grid(-10, 10, 21)
        res = solve(phi, ABS1, alpha, grid)
        assert res.l_hat == route_ratio(Mode.EXPAND, alpha, 3)
        assert list(res.bound) == [series_bound_expand(alpha, 3, x).upper
                                   for x in grid.points()]

    def test_a_callers_line_is_used_or_refused(self):
        phi = parse_expression("mono(1,3) + mono(0.01,1)")
        alpha = ControlFunction.power(0.02, 1.0)
        grid = Grid(-10, 10, 41)
        line = route_line(Mode.EXPAND, alpha, 3, np.array(function_sample_points(grid)))
        given_line, computed = solve(phi, ABS1, alpha, grid, line=line), solve(phi, ABS1, alpha, grid)
        assert field_bits(given_line) == field_bits(computed)
        xs = grid.point_array
        assert np.array_equal(given_line.function.many(xs).view(np.uint64),
                              computed.function.many(xs).view(np.uint64))
        with pytest.raises(ArgumentError, match=r"^line has shape \(\d+,\), the samples"):
            solve(phi, ABS1, alpha, grid, line=line[:-1])

    def test_unverified_defect_hypothesis_raises(self):
        # sine defect reaches ~0.4 but the control allows only 0.05
        phi = parse_expression("mono(1,3) + sine(0.1,1)")
        alpha = ControlFunction.constant(0.05)
        with pytest.raises(DefectHypothesisError) as err:
            solve(phi, ABS1, alpha, Grid(-10, 10, 11))
        assert err.value.worst_triple is not None
        assert err.value.ratio > 1.0

    def test_requires_doubling_constant(self):
        with pytest.raises(ContractViolation):
            solve(monomial(1.0, 3), ModularSpec.exp(), ControlFunction.constant(0.1),
                  Grid(-5, 5, 11))

    def test_bound_dominates_final_error(self):
        phi = parse_expression("mono(1,3) + mono(0.01,1)")
        alpha = ControlFunction.power(0.02, 1.0)
        grid = Grid(-10, 10, 41)
        res = solve(phi, ABS1, alpha, grid)
        # bound(x) = alpha(x, x, -2^(1/3)x) / (2*(1-L))
        coeff = 0.02 * (2.0 + 2.0 ** (1 / 3)) / (2.0 * (1.0 - 2.0 ** (-2 / 3)))
        for x, b in zip(grid.points(), res.bound):
            assert b == pytest.approx(coeff * abs(x), rel=1e-12, abs=1e-15)
            assert abs(0.01 * x) <= b + 1e-12

    def test_quasi_contraction_diagnostic_below_one(self):
        phi = parse_expression("mono(1,3) + mono(0.01,1)")
        res = solve(phi, ABS1, ControlFunction.power(0.02, 1.0), Grid(-10, 10, 21))
        assert res.quasi_contraction
        assert max(res.quasi_contraction) < 1.0
        assert res.delta_hat_window < math.inf

    def test_memory_does_not_grow_with_the_step_count(self):
        # A walk that saturates at the step cap holds three sampled iterates,
        # not all of them: with every table row already filled, the peak at
        # n_max = 1023 stays near the one at 60.
        phi = parse_expression("mono(1,3) + envnoise(0.01,0.5,11)")
        alpha = ControlFunction.power(0.5, 0.5)
        grid = Grid(-10, 10, 2001)
        table = IterateTable(phi, 3, grid)
        for n in range(MAX_N + 1):
            table.row(n)
        audit = {"hypothesis_ok": True}
        peaks = {}
        for n_max in (60, MAX_N):
            tracemalloc.start()
            try:
                res = fixed_point_solve(phi, P3, ABS1, alpha, grid, tol=1e-300, n_max=n_max,
                                        audit=audit, table=table)
                peaks[n_max] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert res.saturated and res.iterations == n_max
        assert peaks[MAX_N] < 2 * peaks[60]

    def test_agrees_with_expand_route(self):
        # the fixed-point iterates are the expand approximants when phi(0) = 0
        phi = parse_expression("mono(1,3) + mono(0.01,1)")
        alpha = ControlFunction.power(0.02, 1.0)
        grid = Grid(-10, 10, 41)
        fp = solve(phi, ABS1, alpha, grid)
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

    def test_triples_as_an_array_or_a_list(self):
        phi = parse_expression("mono(1,3) + sine(0.5,1)")
        alpha = ControlFunction.constant(0.1)
        as_list = audit_defect_hypothesis(phi, P3, ABS1, alpha, self.TRIPLES)
        as_array = audit_defect_hypothesis(phi, P3, ABS1, alpha, np.array(self.TRIPLES))
        assert as_array == as_list and as_list["worst_triple"] == self.TRIPLES[2]
        assert all(type(v) is float for v in as_array["worst_triple"])

    def test_an_empty_triple_set_is_refused(self):
        # Not an IndexError: there is no first triple to report.
        with pytest.raises(ArgumentError, match="at least one triple"):
            audit_ratios([], np.array([]), [])
        with pytest.raises(ArgumentError, match="at least one triple"):
            audit_defect_hypothesis(monomial(1.0, 3), P3, ABS1, ControlFunction.constant(0.1),
                                    [])

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
