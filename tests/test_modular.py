"""Modular functional evaluation and axiom certification."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from modstab import (
    ArgumentError,
    ModularSpec,
    check_modular_axioms,
    estimate_delta2,
    parse_modular,
    rho_eval,
    standard_ladder,
)

finite_reals = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
nonzero_reals = finite_reals.filter(lambda v: abs(v) > 1e-6)


class TestRhoEval:
    def test_power_square(self):
        assert rho_eval(ModularSpec.power(2), 3.0) == 9.0

    def test_zero_at_zero(self):
        assert rho_eval(ModularSpec.power(1), 0.0) == 0.0

    def test_exp_at_one(self):
        # direct arithmetic: e^1 - 1
        assert rho_eval(ModularSpec.exp(), 1.0) == pytest.approx(math.e - 1.0, rel=1e-15)

    @pytest.mark.parametrize("spec", [ModularSpec.power(2), ModularSpec.exp()])
    def test_overflow_is_inf(self, spec):
        assert rho_eval(spec, -1e200) == math.inf

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_input_rejected(self, bad):
        assert rho_eval(ModularSpec.power(2), bad) == math.inf

    @given(c=finite_reals, u=finite_reals, p=st.floats(min_value=1.0, max_value=4.0))
    def test_power_homogeneity(self, c, u, p):
        spec = ModularSpec.power(p)
        lhs = rho_eval(spec, c * u)
        rhs = abs(c) ** p * rho_eval(spec, u)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-30)

    @given(u=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
           a=st.floats(min_value=-1.0, max_value=1.0))
    def test_convex_scalar_contraction(self, u, a):
        # rho(a*u) <= |a|*rho(u) for |a| <= 1 on convex modulars
        for spec in (ModularSpec.power(1), ModularSpec.power(2), ModularSpec.exp()):
            r = rho_eval(spec, u)
            assert rho_eval(spec, a * u) <= abs(a) * r + 1e-12 * (1.0 + r)


class TestEstimateDelta2:
    def test_power_one(self):
        tau, diverged = estimate_delta2(ModularSpec.power(1), [1.0, 2.0, 5.0])
        assert tau == pytest.approx(2.0, rel=1e-14)
        assert not diverged

    def test_power_cubed(self):
        # ratio |2u|^3/|u|^3 = 8 at every sample
        tau, diverged = estimate_delta2(ModularSpec.power(3), [0.5, 1.0, 4.0])
        assert tau == pytest.approx(8.0, rel=1e-12)
        assert not diverged

    @given(p=st.floats(min_value=1.0, max_value=6.0))
    def test_power_matches_2_to_p_on_ladder(self, p):
        tau, diverged = estimate_delta2(ModularSpec.power(p), standard_ladder())
        assert tau == pytest.approx(2.0**p, rel=1e-9)
        assert not diverged

    def test_exp_diverges(self):
        # ratio (e^{2u}-1)/(e^u-1) = e^u + 1 grows with u
        tau, diverged = estimate_delta2(ModularSpec.exp(), [float(k) for k in range(1, 11)])
        assert diverged
        assert tau == pytest.approx(math.exp(20.0) - 1.0, rel=1e-9) or tau > 1e4

    def test_exp_diverges_on_standard_ladder(self):
        _, diverged = estimate_delta2(ModularSpec.exp(), standard_ladder())
        assert diverged

    def test_empty_samples_rejected(self):
        with pytest.raises(ArgumentError):
            estimate_delta2(ModularSpec.power(2), [])

    def test_zero_sample_rejected(self):
        with pytest.raises(ArgumentError):
            estimate_delta2(ModularSpec.power(2), [1.0, 0.0])


class TestAxioms:
    @pytest.mark.parametrize("spec", [ModularSpec.power(1), ModularSpec.power(2),
                                      ModularSpec.power(3), ModularSpec.exp()])
    def test_builtin_kinds_pass(self, spec):
        report = check_modular_axioms(spec, standard_ladder())
        assert report.all_passed, [e for e in report.entries if not e.passed]

    def test_doubling_entry_absent_without_tau(self):
        report = check_modular_axioms(ModularSpec.exp(), [1.0, -1.0, 2.0, -2.0])
        names = [e.name for e in report.entries]
        assert "doubling_bound" not in names
        assert report.all_passed

    def test_doubling_entry_present_for_power(self):
        report = check_modular_axioms(ModularSpec.power(2), standard_ladder())
        assert "doubling_bound" in [e.name for e in report.entries]

    def test_convexity_midpoint_case(self):
        # rho = |.|: rho(0.5*1 + 0.5*(-1)) = 0 <= 1
        report = check_modular_axioms(ModularSpec.power(1), [1.0, -1.0])
        conv = next(e for e in report.entries if e.name == "convex_combination")
        assert conv.passed

    def test_empty_samples_rejected(self):
        with pytest.raises(ArgumentError):
            check_modular_axioms(ModularSpec.power(2), [])


class TestSpecValidation:
    def test_power_below_one_rejected(self):
        with pytest.raises(ArgumentError):
            ModularSpec.power(0.5)

    def test_convex_tau_below_two_rejected(self):
        with pytest.raises(ArgumentError):
            ModularSpec(kind="power", p=2.0, delta2_tau=1.5)

    def test_parse_power(self):
        spec = parse_modular("power:p=2")
        assert spec.kind == "power" and spec.p == 2.0
        assert spec.delta2_tau == 4.0

    def test_parse_exp(self):
        spec = parse_modular("exp")
        assert spec.kind == "exp" and spec.delta2_tau is None

    @pytest.mark.parametrize("bad", ["power", "power:q=2", "power:p=abc", "gauss", ""])
    def test_parse_rejects_malformed(self, bad):
        from modstab import ConfigError
        with pytest.raises(ConfigError):
            parse_modular(bad)

    def test_spec_string_round_trip(self):
        for text in ("power:p=2", "power:p=1.5", "exp"):
            assert parse_modular(text).spec_string() == text
