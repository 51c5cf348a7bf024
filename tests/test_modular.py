"""Modular functional evaluation and axiom certification."""

import math

import numpy as np
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
from modstab.modular import first_max

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


# (tau_hat, diverged) per modular spec and sample list.
DELTA2_PINS = [
    ("power:p=2", [1, 2, -1], (4.0, False)),
    ("exp", [1, 2, -1], (8.38905609893065, False)),
    ("power:p=2", [-1e+308, 0.5, 3, math.inf], (math.inf, True)),
    ("power:p=1", [3, -0.25, 1e+200, math.nan], (math.inf, True)),
    ("power:p=3", [-2, 0.5, 1e-120], (math.inf, False)),
    ("exp", [-0.5, 0.25, 800.0], (math.inf, True)),
]


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

    @pytest.mark.parametrize("spec, samples, expected", DELTA2_PINS)
    def test_estimate_is_pinned(self, spec, samples, expected):
        # An underflowed or overflowed ratio counts as inf, and divergence
        # compares the ratios at the smallest and largest magnitude.
        assert repr(estimate_delta2(parse_modular(spec), samples)) == repr(expected)

    def test_empty_samples_rejected(self):
        with pytest.raises(ArgumentError):
            estimate_delta2(ModularSpec.power(2), [])

    def test_zero_sample_rejected(self):
        with pytest.raises(ArgumentError):
            estimate_delta2(ModularSpec.power(2), [1.0, 0.0])


# (name, passed, worst_sample, worst_value) per axiom.  The worst sample is
# the caller's own object, ties go to the first sample in visiting order,
# a nan excess is passed over, and where no excess is above the start value
# the first sample stands in.
AXIOM_PINS = [
    ("power:p=1", [1, 2, -1], [
        ("zero_at_zero", True, 0.0, 0.0),
        ("positive_off_zero", True, 1, 1.0),
        ("sign_symmetry", True, 1, 0.0),
        ("convex_combination", True, (1, 1, 0.0), 0.0),
        ("scaling_monotonicity", True, (1, (0.25, 0.5)), -0.25),
        ("doubling_bound", True, 1, 0.0),
    ]),
    ("power:p=2", [1, 2, -1], [
        ("zero_at_zero", True, 0.0, 0.0),
        ("positive_off_zero", True, 1, 1.0),
        ("sign_symmetry", True, 1, 0.0),
        ("convex_combination", True, (1, 1, 0.0), 0.0),
        ("scaling_monotonicity", True, (1, (0.25, 0.5)), -0.1875),
        ("doubling_bound", True, 1, 0.0),
    ]),
    ("power:p=100", [1, 2, -1], [
        ("zero_at_zero", True, 0.0, 0.0),
        ("positive_off_zero", True, 1, 1.0),
        ("sign_symmetry", True, 1, 0.0),
        ("convex_combination", True, (1, 1, 0.0), 0.0),
        ("scaling_monotonicity", True, (1, (0.25, 0.5)), -7.888609052210118e-31),
        ("doubling_bound", True, 1, 0.0),
    ]),
    ("exp", [1, 2, -1], [
        ("zero_at_zero", True, 0.0, 0.0),
        ("positive_off_zero", True, 1, 1.718281828459045),
        ("sign_symmetry", True, 1, 0.0),
        ("convex_combination", True, (1, 1, 0.0), 0.0),
        ("scaling_monotonicity", True, (1, (0.25, 0.5)), -0.3646958540123867),
    ]),
    ("power:p=2.5", [0.1, 0.7, -0.3, 1.3, -2.9], [
        ("zero_at_zero", True, 0.0, 0.0),
        ("positive_off_zero", True, 0.1, 0.00316227766016838),
        ("sign_symmetry", True, 0.1, 0.0),
        ("convex_combination", True, (0.1, 0.1, 0.0), 0.0),
        ("scaling_monotonicity", True, (0.1, (0.25, 0.5)), -0.0004601958174946856),
        ("doubling_bound", True, -0.3, 0.0),
    ]),
    ("power:p=2", [3, -0.25, 2, 0.5], [
        ("zero_at_zero", True, 0.0, 0.0),
        ("positive_off_zero", True, -0.25, 0.0625),
        ("sign_symmetry", True, 3, 0.0),
        ("convex_combination", True, (3, 3, 0.0), 0.0),
        ("scaling_monotonicity", True, (-0.25, (0.25, 0.5)), -0.01171875),
        ("doubling_bound", True, 3, 0.0),
    ]),
    ("power:p=2", [math.nan], [
        ("zero_at_zero", True, 0.0, 0.0),
        ("positive_off_zero", True, math.nan, math.inf),
        ("sign_symmetry", True, math.nan, 0.0),
        ("convex_combination", True, (math.nan, math.nan, 0.5), -math.inf),
        ("scaling_monotonicity", True, (math.nan, (0.25, 0.5)), -math.inf),
        ("doubling_bound", True, math.nan, -math.inf),
    ]),
    ("exp", [math.nan, 1.0], [
        ("zero_at_zero", True, 0.0, 0.0),
        ("positive_off_zero", True, 1.0, 1.718281828459045),
        ("sign_symmetry", True, math.nan, 0.0),
        ("convex_combination", True, (1.0, 1.0, 0.0), 0.0),
        ("scaling_monotonicity", True, (1.0, (0.25, 0.5)), -0.3646958540123867),
    ]),
    # The doubling excess at 12345.6 passes only on its tolerance scaled by rho(2u).
    ("power:p=3.3", [1000.1, 12345.6, -98765.4, 3.3, 0.7], [
        ("zero_at_zero", True, 0.0, 0.0),
        ("positive_off_zero", True, 0.7, 0.3081935405341894),
        ("sign_symmetry", True, 1000.1, 0.0),
        ("convex_combination", True, (1000.1, 1000.1, 0.0), 0.0),
        ("scaling_monotonicity", True, (0.7, (0.25, 0.5)), -0.028114306677051237),
        ("doubling_bound", True, 12345.6, 0.0625),
    ]),
    ("power:p=2", [-0.0, 3, 1e+308, -1e+308], [
        ("zero_at_zero", True, 0.0, 0.0),
        ("positive_off_zero", True, 3, 9.0),
        ("sign_symmetry", True, -0.0, 0.0),
        ("convex_combination", True, (-0.0, -0.0, 0.0), 0.0),
        ("scaling_monotonicity", True, (-0.0, (0.25, 0.5)), 0.0),
        ("doubling_bound", True, -0.0, 0.0),
    ]),
]


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

    @pytest.mark.parametrize("spec, samples, expected", AXIOM_PINS)
    def test_worst_samples_are_pinned(self, spec, samples, expected):
        # repr tells an int sample from a float one and -0.0 from 0.0.
        report = check_modular_axioms(parse_modular(spec), samples)
        got = [(e.name, e.passed, e.worst_sample, e.worst_value) for e in report.entries]
        assert repr(got) == repr(expected)

    def test_empty_samples_rejected(self):
        # Zero is no sample for positivity off zero, whatever its sign.
        for samples in ([], [0.0], [-0.0]):
            with pytest.raises(ArgumentError):
                check_modular_axioms(ModularSpec.power(2), samples)


class TestFirstMax:
    def test_ties_go_to_the_first_index(self):
        k, value = first_max(np.array([1.0, 3.0, 2.0, 3.0]), -math.inf)
        assert (k, value) == (1, 3.0)
        assert type(k) is int and type(value) is float

    def test_nan_is_passed_over(self):
        assert first_max(np.array([math.nan, 2.0, math.nan, 1.0]), -math.inf) == (1, 2.0)
        assert first_max(np.array([1.0, math.nan, 4.0]), 0.0) == (2, 4.0)

    def test_nothing_above_start_gives_start(self):
        # A value equal to the start is not above it.
        assert first_max(np.array([0.5, math.nan, -1.0]), 0.5) == (None, 0.5)
        assert first_max(np.array([-math.inf, math.nan]), -math.inf) == (None, -math.inf)
        assert first_max(np.array([]), 0.0) == (None, 0.0)

    def test_raveled_2d_array(self):
        values = np.array([[0.0, 2.0, math.nan], [2.0, 5.0, 5.0]])
        k, value = first_max(values.ravel(), -math.inf)
        assert (k, value) == (4, 5.0)
        assert np.unravel_index(k, values.shape) == (1, 1)

    @given(values=st.lists(st.one_of(st.floats(allow_nan=True), st.just(math.nan)), max_size=8),
           start=st.sampled_from([-math.inf, -1.0, 0.0]))
    def test_matches_a_running_maximum(self, values, start):
        k, worst = None, start
        for i, v in enumerate(values):
            if v > worst:
                k, worst = i, v
        assert repr(first_max(np.array(values, dtype=float), start)) == repr((k, worst))

    def test_every_check_module_uses_the_one_definition(self):
        from modstab import fixedpoint, modular, verify
        assert verify.first_max is modular.first_max is fixedpoint.first_max


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
