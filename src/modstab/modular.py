"""Modular functionals on the real line and numeric certification of their axioms.

A modular is a nonnegative functional ``rho`` that vanishes only at zero, is
symmetric under sign flips, and respects convex combinations.  Two built-in
kinds cover the behaviours the stability constructions need:

* ``power``  -- ``rho(u) = |u|**p`` with ``p >= 1``; convex, doubling
  constant ``tau = 2**p``.
* ``exp``    -- ``rho(u) = exp(|u|) - 1``; convex and continuous but with no
  finite doubling constant (the ratio ``rho(2u)/rho(u)`` grows without bound).

Axioms are certified numerically on finite sample sets; nothing here proves
anything symbolically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, ConfigError

__all__ = [
    "ModularSpec",
    "rho_eval",
    "rho_eval_array",
    "estimate_delta2",
    "check_modular_axioms",
    "AxiomCheck",
    "AxiomReport",
    "parse_modular",
]


@dataclass(frozen=True)
class ModularSpec:
    """A modular functional plus the metadata the constructions consult.

    ``delta2_tau`` is the doubling constant ``tau`` with
    ``rho(2u) <= tau * rho(u)``, or ``None`` when no finite constant exists.
    For a convex modular a finite ``tau`` is necessarily ``>= 2``.
    """

    kind: str
    p: float | None = None
    delta2_tau: float | None = None

    def __post_init__(self):
        if self.kind not in ("power", "exp"):
            raise ArgumentError(f"unknown modular kind {self.kind!r}")
        if self.kind == "power":
            if self.p is None or not math.isfinite(self.p) or self.p < 1.0:
                raise ArgumentError(f"power modular needs exponent p >= 1, got {self.p}")
            if self.delta2_tau == math.inf:
                raise ArgumentError(
                    f"power modular exponent p={self.p:g} is too large: "
                    "its doubling constant 2**p overflows a float"
                )
        if self.delta2_tau is not None and self.delta2_tau < 2.0:
            raise ArgumentError(
                f"a convex modular cannot have doubling constant {self.delta2_tau} < 2"
            )

    @classmethod
    def power(cls, p: float) -> "ModularSpec":
        """``rho(u) = |u|**p``; carries its exact doubling constant ``2**p``."""
        return cls(kind="power", p=float(p), delta2_tau=pow_or_inf(2.0, float(p)))

    @classmethod
    def exp(cls) -> "ModularSpec":
        """``rho(u) = exp(|u|) - 1``; no finite doubling constant."""
        return cls(kind="exp", p=None, delta2_tau=None)

    def spec_string(self) -> str:
        if self.kind == "power":
            return f"power:p={self.p:g}"
        return "exp"


def pow_or_inf(base: float, exponent: float) -> float:
    """``base ** exponent``, or ``inf`` where the float power overflows."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def rho_eval(spec: ModularSpec, u: float) -> float:
    """Evaluate the modular at ``u``.

    Total: a non-finite ``u`` (an overflowed or undefined residual) and a
    value too large for a float (``exp`` kind, or ``power`` with ``p > 1``)
    both give ``inf``, the rule ``rho_eval_array`` applies too; callers that
    probe the doubling ratio treat that as divergence evidence.
    """
    u = float(u)
    if not math.isfinite(u):
        return math.inf
    try:
        if spec.kind == "power":
            return abs(u) ** spec.p
        return math.expm1(abs(u))
    except OverflowError:
        return math.inf


def rho_eval_array(spec: ModularSpec, u: np.ndarray) -> np.ndarray:
    """``rho_eval`` over a float array.

    Every entry gets exactly the bits ``rho_eval`` gives it (``inf`` where it
    is not finite).  For the
    ``power:p=1`` modular that is ``abs(u)`` (``pow(v, 1)`` is exact), taken
    as one numpy ``abs``; every other modular goes through ``rho_eval``
    entry by entry, because numpy's vector ``power`` and ``expm1`` may differ
    from libm in the last ulp.
    """
    u = np.asarray(u, dtype=float)
    finite = np.isfinite(u)
    if spec.kind == "power" and spec.p == 1.0:
        return np.where(finite, np.abs(u), math.inf)
    out = np.full(u.shape, math.inf)
    out[finite] = [rho_eval(spec, v) for v in u[finite].tolist()]
    return out


def estimate_delta2(
    spec: ModularSpec,
    samples: list[float],
    divergence_factor: float = 10.0,
) -> tuple[float, bool]:
    """Estimate the doubling constant from ``max rho(2u)/rho(u)`` over samples.

    Returns ``(tau_hat, diverged)``.  Divergence is flagged when the ratio at
    the largest-magnitude sample exceeds the ratio at the smallest by more
    than ``divergence_factor``: on a magnitude-ordered ladder that separates
    any bounded ratio from one growing without bound.
    """
    if not samples:
        raise ArgumentError("estimate_delta2 needs a nonempty sample list")
    if any(s == 0 for s in samples):
        raise ArgumentError("estimate_delta2 samples must be nonzero")
    ordered = sorted(samples, key=abs)
    ratios = []
    for u in ordered:
        denom = rho_eval(spec, u)
        num = rho_eval(spec, 2.0 * u)
        if denom <= 0.0 or math.isinf(num) or math.isinf(denom):
            # An overflowing ratio is divergence evidence, not an error.
            ratios.append(math.inf)
        else:
            ratios.append(num / denom)
    tau_hat = max(ratios)
    diverged = ratios[-1] > divergence_factor * ratios[0]
    return tau_hat, diverged


@dataclass(frozen=True)
class AxiomCheck:
    """One axiom verdict: the worst sample seen and its violation size."""

    name: str
    passed: bool
    worst_sample: object
    worst_value: float
    tolerance: float


@dataclass(frozen=True)
class AxiomReport:
    """Per-axiom verdicts for one modular over one sample set."""

    spec: str
    entries: tuple[AxiomCheck, ...] = field(default_factory=tuple)

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)


_CONVEX_WEIGHTS = (0.0, 0.25, 0.5, 0.75, 1.0)
_SCALE_LADDER = (0.25, 0.5, 1.0, 2.0)


def check_modular_axioms(
    spec: ModularSpec,
    samples: list[float],
    tol: float = 1e-9,
) -> AxiomReport:
    """Certify the modular axioms on a finite sample set.

    Entries: zero-at-zero, positivity off zero, sign symmetry, convex
    combination, monotonicity under scaling, and -- only when ``delta2_tau``
    is present -- the doubling inequality.  Failures are report entries,
    never exceptions.
    """
    if not samples:
        raise ArgumentError("check_modular_axioms needs a nonempty sample list")
    entries: list[AxiomCheck] = []

    zero_val = rho_eval(spec, 0.0)
    entries.append(AxiomCheck("zero_at_zero", zero_val <= tol, 0.0, zero_val, tol))

    nonzero = [u for u in samples if u != 0]
    min_rho, min_u = min(((rho_eval(spec, u), u) for u in nonzero), key=lambda t: t[0])
    entries.append(AxiomCheck("positive_off_zero", min_rho > 0.0, min_u, min_rho, 0.0))

    worst_sym, worst_sym_u = 0.0, samples[0]
    for u in samples:
        gap = abs(rho_eval(spec, -u) - rho_eval(spec, u))
        if gap > worst_sym:
            worst_sym, worst_sym_u = gap, u
    entries.append(AxiomCheck("sign_symmetry", worst_sym <= tol, worst_sym_u, worst_sym, tol))

    # Convex combination rho(a*u + b*v) <= a*rho(u) + b*rho(v), a + b = 1.
    worst_cvx, worst_cvx_at = -math.inf, (samples[0], samples[0], 0.5)
    for u in samples:
        for v in samples:
            ru, rv = rho_eval(spec, u), rho_eval(spec, v)
            for a in _CONVEX_WEIGHTS:
                b = 1.0 - a
                lhs = rho_eval(spec, a * u + b * v)
                excess = lhs - (a * ru + b * rv)
                if excess > worst_cvx:
                    worst_cvx, worst_cvx_at = excess, (u, v, a)
    scale = 1.0 + max(abs(worst_cvx), 1.0)
    entries.append(AxiomCheck("convex_combination", worst_cvx <= tol * scale,
                              worst_cvx_at, worst_cvx, tol))

    worst_mono, worst_mono_at = -math.inf, (samples[0], _SCALE_LADDER[:2])
    for u in samples:
        for a, b in zip(_SCALE_LADDER, _SCALE_LADDER[1:]):
            excess = rho_eval(spec, a * u) - rho_eval(spec, b * u)
            if excess > worst_mono:
                worst_mono, worst_mono_at = excess, (u, (a, b))
    entries.append(AxiomCheck("scaling_monotonicity", worst_mono <= tol,
                              worst_mono_at, worst_mono, tol))

    if spec.delta2_tau is not None:
        tau = spec.delta2_tau
        worst_d2, worst_d2_u = -math.inf, samples[0]
        for u in samples:
            excess = rho_eval(spec, 2.0 * u) - tau * rho_eval(spec, u)
            if excess > worst_d2:
                worst_d2, worst_d2_u = excess, u
        scale = 1.0 + max(rho_eval(spec, 2.0 * u) for u in samples)
        entries.append(AxiomCheck("doubling_bound", worst_d2 <= tol * scale,
                                  worst_d2_u, worst_d2, tol))

    return AxiomReport(spec=spec.spec_string(), entries=tuple(entries))


def parse_modular(text: str) -> ModularSpec:
    """Parse a modular spec string: ``"power:p=2"`` or ``"exp"``."""
    s = text.strip()
    if s == "exp":
        return ModularSpec.exp()
    if s.startswith("power:"):
        body = s[len("power:"):]
        if not body.startswith("p="):
            raise ConfigError(f"malformed modular spec {text!r}: expected power:p=<value>")
        try:
            p = float(body[2:])
        except ValueError as exc:
            raise ConfigError(f"malformed modular spec {text!r}: bad exponent") from exc
        try:
            return ModularSpec.power(p)
        except ArgumentError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown modular spec {text!r} (expected 'power:p=...' or 'exp')")
