"""Modular functionals on the real line and numeric certification of their axioms.

A modular is a nonnegative functional ``rho`` that vanishes only at zero, is
symmetric under sign flips, and respects convex combinations.  Two built-in
kinds cover the behaviours the stability constructions need:

* ``power``  -- ``rho(u) = |u|**p`` with ``p >= 1``; convex, doubling
  constant ``tau = 2**p``.
* ``exp``    -- ``rho(u) = exp(|u|) - 1``; convex and continuous but with no
  finite doubling constant (the ratio ``rho(2u)/rho(u)`` grows without bound).

Axioms are certified numerically on finite sample sets; nothing here proves
anything symbolically.  Each check is one ``rho_eval_array`` expression over
the samples, and its worst value is a sampled supremum taken by
``first_max``, the rule every check in modstab reduces by: the first strict
maximum above the check's start value, in visiting order, with ``nan``
passed over.  An excess of ``inf - inf`` is therefore ``nan`` and counts as
no violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ConfigError
from .functions import mapped, power

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
    is not finite).  For the ``power:p=1`` modular that is ``abs(u)``
    (``pow(v, 1)`` is exact), taken as one numpy ``abs``.  Every other
    modular takes the finite ``|u|`` through ``functions.power`` (builtin
    ``pow`` bit for bit) or maps the scalar ``math.expm1`` over them,
    because numpy's vector ``expm1`` may differ from libm in the last ulp.
    Where one of them overflows it gives ``nan``, which a power or ``expm1``
    of a finite ``|u|`` never is, and that entry reads ``inf``.
    """
    u = np.asarray(u, dtype=float)
    finite = np.isfinite(u)
    if spec.kind == "power" and spec.p == 1.0:
        return np.where(finite, np.abs(u), math.inf)
    out = np.full(u.shape, math.inf)
    mags = np.abs(u[finite])
    if spec.kind == "exp":
        out[finite] = mapped(math.expm1, mags.tolist())
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            out[finite] = power(mags, spec.p)
    out[np.isnan(out)] = math.inf
    return out


def first_max(values: np.ndarray, start: float) -> tuple[int | None, float]:
    """Index and value a scalar running maximum from ``start`` ends with.

    That loop replaces its maximum only on a strictly larger value and
    passes over ``nan``, so the result is the first index of the largest
    value above ``start``, or ``(None, start)`` when no value is above it.
    """
    above = np.flatnonzero(values > start)
    if not above.size:
        return None, start
    k = int(above[np.argmax(values[above])])
    return k, float(values[k])


DIVERGENCE_FACTOR = 10.0
AXIOM_TOL = 1e-9


def estimate_delta2(spec: ModularSpec, samples: list[float]) -> tuple[float, bool]:
    """Estimate the doubling constant from ``max rho(2u)/rho(u)`` over samples.

    Returns ``(tau_hat, diverged)``.  Divergence is flagged when the ratio at
    the largest-magnitude sample exceeds the ratio at the smallest by more
    than ``DIVERGENCE_FACTOR``: on a magnitude-ordered ladder that separates
    any bounded ratio from one growing without bound.
    """
    if not samples:
        raise ArgumentError("estimate_delta2 needs a nonempty sample list")
    if any(s == 0 for s in samples):
        raise ArgumentError("estimate_delta2 samples must be nonzero")
    u = np.array(sorted(samples, key=abs), dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        denom = rho_eval_array(spec, u)
        num = rho_eval_array(spec, 2.0 * u)
        # An overflowing ratio is divergence evidence, not an error.
        ratios = np.where((denom <= 0.0) | np.isinf(num) | np.isinf(denom), math.inf,
                          num / denom)
    _, tau_hat = first_max(ratios, -math.inf)
    return tau_hat, bool(ratios[-1] > DIVERGENCE_FACTOR * ratios[0])


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

    entries: tuple[AxiomCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)


_CONVEX_WEIGHTS = (0.0, 0.25, 0.5, 0.75, 1.0)
_SCALE_LADDER = (0.25, 0.5, 1.0, 2.0)


def check_modular_axioms(spec: ModularSpec, samples: list[float]) -> AxiomReport:
    """Certify the modular axioms on a finite sample set.

    Entries: zero-at-zero, positivity off zero, sign symmetry, convex
    combination, monotonicity under scaling, and -- only when ``delta2_tau``
    is present -- the doubling inequality, each within ``AXIOM_TOL``.
    Failures are report entries, never exceptions.  Each worst sample is
    the caller's own sample object, or a tuple of them with the weights.
    """
    u = np.array(samples, dtype=float)
    nonzero = np.flatnonzero(u != 0)
    if not nonzero.size:
        raise ArgumentError("check_modular_axioms needs a nonzero sample")
    zero_val = rho_eval(spec, 0.0)
    entries = [AxiomCheck("zero_at_zero", zero_val <= AXIOM_TOL, 0.0, zero_val, AXIOM_TOL)]

    with np.errstate(over="ignore", invalid="ignore"):
        rho_u = rho_eval_array(spec, u)
        # The least rho off zero is the first maximum of -rho.
        k, _ = first_max(-rho_u[nonzero], -math.inf)
        i = nonzero[k or 0]
        min_rho = float(rho_u[i])
        entries.append(AxiomCheck("positive_off_zero", min_rho > 0.0, samples[i], min_rho, 0.0))

        k, worst = first_max(np.abs(rho_eval_array(spec, -u) - rho_u), 0.0)
        entries.append(AxiomCheck("sign_symmetry", worst <= AXIOM_TOL, samples[k or 0],
                                  worst, AXIOM_TOL))

        # Convex combination rho(a*u + b*v) <= a*rho(u) + b*rho(v), a + b = 1,
        # on axes (u, v, a).
        a = np.array(_CONVEX_WEIGHTS)
        b = 1.0 - a
        excess = (rho_eval_array(spec, a * u[:, None, None] + b * u[None, :, None])
                  - (a * rho_u[:, None, None] + b * rho_u[None, :, None]))
        k, worst = first_max(excess.ravel(), -math.inf)
        # With no excess above -inf, flat index 2, (samples[0], samples[0], 0.5), stands in.
        i, j, w = np.unravel_index(2 if k is None else k, excess.shape)
        scale = 1.0 + max(abs(worst), 1.0)
        entries.append(AxiomCheck("convex_combination", worst <= AXIOM_TOL * scale,
                                  (samples[i], samples[j], _CONVEX_WEIGHTS[w]), worst,
                                  AXIOM_TOL))

        # rho(a*u) - rho(b*u) for consecutive a < b on the ladder, on axes (u, a).
        scaled = rho_eval_array(spec, np.array(_SCALE_LADDER) * u[:, None])
        excess = scaled[:, :-1] - scaled[:, 1:]
        k, worst = first_max(excess.ravel(), -math.inf)
        i, j = divmod(k or 0, excess.shape[1])
        entries.append(AxiomCheck("scaling_monotonicity", worst <= AXIOM_TOL,
                                  (samples[i], _SCALE_LADDER[j:j + 2]), worst, AXIOM_TOL))

        if spec.delta2_tau is not None:
            rho_2u = rho_eval_array(spec, 2.0 * u)
            k, worst = first_max(rho_2u - spec.delta2_tau * rho_u, -math.inf)
            scale = 1.0 + first_max(rho_2u, -math.inf)[1]
            entries.append(AxiomCheck("doubling_bound", worst <= AXIOM_TOL * scale,
                                      samples[k or 0], worst, AXIOM_TOL))

    return AxiomReport(tuple(entries))


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
