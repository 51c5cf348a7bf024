"""The radical functional equation, its defect, and control functions.

The equation under study, for an odd integer ``s >= 3`` and a real
``0 < |q| <= 1``::

    phi(x) + phi(y) + phi(z) = q * phi(((x**s + y**s + z**s) / q) ** (1/s))

Exact solutions are exactly the maps ``c * x**s``; the defect of a candidate
``phi`` at a triple is the modular of the left-minus-right side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ArgumentError, ConfigError, RangeError
from .functions import FunctionHandle, mapped
from .modular import ModularSpec, pow_or_inf, rho_eval

__all__ = [
    "EquationParams",
    "ControlFunction",
    "radical_root",
    "radical_root_many",
    "radical_combine",
    "defect",
    "pair_additivity_defect",
    "control_eval",
    "control_eval_many",
    "control_power_sums",
    "parse_control",
]


@dataclass(frozen=True)
class EquationParams:
    """Radical exponent ``s`` (odd, >= 3) and scaling parameter ``q``."""

    s: int
    q: float

    def __post_init__(self):
        if self.s < 3 or self.s % 2 == 0:
            raise ArgumentError(f"s must be an odd integer >= 3, got {self.s}")
        if self.q == 0 or abs(self.q) > 1.0 or not math.isfinite(self.q):
            raise ArgumentError(f"q must satisfy 0 < |q| <= 1, got {self.q}")


@dataclass(frozen=True)
class ControlFunction:
    """Bound ``alpha(x, y, z)`` on the equation defect.

    ``power``:   ``theta * (|x|**p + |y|**p + |z|**p)``
    ``constant``: the fixed value ``eps``.
    """

    kind: str
    theta: float = 0.0
    p: float = 0.0
    eps: float = 0.0

    def __post_init__(self):
        if self.kind not in ("power", "constant"):
            raise ArgumentError(f"unknown control kind {self.kind!r}")
        if not all(0.0 <= v < math.inf for v in (self.theta, self.p, self.eps)):
            raise ArgumentError("control parameters must be finite and >= 0")

    @classmethod
    def power(cls, theta: float, p: float) -> "ControlFunction":
        return cls(kind="power", theta=float(theta), p=float(p))

    @classmethod
    def constant(cls, eps: float) -> "ControlFunction":
        return cls(kind="constant", eps=float(eps))

    def spec_string(self) -> str:
        if self.kind == "power":
            return f"power:theta={self.theta:g},p={self.p:g}"
        return f"const:eps={self.eps:g}"


def radical_root(t: float, s: int) -> float:
    """The real s-th root ``sign(t) * |t|**(1/s)`` for odd ``s >= 3``.

    One Newton step polishes the float power so exact powers come back
    exact up to ulp scale; where ``r**s`` overflows, the step is taken as
    ``r - (r - |t| / r**(s-1)) / s``, so every finite ``t`` has a finite root.
    """
    if s < 3 or s % 2 == 0:
        raise ArgumentError(f"radical_root needs an odd integer s >= 3, got {s}")
    t = float(t)
    if t == 0.0:
        return 0.0
    mag = abs(t)
    r = mag ** (1.0 / s)
    if math.isfinite(r) and r > 0.0:
        try:
            r -= (r**s - mag) / (s * r ** (s - 1))
        except OverflowError:  # r**s past the float range
            r -= (r - mag / r ** (s - 1)) / s
    return math.copysign(r, t)


def radical_root_many(t: np.ndarray, s: int) -> np.ndarray:
    """``radical_root`` at each entry of the 1-D float array ``t``, bit for bit.

    The powers ``|t|**(1/s)``, ``r**s`` and ``r**(s-1)`` map the builtin
    ``pow`` over the entries, and the Newton step and the sign run in
    numpy, which rounds each IEEE operation as Python does.  A zero entry
    gives ``+0.0``.  The entries where ``r**s`` leaves the float range,
    which ``mapped`` marks, take the Newton step in ``radical_root``'s
    other form.
    """
    if s < 3 or s % 2 == 0:
        raise ArgumentError(f"radical_root_many needs an odd integer s >= 3, got {s}")
    t = np.asarray(t, dtype=float)
    mag = abs(t)
    r = mapped(pow, mag.tolist(), repeat(1.0 / s))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        live = np.flatnonzero(np.isfinite(r) & (r > 0.0))
        rl, ml = r[live], mag[live]
        raised = np.zeros(len(live), dtype=bool)
        power = mapped(pow, rl.tolist(), repeat(s), raised=raised)
        below = mapped(pow, rl.tolist(), repeat(s - 1))
        r[live] = rl - np.where(raised, (rl - ml / below) / float(s),
                                (power - ml) / (float(s) * below))
        return np.where(t == 0.0, 0.0, np.copysign(r, t))


def _powers(s: int, **coords: float) -> list[float]:
    # v**s for each named coordinate; RangeError names the first that overflows.
    out = []
    for name, v in coords.items():
        pw = pow_or_inf(float(v), s)
        if not math.isfinite(pw):
            raise RangeError(f"{name}**{s} overflows for {name}={v!r}", coordinate=name)
        out.append(pw)
    return out


def radical_combine(params: EquationParams, x: float, y: float, z: float) -> float:
    """The combined argument ``((x**s + y**s + z**s) / q) ** (1/s)``."""
    px, py, pz = _powers(params.s, x=x, y=y, z=z)
    return radical_root((px + py + pz) / params.q, params.s)


def defect(
    params: EquationParams,
    phi: FunctionHandle,
    rho: ModularSpec,
    x: float,
    y: float,
    z: float,
) -> float:
    """Modular of the equation residual of ``phi`` at the triple ``(x, y, z)``."""
    w = radical_combine(params, x, y, z)
    residual = phi(x) + phi(y) + phi(z) - params.q * phi(w)
    return rho_eval(rho, residual)


def pair_additivity_defect(
    phi: FunctionHandle,
    rho: ModularSpec,
    s: int,
    x: float,
    y: float,
) -> float:
    """Modular of ``phi((x**s + y**s)**(1/s)) - phi(x) - phi(y)``.

    Vanishes for every exact solution of the radical equation.
    """
    if s < 3 or s % 2 == 0:
        raise ArgumentError(f"pair_additivity_defect needs odd s >= 3, got {s}")
    px, py = _powers(s, x=x, y=y)
    w = radical_root(px + py, s)
    return rho_eval(rho, phi(w) - phi(x) - phi(y))


def control_eval(alpha: ControlFunction, x: float, y: float, z: float) -> float:
    """Evaluate the control function at a triple.

    Where a power overflows the value is ``inf`` (``0`` for a zero control),
    so no caller guards the call.
    """
    if alpha.kind == "power":
        try:
            return alpha.theta * (abs(x) ** alpha.p + abs(y) ** alpha.p + abs(z) ** alpha.p)
        except OverflowError:
            return math.inf if alpha.theta else 0.0
    return alpha.eps


def control_power_sums(p: float, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``|x|**p + |y|**p + |z|**p`` at each triple of three 1-D arrays: the power control over ``theta``.

    Each power maps the scalar ``**`` (builtin ``pow``) over the points and
    the two additions run in numpy, which rounds each IEEE operation as
    Python does, so ``theta`` times an entry has the bits ``control_eval``
    gives.  ``nan`` marks a triple where a power overflows: ``mapped``
    gives ``nan`` where ``pow`` raises ``OverflowError``.  A sum of finite
    powers is never ``nan``, and one that overflows by addition is ``inf``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return (mapped(pow, abs(x).tolist(), repeat(p))
                + mapped(pow, abs(y).tolist(), repeat(p))
                + mapped(pow, abs(z).tolist(), repeat(p)))


def control_eval_many(
    alpha: ControlFunction,
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    sums: np.ndarray | None = None,
) -> np.ndarray:
    """``control_eval`` at each triple ``(x[i], y[i], z[i])`` of three 1-D arrays, bit for bit.

    A power control is ``theta`` times ``control_power_sums``: a caller that
    evaluates several ``theta`` on the same triples passes that array as
    ``sums``.  Where a power overflowed the value is ``inf`` (``0`` for a
    zero control); ``theta`` times a sum that overflowed by addition stays
    as computed, ``nan`` included, as in ``control_eval``.
    """
    if alpha.kind != "power":
        return np.full(len(x), alpha.eps)
    if sums is None:
        sums = control_power_sums(alpha.p, x, y, z)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = alpha.theta * sums
    return np.where(np.isnan(sums), math.inf if alpha.theta else 0.0, scaled)


def parse_control(text: str) -> ControlFunction:
    """Parse ``"power:theta=...,p=..."`` or ``"const:eps=..."``."""
    s = text.strip()
    try:
        if s.startswith("power:"):
            fields = dict(part.split("=", 1) for part in s[len("power:"):].split(","))
            return ControlFunction.power(float(fields["theta"]), float(fields["p"]))
        if s.startswith("const:"):
            fields = dict(part.split("=", 1) for part in s[len("const:"):].split(","))
            return ControlFunction.constant(float(fields["eps"]))
    except (KeyError, ValueError, ArgumentError) as exc:
        raise ConfigError(f"malformed control spec {text!r}: {exc}") from exc
    raise ConfigError(f"unknown control spec {text!r} (expected 'power:...' or 'const:...')")
