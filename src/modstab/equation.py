"""The radical functional equation, its defect, and control functions.

The equation under study, for an odd integer ``s >= 3`` and a real
``0 < |q| <= 1``::

    phi(x) + phi(y) + phi(z) = q * phi(((x**s + y**s + z**s) / q) ** (1/s))

Exact solutions are exactly the maps ``c * x**s``; the defect of a candidate
``phi`` at a triple is the modular of the left-minus-right side.

Each formula is one array kernel: ``radical_root_many`` the real root,
``defect_many`` the defect at a batch of triples and ``control_eval_many``
the control.  ``defect`` and ``pair_additivity_defect`` evaluate at one
point through those kernels.  Only ``control_eval`` is written out for one
triple; no pipeline code calls it (see its docstring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ConfigError
from .functions import FunctionHandle, power
from .modular import ModularSpec, rho_eval_array

__all__ = [
    "EquationParams",
    "ControlFunction",
    "radical_root_many",
    "defect",
    "defect_many",
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


def radical_root_many(t: np.ndarray, s: int) -> np.ndarray:
    """The real s-th root ``sign(t) * |t|**(1/s)`` at each entry of the 1-D float array ``t``.

    One Newton step polishes the power ``r = |t|**(1/s)``, so exact powers
    come back exact up to ulp scale: ``r - (r**s - |t|) / (s * r**(s-1))``,
    or ``r - (r - |t| / r**(s-1)) / s`` where ``r**s`` leaves the float
    range, so every finite ``t`` has a finite root.  The powers are
    ``functions.power``, builtin ``pow`` bit for bit, and the step and the
    sign run in numpy, which rounds each IEEE operation as Python does.  A
    zero entry gives ``+0.0``.
    """
    if s < 3 or s % 2 == 0:
        raise ArgumentError(f"radical_root_many needs an odd integer s >= 3, got {s}")
    t = np.asarray(t, dtype=float)
    mag = abs(t)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r = power(mag, 1.0 / s)
        live = np.flatnonzero(np.isfinite(r) & (r > 0.0))
        rl, ml = r[live], mag[live]
        raised = np.zeros(len(live), dtype=bool)
        top = power(rl, s, raised)
        below = power(rl, s - 1)
        r[live] = rl - np.where(raised, (rl - ml / below) / float(s),
                                (top - ml) / (float(s) * below))
        return np.where(t == 0.0, 0.0, np.copysign(r, t))


def defect_many(
    params: EquationParams,
    phi: FunctionHandle,
    rho: ModularSpec,
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
) -> np.ndarray:
    """Modular of the equation residual of ``phi`` at each triple of three 1-D arrays.

    The residual is ``((phi(x) + phi(y)) + phi(z)) - q*phi(w)`` with the
    combined argument ``w = radical_root_many(((x**s + y**s) + z**s) / q)``;
    the powers ``x**s`` are ``functions.power`` (builtin ``pow`` bit for
    bit), and ``phi`` takes the coordinates and the combined arguments in
    one ``FunctionHandle.many`` batch.  A triple where some ``x**s`` is not
    a float has defect ``inf``.  A sum of finite powers over a nonzero
    ``q`` is finite or ``+-inf``, and so is its root.
    """
    s, q = params.s, params.q
    coords = np.array([x, y, z], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = power(coords, s)
        live = np.flatnonzero(np.isfinite(powers).all(axis=0))
        x, y, z = coords[:, live]
        px, py, pz = powers[:, live]
        w = radical_root_many((px + py + pz) / q, s)
        fx, fy, fz, fw = phi.many(np.concatenate((x, y, z, w))).reshape(4, -1)
        defects = np.full(coords.shape[1], math.inf)
        defects[live] = rho_eval_array(rho, fx + fy + fz - q * fw)
    return defects


def defect(
    params: EquationParams,
    phi: FunctionHandle,
    rho: ModularSpec,
    x: float,
    y: float,
    z: float,
) -> float:
    """Modular of the equation residual of ``phi`` at the triple ``(x, y, z)``.

    ``defect_many`` at the one triple: ``inf`` where some ``x**s`` is not a
    float.
    """
    x, y, z = (np.array([float(v)]) for v in (x, y, z))
    return float(defect_many(params, phi, rho, x, y, z)[0])


def pair_additivity_defect(
    phi: FunctionHandle,
    rho: ModularSpec,
    s: int,
    x: float,
    y: float,
) -> float:
    """Modular of ``phi((x**s + y**s)**(1/s)) - phi(x) - phi(y)``.

    Vanishes for every exact solution of the radical equation.  The one
    pair of ``verify.verify_radical_additivity``, through the same kernels:
    ``inf`` where ``x**s`` or ``y**s`` is not a float.
    """
    if s < 3 or s % 2 == 0:
        raise ArgumentError(f"pair_additivity_defect needs odd s >= 3, got {s}")
    pair = np.array([float(x), float(y)])
    with np.errstate(over="ignore", invalid="ignore"):
        px, py = power(pair, s)
        if not (math.isfinite(px) and math.isfinite(py)):
            return math.inf
        fw, fx, fy = phi.many(np.concatenate((radical_root_many(np.array([px + py]), s), pair)))
        return float(rho_eval_array(rho, np.array([fw - fx - fy]))[0])


def control_eval(alpha: ControlFunction, x: float, y: float, z: float) -> float:
    """Evaluate the control function at a triple.

    Where a power overflows the value is ``inf`` (``0`` for a zero control),
    so no caller guards the call.  No pipeline code calls it: every
    evaluation there is ``control_eval_many``, which the tests hold to this
    scalar bit for bit.  It stays a scalar for library callers and because
    the benchmark's span recorder counts its calls by name.
    """
    if alpha.kind == "power":
        try:
            return alpha.theta * (abs(x) ** alpha.p + abs(y) ** alpha.p + abs(z) ** alpha.p)
        except OverflowError:
            return math.inf if alpha.theta else 0.0
    return alpha.eps


def control_power_sums(p: float, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``|x|**p + |y|**p + |z|**p`` at each triple of three 1-D arrays: the power control over ``theta``.

    Each power is ``functions.power``, the scalar ``**`` (builtin ``pow``)
    bit for bit, and the two additions run in numpy, which rounds each IEEE
    operation as Python does, so ``theta`` times an entry has the bits
    ``control_eval`` gives.  ``nan`` marks a triple where a power overflows:
    ``power`` gives ``nan`` where ``pow`` raises ``OverflowError``.  A sum
    of finite powers is never ``nan``, and one that overflows by addition
    is ``inf``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        px, py, pz = power(abs(np.array([x, y, z], dtype=float)), p)  # one batch of powers
        return px + py + pz


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
