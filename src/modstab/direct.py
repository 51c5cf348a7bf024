"""Direct construction of the exact radical mapping from a perturbed solution.

Two dual scaling routes build the limit ``A``:

* contract route: ``A(x) = lim 2**n * phi(x / 2**(n/s))`` -- contracts the
  argument, scales the value up; needs a finite doubling constant on the
  modular.
* expand route:   ``A(x) = lim phi_hat(2**(n/s) * x) / 2**n`` with
  ``phi_hat = phi - q*phi(0)`` -- expands the argument, scales down; needs
  no doubling constant.

Each route carries an error-bound series.  Both built-in control kinds make
it exactly geometric, so it is summed in closed form as its first term over
``1 - ratio``; ``contract_bound_closed_form`` writes the contract-route sum
out in the control's parameters for power-type control functions.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .equation import ControlFunction, EquationParams, control_eval
from .errors import ArgumentError, ContractViolation, RegimeError
from .functions import FunctionHandle
from .iterates import IterateTable
from .modular import ModularSpec, pow_or_inf, rho_eval_array
from .sampling import Grid

__all__ = [
    "Mode",
    "route_ratio",
    "LimitResult",
    "SeriesBound",
    "approximant_contract",
    "approximant_expand",
    "limit_function",
    "construct_limit",
    "series_bound_contract",
    "series_bound_expand",
    "contract_bound_closed_form",
]

MAX_N = sys.float_info.max_exp - 1  # 1023: the largest n with 2.0**n finite


class Mode(enum.Enum):
    """Which scaling route builds the limit."""

    CONTRACT = "t1-contract"
    EXPAND = "t2-expand"


def route_ratio(
    mode: Mode, alpha: ControlFunction, s: int, tau: float | None = None
) -> float:
    """Term ratio of a route's error-bound series; every regime gate reads it.

    Contract route (needs the doubling constant ``tau``):
    ``(tau**2/2) * 2**(-p/s)`` for power control, ``tau**2/2`` for constant
    control.  Expand route: ``2**(p/s)/2`` and ``1/2``; this is also the
    contraction factor ``L`` of the fixed-point route.  A route is in regime
    exactly when its ratio is ``< 1``; at ``p = s`` it is ``1.0`` exactly.
    """
    if mode is Mode.CONTRACT:
        if tau is None:
            raise ArgumentError("the contract ratio needs a doubling constant tau")
        weight, exponent = tau * tau / 2.0, -alpha.p / s
    else:
        weight, exponent = 0.5, alpha.p / s
    if alpha.kind == "power":
        return weight * pow_or_inf(2.0, exponent)
    return weight


def approximant_contract(
    phi: FunctionHandle, params: EquationParams, n: int, x: float
) -> float:
    """n-th contract-route approximant ``2**n * phi(2**(-n/s) * x)``.

    Computed as ``limit_function`` computes it, so the two agree bit for bit.
    An evaluation of ``phi`` that overflows is ``inf`` already: the
    saturation signal ``construct_limit`` freezes on.
    """
    if n < 0:
        raise ArgumentError(f"approximant index must be >= 0, got {n}")
    return 2.0**n * phi(2.0 ** (-n / params.s) * x)


def approximant_expand(
    phi: FunctionHandle, params: EquationParams, n: int, x: float
) -> float:
    """n-th expand-route approximant ``(phi(2**(n/s)*x) - q*phi(0)) / 2**n``.

    An evaluation of ``phi`` that overflows is ``inf`` already: the
    saturation signal.
    """
    if n < 0:
        raise ArgumentError(f"approximant index must be >= 0, got {n}")
    offset = params.q * phi(0.0)
    return (phi(2.0 ** (n / params.s) * x) - offset) / 2.0**n


def limit_function(
    mode: Mode, phi: FunctionHandle, params: EquationParams, n: int
) -> FunctionHandle:
    """The n-th approximant as an evaluable handle (usable off-grid)."""
    if mode is Mode.CONTRACT:
        return phi.scaled(outer=2.0**n, inner=2.0 ** (-n / params.s))
    offset = params.q * phi(0.0)
    return phi.shifted(-offset).scaled(outer=2.0**-n, inner=2.0 ** (n / params.s))


@dataclass(frozen=True)
class LimitResult:
    """Converged (or frozen) per-point approximants plus diagnostics.

    ``cauchy_gap[i]`` is the modular of the last approximant step at grid
    point ``i``; unless ``saturated`` it is below the requested tolerance.
    ``function`` evaluates the final approximant anywhere, not just on the
    grid.
    """

    mode: Mode
    grid: Grid
    values: tuple[float, ...]
    achieved_n: int
    cauchy_gap: tuple[float, ...]
    saturated: bool
    function: FunctionHandle


def construct_limit(
    mode: Mode,
    phi: FunctionHandle,
    params: EquationParams,
    rho: ModularSpec,
    grid: Grid,
    tol: float = 1e-9,
    n_max: int = 60,
    table: IterateTable | None = None,
) -> LimitResult:
    """Iterate the scaling approximants to their modular limit on a grid.

    Terminates when the per-point modular gap between successive
    approximants stays below ``tol`` at every grid point for two consecutive
    steps (a single sub-tolerance step can be coincidence), or at ``n_max``.
    A non-finite approximant freezes that point at its last finite value and
    marks the result saturated instead of aborting the sweep.

    The approximants are read off the grid columns of an ``IterateTable``
    (expand rows for ``t2``, contract rows for ``t1``), with ``q*phi(0)``
    taken once; pass the table the other routes of a run use so that no
    ``phi`` value is computed twice.  Each step is one array operation over
    the grid and gives the same bits as the scalar ``approximant_*``.
    """
    if tol <= 0:
        raise ArgumentError(f"tol must be positive, got {tol}")
    if not 1 <= n_max <= MAX_N:
        raise ArgumentError(f"n_max must be in 1..{MAX_N}, got {n_max}")
    if mode is Mode.CONTRACT and rho.delta2_tau is None:
        raise ContractViolation(
            "contract route needs a modular with a finite doubling constant "
            f"(delta2_tau); {rho.spec_string()} has none"
        )
    if table is None:
        table = IterateTable(phi, params.s, grid)
    else:
        table.check_serves(phi, params.s, grid)
    cols = table.grid_index
    if mode is Mode.CONTRACT:
        def approx(n: int) -> np.ndarray:
            return 2.0**n * table.contract(n)[cols]
    else:
        offset = params.q * table.origin()

        def approx(n: int) -> np.ndarray:
            return (table.expand(n)[cols] - offset) / 2.0**n

    with np.errstate(over="ignore", invalid="ignore"):
        current = approx(0)
        frozen = ~np.isfinite(current)
        current[frozen] = 0.0
        gaps = np.full(len(cols), math.inf)
        saturated = bool(frozen.any())
        streak = 0
        achieved = 0

        for n in range(n_max):
            nxt = approx(n + 1)
            diff = nxt - current
            broken = ~frozen & ~(np.isfinite(nxt) & np.isfinite(diff))
            moved = ~frozen & ~broken
            frozen |= broken
            saturated = saturated or bool(broken.any())
            step_gaps = rho_eval_array(rho, diff[moved])
            gaps[moved] = step_gaps
            current[moved] = nxt[moved]
            achieved = n + 1
            streak = streak + 1 if bool(np.all(step_gaps < tol)) else 0
            if streak >= 2:
                break
        else:
            saturated = True

    return LimitResult(
        mode=mode,
        grid=grid,
        values=tuple(current.tolist()),
        achieved_n=achieved,
        cauchy_gap=tuple(gaps.tolist()),
        saturated=saturated,
        function=limit_function(mode, phi, params, achieved),
    )


@dataclass(frozen=True)
class SeriesBound:
    """A stability-bound series summed in closed form.

    Every term of the series is the previous one times ``ratio``, so the
    whole sum is ``first_term / (1 - ratio)``; ``value`` and ``upper`` are
    that sum.  ``terms_used`` is pinned at ``1`` and ``tail_estimate`` at
    ``0``: nothing is truncated, and both stay only to keep the report
    schema.  ``converged`` is false whenever the ratio is >= 1; no finite
    bound exists there, and the value is ``inf`` (``0`` when the first term
    vanishes).
    """

    value: float
    terms_used: int
    tail_estimate: float
    converged: bool
    ratio: float

    @property
    def upper(self) -> float:
        return self.value + self.tail_estimate


def _geometric_sum(first: float, ratio: float) -> SeriesBound:
    # Terms of both built-in control kinds are exactly geometric with the
    # given ratio.  A nan ratio is out of regime, as at every other gate.
    if not ratio < 1.0:
        return SeriesBound(0.0 if first == 0.0 else math.inf, 1, 0.0, False, ratio)
    return SeriesBound(first / (1.0 - ratio), 1, 0.0, True, ratio)


def series_bound_contract(
    alpha: ControlFunction, tau: float, s: int, x: float
) -> SeriesBound:
    """Contract-route error bound at ``x``::

        (1/2) * sum_{j>=1} (tau**2/2)**j
              * alpha(x/2**(j/s), x/2**(j/s), -x/2**((j-1)/s))

    summed as its ``j = 1`` term over ``1 - ratio``, with the ratio from
    ``route_ratio(Mode.CONTRACT, alpha, s, tau)``; divergent ratios yield an
    infinite flagged bound, never a finite number.
    """
    if tau < 2.0:
        raise ArgumentError(f"doubling constant must be >= 2, got {tau}")
    ratio = route_ratio(Mode.CONTRACT, alpha, s, tau)
    a = control_eval(alpha, x / 2.0 ** (1 / s), x / 2.0 ** (1 / s), -x)
    return _geometric_sum(0.5 * (tau * tau / 2.0) * a, ratio)


def series_bound_expand(alpha: ControlFunction, s: int, x: float) -> SeriesBound:
    """Expand-route error bound at ``x``::

        (1/2) * sum_{j>=0} 2**(-j)
              * alpha(2**(j/s)*x, 2**(j/s)*x, -2**((j+1)/s)*x)

    summed as its ``j = 0`` term over ``1 - ratio``, with the ratio from
    ``route_ratio(Mode.EXPAND, alpha, s)`` (divergent once ``p >= s`` for
    power control).
    """
    a = control_eval(alpha, x, x, -(2.0 ** (1 / s)) * x)
    return _geometric_sum(0.5 * a, route_ratio(Mode.EXPAND, alpha, s))


def contract_bound_closed_form(
    theta: float, p: float, s: int, tau: float, x: float
) -> float:
    """Closed form of the contract-route series for power control::

        theta * (2 + 2**(p/s)) * r / (2 * (1 - r)) * |x|**p

    with ``r = route_ratio(Mode.CONTRACT, power(theta, p), s, tau)``; valid
    only for ``r < 1``.  Dividing through by ``2**(p/s+1)`` gives the form
    ``theta*(2+2^(p/s))*tau^2/(2*(2^(p/s+1)-tau^2))*|x|^p`` reports print.
    """
    r = route_ratio(Mode.CONTRACT, ControlFunction.power(theta, p), s, tau)
    if not r < 1.0:
        raise RegimeError(
            f"closed-form bound needs contract ratio < 1, got {r:.6g} (p={p:g})"
        )
    return (theta * (2.0 + pow_or_inf(2.0, p / s)) * r / (2.0 * (1.0 - r))
            * pow_or_inf(abs(x), p))
