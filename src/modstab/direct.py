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
``1 - ratio``, by ``route_bounds`` alone.  No route calls
``contract_bound_closed_form`` (a library and test oracle), ``SeriesBound``
or ``series_bound_*``; the benchmark's span recorder wraps them by name.

Each route formula lives in one array kernel: ``route_line``, the control
along a route's line, ``route_bounds``, the stability bound summed over that
line (for both direct routes and the fixed-point route), or the n-th
approximant, which ``approximant_row`` applies to an ``IterateTable`` row
and ``limit_function``'s handle to ``phi`` at points off the table.  Every
route that iterates, the fixed-point route included, enters through
``route_entry`` and ends in a ``limit_function`` handle on its table.  The
refusals the routes share are checked and worded once, here:
``doubling_constant``, ``require_convergent`` and ``require_finite_bound``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .equation import ControlFunction, EquationParams, control_eval_many
from .errors import ArgumentError, ContractViolation, RegimeError
from .functions import FunctionHandle
from .iterates import MAX_N, IterateTable
from .modular import ModularSpec, pow_or_inf, rho_eval_array
from .sampling import Grid

__all__ = [
    "Mode",
    "route_ratio",
    "route_line",
    "route_bounds",
    "approximant_row",
    "LimitResult",
    "SeriesBound",
    "limit_function",
    "construct_limit",
    "series_bound_contract",
    "series_bound_expand",
    "contract_bound_closed_form",
]


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


def route_line(mode: Mode, alpha: ControlFunction, s: int, xs: np.ndarray) -> np.ndarray:
    """``control_eval`` along a route's line at each of ``xs``, bit for bit.

    Expand: ``alpha(x, x, -root*x)``; contract: ``alpha(x/root, x/root,
    -x)``; ``root = 2**(1/s)``.
    """
    root = 2.0 ** (1 / s)
    with np.errstate(over="ignore"):
        if mode is Mode.CONTRACT:
            shrunk = xs / root
            return control_eval_many(alpha, shrunk, shrunk, -xs)
        return control_eval_many(alpha, xs, xs, -root * xs)


def route_bounds(mode: Mode, tau: float | None, ratio: float, line: np.ndarray) -> np.ndarray:
    """A route's stability bound at each value of its ``route_line``.

    The one bound formula: the series' first term, ``(1/2) * (tau**2/2) *
    line`` (contract) or ``(1/2) * line`` (expand), over ``1 - ratio``.
    With ``ratio = L`` the expand bound is the fixed-point bound ``line /
    (2*(1-L))``.  A ratio not below 1 (``nan`` included) has no finite
    bound: ``inf``, or ``0`` where the first term vanishes.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        first = 0.5 * (tau * tau / 2.0) * line if mode is Mode.CONTRACT else 0.5 * line
        if not ratio < 1.0:
            return np.where(first == 0.0, 0.0, math.inf)
        return first / (1.0 - ratio)


def representative_point(grid: Grid) -> tuple[float, int]:
    """The grid end of largest magnitude, where routes gate their bound, and its index.

    A ``route_line`` is even bit for bit: its coordinates enter the control through ``abs``.
    """
    lo, hi = abs(grid.lo), abs(grid.hi)
    return (lo, 0) if lo >= hi else (hi, -1)


def doubling_constant(route: str, rho: ModularSpec) -> float:
    """``rho``'s doubling constant, or ``route``'s ``ContractViolation`` if it has none."""
    if rho.delta2_tau is None:
        raise ContractViolation(
            f"{route} route needs a modular with a finite doubling constant; "
            f"{rho.spec_string()} has none"
        )
    return rho.delta2_tau


def require_convergent(ratio: float) -> None:
    """A direct route's ``RegimeError`` (diagnostic ``ratio``) if its series diverges."""
    if ratio < 1.0:
        return
    why = ("term ratio is nan: its factors overflow and underflow together"
           if math.isnan(ratio) else f"term ratio {ratio:.6g} >= 1")
    raise RegimeError(
        f"error-bound series diverges ({why}); no bound exists in this regime", ratio=ratio
    )


def require_finite_bound(x: float, name: str, bound: float, key: str, ratio: float) -> None:
    """A route's ``RegimeError`` (diagnostic ``key``: ``"ratio"`` or ``"l_hat"``) if its
    bound ``name`` at ``x`` is not a finite number, which certifies nothing although
    ``ratio < 1``.
    """
    if math.isfinite(bound):
        return
    factor = "term ratio" if key == "ratio" else "contraction factor"
    raise RegimeError(
        f"error bound at the representative point {x:.6g} is not finite "
        f"({name} {bound:.6g}) although the {factor} {ratio:.6g} < 1; "
        "no usable bound exists here",
        **{key: ratio},
    )


def _check_step(n: int) -> None:
    # Step n of either route; a negative n would read the other route's row.
    if n < 0:
        raise ArgumentError(f"approximant step must be >= 0, got {n}")


def _approximant(mode: Mode, n: int, offset: float, values: np.ndarray) -> np.ndarray:
    # The one approximant formula, from phi's values at 2**(-n/s) x (contract)
    # or 2**(n/s) x (expand).
    if mode is Mode.CONTRACT:
        return 2.0**n * values
    return (values - offset) / 2.0**n


def approximant_row(table: IterateTable, mode: Mode, n: int, offset: float = 0.0) -> np.ndarray:
    """The n-th approximant at every sample point of ``table``.

    Contract: ``2**n * phi(2**(-n/s) x)``, off ``table.row(-n)``; expand:
    ``(phi(2**(n/s) x) - offset) / 2**n``, off ``table.row(n)``, the expand
    approximant at ``offset = q*phi(0)`` and the fixed-point iterate at
    ``0``.  The caller holds ``np.errstate(over="ignore", invalid="ignore")``
    around its batch of rows, once, not once per row.  A negative ``n`` is
    an ``ArgumentError``.
    """
    _check_step(n)
    return _approximant(mode, n, offset, table.row(-n if mode is Mode.CONTRACT else n))


def limit_function(mode: Mode, phi: FunctionHandle, params: EquationParams, n: int,
                   offset: float, table: IterateTable | None = None) -> FunctionHandle:
    """The n-th approximant as a handle, usable off the grid.

    The handle applies ``approximant_row``'s formula to ``phi`` at
    ``2**(-n/s) x`` (contract) or ``2**(n/s) x`` (expand), and reads ``inf``
    where ``phi`` raises.  Built on a ``table`` for ``phi`` and ``s``, it
    returns ``approximant_row(table, mode, n, offset)`` at the table's sample
    points (``-0.0`` finds ``0.0``), so only other points evaluate ``phi``;
    the two differ only where ``phi`` raises and an expand ``offset`` is
    ``inf`` or ``nan``.
    """
    _check_step(n)
    scale = 2.0 ** ((-n if mode is Mode.CONTRACT else n) / params.s)
    description = f"{mode.value} approximant {n} of [{phi.description}], offset {offset:.6g}"

    def formula(xs, raised):
        return _approximant(mode, n, offset, phi.expr(scale * xs, raised))

    if table is None:
        return FunctionHandle(formula, description)
    if table.phi is not phi or table.s != params.s:
        raise ArgumentError("iterate table was built for a different phi or s")
    points = table.point_array
    with np.errstate(over="ignore", invalid="ignore"):
        row = approximant_row(table, mode, n, offset)

    def expr(xs, raised):
        idx = np.minimum(np.searchsorted(points, xs), len(points) - 1)
        out = row[idx]
        miss = np.flatnonzero(points[idx] != xs)
        if miss.size:
            marks = raised[miss]
            out[miss] = formula(xs[miss], marks)
            raised[miss] = marks
        return out

    return FunctionHandle(expr, description)


def route_entry(tau_route: str | None, phi: FunctionHandle, params: EquationParams,
                rho: ModularSpec, grid: Grid, tol: float, n_max: int,
                table: IterateTable | None) -> IterateTable:
    """Every iterating route's argument check; returns the table the route reads.

    ``tol`` must be positive and ``n_max`` in ``1..MAX_N``.  ``tau_route``
    names a route that needs a finite doubling constant, for the refusal
    (``None`` for the expand route).  A ``table`` passed in must have been
    built for the same ``phi``, ``s`` and grid; with none, one is built.
    """
    if tol <= 0:
        raise ArgumentError(f"tol must be positive, got {tol}")
    if not 1 <= n_max <= MAX_N:
        raise ArgumentError(f"n_max must be in 1..{MAX_N}, got {n_max}")
    if tau_route is not None:
        doubling_constant(tau_route, rho)
    if table is None:
        return IterateTable(phi, params.s, grid)
    if table.phi is not phi or table.s != params.s or table.grid != grid:
        raise ArgumentError("iterate table was built for a different phi, s or grid")
    return table


@dataclass(frozen=True)
class LimitResult:
    """Converged (or frozen) per-point approximants plus diagnostics.

    ``values`` and ``cauchy_gap`` are read-only float64 arrays: ``cauchy_gap[i]``
    is the modular of the last approximant step at grid point ``i``, below the
    requested tolerance unless ``saturated``.  ``function`` is the final
    approximant's ``limit_function`` handle on the route's table: the table's
    values at its sample points, ``phi`` anywhere else.
    """

    values: np.ndarray
    achieved_n: int
    cauchy_gap: np.ndarray
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
    (rows ``n`` for ``t2``, rows ``-n`` for ``t1``), with ``q*phi(0)``
    taken once, from ``table.origin()``; pass the table the other routes of
    a run use so that no ``phi`` value is computed twice.  Each step is one
    ``approximant_row``.
    """
    table = route_entry("contract" if mode is Mode.CONTRACT else None,
                        phi, params, rho, grid, tol, n_max, table)
    cols = table.grid_index
    offset = params.q * table.origin() if mode is Mode.EXPAND else 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        current = approximant_row(table, mode, 0, offset)[cols]
        frozen = ~np.isfinite(current)
        current[frozen] = 0.0
        gaps = np.full(len(cols), math.inf)
        saturated = bool(frozen.any())
        streak = 0
        achieved = 0

        for n in range(n_max):
            nxt = approximant_row(table, mode, n + 1, offset)[cols]
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

    current.flags.writeable = gaps.flags.writeable = False  # a memo may share the result
    return LimitResult(
        values=current,
        achieved_n=achieved,
        cauchy_gap=gaps,
        saturated=saturated,
        function=limit_function(mode, phi, params, achieved, offset, table),
    )


@dataclass(frozen=True)
class SeriesBound:
    """A stability-bound series summed in closed form at one point.

    Every term of the series is the previous one times ``ratio``, so the
    whole sum is ``first_term / (1 - ratio)``, as ``route_bounds`` computes
    it; ``value`` and ``upper`` are that sum.  ``terms_used`` is pinned at
    ``1`` and ``tail_estimate`` at ``0``: nothing is truncated.  No report
    prints them; they stay because the benchmark's span recorder reads
    ``terms_used``.  ``converged`` is false whenever
    the ratio is >= 1; no finite bound exists there, and the value is
    ``inf`` (``0`` when the first term vanishes).
    """

    value: float
    terms_used: int
    tail_estimate: float
    converged: bool
    ratio: float

    @property
    def upper(self) -> float:
        return self.value + self.tail_estimate


def series_bound_contract(
    alpha: ControlFunction, tau: float, s: int, x: float
) -> SeriesBound:
    """Contract-route error bound at ``x``::

        (1/2) * sum_{j>=1} (tau**2/2)**j
              * alpha(x/2**(j/s), x/2**(j/s), -x/2**((j-1)/s))

    summed by ``route_bounds`` with the ratio from
    ``route_ratio(Mode.CONTRACT, alpha, s, tau)``; divergent ratios yield an
    infinite flagged bound, never a finite number.
    """
    if tau < 2.0:
        raise ArgumentError(f"doubling constant must be >= 2, got {tau}")
    return _series_at(Mode.CONTRACT, alpha, s, tau, x)


def series_bound_expand(alpha: ControlFunction, s: int, x: float) -> SeriesBound:
    """Expand-route error bound at ``x``::

        (1/2) * sum_{j>=0} 2**(-j)
              * alpha(2**(j/s)*x, 2**(j/s)*x, -2**((j+1)/s)*x)

    summed by ``route_bounds`` with the ratio from
    ``route_ratio(Mode.EXPAND, alpha, s)`` (divergent once ``p >= s`` for
    power control).
    """
    return _series_at(Mode.EXPAND, alpha, s, None, x)


def _series_at(mode: Mode, alpha: ControlFunction, s: int, tau: float | None,
               x: float) -> SeriesBound:
    # route_bounds at the one point x.
    ratio = route_ratio(mode, alpha, s, tau)
    value = route_bounds(mode, tau, ratio, route_line(mode, alpha, s, np.array([x])))
    return SeriesBound(float(value[0]), 1, 0.0, ratio < 1.0, ratio)


def contract_bound_closed_form(
    theta: float, p: float, s: int, tau: float, x: float
) -> float:
    """Closed form of the contract-route series for power control::

        theta * (2 + 2**(p/s)) * r / (2 * (1 - r)) * |x|**p

    with ``r = route_ratio(Mode.CONTRACT, power(theta, p), s, tau)``; valid
    only for ``r < 1``.  A library and test oracle only: no route reads it,
    and where ``r`` underflows to ``0`` while ``|x|**p`` overflows it is
    ``inf * 0 = nan``, though ``route_bounds`` gives ``inf``.
    """
    r = route_ratio(Mode.CONTRACT, ControlFunction.power(theta, p), s, tau)
    if not r < 1.0:
        raise RegimeError(
            f"closed-form bound needs contract ratio < 1, got {r:.6g} (p={p:g})"
        )
    return (theta * (2.0 + pow_or_inf(2.0, p / s)) * r / (2.0 * (1.0 - r))
            * pow_or_inf(abs(x), p))
