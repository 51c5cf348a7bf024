"""Fixed-point construction of the radical mapping via the scaling operator.

The operator ``Lam(g)(x) = g(2**(1/s) * x) / 2`` fixes every exact solution
``c * x**s``.  When the control function shrinks fast enough along that
rescaling -- ``alpha(2**(1/s)x, 2**(1/s)x, -2**(2/s)x) <= 2*L*alpha(x, x,
-2**(1/s)x)`` with ``L < 1`` -- the operator is a strict contraction for the
induced function-space modular

    rho_hat(g) = inf{ lam > 0 : rho(g(x)) <= lam * alpha(x, x, -2**(1/s)x) }

and iterating it from a perturbed solution converges to an exact one with
error at most ``(alpha(x, x, -2**(1/s)x) / 2) / (1-L)``: the expand route's
series bound at ratio ``L``, which ``direct.route_bounds`` computes for both.

Both built-in controls meet it with equality at ``L = route_ratio(Mode.EXPAND,
...)``; ``estimate_contraction`` samples ``L`` independently, as a cross-check.
The section ``alpha(x, x, -2**(1/s)x)`` is ``direct.route_line`` and the
iterates are ``direct.approximant_row``, both of the expand route, at offset
``0``; as ``construct_limit`` does, the route enters through
``direct.route_entry`` and returns a ``direct.limit_function`` handle that
reads its table.
Every fixed-point diagnostic is a running reduction along that one walk.

``rho_hat`` is an infimum over all of R; here it is estimated as a sampled
supremum of ratios, so every reported distance is a certified lower bound of
the true one and results are labelled accordingly.  ``fixed_point_solve``
is gated on a defect audit its caller runs.  The audit comes in two steps:
``audit_defects`` evaluates the equation defect at each triple
(``equation.defect_many``) without reading the control, and
``audit_ratios`` compares those defects with the control's values at the
same triples; a caller auditing several controls on the same ``phi``, ``s``,
``q``, modular and triples computes the defects once.  The control's values
come from ``control_eval_many``, which a caller auditing several ``theta``
hands the power sums ``control_power_sums`` computed once per ``p``.
``audit_defect_hypothesis`` is the two steps composed.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .direct import (Mode, approximant_row, limit_function, representative_point,
                     require_finite_bound, route_bounds, route_entry, route_line, route_ratio)
from .equation import ControlFunction, EquationParams, control_eval_many, defect_many
from .errors import ArgumentError, DefectHypothesisError, RegimeError
from .functions import FunctionHandle
from .iterates import IterateTable
from .modular import ModularSpec, first_max, rho_eval_array
from .sampling import Grid

__all__ = [
    "ContractionCertificate",
    "FixedPointResult",
    "estimate_contraction",
    "audit_defects",
    "audit_ratios",
    "audit_defect_hypothesis",
    "fixed_point_solve",
]


@dataclass(frozen=True)
class ContractionCertificate:
    """Sampled contraction factor of the scaling operator.

    ``l_hat`` is the max over checked samples of
    ``alpha(2**(1/s)x, 2**(1/s)x, -2**(2/s)x) / (2 * alpha(x, x, -2**(1/s)x))``;
    the certificate is valid only for ``l_hat < 1`` (the boundary is
    excluded).  A cross-check of the closed-form ``route_ratio``; nothing
    is gated on it.
    """

    l_hat: float
    worst_sample: float
    valid: bool
    samples_checked: int
    samples_skipped: int = 0


def _expand_line(alpha: ControlFunction, s: int, xs: np.ndarray,
                 line: np.ndarray | None) -> np.ndarray:
    """The expand ``route_line`` at ``xs``: the caller's ``line``, or computed."""
    if line is None:
        return route_line(Mode.EXPAND, alpha, s, xs)
    if line.shape != xs.shape:
        raise ArgumentError(f"line has shape {line.shape}, the samples {xs.shape}")
    return line


def estimate_contraction(
    alpha: ControlFunction, s: int, samples: np.ndarray | list[float], *,
    line: np.ndarray | None = None,
) -> ContractionCertificate:
    """Estimate the contraction factor of the scaling operator from 1-D ``samples``.

    Samples with a vanishing denominator are skipped; if everything is
    skipped there is nothing to certify and an error is raised.  ``line``,
    if given, is ``route_line(Mode.EXPAND, alpha, s, samples)`` computed by
    the caller.
    """
    xs = np.asarray(samples, dtype=float)
    if not xs.size:
        raise ArgumentError("estimate_contraction needs a nonempty sample list")
    root = 2.0 ** (1.0 / s)
    line = _expand_line(alpha, s, xs, line)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        denom = 2.0 * line
        num = control_eval_many(alpha, root * xs, root * xs, -(root * root) * xs)
        skip = denom <= 0.0
        k, l_hat = first_max(np.where(skip, math.nan, num / denom), -math.inf)
    if k is None:
        raise ArgumentError(
            "estimate_contraction: control vanished at every sample; nothing to certify"
        )
    skipped = int(np.count_nonzero(skip))
    return ContractionCertificate(
        l_hat=l_hat,
        worst_sample=float(xs[k]),
        valid=l_hat < 1.0,
        samples_checked=xs.size - skipped,
        samples_skipped=skipped,
    )


def audit_defects(
    phi: FunctionHandle,
    params: EquationParams,
    rho: ModularSpec,
    triples: np.ndarray | list[tuple[float, float, float]],
) -> np.ndarray:
    """The equation defect of ``phi`` at each triple: the audit's alpha-free step.

    ``equation.defect_many`` at the triples, an ``(n, 3)`` array or a list;
    a triple whose ``x**s`` leaves the float range has defect ``inf``.
    Nothing here reads the control, so one array serves every control
    function audited on the same triples.
    """
    x, y, z = np.asarray(triples, dtype=float).reshape(-1, 3).T
    return defect_many(params, phi, rho, x, y, z)


def audit_ratios(defects: np.ndarray | list[float], controls: np.ndarray,
                 triples: np.ndarray | list[tuple[float, float, float]]) -> dict:
    """Compare the defects ``audit_defects`` found with the control's values on the same triples.

    ``controls`` is ``control_eval_many`` at ``triples`` (a nonempty ``(n, 3)``
    array or list).  Returns max defect, max defect/alpha ratio and the worst
    triple as floats: the first with the largest ratio, ``triples[0]`` when no
    ratio is above zero.  Where the control vanishes, or overflows to ``inf``
    and so certifies nothing, the ratio is ``inf`` unless the defect vanishes too.
    """
    if not len(triples):
        raise ArgumentError("the defect audit needs at least one triple")
    d = np.asarray(defects, dtype=float)
    live = (0.0 < controls) & (controls < math.inf)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ratio = np.where(live, d / np.where(live, controls, 1.0),
                         np.where(d > 0.0, math.inf, 0.0))
    _, max_defect = first_max(d, 0.0)
    k, max_ratio = first_max(ratio, 0.0)
    return {
        "triples": len(triples),
        "max_defect": max_defect,
        "max_ratio": max_ratio,
        "worst_triple": tuple(map(float, triples[0 if k is None else k])),
        "hypothesis_ok": max_ratio <= 1.0 + 1e-9,
    }


def audit_defect_hypothesis(
    phi: FunctionHandle,
    params: EquationParams,
    rho: ModularSpec,
    alpha: ControlFunction,
    triples: np.ndarray | list[tuple[float, float, float]],
) -> dict:
    """Compare the equation defect of ``phi`` against the control on triples.

    ``audit_ratios`` of ``audit_defects``: see those for the result and for
    how a vanishing or overflowing control and an out-of-range triple count.
    """
    x, y, z = np.asarray(triples, dtype=float).reshape(-1, 3).T
    return audit_ratios(audit_defects(phi, params, rho, triples),
                        control_eval_many(alpha, x, y, z), triples)


def _rho_hat_rows(diffs: np.ndarray, denoms: np.ndarray, rho: ModularSpec) -> np.ndarray:
    """Sampled function-space gap of each row of ``diffs`` (samples on the last axis).

    ``max(0, max_k rho(d_k) / a_k)`` per row, where a non-finite difference
    counts as an infinite ratio and a nan ratio is passed over, as in a
    scalar running maximum that starts at zero.
    """
    finite = np.isfinite(diffs)
    ratio = np.where(finite, rho_eval_array(rho, diffs) / denoms, math.inf)
    return np.fmax.reduce(ratio, axis=-1, initial=0.0)


def _walk(rows: Iterable[np.ndarray], denoms: np.ndarray, rho: ModularSpec,
          tol: float) -> tuple[list[float], list[float], float, bool]:
    """Gap history, quasi-contraction ratios, ``delta_hat`` and ``saturated``, in one pass.

    ``rows``, the sampled iterates from row 0, are read until a gap
    ``rho_hat(it[n+1] - it[n])`` falls below ``tol``; ``saturated`` if none
    does.  At step ``n >= 1``, with ``(f, g) = (it[n-1], it[n])``, the
    quasi-contraction ratio is ``rho_hat(Lam f - Lam g)`` over the largest of
    ``rho_hat(f - g)``, ``rho_hat(f - Lam f)``, ``rho_hat(g - Lam g)`` and
    ``rho_hat(f - Lam g)``; a step whose largest distance is zero gives none.
    ``delta_hat``, the largest ``rho_hat(it[i] - it[j])`` over all pairs read,
    is the gap of each column's rounded range ``hi - lo``, as rounded
    subtraction, rho and the division by the control are monotone.  A
    non-finite iterate makes its column's range non-finite (``max`` and
    ``min`` pass ``nan`` on; ``inf - inf`` is ``nan``): an infinite gap.
    """
    rows = iter(rows)
    f = g = next(rows)
    hi, lo = g.copy(), g.copy()
    diffs = np.empty((2, g.size))  # it[n+1] - it[n] and it[n-1] - it[n+1]
    gaps, quasi = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for lam_g in rows:
            np.subtract(lam_g, g, out=diffs[0])
            np.subtract(f, lam_g, out=diffs[1])  # unread at step 0
            gap, far = _rho_hat_rows(diffs, denoms, rho).tolist()
            if gaps and (largest := max(gaps[-1], gap, far)) > 0.0:
                quasi.append(gap / largest)
            gaps.append(gap)
            np.maximum(hi, lam_g, out=hi)
            np.minimum(lo, lam_g, out=lo)
            f, g = g, lam_g
            if gap < tol:
                break
        delta_hat = float(_rho_hat_rows(hi - lo, denoms, rho))
    return gaps, quasi, delta_hat, not gaps[-1] < tol


@dataclass(frozen=True)
class FixedPointResult:
    """Outcome of iterating the scaling operator to its fixed point.

    ``gap_history[k]`` is the sampled function-space gap between iterates
    ``k`` and ``k+1``; successive entries shrink by roughly the closed-form
    contraction factor ``l_hat``.  ``quasi_contraction[k]`` is the
    five-distance contraction ratio observed at step ``k`` (diagnostic only).
    ``delta_hat_window`` is the largest pairwise gap over the computed
    iterates, read off each sample's running range -- the finite-window
    stand-in for an all-pairs supremum.  No verdict reads the two, but a
    report keeps them: they sample the fixed-point method's hypotheses, a
    bounded orbit of ``phi`` and a quasi-contraction.  ``values``,
    ``point_gap`` and ``bound`` are read-only float64 arrays; whether the
    final iterate meets ``bound`` is ``verify_stability_bound``'s check.
    ``function`` is the final iterate's ``limit_function`` handle on the
    route's table.
    """

    values: np.ndarray
    point_gap: np.ndarray
    iterations: int
    rho_hat_gap: float
    gap_history: tuple[float, ...]
    bound: np.ndarray
    l_hat: float
    saturated: bool
    origin_offset: float
    delta_hat_window: float
    quasi_contraction: tuple[float, ...]
    function: FunctionHandle


def fixed_point_solve(
    phi: FunctionHandle,
    params: EquationParams,
    rho: ModularSpec,
    alpha: ControlFunction,
    grid: Grid,
    tol: float = 1e-9,
    n_max: int = 60,
    *,
    audit: dict,
    table: IterateTable | None = None,
    line: np.ndarray | None = None,
) -> FixedPointResult:
    """Iterate the scaling operator on ``phi`` until the sampled gap drops below ``tol``.

    Preconditions, refused in this order before ``phi`` is evaluated: a
    modular with a finite doubling constant, a contraction factor ``L =
    route_ratio(Mode.EXPAND, alpha, s) < 1``, a defect hypothesis ``defect <=
    alpha`` that ``audit``, the dict ``audit_ratios`` returns for the
    caller's triples, upholds, and a finite bound at ``representative_point``
    (a ``RegimeError`` has ``diagnostics == {"l_hat": L}``).  The bounds are
    ``route_bounds`` of the expand route at ratio ``L``: its series bounds.

    The iterates ``Lam**n(phi)(x) = phi(2**(n/s) x) / 2**n`` are expand
    rows of ``approximant_row`` with no offset -- the rows ``table.row(n)``
    the expand route reads, so a shared table evaluates ``phi`` once for both
    routes -- and ``function`` is the expand ``limit_function`` at offset 0
    on that table.
    The gap history, the quasi-contraction ratios and ``delta_hat_window`` are
    running reductions along the one walk (``_walk``), so the route holds
    three sampled iterates, not all of them.  ``line``, if given, is
    ``route_line(Mode.EXPAND, alpha, s, table.point_array)`` computed by the
    caller.
    """
    table = route_entry("fixed-point", phi, params, rho, grid, tol, n_max, table)
    l_factor = route_ratio(Mode.EXPAND, alpha, params.s)
    if not l_factor < 1.0:
        raise RegimeError(
            f"contraction factor {l_factor:.6g} >= 1: fixed-point route inapplicable",
            l_hat=l_factor,
        )
    if not audit["hypothesis_ok"]:
        worst = tuple(audit["worst_triple"])
        raise DefectHypothesisError(
            "equation defect exceeds the control function: ratio "
            f"{audit['max_ratio']:.6g} at triple {worst}",
            worst_triple=worst,
            ratio=audit["max_ratio"],
        )

    s = params.s
    line = _expand_line(alpha, s, table.point_array, line)
    cols = table.grid_index
    bounds = route_bounds(Mode.EXPAND, None, l_factor, line[cols])
    x, end = representative_point(grid)
    require_finite_bound(x, "fixed-point bound", bounds[end], "l_hat", l_factor)
    samples = np.flatnonzero(line > 0.0)
    denoms = line[samples]

    def iterate(n: int, idx: np.ndarray) -> np.ndarray:
        # Lam^n(phi) at the given sample columns; an overflowed phi value is
        # inf already, so a runaway iterate saturates instead of aborting.
        return approximant_row(table, Mode.EXPAND, n)[idx]

    with np.errstate(over="ignore", invalid="ignore"):
        walk = (iterate(n, samples) for n in range(n_max + 1))
        gap_history, quasi, delta_hat, saturated = _walk(walk, denoms, rho, tol)
        iterations = len(gap_history)
        values = iterate(iterations, cols)
        point_gap = rho_eval_array(rho, values - iterate(iterations - 1, cols))
    values.flags.writeable = point_gap.flags.writeable = bounds.flags.writeable = False
    return FixedPointResult(
        values=values,
        point_gap=point_gap,
        iterations=iterations,
        rho_hat_gap=gap_history[-1],
        gap_history=tuple(gap_history),
        bound=bounds,
        l_hat=l_factor,
        saturated=saturated,
        origin_offset=table.origin(),
        delta_hat_window=delta_hat,
        quasi_contraction=tuple(quasi),
        function=limit_function(Mode.EXPAND, phi, params, iterations, 0.0, table),
    )
