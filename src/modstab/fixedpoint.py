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
``direct.route_entry`` and returns a ``direct.limit_function`` handle.

``rho_hat`` is an infimum over all of R; here it is estimated as a sampled
supremum of ratios, so every reported distance is a certified lower bound of
the true one and results are labelled accordingly.  ``rho_hat_distance`` is
that estimate for one pair of functions, the scalar reference the tests hold
the array gap kernels to.  ``fixed_point_solve`` is gated on a defect audit
its caller runs.  The audit comes in two steps: ``audit_defects`` evaluates
the equation defect at each triple without reading the control, and
``audit_ratios`` compares those defects with the control's values at the
same triples; a caller auditing several controls on the same ``phi``, ``s``,
``q``, modular and triples computes the defects once.  The control's values
come from ``control_eval_many``, which a caller auditing several ``theta``
hands the power sums ``control_power_sums`` computed once per ``p``.
``audit_defect_hypothesis`` is the two steps composed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .direct import (Mode, approximant_row, limit_function, route_bounds, route_entry,
                     route_line, route_ratio)
from .equation import (
    ControlFunction,
    EquationParams,
    control_eval_many,
    radical_root_many,
)
from .errors import ArgumentError, DefectHypothesisError, RegimeError
from .functions import FunctionHandle, power
from .iterates import IterateTable
from .modular import ModularSpec, first_max, rho_eval, rho_eval_array
from .sampling import Grid

__all__ = [
    "ContractionCertificate",
    "FixedPointResult",
    "estimate_contraction",
    "rho_hat_distance",
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
    alpha: ControlFunction, s: int, samples: list[float], *, line: np.ndarray | None = None
) -> ContractionCertificate:
    """Estimate the contraction factor of the scaling operator from samples.

    Samples with a vanishing denominator are skipped; if everything is
    skipped there is nothing to certify and an error is raised.  ``line``,
    if given, is ``route_line(Mode.EXPAND, alpha, s, samples)`` computed by
    the caller.
    """
    if not samples:
        raise ArgumentError("estimate_contraction needs a nonempty sample list")
    root = 2.0 ** (1.0 / s)
    xs = np.asarray(samples, dtype=float)
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
        worst_sample=samples[k],
        valid=l_hat < 1.0,
        samples_checked=len(samples) - skipped,
        samples_skipped=skipped,
    )


def rho_hat_distance(
    f: FunctionHandle,
    g: FunctionHandle,
    alpha: ControlFunction,
    rho: ModularSpec,
    s: int,
    samples: list[float],
) -> float:
    """Sampled estimate of the function-space modular distance of ``f - g``.

    Max over samples of ``rho(f(x) - g(x)) / alpha(x, x, -2**(1/s)x)``;
    zero-denominator samples are skipped.
    """
    best = None
    denoms = route_line(Mode.EXPAND, alpha, s, np.asarray(samples, dtype=float))
    for x, denom in zip(samples, denoms.tolist()):
        if denom <= 0.0:
            continue
        ratio = rho_eval(rho, f(x) - g(x)) / denom
        if best is None or ratio > best:
            best = ratio
    if best is None:
        raise ArgumentError(
            "rho_hat_distance: control vanished at every sample; nothing to estimate"
        )
    return best


def audit_defects(
    phi: FunctionHandle,
    params: EquationParams,
    rho: ModularSpec,
    triples: list[tuple[float, float, float]],
) -> list[float]:
    """The equation defect of ``phi`` at each triple: the audit's alpha-free step.

    ``defect`` at each triple, bit for bit, as array code: the powers
    ``x**s`` are ``functions.power`` (builtin ``pow`` bit for bit), the
    combined arguments are ``radical_root_many`` of ``((x**s + y**s) +
    z**s) / q``, ``phi`` takes the coordinates and the combined arguments in
    one ``FunctionHandle.many`` batch, and the residual ``((phi(x) + phi(y))
    + phi(z)) - q*phi(w)`` goes through ``rho_eval_array``.  A triple where
    ``defect`` raises ``OverflowError``, one whose ``x**s`` leaves the float
    range, counts as defect ``inf``.  A sum of finite powers over a nonzero
    ``q`` is finite or ``+-inf``, and so is its root.  Nothing here reads the
    control, so one list serves every control function audited on the same
    triples.
    """
    s, q = params.s, params.q
    coords = np.array(triples, dtype=float).reshape(-1, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = power(coords, s)
        live = np.flatnonzero(np.isfinite(powers).all(axis=1))
        x, y, z = coords[live].T
        px, py, pz = powers[live].T
        w = radical_root_many((px + py + pz) / q, s)
        fx, fy, fz, fw = phi.many(np.concatenate((x, y, z, w))).reshape(4, -1)
        defects = np.full(len(coords), math.inf)
        defects[live] = rho_eval_array(rho, fx + fy + fz - q * fw)
    return defects.tolist()


def audit_ratios(
    defects: list[float],
    controls: np.ndarray,
    triples: list[tuple[float, float, float]],
) -> dict:
    """Compare the defects ``audit_defects`` found with the control's values on the same triples.

    ``controls`` is ``control_eval_many`` at the triples.  Returns max
    defect, max defect/alpha ratio and the worst triple: the first triple
    with the largest ratio, ``triples[0]`` when no ratio is above zero.
    Where the control vanishes, or overflows to ``inf`` and so certifies
    nothing, the ratio is ``inf`` unless the defect vanishes too.
    """
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
        "worst_triple": triples[0] if k is None else triples[k],
        "hypothesis_ok": max_ratio <= 1.0 + 1e-9,
    }


def audit_defect_hypothesis(
    phi: FunctionHandle,
    params: EquationParams,
    rho: ModularSpec,
    alpha: ControlFunction,
    triples: list[tuple[float, float, float]],
) -> dict:
    """Compare the equation defect of ``phi`` against the control on triples.

    ``audit_ratios`` of ``audit_defects``: see those for the result and for
    how a vanishing or overflowing control and an out-of-range triple count.
    """
    x, y, z = np.array(triples, dtype=float).reshape(-1, 3).T
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


def _quasi_contraction(window: np.ndarray, gaps: np.ndarray, denoms: np.ndarray,
                       rho: ModularSpec) -> np.ndarray:
    """Five-distance quasi-contraction ratios of an iterate window.

    At step ``n >= 1``, with ``(f, g) = (it[n-1], it[n])``, the ratio is
    ``rho_hat(Lam f - Lam g)`` over the largest of ``rho_hat(f - g)``,
    ``rho_hat(f - Lam f)``, ``rho_hat(g - Lam g)`` and ``rho_hat(f - Lam g)``;
    steps whose largest distance is zero give no ratio.
    """
    d_f_lg = _rho_hat_rows(window[:-2] - window[2:], denoms, rho)
    denom = np.maximum(np.maximum(gaps[:-1], gaps[1:]), d_f_lg)
    live = denom > 0.0
    return gaps[1:][live] / denom[live]


def _delta_hat_window(window: np.ndarray, denoms: np.ndarray, rho: ModularSpec) -> float:
    """Largest sampled gap ``rho_hat(it[i] - it[j])`` over all iterate pairs.

    Rounded subtraction is monotone in each operand, so in every sample
    column the largest ``|it[i] - it[j]|`` is the rounded column range; rho
    and the division by the control are monotone too, so the all-pairs
    maximum is the gap of the column ranges.  A column holding a non-finite
    iterate has a non-finite pair difference, which counts as infinite.
    """
    if len(window) < 2:
        return 0.0
    finite = np.isfinite(window).all(axis=0)
    spread = np.where(finite, window.max(axis=0) - window.min(axis=0), math.inf)
    return float(_rho_hat_rows(spread, denoms, rho))


@dataclass(frozen=True)
class FixedPointResult:
    """Outcome of iterating the scaling operator to its fixed point.

    ``gap_history[k]`` is the sampled function-space gap between iterates
    ``k`` and ``k+1``; successive entries shrink by roughly the closed-form
    contraction factor ``l_hat``.  ``quasi_contraction[k]`` is the
    five-distance contraction ratio observed at step ``k`` (diagnostic only).
    ``delta_hat_window`` is the largest pairwise gap over the computed
    iterate window -- the finite-window stand-in for an all-pairs supremum.
    Whether the final iterate meets ``bound`` is ``verify_stability_bound``'s check.
    """

    values: tuple[float, ...]
    point_gap: tuple[float, ...]
    iterations: int
    rho_hat_gap: float
    gap_history: tuple[float, ...]
    bound: tuple[float, ...]
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

    Preconditions enforced here: a contraction factor
    ``L = route_ratio(Mode.EXPAND, alpha, s) < 1``, a modular with a finite
    doubling constant, and a defect hypothesis ``defect <= alpha`` that
    ``audit``, the result of ``audit_defect_hypothesis`` on the caller's
    triples, upholds.  The bounds are ``route_bounds`` of the expand route at
    ratio ``L``: the expand route's series bounds.

    The iterates ``Lam**n(phi)(x) = phi(2**(n/s) x) / 2**n`` are expand
    rows of ``approximant_row`` with no offset -- the rows ``table.row(n)``
    the expand route reads, so a shared table evaluates ``phi`` once for both
    routes -- and ``function`` is the expand ``limit_function`` at offset 0.
    The gap history, the quasi-contraction ratios and ``delta_hat_window`` are
    array reductions over the stacked iterate window.  ``line``, if given, is
    ``route_line(Mode.EXPAND, alpha, s, table.point_array)`` computed by the
    caller.
    """
    table = route_entry("fixed-point", phi, params, rho, grid, tol, n_max, table)
    l_factor = route_ratio(Mode.EXPAND, alpha, params.s)
    if not l_factor < 1.0:
        raise RegimeError(
            f"contraction factor {l_factor:.6g} >= 1: "
            "the scaling operator is not a strict contraction for this control"
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
    samples = np.flatnonzero(line > 0.0)
    denoms = line[samples]
    cols = table.grid_index

    def iterate(n: int, idx: np.ndarray) -> np.ndarray:
        # Lam^n(phi) at the given sample columns; an overflowed phi value is
        # inf already, so a runaway iterate saturates instead of aborting.
        return approximant_row(table, Mode.EXPAND, n)[idx]

    with np.errstate(over="ignore", invalid="ignore"):
        rows = [iterate(0, samples)]
        gap_history: list[float] = []
        saturated = False
        iterations = 0
        for n in range(n_max):
            rows.append(iterate(n + 1, samples))
            gap = float(_rho_hat_rows(rows[n + 1] - rows[n], denoms, rho))
            gap_history.append(gap)
            iterations = n + 1
            if gap < tol:
                break
        else:
            saturated = True

        window = np.array(rows)
        quasi = _quasi_contraction(window, np.array(gap_history), denoms, rho)
        delta_hat = _delta_hat_window(window, denoms, rho)

        values = iterate(iterations, cols)
        point_gap = rho_eval_array(rho, values - iterate(iterations - 1, cols))
        bounds = route_bounds(Mode.EXPAND, None, l_factor, line[cols])
    return FixedPointResult(
        values=tuple(values.tolist()),
        point_gap=tuple(point_gap.tolist()),
        iterations=iterations,
        rho_hat_gap=gap_history[-1] if gap_history else 0.0,
        gap_history=tuple(gap_history),
        bound=tuple(bounds.tolist()),
        l_hat=l_factor,
        saturated=saturated,
        origin_offset=table.origin(),
        delta_hat_window=delta_hat,
        quasi_contraction=tuple(quasi.tolist()),
        function=limit_function(Mode.EXPAND, phi, params, iterations, 0.0),
    )
