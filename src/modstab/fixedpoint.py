"""Fixed-point construction of the radical mapping via the scaling operator.

The operator ``Lam(g)(x) = g(2**(1/s) * x) / 2`` fixes every exact solution
``c * x**s``.  When the control function shrinks fast enough along that
rescaling -- ``alpha(2**(1/s)x, 2**(1/s)x, -2**(2/s)x) <= 2*L*alpha(x, x,
-2**(1/s)x)`` with ``L < 1`` -- the operator is a strict contraction for the
induced function-space modular

    rho_hat(g) = inf{ lam > 0 : rho(g(x)) <= lam * alpha(x, x, -2**(1/s)x) }

and iterating it from a perturbed solution converges to an exact one with
error at most ``alpha(x, x, -2**(1/s)x) / (2*(1-L))``.

Both built-in controls meet it with equality at ``L = route_ratio(Mode.EXPAND,
...)``; ``estimate_contraction`` samples ``L`` independently, as a cross-check.

``rho_hat`` is an infimum over all of R; here it is estimated as a sampled
supremum of ratios, so every reported distance is a certified lower bound of
the true one and results are labelled accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .direct import MAX_N, Mode, route_ratio
from .equation import ControlFunction, EquationParams, control_eval, defect
from .errors import (
    ArgumentError,
    ContractViolation,
    DefectHypothesisError,
    RegimeError,
)
from .functions import FunctionHandle
from .iterates import IterateTable
from .modular import ModularSpec, rho_eval, rho_eval_array
from .sampling import Grid, corner_triples, seeded_triples

__all__ = [
    "ContractionCertificate",
    "FixedPointResult",
    "lambda_apply",
    "estimate_contraction",
    "rho_hat_distance",
    "audit_defect_hypothesis",
    "fixed_point_solve",
]


def lambda_apply(g: FunctionHandle, s: int, x: float) -> float:
    """One application of the scaling operator: ``g(2**(1/s) * x) / 2``."""
    if s < 3 or s % 2 == 0:
        raise ArgumentError(f"lambda_apply needs odd s >= 3, got {s}")
    return g(2.0 ** (1.0 / s) * x) / 2.0


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


def _alpha_line(alpha: ControlFunction, s: int, x: float) -> float:
    # The one-variable section alpha(x, x, -2**(1/s) x) used throughout.
    return control_eval(alpha, x, x, -(2.0 ** (1.0 / s)) * x)


def estimate_contraction(
    alpha: ControlFunction, s: int, samples: list[float]
) -> ContractionCertificate:
    """Estimate the contraction factor of the scaling operator from samples.

    Samples with a vanishing denominator are skipped; if everything is
    skipped there is nothing to certify and an error is raised.
    """
    if not samples:
        raise ArgumentError("estimate_contraction needs a nonempty sample list")
    root = 2.0 ** (1.0 / s)
    l_hat = -math.inf
    worst = None
    skipped = 0
    for x in samples:
        denom = 2.0 * _alpha_line(alpha, s, x)
        if denom <= 0.0:
            skipped += 1
            continue
        num = control_eval(alpha, root * x, root * x, -(root * root) * x)
        ratio = num / denom
        if ratio > l_hat:
            l_hat, worst = ratio, x
    if worst is None:
        raise ArgumentError(
            "estimate_contraction: control vanished at every sample; nothing to certify"
        )
    return ContractionCertificate(
        l_hat=l_hat,
        worst_sample=worst,
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
    for x in samples:
        denom = _alpha_line(alpha, s, x)
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


def audit_defect_hypothesis(
    phi: FunctionHandle,
    params: EquationParams,
    rho: ModularSpec,
    alpha: ControlFunction,
    triples: list[tuple[float, float, float]],
) -> dict:
    """Compare the equation defect of ``phi`` against the control on triples.

    Returns max defect, max defect/alpha ratio and the worst triple.  Where
    the control vanishes, or overflows to ``inf`` and so certifies nothing,
    the ratio is ``inf`` unless the defect vanishes too.  A triple whose ``x**s`` leaves the float range (``RangeError``)
    counts as defect ``inf``.
    """
    max_defect = 0.0
    max_ratio = 0.0
    worst = triples[0]
    for (x, y, z) in triples:
        try:
            d = defect(params, phi, rho, x, y, z)
        except OverflowError:
            d = math.inf
        if d > max_defect:
            max_defect = d
        a = control_eval(alpha, x, y, z)
        ratio = d / a if 0.0 < a < math.inf else (math.inf if d > 0.0 else 0.0)
        if ratio > max_ratio:
            max_ratio, worst = ratio, (x, y, z)
    return {
        "triples": len(triples),
        "max_defect": max_defect,
        "max_ratio": max_ratio,
        "worst_triple": worst,
        "hypothesis_ok": max_ratio <= 1.0 + 1e-9,
    }


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
    """

    grid: Grid
    values: tuple[float, ...]
    point_gap: tuple[float, ...]
    iterations: int
    rho_hat_gap: float
    gap_history: tuple[float, ...]
    bound: tuple[float, ...]
    bound_ok: tuple[bool, ...]
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
    triple_count: int = 500,
    seed: int = 0,
    bound_tol: float = 1e-9,
    audit: dict | None = None,
    table: IterateTable | None = None,
) -> FixedPointResult:
    """Iterate the scaling operator on ``phi`` until the sampled gap drops below ``tol``.

    Preconditions enforced here: a contraction factor
    ``L = route_ratio(Mode.EXPAND, alpha, s) < 1``, a modular with a finite
    doubling constant, and an audited defect hypothesis ``defect <= alpha``
    over ``triple_count`` seeded triples in the grid box plus its corners
    (run here when no ``audit`` result of ``audit_defect_hypothesis`` on
    those triples is supplied).  The bounds ``alpha(x, x, -2**(1/s)x) /
    (2*(1-L))`` are the expand route's series bounds.

    The iterates ``Lam**n(phi)(x) = phi(2**(n/s) x) / 2**n`` are read off
    the expand rows of an ``IterateTable`` -- the rows the expand route
    reads, so a shared table evaluates ``phi`` once for both routes.  The
    gap history, the quasi-contraction ratios and ``delta_hat_window`` are
    array reductions over the stacked iterate window.
    """
    if tol <= 0:
        raise ArgumentError(f"tol must be positive, got {tol}")
    if not 1 <= n_max <= MAX_N:
        raise ArgumentError(f"n_max must be in 1..{MAX_N}, got {n_max}")
    if rho.delta2_tau is None:
        raise ContractViolation(
            "fixed-point route needs a modular with a finite doubling constant "
            f"(delta2_tau); {rho.spec_string()} has none"
        )
    if table is None:
        table = IterateTable(phi, params.s, grid)
    else:
        table.check_serves(phi, params.s, grid)
    l_factor = route_ratio(Mode.EXPAND, alpha, params.s)
    if not l_factor < 1.0:
        raise RegimeError(
            f"contraction factor {l_factor:.6g} >= 1: "
            "the scaling operator is not a strict contraction for this control"
        )
    if audit is None:
        triples = seeded_triples(grid.lo, grid.hi, triple_count, seed) + corner_triples(
            grid.lo, grid.hi
        )
        audit = audit_defect_hypothesis(phi, params, rho, alpha, triples)
    if not audit["hypothesis_ok"]:
        worst = tuple(audit["worst_triple"])
        raise DefectHypothesisError(
            "equation defect exceeds the control function: ratio "
            f"{audit['max_ratio']:.6g} at triple {worst}",
            worst_triple=worst,
            ratio=audit["max_ratio"],
        )

    s = params.s
    line = np.array([_alpha_line(alpha, s, x) for x in table.points])
    samples = np.flatnonzero(line > 0.0)
    denoms = line[samples]
    cols = table.grid_index

    def iterate(n: int, idx: np.ndarray) -> np.ndarray:
        # Lam^n(phi) at the given sample columns; an overflowed phi value is
        # inf already, so a runaway iterate saturates instead of aborting.
        return table.expand(n)[idx] / 2.0**n

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
        bounds = line[cols] / (2.0 * (1.0 - l_factor))
        slack = rho_eval_array(rho, table.expand(0)[cols] - values) - bounds
    final = FunctionHandle(
        expr=phi.scaled(outer=2.0**-iterations, inner=2.0 ** (iterations / s)).expr,
        description=f"fixed-point iterate {iterations} of [{phi.description}]",
        seed=phi.seed,
    )
    return FixedPointResult(
        grid=grid,
        values=tuple(values.tolist()),
        point_gap=tuple(point_gap.tolist()),
        iterations=iterations,
        rho_hat_gap=gap_history[-1] if gap_history else 0.0,
        gap_history=tuple(gap_history),
        bound=tuple(bounds.tolist()),
        bound_ok=tuple((slack <= bound_tol).tolist()),
        l_hat=l_factor,
        saturated=saturated,
        origin_offset=table.origin(),
        delta_hat_window=delta_hat,
        quasi_contraction=tuple(quasi.tolist()),
        function=final,
    )
