"""Cross-cutting checks tying constructed limits back to the equation.

Each check returns a ``CheckOutcome`` whose ``worst_value`` is the largest
violation found; the check passes exactly when that stays within tolerance.
Checks never raise on mathematical failure -- only on malformed arguments.
A per-point measure that overflows (a saturated limit evaluated far out)
counts as a violation of ``inf``: the handles and ``rho_eval`` evaluate to
``inf`` there themselves, and an additivity pair whose ``x**s`` leaves the
float range is counted the same way.

Every check is one array expression over its sample points followed by
``first_max``, the first maximum a scalar running maximum would keep.  A
function to check is a ``FunctionHandle``, read in one ``many`` batch per
check argument.  The pipeline passes the limit functions as
``direct.limit_function`` handles on the ``IterateTable``, which return the
table's values at its sample points and evaluate ``phi`` only off them
(``-x`` on an asymmetric grid, ``0.0``, an additivity root).

The additivity pairs depend only on ``s`` and the grid: ``additivity_pairs``
builds the strided pair indices, ``x**s`` once per grid point
(``functions.power``, the builtin ``pow`` bit for bit) and the root ``w`` of
``x**s + y**s`` once per unordered pair (``radical_root_many``), and a
caller checking several functions passes it as ``pairs=``.  ``a(w)`` then
costs one evaluation per unordered pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equation import radical_root_many
from .errors import ArgumentError
from .functions import FunctionHandle, power
from .modular import ModularSpec, first_max, rho_eval, rho_eval_array
from .sampling import Grid

__all__ = [
    "CheckOutcome",
    "AdditivityPairs",
    "additivity_pairs",
    "first_max",
    "verify_radical_additivity",
    "verify_oddness",
    "verify_stability_bound",
    "cross_check",
]

MAX_ADDITIVITY_PAIRS = 2000
LIMIT_CHECK_TOL = 1e-6  # additivity, oddness and agreement of constructed limits
BOUND_CHECK_TOL = 1e-9  # slack granted to the stability bound


@dataclass(frozen=True)
class CheckOutcome:
    """One named verdict; ``passed`` iff ``worst_value <= tolerance``."""

    name: str
    passed: bool
    worst_point: object
    worst_value: float
    tolerance: float


@dataclass(frozen=True, eq=False)
class AdditivityPairs:
    """The pairs ``verify_radical_additivity`` visits for one ``s`` and grid.

    Visited pair ``k`` is ``(pts[first[k]], pts[second[k]])``, in row-major
    order over the Cartesian square, every ``stride``-th flat index.
    ``finite[k]`` says whether both ``x**s`` and ``y**s`` are floats, and
    for those pairs ``roots[root_of[k']]`` is ``radical_root_many`` of
    ``x**s + y**s``, one root per unordered pair (the sum commutes, bit for
    bit); ``k'`` counts the finite pairs only.  The roots are in ascending
    order of the unordered pair's point indices ``(min, max)``.
    """

    points: np.ndarray
    first: np.ndarray
    second: np.ndarray
    finite: np.ndarray
    roots: np.ndarray
    root_of: np.ndarray


def additivity_pairs(s: int, grid: Grid) -> AdditivityPairs:
    """Pair geometry of the additivity check; reads nothing but ``s`` and the grid.

    The square holds ``n**2`` pairs; when that exceeds
    ``MAX_ADDITIVITY_PAIRS`` only every ``stride``-th flat index is visited,
    ``stride = ceil(n**2 / MAX_ADDITIVITY_PAIRS)``, and the square itself is
    never built.
    """
    if s < 3 or s % 2 == 0:
        raise ArgumentError(f"additivity pairs need odd s >= 3, got {s}")
    pts = grid.point_array
    n = len(pts)
    stride = -(-n * n // MAX_ADDITIVITY_PAIRS)  # 1 whenever the square fits
    flat = np.arange(0, n * n, stride)
    first, second = flat // n, flat % n
    with np.errstate(over="ignore", invalid="ignore"):
        powers = power(pts, s)  # builtin x**s bit for bit; nan past the float range
        in_range = np.isfinite(powers)
        finite = in_range[first] & in_range[second]
        i, j = first[finite], second[finite]
        # One key per unordered pair, min * n + max; the roots follow the sorted keys.
        keys, root_of = np.unique(np.minimum(i, j) * n + np.maximum(i, j), return_inverse=True)
        roots = radical_root_many(powers[keys // n] + powers[keys % n], s)
    return AdditivityPairs(pts, first, second, finite, roots, root_of)


def _outcome(name: str, worst_point, worst_value: float, tol: float) -> CheckOutcome:
    return CheckOutcome(name, worst_value <= tol, worst_point, worst_value, tol)


def verify_radical_additivity(
    a: FunctionHandle,
    rho: ModularSpec,
    s: int,
    grid: Grid,
    pairs: AdditivityPairs | None = None,
) -> CheckOutcome:
    """Pairwise additivity under the radical: ``a((x^s+y^s)^(1/s)) = a(x)+a(y)``.

    Over the pairs of ``additivity_pairs(s, grid)`` (pass them as ``pairs``
    to share them between functions), ``rho(a(w) - a(x) - a(y))`` in that
    order of operations; a pair whose ``x**s`` or ``y**s`` is not a float
    counts as ``inf``.  The worst pair is the first largest in visiting
    order, starting from ``-1.0``.
    """
    if pairs is None:
        pairs = additivity_pairs(s, grid)
    n = len(pairs.points)
    values = a.many(np.concatenate((pairs.points, pairs.roots)))
    at_points, at_roots = values[:n], values[n:]
    first, second = pairs.first[pairs.finite], pairs.second[pairs.finite]
    d = np.full(len(pairs.first), math.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        d[pairs.finite] = rho_eval_array(
            rho, at_roots[pairs.root_of] - at_points[first] - at_points[second])
    k, worst = first_max(d, -1.0)
    i, j = (0, 0) if k is None else (pairs.first[k], pairs.second[k])
    worst_at = (float(pairs.points[i]), float(pairs.points[j]))
    return _outcome("radical_additivity", worst_at, worst, LIMIT_CHECK_TOL)


def verify_oddness(a: FunctionHandle, rho: ModularSpec, grid: Grid) -> CheckOutcome:
    """Sign antisymmetry ``a(-x) = -a(x)`` plus ``a(0) = 0`` on the grid."""
    pts = grid.point_array
    n = len(pts)
    values = a.many(np.concatenate((pts, -pts, [0.0])))
    at_zero = rho_eval(rho, float(values[-1]))
    with np.errstate(over="ignore", invalid="ignore"):
        d = rho_eval_array(rho, values[:n] + values[n:-1])
    k, worst = first_max(d, at_zero)
    return _outcome("oddness", 0.0 if k is None else float(pts[k]), worst, LIMIT_CHECK_TOL)


def verify_stability_bound(
    phi: FunctionHandle,
    a: FunctionHandle,
    rho: ModularSpec,
    bound_per_point: np.ndarray | list[float],
    grid: Grid,
    shift: float = 0.0,
) -> CheckOutcome:
    """Per-point domination ``rho(phi(x) - shift - a(x)) <= bound(x) + BOUND_CHECK_TOL``.

    ``shift`` carries the ``q*phi(0)`` offset of the expand route; the
    contract and fixed-point routes use zero.  ``worst_value`` is the largest
    excess of the distance over its bound (negative = margin everywhere).
    """
    pts = grid.point_array
    bounds = np.asarray(bound_per_point, dtype=float)
    if len(bounds) != len(pts):
        raise ArgumentError(f"bound list has {len(bounds)} entries for a {len(pts)}-point grid")
    with np.errstate(over="ignore", invalid="ignore"):
        excess = rho_eval_array(rho, phi.many(pts) - shift - a.many(pts)) - bounds
    k, worst = first_max(excess, -math.inf)
    return _outcome("stability_bound", float(pts[0] if k is None else pts[k]), worst,
                    BOUND_CHECK_TOL)


def cross_check(
    a1: FunctionHandle, a2: FunctionHandle, rho: ModularSpec, grid: Grid
) -> CheckOutcome:
    """Pointwise agreement of two constructed limits on a shared grid."""
    pts = grid.point_array
    with np.errstate(over="ignore", invalid="ignore"):
        d = rho_eval_array(rho, a1.many(pts) - a2.many(pts))
    k, worst = first_max(d, -1.0)
    return _outcome("cross_method_agreement", grid.lo if k is None else float(pts[k]),
                    worst, LIMIT_CHECK_TOL)
