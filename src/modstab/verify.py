"""Cross-cutting checks tying constructed limits back to the equation.

Each check returns a ``CheckOutcome`` whose ``worst_value`` is the largest
violation found; the check passes exactly when that stays within tolerance.
Checks never raise on mathematical failure -- only on malformed arguments.
A per-point measure that overflows (a saturated limit evaluated far out)
counts as a violation of ``inf``: the handles and ``rho_eval`` evaluate to
``inf`` there themselves, and an additivity pair whose ``x**s`` leaves the
float range (``RangeError``) is counted the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .equation import pair_additivity_defect
from .errors import ArgumentError
from .functions import FunctionHandle
from .modular import ModularSpec, rho_eval
from .sampling import Grid

__all__ = [
    "CheckOutcome",
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


def _outcome(name: str, worst_point, worst_value: float, tol: float) -> CheckOutcome:
    return CheckOutcome(name, worst_value <= tol, worst_point, worst_value, tol)


def verify_radical_additivity(
    a: FunctionHandle, rho: ModularSpec, s: int, grid: Grid
) -> CheckOutcome:
    """Pairwise additivity under the radical: ``a((x^s+y^s)^(1/s)) = a(x)+a(y)``.

    Pairs come from the Cartesian square of the grid in row-major order, pair
    ``k`` being ``(pts[k // n], pts[k % n])``.  When the square holds more
    than ``MAX_ADDITIVITY_PAIRS`` pairs, only every ``stride``-th flat index
    is visited, with ``stride = ceil(n**2 / MAX_ADDITIVITY_PAIRS)``; the
    square itself is never built.
    """
    pts = grid.points()
    n = len(pts)
    total = n * n
    stride = -(-total // MAX_ADDITIVITY_PAIRS)  # 1 whenever the square fits
    worst, worst_at = -1.0, (pts[0], pts[0])
    for k in range(0, total, stride):
        x, y = pts[k // n], pts[k % n]
        try:
            d = pair_additivity_defect(a, rho, s, x, y)
        except OverflowError:  # RangeError: x**s or y**s is not a float
            d = math.inf
        if d > worst:
            worst, worst_at = d, (x, y)
    return _outcome("radical_additivity", worst_at, worst, LIMIT_CHECK_TOL)


def verify_oddness(a: FunctionHandle, rho: ModularSpec, grid: Grid) -> CheckOutcome:
    """Sign antisymmetry ``a(-x) = -a(x)`` plus ``a(0) = 0`` on the grid."""
    worst = rho_eval(rho, a(0.0))
    worst_at: object = 0.0
    for x in grid.points():
        d = rho_eval(rho, a(x) + a(-x))
        if d > worst:
            worst, worst_at = d, x
    return _outcome("oddness", worst_at, worst, LIMIT_CHECK_TOL)


def verify_stability_bound(
    phi: FunctionHandle,
    a: FunctionHandle,
    rho: ModularSpec,
    bound_per_point: list[float],
    grid: Grid,
    shift: float = 0.0,
) -> CheckOutcome:
    """Per-point domination ``rho(phi(x) - shift - a(x)) <= bound(x) + BOUND_CHECK_TOL``.

    ``shift`` carries the ``q*phi(0)`` offset of the expand route; the
    contract and fixed-point routes use zero.  ``worst_value`` is the largest
    excess of the distance over its bound (negative = margin everywhere).
    """
    pts = grid.points()
    if len(bound_per_point) != len(pts):
        raise ArgumentError(
            f"bound list has {len(bound_per_point)} entries for a {len(pts)}-point grid"
        )
    worst, worst_at = -float("inf"), pts[0]
    for x, b in zip(pts, bound_per_point):
        excess = rho_eval(rho, phi(x) - shift - a(x)) - b
        if excess > worst:
            worst, worst_at = excess, x
    return _outcome("stability_bound", worst_at, worst, BOUND_CHECK_TOL)


def cross_check(
    a1: FunctionHandle, a2: FunctionHandle, rho: ModularSpec, grid: Grid
) -> CheckOutcome:
    """Pointwise agreement of two constructed limits on a shared grid."""
    worst, worst_at = -1.0, grid.lo
    for x in grid.points():
        d = rho_eval(rho, a1(x) - a2(x))
        if d > worst:
            worst, worst_at = d, x
    return _outcome("cross_method_agreement", worst_at, worst, LIMIT_CHECK_TOL)
