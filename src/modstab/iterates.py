"""The scaling-iterate table: every route's evaluations of ``phi``, made once.

Every route reads the one sequence of values ``phi(2**(k/s) x)``: the
expand route's approximants and the fixed-point iterates at step ``k = n``,
the contract route's approximants at step ``k = -n``;
``direct.approximant_row`` is the one place that turns a row into
approximants.  An ``IterateTable`` holds those values as rows, one per
signed step ``k``, over ``function_sample_points(grid)`` -- a superset of
the grid -- and computes a row the first time any route asks for it, in one
``FunctionHandle.many`` pass over the rescaled points, which reads ``inf``
at each point where one of ``phi``'s libm routines raises.  Routes sharing
a table never evaluate ``phi`` twice at the same ``(k, x)``.
"""

from __future__ import annotations

import numpy as np

from .functions import FunctionHandle
from .sampling import Grid, function_sample_points

__all__ = ["IterateTable"]


class IterateTable:
    """Lazily computed rows of ``phi`` on the rescaled sample points.

    ``points`` is ``function_sample_points(grid)``, sorted and distinct,
    ``point_array`` the same as an array, and ``grid_index`` the position
    of each grid point in it.  ``row(k)[i]`` is ``phi(2**(k/s) *
    points[i])``, the argument ``limit_function``'s handles compute: expand
    step ``n`` is ``row(n)`` and contract step ``n`` is ``row(-n)``.  An
    evaluation that overflows is ``inf``, the saturation signal every route
    reads.
    """

    def __init__(self, phi: FunctionHandle, s: int, grid: Grid):
        self.phi = phi
        self.s = s
        self.grid = grid
        self.points = function_sample_points(grid)
        self.point_array = np.array(self.points, dtype=float)
        self.grid_index = np.searchsorted(self.point_array, grid.point_array)
        self._rows: dict[int, np.ndarray] = {}
        self._origin: float | None = None

    def row(self, k: int) -> np.ndarray:
        """``phi(2**(k/s) * x)`` at every sample point, evaluated once."""
        if k not in self._rows:
            self._rows[k] = self.phi.many(2.0 ** (k / self.s) * self.point_array)
        return self._rows[k]

    def origin(self) -> float:
        """``phi(0)``, evaluated once; read off ``row(0)`` where ``+0.0`` is a sample point."""
        if self._origin is None:
            zero = np.flatnonzero(self.point_array.view(np.uint64) == 0)  # +0.0, not -0.0
            self._origin = float(self.row(0)[zero[0]]) if zero.size else self.phi(0.0)
        return self._origin
