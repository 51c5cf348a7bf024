"""The scaling-iterate table: every route's evaluations of ``phi``, made once.

The expand route's approximants and the fixed-point iterates are built from
the same values ``phi(2**(n/s) x)``, the contract route's approximants from
``phi(2**(-n/s) x)``; ``direct.approximant_row`` is the one place that turns
a row into approximants.  An ``IterateTable`` holds those values as rows,
one per step ``n``, over ``function_sample_points(grid)`` -- a superset of
the grid -- and computes a row the first time any route asks for it, in one
``FunctionHandle.many`` pass over the rescaled points: the array twin of
``phi``, with the scalar libm routines, reading ``inf`` at each point where
one of them raises.  Routes sharing a table never evaluate ``phi`` twice at
the same ``(n, x)``.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError
from .functions import FunctionHandle
from .sampling import Grid, function_sample_points

__all__ = ["IterateTable"]


class IterateTable:
    """Lazily extended rows of ``phi`` on the rescaled sample points.

    ``points`` is ``function_sample_points(grid)``, sorted and distinct,
    ``point_array`` the same as an array, and ``grid_index`` the position
    of each grid point in it.  ``expand(n)[i]`` is
    ``phi(2**(n/s) * points[i])`` and ``contract(n)[i]`` is
    ``phi(2**(-n/s) * points[i])``, the arguments ``limit_function``'s
    handles compute; an evaluation that overflows is ``inf`` (see
    ``FunctionHandle``), the saturation signal every route reads.  Row 0 is
    ``phi`` itself at the sample points in both directions, since
    ``2**(0/s) = 2**(-0/s) = 1``; it is evaluated once.
    """

    def __init__(self, phi: FunctionHandle, s: int, grid: Grid):
        self.phi = phi
        self.s = s
        self.grid = grid
        self.points = function_sample_points(grid)
        self.point_array = np.array(self.points, dtype=float)
        position = {x: i for i, x in enumerate(self.points)}
        self.grid_index = np.array([position[x] for x in grid.points()], dtype=np.intp)
        self._expand: list[np.ndarray] = []
        self._contract: list[np.ndarray] = []
        self._origin: float | None = None

    def check_serves(self, phi: FunctionHandle, s: int, grid: Grid) -> None:
        """Refuse a table built for another function, exponent or grid."""
        if self.phi is not phi or self.s != s or self.grid != grid:
            raise ArgumentError("iterate table was built for a different phi, s or grid")

    def _evaluate(self, scale: float) -> np.ndarray:
        # phi(scale * x) at every sample point, bit for bit the scalar handle.
        return self.phi.many(scale * self.point_array)

    def expand(self, n: int) -> np.ndarray:
        """Row ``n`` of ``phi(2**(n/s) * x)``, extending the table as needed."""
        while len(self._expand) <= n:
            self._expand.append(self._evaluate(2.0 ** (len(self._expand) / self.s)))
        return self._expand[n]

    def contract(self, n: int) -> np.ndarray:
        """Row ``n`` of ``phi(2**(-n/s) * x)``, extending the table as needed."""
        if not self._contract:
            self._contract.append(self.expand(0))
        while len(self._contract) <= n:
            self._contract.append(self._evaluate(2.0 ** (-len(self._contract) / self.s)))
        return self._contract[n]

    def origin(self) -> float:
        """``phi(0)``, evaluated once."""
        if self._origin is None:
            self._origin = self.phi(0.0)
        return self._origin
