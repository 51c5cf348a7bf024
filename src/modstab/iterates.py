"""The scaling-iterate table: every route's evaluations of ``phi``, made once.

The expand route's approximants ``(phi(2**(n/s) x) - q*phi(0)) / 2**n`` and
the fixed-point iterates ``Lam**n(phi)(x) = phi(2**(n/s) x) / 2**n`` are
built from the same values ``phi(2**(n/s) x)``; the contract route's
approximants ``2**n * phi(x / 2**(n/s))`` from the dual rescaling.  An
``IterateTable`` holds those values as rows, one per step ``n``, over
``function_sample_points(grid)`` -- a superset of the grid -- and computes a
row the first time any route asks for it.  Routes sharing a table never
evaluate ``phi`` twice at the same ``(n, x)``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ArgumentError
from .functions import FunctionHandle
from .sampling import Grid, function_sample_points

__all__ = ["IterateTable"]


class IterateTable:
    """Lazily extended rows of ``phi`` on the rescaled sample points.

    ``points`` is ``function_sample_points(grid)`` and ``grid_index`` the
    position of each grid point in it.  ``expand(n)[i]`` is
    ``phi(2**(n/s) * points[i])`` and ``contract(n)[i]`` is
    ``phi(points[i] / 2**(n/s))``; an evaluation that overflows is stored as
    ``inf``, the saturation signal every route reads it as.
    """

    def __init__(self, phi: FunctionHandle, s: int, grid: Grid):
        self.phi = phi
        self.s = s
        self.grid = grid
        self.points = function_sample_points(grid)
        position = {x: i for i, x in enumerate(self.points)}
        self.grid_index = np.array([position[x] for x in grid.points()], dtype=np.intp)
        self._expand: list[np.ndarray] = []
        self._contract: list[np.ndarray] = []
        self._origin: float | None = None

    def check_serves(self, phi: FunctionHandle, s: int, grid: Grid) -> None:
        """Refuse a table built for another function, exponent or grid."""
        if self.phi is not phi or self.s != s or self.grid != grid:
            raise ArgumentError("iterate table was built for a different phi, s or grid")

    def _evaluate(self, args: list[float]) -> np.ndarray:
        out = []
        for a in args:
            try:
                out.append(self.phi(a))
            except OverflowError:
                out.append(math.inf)
        return np.array(out, dtype=float)

    def expand(self, n: int) -> np.ndarray:
        """Row ``n`` of ``phi(2**(n/s) * x)``, extending the table as needed."""
        while len(self._expand) <= n:
            scale = 2.0 ** (len(self._expand) / self.s)
            self._expand.append(self._evaluate([scale * x for x in self.points]))
        return self._expand[n]

    def contract(self, n: int) -> np.ndarray:
        """Row ``n`` of ``phi(x / 2**(n/s))``, extending the table as needed."""
        while len(self._contract) <= n:
            scale = 2.0 ** (len(self._contract) / self.s)
            self._contract.append(self._evaluate([x / scale for x in self.points]))
        return self._contract[n]

    def origin(self) -> float:
        """``phi(0)``, evaluated once."""
        if self._origin is None:
            self._origin = self.phi(0.0)
        return self._origin
