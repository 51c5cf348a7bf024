"""The scaling-iterate table: every route's evaluations of ``phi``, made once.

Every route reads the one sequence of values ``phi(2**(k/s) x)``: the
expand route's approximants and the fixed-point iterates at step ``k = n``,
the contract route's approximants at step ``k = -n``;
``direct.approximant_row`` is the one place that turns a row into
approximants.  An ``IterateTable`` holds those values as rows, one per
signed step ``k``, over the float64 array ``function_sample_points(grid)``
-- a superset of the grid -- and computes a row the first time any route
asks for it, in a ``FunctionHandle.many`` pass over the rescaled points,
which reads ``inf`` at each point where one of ``phi``'s libm routines
raises.  Routes sharing a table never evaluate ``phi`` twice at the same
``(k, x)``.

A pass fills a block of rows: the row asked for and the next ones away
from 0 that the table lacks, as many as fit in ``BLOCK_POINTS`` points (at
least one), with no extra row past ``|k| = MAX_N``.  Each call of ``many``
has a fixed cost of some microseconds, so a 400-point row costs about 1.2
times as much per point alone as in a 4000-point block, past which the
cost per point is flat: a grid of thousands of points still takes one row
per pass, and walks on small grids take a tenth of the calls or fewer.
Every kernel is elementwise, so a row has the same bits in a block as
alone.  Row 0 is always evaluated alone, so a walk in one direction never
computes rows of the other.
"""

from __future__ import annotations

import sys

import numpy as np

from .functions import FunctionHandle
from .sampling import Grid, function_sample_points

__all__ = ["IterateTable", "MAX_N"]

MAX_N = sys.float_info.max_exp - 1  # 1023: the largest n with 2.0**n finite

# Points per phi pass when rows are filled in blocks (see the module docstring).
BLOCK_POINTS = 4096


class IterateTable:
    """Lazily computed rows of ``phi`` on the rescaled sample points.

    ``point_array`` is ``function_sample_points(grid)``, a read-only float64
    array, sorted and distinct, and ``grid_index`` the position of each grid
    point in it.  ``row(k)[i]`` is ``phi(2**(k/s) * point_array[i])``, the
    argument ``limit_function``'s handles compute: expand step ``n`` is
    ``row(n)`` and contract step ``n`` is ``row(-n)``.  An evaluation that
    overflows is ``inf``, the saturation signal every route reads.
    """

    def __init__(self, phi: FunctionHandle, s: int, grid: Grid):
        self.phi = phi
        self.s = s
        self.grid = grid
        self.point_array = function_sample_points(grid)
        self.grid_index = np.searchsorted(self.point_array, grid.point_array)
        self._rows: dict[int, np.ndarray] = {}
        self._origin: float | None = None

    def row(self, k: int) -> np.ndarray:
        """``phi(2**(k/s) * x)`` at every sample point, evaluated once."""
        if k not in self._rows:
            self._fill(k)
        return self._rows[k]

    def _fill(self, k: int) -> None:
        """Evaluate row ``k`` and the block of missing rows beyond it in one pass."""
        ks = [k]
        if k != 0:
            step = 1 if k > 0 else -1
            width = max(1, BLOCK_POINTS // len(self.point_array))
            end = step * min(abs(k) + width, MAX_N + 1)
            ks += [j for j in range(k + step, end, step) if j not in self._rows]
        scales = np.array([2.0 ** (j / self.s) for j in ks])  # builtin pow: numpy's ** may differ
        with np.errstate(over="ignore"):  # a point scaled past the float range is inf
            block = self.phi.many((scales[:, None] * self.point_array).ravel())
        for j, values in zip(ks, block.reshape(len(ks), -1)):
            self._rows[j] = values

    def origin(self) -> float:
        """``phi(0)``, evaluated once; read off ``row(0)`` where ``+0.0`` is a sample point."""
        if self._origin is None:
            zero = np.flatnonzero(self.point_array.view(np.uint64) == 0)  # +0.0, not -0.0
            self._origin = float(self.row(0)[zero[0]]) if zero.size else self.phi(0.0)
        return self._origin
