"""Deterministic sample sets: grids, ladders and seeded triples.

Everything here is a pure function of its arguments, so two runs with the
same inputs produce bit-identical samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ArgumentError

__all__ = [
    "MAX_GRID_POINTS",
    "Grid",
    "standard_ladder",
    "function_sample_points",
    "seeded_triples",
    "corner_triples",
]

# Refuses, before anything is allocated, a grid that is plainly too large.
# It is not a memory bound: a run at n_max = 60 peaks at about 1.2 kB of RSS
# per grid point, one that saturates at n_max = 1023 at about 8.7 kB, some
# 8.7 GB at the cap; that growth is IterateTable rows (ROADMAP item 14).
MAX_GRID_POINTS = 1_000_000


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D evaluation grid over ``[lo, hi]`` with ``count`` points."""

    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise ArgumentError(f"grid needs at least 2 points, got {self.count}")
        if self.count > MAX_GRID_POINTS:
            raise ArgumentError(
                f"grid has {self.count} points, exceeding the cap of {MAX_GRID_POINTS}")
        # A finite hi - lo also rules out non-finite ends.
        if not (self.lo < self.hi and math.isfinite(self.hi - self.lo)):
            raise ArgumentError(
                f"grid needs lo < hi with a finite hi - lo, got [{self.lo}, {self.hi}]"
            )

    @cached_property
    def point_array(self) -> np.ndarray:
        """``linspace(lo, hi, count)``, computed once per grid; read-only."""
        pts = np.linspace(self.lo, self.hi, self.count)
        pts.flags.writeable = False
        return pts

    def points(self) -> list[float]:
        """The ``count`` points of ``point_array``, the same bits, as a fresh list."""
        return self.point_array.tolist()


def standard_ladder(k_min: int = -3, k_max: int = 10) -> list[float]:
    """Geometric magnitude ladder ``{2^k : k_min <= k <= k_max}``."""
    return [float(2.0**k) for k in range(k_min, k_max + 1)]


def function_sample_points(grid: Grid) -> np.ndarray:
    """Grid points plus a short two-sided geometric ladder, deduplicated: a sorted read-only array.

    Used wherever a function-space quantity is estimated by a sampled
    supremum; the ladder adds sub-unit magnitudes a coarse grid misses.
    """
    ladder = np.array(standard_ladder(-3, 3))
    # return_index sorts stably, so the first of 0.0 and -0.0 stays, as in a set.
    pts = np.unique(np.concatenate([grid.point_array, ladder, -ladder]), return_index=True)[0]
    pts.flags.writeable = False
    return pts


def seeded_triples(
    lo: float, hi: float, count: int, seed: int
) -> list[tuple[float, float, float]]:
    """``count`` pseudo-random triples drawn uniformly from ``[lo, hi]^3``."""
    draws = np.random.default_rng(seed).uniform(lo, hi, size=(count, 3))
    return list(map(tuple, draws.tolist()))  # one conversion, the same floats


def corner_triples(lo: float, hi: float) -> list[tuple[float, float, float]]:
    """The eight vertices of the box ``[lo, hi]^3``, in lexicographic order."""
    vals = (lo, hi)
    return [(float(a), float(b), float(c)) for a in vals for b in vals for c in vals]
