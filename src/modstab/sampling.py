"""Deterministic sample sets: grids, ladders and seeded triples.

Everything here is a pure function of its arguments, so two runs with the
same inputs produce bit-identical samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError

__all__ = [
    "Grid",
    "standard_ladder",
    "function_sample_points",
    "seeded_triples",
    "corner_triples",
]


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D evaluation grid over ``[lo, hi]`` with ``count`` points."""

    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise ArgumentError(f"grid needs at least 2 points, got {self.count}")
        # A finite hi - lo also rules out non-finite ends.
        if not (self.lo < self.hi and math.isfinite(self.hi - self.lo)):
            raise ArgumentError(
                f"grid needs lo < hi with a finite hi - lo, got [{self.lo}, {self.hi}]"
            )

    def points(self) -> list[float]:
        return [float(v) for v in np.linspace(self.lo, self.hi, self.count)]


def standard_ladder(k_min: int = -3, k_max: int = 10) -> list[float]:
    """Geometric magnitude ladder ``{2^k : k_min <= k <= k_max}``."""
    return [float(2.0**k) for k in range(k_min, k_max + 1)]


def function_sample_points(grid: Grid) -> list[float]:
    """Grid points plus a short two-sided geometric ladder, deduplicated.

    Used wherever a function-space quantity is estimated by a sampled
    supremum; the ladder adds sub-unit magnitudes a coarse grid misses.
    """
    pts = set(grid.points())
    for k in range(-3, 4):
        pts.add(float(2.0**k))
        pts.add(float(-(2.0**k)))
    return sorted(pts)


def seeded_triples(
    lo: float, hi: float, count: int, seed: int
) -> list[tuple[float, float, float]]:
    """``count`` pseudo-random triples drawn uniformly from ``[lo, hi]^3``."""
    rng = np.random.default_rng(seed)
    draws = rng.uniform(lo, hi, size=(count, 3))
    return [(float(a), float(b), float(c)) for a, b, c in draws]


def corner_triples(lo: float, hi: float) -> list[tuple[float, float, float]]:
    """The eight vertices of the box ``[lo, hi]^3``, in lexicographic order."""
    vals = (lo, hi)
    return [(float(a), float(b), float(c)) for a in vals for b in vals for c in vals]
