"""Host-speed sampling, so that end-to-end timings compare across runs.

The benchmark host is shared, and its speed follows its neighbours' load:
the same operation has taken anywhere from 0.41 to 0.99 s within one hour,
and the slowdown shows in the process's CPU time too, so neither CPU time
nor longer runs remove it. What does track it is a fixed pure-Python loop
timed while the operation runs.

``HostClock`` times ``LOOP_ITERATIONS`` iterations of that loop right before
and right after each operation and, from a ``SIGALRM`` handler, every
``INTERVAL_S`` of wall time while it runs; the handler runs between bytecodes
in the one client thread, so no second thread competes with modstab. An
operation's scaled time is its wall time less the time the samples inside it
took, times ``REFERENCE_LOOP_MS`` over the mean loop time of the samples
taken around and during it: the time the operation would have taken on a
host where the loop takes ``REFERENCE_LOOP_MS``. The samples take about 1%
of the wall time, and that share is taken out of the operation's time.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

LOOP_ITERATIONS = 3_000
INTERVAL_S = 0.1
REFERENCE_LOOP_MS = 1.0

_TABLE = [1.0 + i / 1024 for i in range(1024)]


def _step(x: float, c: float) -> float:
    return math.sin(x) * c + math.sqrt(abs(x) + 1.0)


class HostClock:
    """Times the host loop around and during operations."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, end) per loop
        self._sampling = False
        self._previous = None

    def sample(self) -> None:
        """Time the loop once."""
        self._sampling = True
        start = time.perf_counter()
        x = 0.5
        for i in range(LOOP_ITERATIONS):
            x = _step(x, _TABLE[i & 1023]) * 0.5
        end = time.perf_counter()
        self._sampling = False
        self.samples.append((start, end))

    def _on_alarm(self, signum, frame) -> None:
        if not self._sampling:
            self.sample()

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn) -> tuple[float, float]:
        """Call ``fn()``; return its wall seconds and its scaled seconds."""
        first = len(self.samples)
        self.sample()
        start = time.perf_counter()
        fn()
        end = time.perf_counter()
        self.sample()
        window = self.samples[first:]
        inside = sum(e - s for s, e in window if s >= start and e <= end)
        loop_ms = statistics.fmean((e - s) * 1e3 for s, e in window)
        return end - start, (end - start - inside) * REFERENCE_LOOP_MS / loop_ms

    def loop_ms(self) -> list[float]:
        return [(e - s) * 1e3 for s, e in self.samples]
