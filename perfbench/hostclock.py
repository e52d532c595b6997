"""Busy time converted to the speed of a reference host.

The hosts this benchmark runs on are shared: the same Python code runs up
to twice as fast in one second as in the next, and the level drifts by tens
of percent over minutes, for wall and CPU time alike.  A fixed slice of
pure-Python work that does not touch couplex runs every ``EVERY`` seconds
between the timed calls.  Its speed, averaged over the slices on either
side of an interval, scales that interval's busy time to what it would
have been at ``REF_RATE``.  A change to couplex moves the timed calls and
not the slice.
"""

from __future__ import annotations

import gc
import time

#: reference-slice iterations per second on the host the README names;
#: it fixes the scale of the reported figures, not their ratios
REF_RATE = 1.6e6
SLICE = 2000  # iterations: about 1 ms
EVERY = 0.1  # seconds between slices: about 1% of a run


def _slice(n: int = SLICE) -> int:
    # builtins only: importing a module here would move its import out of
    # the timed set-up
    table = {}
    acc = 0.0
    for i in range(n):
        key = (i & 15, (i >> 4) & 7, i & 1)
        table[key] = table.get(key, 0) + 1
        acc += (i & 7) / 3
    return n


def host_speed() -> float:
    """The host's speed now, as a fraction of the reference host's."""
    # a collection of the objects the program left behind is not host speed
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        n = _slice()
        return n / (time.perf_counter() - start) / REF_RATE
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Accumulates busy seconds, each scaled by the host's speed around it."""

    def __init__(self):
        self.seconds = 0.0  # busy time at the reference speed
        self._pending = 0.0
        self._speed = host_speed()
        self._at = time.perf_counter()

    def add(self, busy: float):
        self._pending += busy
        if time.perf_counter() - self._at >= EVERY:
            self.flush()

    def flush(self):
        speed = host_speed()
        self.seconds += self._pending * (self._speed + speed) / 2
        self._speed = speed
        self._pending = 0.0
        self._at = time.perf_counter()
