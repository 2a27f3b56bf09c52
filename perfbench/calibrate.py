"""Host speed, measured alongside the timed replays.

The hosts this benchmark runs on change speed by up to 2x in phases that
last from a fraction of a second to minutes, because other machines share
the processor.  A fixed pure-Python loop, independent of modnet but made of
the same kinds of work (heap pushes and pops, calls, dict updates, struct
packing and unpacking, bytes joins), slows down with it.  The timed phase
runs this loop before a replay whenever ``INTERVAL_S`` has passed, and each
replay's host times are scaled by ``NOMINAL_NS`` over the latest loop time,
so that they read as on a host where the loop takes ``NOMINAL_NS``.  The
uncalibrated figures are printed as well.
"""

from __future__ import annotations

import heapq
import struct
import time

NOMINAL_NS = 16_000_000  # the loop's time on a quiet 2-vCPU host
INTERVAL_S = 0.15


def _reference_work(n: int = 8_000) -> int:
    heap, table, out, total = [], {}, [], 0
    blob = bytes(range(256)) * 4
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1000, i, lambda: None))
        if len(heap) > 50:
            t, k, fn = heapq.heappop(heap)
            fn()
            table[k & 255] = struct.pack("!HH", k & 0xFFFF, t) + blob[:k & 127]
            out.append(b"".join((table[k & 255], b"x" * (k & 31))))
            if len(out) > 100:
                out.clear()
        if i % 16 == 0:
            total += sum(struct.unpack("!512H", blob))
    return total + len(table)


class HostSpeed:
    """Reference-loop samples taken between the timed replays."""

    def __init__(self):
        self.samples_ns: list[int] = []
        self._next = 0.0

    def factor(self) -> float:
        """The factor for the replay about to run: multiply its host times
        by it (divide its rates).  It comes from the latest reference
        sample; a new one is taken once ``INTERVAL_S`` has passed."""
        if time.perf_counter() >= self._next:
            t0 = time.perf_counter_ns()
            _reference_work()
            self.samples_ns.append(time.perf_counter_ns() - t0)
            self._next = time.perf_counter() + INTERVAL_S
        return NOMINAL_NS / self.samples_ns[-1]
