"""A fixed pure-Python job, timed between cases to gauge the host's speed.

The machine the benchmark runs on is shared, and other tenants make it
up to 1.7x slower for stretches of seconds to minutes, longer than a run.
Every timed run therefore also times this job at short intervals, and
scales the times of each pass by how fast the job ran during that pass,
to what they would be on a host where the job takes `NOMINAL_MS`. The job uses no
lamping code, so a change to the program does not change it. It does the
kinds of work the program does (arithmetic in loops; building objects,
dicts and sets and walking a graph of them) with the garbage collector
off, so the heap the program leaves behind does not slow it down.
"""

from __future__ import annotations

import gc
import statistics
import time

NOMINAL_MS = 4.0
GAP_S = 0.05  # at most this long between two timings of the job
SIZE = 3000
CHECKSUM = 45998


class _Node:
    __slots__ = ("a", "b", "tag")

    def __init__(self, tag: int) -> None:
        self.a = self.b = None
        self.tag = tag


def job() -> int:
    s = 0
    for i in range(20000):
        s += i * i % 7
    nodes = [_Node(i) for i in range(SIZE)]
    index = {}
    for i, n in enumerate(nodes):
        n.a = nodes[(i * 7 + 1) % SIZE]
        n.b = nodes[(i * 13 + 5) % SIZE]
        index[(i, n.tag & 15)] = n
    seen: set[int] = set()
    stack = [nodes[0]]
    while stack:
        n = stack.pop()
        if n.tag not in seen:
            seen.add(n.tag)
            stack.append(n.a)
            stack.append(n.b)
    return s + len(seen) + len(index)


class HostSpeed:
    """Times of the job, taken at most `GAP_S` apart while cases run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = 0.0
        for _ in range(3):  # warm-up
            self.time_job()

    def time_job(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            result = job()
            spent = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        if result != CHECKSUM:
            raise RuntimeError(f"reference job returned {result}, not {CHECKSUM}")
        self.last = time.perf_counter()
        return spent

    def tick(self) -> None:
        """Time the job if the last timing is `GAP_S` old."""
        if time.perf_counter() - self.last >= GAP_S:
            self.samples.append(self.time_job())

    def median_ms(self, since: int = 0) -> float:
        """Median of the timings from the `since`-th on (the last, if none)."""
        return statistics.median(self.samples[since:] or self.samples[-1:]) * 1000

    def scale(self, since: int = 0) -> float:
        """Factor that turns a time measured while the timings from the
        `since`-th on were taken into one on the nominal host."""
        return NOMINAL_MS / self.median_ms(since)
