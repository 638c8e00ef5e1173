"""Host-speed probe: a fixed pure-Python kernel timed while the program runs.

On the host this benchmark was tuned on, a 2-vCPU virtual machine, the
speed at which one vCPU runs Python changes by tens of percent from one
second to the next, independently on each vCPU, and its level drifts by
up to 1.8x over minutes, with no change in the program.  A kernel timed
between the program's runs, or on the other vCPU, does not follow it.

So ``Sampler`` runs in a daemon thread of the interpreter that runs the
program.  The caller pins that interpreter to one CPU, so both threads
see the same vCPU.  Every ``INTERVAL_S`` the thread times one run of the
kernel (about 1 ms, holding the interpreter lock, so the program waits
meanwhile; with the thread switches this slows the program by a few
percent, the same on every commit).  ``run.py`` divides each of a
repetition's times by ``median sample / REFERENCE_S`` over the same
interval: the time it would have taken at the host's reference speed.
The kernel is frozen here, apart from the program's code, so a change
to the program moves the scaled times exactly as it moves the raw ones.

The kernel does what the simulator's hot path does, in miniature:
a heap of ``(time, seq, generator)`` events, generator resumption, dict
lookups with insertion-order eviction and small ``__slots__`` objects.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import threading
import time
from typing import List, Tuple

#: Events per sample; about 1 ms on the reference host.
STEPS = 400
#: Seconds between samples.
INTERVAL_S = 0.1
#: Seconds of one sample at the host's reference speed, about the median
#: on the reference host (2-vCPU VM, Python 3.11).  It only fixes the
#: unit: any constant works, because metrics are compared as ratios on
#: one host.
REFERENCE_S = 0.001
#: Checksum of ``kernel(STEPS)``: the work is the same in every sample.
CHECKSUM = 376


class _Entry:
    __slots__ = ("key", "size", "hits")

    def __init__(self, key: int, size: float):
        self.key = key
        self.size = size
        self.hits = 0


def _client(rng: random.Random, cache: dict, stats: list):
    while True:
        key = rng.randrange(4096)
        entry = cache.get(key)
        if entry is None:
            entry = cache[key] = _Entry(key, rng.random())
            if len(cache) > 2048:
                del cache[next(iter(cache))]
            stats[0] += 1
        else:
            entry.hits += 1
        yield entry.size


def kernel(steps: int) -> int:
    """Run ``steps`` events; return the number of cache misses."""
    rng = random.Random(1998)
    cache: dict = {}
    stats = [0]
    heap = []
    for seq in range(64):
        heapq.heappush(heap, (0.0, seq, _client(rng, cache, stats)))
    seq = 64
    for _ in range(steps):
        now, _, gen = heapq.heappop(heap)
        seq += 1
        heapq.heappush(heap, (now + next(gen), seq, gen))
    return stats[0]


def sample() -> float:
    """Seconds one run of the kernel takes now, with garbage collection
    off so that the program's live objects do not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        misses = kernel(STEPS)
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if misses != CHECKSUM:
        raise RuntimeError(f"calibration kernel drifted: {misses} misses")
    return elapsed


class Sampler:
    """Times ``sample()`` every ``INTERVAL_S`` in a daemon thread, the
    first time at once; ``start`` and ``stop`` once each."""

    def __init__(self):
        #: ``(time.monotonic() at the start, seconds)`` of each sample.
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while True:
            self.samples.append((time.monotonic(), sample()))
            if self._stop.wait(INTERVAL_S):
                return

    def median_between(self, begin: float, end: float) -> float:
        """Median sample that started in ``[begin, end)``; of all samples
        when the interval was too short to hold one."""
        inside = [s for t, s in self.samples if begin <= t < end]
        return statistics.median(inside or [s for _, s in self.samples])
