"""Counting wrappers on the program's public entry points.

``Probes.install()`` replaces a fixed set of methods with thin wrappers
that count invocations (or time them) and call the original.  A
generator method is counted when it is called, which is once per
invocation; the profiler instead counts every resumption as a call.

Each wrapper's code object is renamed ``probe:<layer>:<Class.method>``
so the profiler files the wrapper's own self time under the layer it
wraps (see ``bench_layers.function_layer``).  The default event queue
calls C ``heapq`` through ``functools.partial``, which the profiler
does not see; its two heap functions are rebound to pass-through probes
of the ``queues`` layer, so the heap's cost is filed there.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable, Dict, List


def _rename(wrapper: Callable, label: str) -> Callable:
    # The profiler labels an entry with ``co_name``; ``co_qualname``
    # exists from Python 3.11.
    names = {"co_name": label}
    if sys.version_info >= (3, 11):
        names["co_qualname"] = label
    wrapper.__code__ = wrapper.__code__.replace(**names)
    return wrapper


class Probes:
    """Counters and timers fed by wrappers around the program's entry
    points; one instance per process run."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.timers: Dict[str, float] = {}
        self.node_stats: List = []
        self.client_tallies: List = []

    # -- wrapper factories --------------------------------------------------
    def _wrap(self, cls, name: str, layer: str, make) -> None:
        original = cls.__dict__[name]
        setattr(cls, name,
                _rename(make(original), f"probe:{layer}:{cls.__name__}.{name}"))

    def count(self, cls, name: str, layer: str, key: str) -> None:
        counts = self.counts

        def make(original):
            def probe(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)
            return probe

        self._wrap(cls, name, layer, make)

    def timed(self, cls, name: str, layer: str, time_key: str) -> None:
        timers = self.timers
        timers.setdefault(time_key, 0.0)
        clock = time.perf_counter

        def make(original):
            def probe(*args, **kwargs):
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    timers[time_key] += clock() - start
            return probe

        self._wrap(cls, name, layer, make)

    @staticmethod
    def passthrough(module, name: str, layer: str) -> None:
        """Rebind the function ``module.name`` to a probe that only calls
        it, so the profiler sees the call and files it under ``layer``."""
        def make(original):
            def probe(*args):
                return original(*args)
            return probe

        label = f"probe:{layer}:{name.lstrip('_')}"
        setattr(module, name, _rename(make(getattr(module, name)), label))

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        from repro.cache.store import CacheStore
        from repro.clients.client import ClientThread
        from repro.core import dirsync
        from repro.core.cacher import CacherModule
        from repro.core.stats import NodeStats
        from repro.hosts.filesystem import FileSystem
        from repro.net.network import Network
        from repro.obs.profiler import ResourceProfiler
        from repro.obs.registry import MetricsRegistry
        from repro.obs.streaming import StreamingTelemetry
        from repro.obs.timeseries import TimeSeriesLog
        from repro.obs.trace import TraceCollector
        from repro.sim import pdes, queues
        from repro.sim.engine import Simulator
        from repro.sim.resources import ProcessorSharing, Resource
        from repro.sim.sync import RWLock

        counts = self.counts

        def ticks(original):
            # events processed, and queue operations: events popped plus
            # events scheduled (sequence numbers drawn) while running
            def probe(sim, *args, **kwargs):
                ticks0, seq0 = sim._ticks, sim._seq
                try:
                    return original(sim, *args, **kwargs)
                finally:
                    events = sim._ticks - ticks0
                    counts["engine.events"] += events
                    counts["queues.ops"] += events + sim._seq - seq0
            return probe

        self._wrap(Simulator, "run", "engine", ticks)
        self._wrap(Simulator, "run_window", "engine", ticks)
        # HeapQueue reads these module globals when it binds push/pop, so
        # rebinding them before any simulator is built covers every queue.
        self.passthrough(queues, "_heappush", "queues")
        self.passthrough(queues, "_heappop", "queues")

        self.count(ProcessorSharing, "execute", "resources", "resources.ps_jobs")
        self.count(Resource, "request", "resources", "resources.requests")
        self.count(RWLock, "acquire_read", "resources", "sync.lock_acquires")
        self.count(RWLock, "acquire_write", "resources", "sync.lock_acquires")

        def rounds(original):
            def probe(coordinator, *args, **kwargs):
                try:
                    return original(coordinator, *args, **kwargs)
                finally:
                    counts["pdes.rounds"] += coordinator.rounds
            return probe

        self._wrap(pdes.ConservativeCoordinator, "run", "pdes", rounds)

        self.count(Network, "send", "net", "net.sends")
        self.count(Network, "broadcast", "net", "net.broadcasts")

        self.count(CacherModule, "lookup", "core", "core.lookups")
        self.count(CacherModule, "insert_result", "core", "core.inserts")
        self.count(CacherModule, "fetch_remote", "core", "core.remote_fetches")
        syncs = [dirsync.DirectorySync]
        while syncs:
            cls = syncs.pop()
            syncs.extend(cls.__subclasses__())
            if "handle_update" in cls.__dict__:
                self.count(cls, "handle_update", "core", "core.dir_updates")

        def evictions(original):
            def probe(*args, **kwargs):
                counts["cache.inserts"] += 1
                evicted = original(*args, **kwargs)
                counts["cache.evictions"] += len(evicted)
                return evicted
            return probe

        self._wrap(CacheStore, "insert", "cache", evictions)
        self.count(CacheStore, "record_access", "cache", "cache.accesses")
        self.count(FileSystem, "read", "hosts", "hosts.file_reads")

        self.count(TraceCollector, "start_span", "obs", "obs.spans")
        for cls, name in (
            (TraceCollector, "write_jsonl"),
            (MetricsRegistry, "write"),
            (ResourceProfiler, "write_json"),
            (StreamingTelemetry, "write_jsonl"),
            (TimeSeriesLog, "write_jsonl"),
        ):
            self.timed(cls, name, "obs", "obs.export_s")

        # The program's own statistics objects, read once the run is over.
        node_stats, tallies = self.node_stats, self.client_tallies

        def keep_stats(original):
            def probe(stats, *args, **kwargs):
                original(stats, *args, **kwargs)
                node_stats.append(stats)
            return probe

        def keep_tally(original):
            def probe(client, *args, **kwargs):
                original(client, *args, **kwargs)
                tallies.append(client.response_times)
            return probe

        self._wrap(NodeStats, "__init__", "core", keep_stats)
        self._wrap(ClientThread, "__init__", "clients", keep_tally)

    # -- results ------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Counts and timers, with the statistics objects folded in."""
        counts = dict(self.counts)
        for field in ("local_hits", "remote_hits", "misses", "false_hits",
                      "false_misses", "dir_msgs_sent"):
            counts[f"stats.{field}"] = sum(getattr(s, field) for s in self.node_stats)
        counts["clients.requests"] = sum(t.count for t in self.client_tallies)
        return {"counts": counts, "timers": dict(self.timers)}
