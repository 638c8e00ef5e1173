"""The simulation engine's pending-event set.

The engine orders events by ``(time, priority, sequence)`` tuples whose
sequence component is globally unique, so the pop order is total and
deterministic.  :class:`HeapQueue` is the one implementation: the peak
pending sets of the paper's workloads stay below ~40k entries, where a
binary heap measured as fast end to end as bucketed queues (see the
"Pending-event set" note in docs/architecture.md).

Interface:

- ``push(entry)`` — insert a ``(time, prio, seq, event)`` tuple.
- ``pop()`` — remove and return the smallest entry; ``IndexError`` when
  empty.  Cancelled entries are skipped and discarded.
- ``peek_time()`` — time of the next *live* entry, ``inf`` when empty.
  May purge cancelled entries but never reorders live ones.
- ``cancel(entry)`` — lazily invalidate a previously pushed entry; the
  heap discards it whenever it next surfaces.
- ``len(q)`` — number of live (non-cancelled) entries.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop as _heappop, heappush as _heappush
from math import inf as _INF

__all__ = ["HeapQueue"]


class HeapQueue:
    """Binary-heap pending-event set.

    ``push``/``pop`` are ``functools.partial`` bindings of the C heapq
    functions onto the backing list, so the common no-cancellation case
    pays no interpreter overhead over an inlined heap.  The bindings
    read this module's ``_heappush``/``_heappop`` at construction time,
    so a profiler can rebind those names to attribute heap work here.
    ``cancel`` swaps ``pop`` to a skipping variant; once the cancelled
    set drains, the fast binding is restored.
    """

    def __init__(self):
        self._items: list = []
        self._cancelled: set = set()
        self.push = partial(_heappush, self._items)
        self.pop = partial(_heappop, self._items)

    def cancel(self, entry) -> None:
        self._cancelled.add(entry)
        self.pop = self._pop_skipping

    def _pop_skipping(self):
        cancelled = self._cancelled
        entry = _heappop(self._items)
        while cancelled and entry in cancelled:
            cancelled.discard(entry)
            entry = _heappop(self._items)
        if not cancelled:
            self.pop = partial(_heappop, self._items)
        return entry

    def peek_time(self) -> float:
        items = self._items
        cancelled = self._cancelled
        if cancelled:
            while items and items[0] in cancelled:
                cancelled.discard(_heappop(items))
            if not cancelled:
                self.pop = partial(_heappop, self._items)
        return items[0][0] if items else _INF

    def __len__(self) -> int:
        return len(self._items) - len(self._cancelled)

    def __repr__(self) -> str:
        return f"<HeapQueue n={len(self)}>"
