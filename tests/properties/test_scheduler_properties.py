"""Property tests: the pending-event set's contract and PDES equivalence.

The engine's correctness contract for its event queue is exact: entries
are ``(time, priority, seq, event)`` with a globally unique ``seq``, so
there is one and only one correct pop order.  The differential property
below drives HeapQueue and a sorted-list model through the same
randomized push/pop/cancel/peek scripts — including exact time ties and
``inf`` sentinels — and demands identical behaviour at every step.  The
end-to-end properties then check serial vs partitioned execution at the
experiment level: same seed, same table cell.
"""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import CacheMode
from repro.experiments.common import run_cluster_trace
from repro.sim import HeapQueue, using_partitions
from repro.workload import zipf_cgi_trace

# Draw delays from a tiny pool so exact time ties are common, plus inf
# for run(until=...)-style sentinel entries.
_DELAYS = st.sampled_from([0.0, 0.0, 0.1, 0.1, 0.25, 1.0, 7.5, math.inf])

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _DELAYS, st.integers(0, 1)),
        st.tuples(st.just("pop"), st.just(None), st.just(None)),
        st.tuples(st.just("cancel"), st.integers(0, 10 ** 6), st.just(None)),
        st.tuples(st.just("peek"), st.just(None), st.just(None)),
        # run_window's overshoot handling: pop an entry, push it straight
        # back, and do NOT advance now — later pushes then legally land
        # *behind* the popped time.
        st.tuples(st.just("pushback"), st.just(None), st.just(None)),
    ),
    min_size=1,
    max_size=300,
)


class TestPopOrderEquivalence:
    @given(ops=_OPS)
    @settings(max_examples=200, deadline=None)
    def test_heap_matches_sorted_model_step_for_step(self, ops):
        q = HeapQueue()
        now = 0.0  # simulator invariant: pushes never go behind now
        seq = 0
        live = []  # the model: every pushed, not yet popped/cancelled entry
        for op, a, b in ops:
            if op == "push":
                entry = (now + a, b, seq, None)
                seq += 1
                live.append(entry)
                q.push(entry)
            elif op == "pop":
                if not live:
                    continue
                entry = q.pop()
                assert entry == min(live)
                now = entry[0]
                live.remove(entry)
            elif op == "pushback":
                if not live:
                    continue
                entry = q.pop()
                assert entry == min(live)
                q.push(entry)
            elif op == "cancel":
                if not live:
                    continue
                q.cancel(live.pop(a % len(live)))
            else:  # peek
                assert q.peek_time() == (min(live)[0] if live else math.inf)
            assert len(q) == len(live)
        # Drain: the full residual order must match the model too.
        drained = []
        while len(q):
            drained.append(q.pop())
        assert drained == sorted(live)


def _fingerprint(times, cluster):
    stats = cluster.stats()
    return (
        times.count, times.mean, times.maximum,
        stats.local_hits, stats.remote_hits, stats.misses,
        cluster.total_cached_entries(),
    )


class TestEndToEndEquivalence:
    @given(seed=st.integers(0, 2 ** 16), n_shards=st.sampled_from([2, 3]))
    @settings(max_examples=4, deadline=None)
    def test_same_seed_serial_equals_partitioned(self, seed, n_shards):
        trace = zipf_cgi_trace(90, 25, zipf=0.9, cpu_time_mean=0.2, seed=seed)
        serial = _fingerprint(
            *run_cluster_trace(3, CacheMode.COOPERATIVE, trace,
                               n_threads=3, n_hosts=3)
        )
        with using_partitions(n_shards, "inline"):
            partitioned = _fingerprint(
                *run_cluster_trace(3, CacheMode.COOPERATIVE, trace,
                                   n_threads=3, n_hosts=3)
            )
        assert partitioned == serial


def test_table3_cell_identical_serial_vs_partitioned():
    from repro.experiments.table3 import _run_one

    serial = _run_one(4, CacheMode.COOPERATIVE, 20, 2.5, None)
    with using_partitions(2, "inline"):
        two = _run_one(4, CacheMode.COOPERATIVE, 20, 2.5, None)
    with using_partitions(4, "inline"):
        four = _run_one(4, CacheMode.COOPERATIVE, 20, 2.5, None)
    assert serial == pytest.approx(2.5, rel=0.5)
    assert two == serial
    assert four == serial
