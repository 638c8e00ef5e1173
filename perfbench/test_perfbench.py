"""Tests of the benchmark's own arithmetic: the layer map, the self-time
buckets, the counting wrappers, the per-layer metric assembly and the
host-speed scaling of the end-to-end metrics."""

from __future__ import annotations

import cProfile
import heapq
import json
import math
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_calibrate  # noqa: E402
import bench_layers  # noqa: E402
import run  # noqa: E402
from bench_probes import Probes  # noqa: E402

PACKAGE_DIR = run.PACKAGE_DIR


def test_every_module_maps_to_one_layer():
    modules = list(bench_layers.source_modules(PACKAGE_DIR))
    assert "sim/engine" in modules
    for module in modules:
        assert bench_layers.module_layer(module) in bench_layers.LAYERS, module


def test_unmapped_module_is_an_error():
    with pytest.raises(KeyError):
        bench_layers.module_layer("newpackage/thing")


def _profiled(fn):
    profiler = cProfile.Profile()
    profiler.enable()
    fn()
    profiler.disable()
    profiler.create_stats()
    return profiler.stats


def _toy_class():
    class Toy:
        def steps(self, n):
            for i in range(n):
                yield i

    return Toy


def test_self_times_sum_to_profiled_total():
    from repro.sim import Simulator

    def work():
        sim = Simulator()

        def proc():
            for _ in range(200):
                yield sim.timeout(1.0)

        sim.process(proc())
        sim.run()
        sorted(range(1000), key=lambda x: -x)

    stats = _profiled(work)
    buckets = bench_layers.self_times(stats, PACKAGE_DIR)
    assert set(buckets) == set(bench_layers.LAYERS)
    assert buckets["engine"] > 0 and buckets["other"] > 0
    assert math.isclose(sum(buckets.values()), bench_layers.profiled_total(stats),
                        rel_tol=1e-9)


def test_probe_self_time_lands_in_the_wrapped_layer():
    Toy = _toy_class()
    probes = Probes()
    probes.count(Toy, "steps", "cache", "toy.calls")
    stats = _profiled(lambda: [list(Toy().steps(3)) for _ in range(50)])
    labels = {key[2]: bench_layers.function_layer(key, PACKAGE_DIR)
              for key in stats}
    assert labels["probe:cache:Toy.steps"] == "cache"


def test_builtin_under_a_probe_lands_in_the_probes_layer():
    heap = types.SimpleNamespace(_heappush=heapq.heappush)
    Probes.passthrough(heap, "_heappush", "queues")
    items: list = []
    stats = _profiled(lambda: [heap._heappush(items, i) for i in range(2000)])
    callees = [key for key, entry in stats.items()
               if key[0] == "~" and "heappush" in key[2]]
    assert callees and all(
        caller[2] == "probe:queues:heappush" for caller in stats[callees[0]][4]
    )

    builtin = ("~", 0, "<built-in method _heapq.heappush>")
    probe = ("perfbench", 1, "probe:queues:heappush")
    plain = ("/lib/policies.py", 1, "evict")
    stats = {
        builtin: (3, 3, 1.0, 1.0, {probe: (2, 2, 0.75, 0.75),
                                   plain: (1, 1, 0.25, 0.25)}),
        probe: (2, 2, 0.5, 1.25, {}),
        plain: (1, 1, 2.0, 2.25, {}),
    }
    buckets = bench_layers.self_times(stats, PACKAGE_DIR)
    assert buckets["queues"] == 1.25
    assert buckets["other"] == 2.25
    assert math.isclose(sum(buckets.values()), bench_layers.profiled_total(stats))


def test_generators_are_counted_per_invocation_not_per_resumption():
    Toy = _toy_class()
    probes = Probes()
    probes.count(Toy, "steps", "core", "toy.calls")
    stats = _profiled(lambda: [list(Toy().steps(5)) for _ in range(3)])
    assert probes.counts["toy.calls"] == 3
    resumptions = sum(
        nc for (_, _, name), (_, nc, _, _, _) in stats.items() if name == "steps"
    )
    assert resumptions > 3  # what a profiler call count would have reported


def _fake_results(counts):
    self_s = {layer: 0.5 for layer in bench_layers.LAYERS}
    self_s["pdes"] = 0.0
    counted = {"counts": counts, "timers": {}}
    profiled = {"run_s": 3.0, "counts": counts,
                "profile": {"self_s": self_s, "total_s": 6.0}}
    return counted, profiled


def test_serial_run_reports_pdes_zero_not_missing():
    counts = {"engine.events": 1000, "clients.requests": 10,
              "stats.local_hits": 3, "stats.misses": 1}
    metrics = run.layer_metrics(*_fake_results(counts), 2.0, 10)
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    for name in ("pdes.self_s", "pdes.rounds", "pdes.rounds_per_request"):
        assert metrics[name] == 0 and not math.isnan(metrics[name]), name
    assert metrics["core.hit_ratio"] == 0.75
    assert metrics["engine.us_per_event"] == 2000.0
    assert metrics["trace.overhead_frac"] == 0.5


def test_serial_command_counts_no_pdes_work(tmp_path):
    result = tmp_path / "result.json"
    subprocess.run(
        [sys.executable, str(HERE / "bench_child.py"), "count", str(result),
         "--", "table3", "--requests", "4", "--nodes", "2", "3"],
        check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    counted = json.loads(result.read_text())
    counts = counted["counts"]
    assert counts.get("pdes.rounds", 0) == 0
    # one broadcast per cooperative request: 4 requests x 2 cluster sizes
    assert counts["net.broadcasts"] == 8
    assert counts["core.lookups"] == 8
    assert counts["clients.requests"] == 16


def test_sharded_profile_run_counts_pdes_work(tmp_path):
    result = tmp_path / "result.json"
    subprocess.run(
        [sys.executable, str(HERE / "bench_child.py"), "profile", str(result),
         "--", "directory-grid", "--nodes", "8", "--protocols", "broadcast",
         "--mixes", "webstone", "--scale", "0.02", "--parallel-sim", "2",
         "--sim-backend", run.GRID_BACKEND],
        check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    profiled = json.loads(result.read_text())
    assert profiled["counts"]["pdes.rounds"] > 0
    self_s = profiled["profile"]["self_s"]
    assert self_s["pdes"] > 0 and self_s["engine"] > 0 and self_s["queues"] > 0


def test_counts_are_recorded_only_from_a_clean_invocation(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STATE_DIR", tmp_path)
    runner = types.SimpleNamespace(
        workload=types.SimpleNamespace(name="toy"), seed=0,
        problems=["completed 1 requests, expected 2"], failed=0,
    )
    run.check_against_state(runner, {"engine.events": 5})
    assert not list(tmp_path.iterdir())

    runner.problems = []
    run.check_against_state(runner, {"engine.events": 7})
    assert len(list(tmp_path.iterdir())) == 1
    run.check_against_state(runner, {"engine.events": 7})
    assert runner.problems == []
    run.check_against_state(runner, {"engine.events": 5})
    assert runner.problems == ["counts differ from an earlier run: ['engine.events']"]


def test_calibration_kernel_does_the_same_work_every_time():
    assert bench_calibrate.kernel(bench_calibrate.STEPS) == bench_calibrate.CHECKSUM
    assert bench_calibrate.sample() > 0


def test_sampler_medians_cover_their_interval():
    sampler = bench_calibrate.Sampler()
    sampler.samples = [(1.0, 4.0), (2.0, 1.0), (3.0, 2.0), (4.0, 9.0)]
    assert sampler.median_between(1.5, 3.5) == 1.5
    assert sampler.median_between(5.0, 6.0) == 3.0  # too short: all samples


def test_times_scale_with_the_probe_over_the_same_interval():
    reference = bench_calibrate.REFERENCE_S
    # set-up ran at half the reference speed, the run at twice it
    result = {"setup_s": 3.0, "probe_setup_s": 2 * reference,
              "run_s": 4.0, "cpu_s": 3.0, "probe_run_s": reference / 2}
    assert run.at_reference_speed(result) == {
        "setup_s": 1.5, "run_s": 8.0, "cpu_s": 6.0}
    setup_only = {"setup_s": 3.0, "probe_setup_s": reference}
    assert run.at_reference_speed(setup_only) == {"setup_s": 3.0}


def test_plain_run_probes_host_speed_during_setup_and_run(tmp_path):
    result = tmp_path / "result.json"
    subprocess.run(
        [sys.executable, str(HERE / "bench_child.py"), "plain", str(result),
         "--", "table3", "--requests", "4", "--nodes", "2"],
        check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    plain = json.loads(result.read_text())
    assert plain["probe_setup_s"] > 0 and plain["probe_run_s"] > 0
    assert plain["t_end"] > plain["t_main"]
