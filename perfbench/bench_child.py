"""One run of the program in a fresh interpreter.

Usage::

    python3 perfbench/bench_child.py MODE RESULT_JSON -- REPRO_ARGS...

MODE is ``setup`` (import the command line and stop just before
``repro.cli.main`` would be entered), ``plain`` (run it untraced),
``count`` (run it with the counting wrappers of ``bench_probes``) or
``profile`` (counting wrappers plus ``cProfile``).  The program's output
goes to stdout untouched; the measurements go to RESULT_JSON.  Times are
``time.monotonic()`` readings, which share one clock with the parent.
In ``setup`` and ``plain`` the interpreter is pinned to one CPU and a
``bench_calibrate.Sampler`` thread probes the host's speed from the
start; RESULT_JSON gets the median probe time during set-up and during
the run.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE_DIR = ROOT / "src" / "repro"


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_kb() -> int:
    # ru_maxrss of RUSAGE_CHILDREN is that of the largest reaped child,
    # not a sum.
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def _profile_buckets(stats) -> dict:
    import bench_layers

    return {
        "self_s": bench_layers.self_times(stats, PACKAGE_DIR),
        "total_s": bench_layers.profiled_total(stats),
    }


def main(argv) -> int:
    mode, result_path = argv[0], Path(argv[1])
    if argv[2] != "--":
        raise SystemExit("usage: bench_child.py MODE RESULT_JSON -- ARGS...")
    args = argv[3:]
    sampler = None
    if mode in ("setup", "plain"):
        import bench_calibrate

        # The program and the probe thread share one vCPU.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        sampler = bench_calibrate.Sampler()
        sampler.start()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(HERE))
    from repro.cli import main as repro_main
    from repro.sim.pdes import resolve_backend

    result = {"backend": resolve_backend("auto", 2)}
    probes = profiler = None
    if mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
    if mode in ("count", "profile"):
        from bench_probes import Probes

        probes = Probes()
        probes.install()

    if mode == "setup":
        result["t_main"] = time.monotonic()
        sampler.stop()
        result["probe_setup_s"] = sampler.median_between(0.0, result["t_main"])
        result_path.write_text(json.dumps(result))
        return 0

    cpu0 = _cpu_s()
    result["t_main"] = time.monotonic()
    if profiler is not None:
        profiler.enable()
    try:
        rc = repro_main(args)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        if profiler is not None:
            profiler.disable()
    result["t_end"] = time.monotonic()
    sys.stdout.flush()
    result["cpu_s"] = _cpu_s() - cpu0
    result["peak_rss_kb"] = _peak_rss_kb()
    if sampler is not None:
        sampler.stop()
        result["probe_setup_s"] = sampler.median_between(0.0, result["t_main"])
        result["probe_run_s"] = sampler.median_between(result["t_main"],
                                                       result["t_end"])

    if probes is not None:
        result.update(probes.snapshot())
        if profiler is not None:
            profiler.create_stats()
            result["profile"] = _profile_buckets(profiler.stats)
    result_path.write_text(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
