"""Layer map: which layer each ``src/repro`` module belongs to, and the
bucketing of profiler self time by that map.

A module path is the file's path under ``src/repro`` without ``.py``
(``sim/engine``, ``core/cacher``).  An exact module entry wins over its
package's entry.  There is no default for a module of the program:
``module_layer`` raises for an unmapped one, and the benchmark's tests
walk ``src/repro`` so that a new module cannot land in ``other``
unnoticed.  Code outside ``src/repro`` (the standard library, builtins,
numpy/scipy, the benchmark's own scripts) is ``other``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Mapping, Tuple

LAYERS = (
    "engine", "queues", "resources", "pdes", "net", "core", "cache",
    "hosts", "clients", "obs", "workload", "other",
)

#: Package (top-level directory) or exact module -> layer.
LAYER_OF: Dict[str, str] = {
    # simulation kernel
    "sim/__init__": "engine",
    "sim/engine": "engine",
    "sim/rng": "engine",
    "sim/queues": "queues",
    "sim/resources": "resources",
    "sim/sync": "resources",
    "sim/pdes": "pdes",
    "experiments/partition": "pdes",
    # sim/probes only runs when an observer attached a probe; sim/monitor
    # holds the Tally/TimeSeries statistics the experiments report.
    "sim/probes": "obs",
    "sim/monitor": "other",
    # the simulated Swala cluster
    "net": "net",
    "core": "core",
    "servers": "core",
    "lb": "core",
    "proxy": "core",
    "cache": "cache",
    "hosts": "hosts",
    "clients": "clients",
    "obs": "obs",
    "workload": "workload",
    # command line, experiment drivers, reporting
    "__init__": "other",
    "__main__": "other",
    "cli": "other",
    "bench": "other",
    "parallel": "other",
    "experiments": "other",
    "metrics": "other",
}

#: Counting wrappers installed by ``bench_probes`` rename their code
#: object to ``probe:<layer>:<target>``, so the wrapper's own self time
#: lands in the layer of the function it wraps.
PROBE_PREFIX = "probe:"


def module_layer(module: str) -> str:
    """Layer of a module path such as ``"sim/engine"``."""
    if module in LAYER_OF:
        return LAYER_OF[module]
    package = module.split("/", 1)[0]
    if "/" in module and package in LAYER_OF:
        return LAYER_OF[package]
    raise KeyError(f"module {module!r} of src/repro has no layer")


def source_modules(package_dir: Path) -> Iterable[str]:
    """Every module path under ``package_dir`` (``src/repro``)."""
    for path in sorted(package_dir.rglob("*.py")):
        yield path.relative_to(package_dir).with_suffix("").as_posix()


def function_layer(key: Tuple[str, int, str], package_dir: Path) -> str:
    """Layer of one profiler entry ``(filename, lineno, funcname)``."""
    filename, _, funcname = key
    if funcname.startswith(PROBE_PREFIX):
        return funcname.split(":", 2)[1]
    try:
        rel = Path(filename).resolve().relative_to(package_dir)
    except ValueError:  # stdlib, builtins ("~"), third-party, perfbench
        return "other"
    return module_layer(rel.with_suffix("").as_posix())


def self_times(stats: Mapping, package_dir: Path) -> Dict[str, float]:
    """Sum profiler self time (``tt``) per layer.

    ``stats`` is a ``cProfile`` mapping ``key -> (cc, nc, tt, ct,
    callers)``, where ``callers`` maps each caller to ``(nc, cc, tt,
    ct)`` of the calls it made.  An entry falls in its own layer, except
    that a builtin's time under a probe goes to the probe's layer: the
    builtin is the function the probe wraps.  Time is only moved between
    buckets, so they add up to the profiled total.
    """
    package_dir = package_dir.resolve()
    buckets = {layer: 0.0 for layer in LAYERS}
    for key, (_, _, tt, _, callers) in stats.items():
        if key[0] == "~":  # a builtin
            for caller, edge in callers.items():
                if caller[2].startswith(PROBE_PREFIX):
                    buckets[caller[2].split(":", 2)[1]] += edge[2]
                    tt -= edge[2]
        buckets[function_layer(key, package_dir)] += tt
    return buckets


def profiled_total(stats: Mapping) -> float:
    return sum(value[2] for value in stats.values())
