"""Same-host benchmark of the paper commands.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  Each workload is one ``repro`` paper
command, run in a fresh interpreter per repetition and timed from
outside (``bench_child.py``).  ``--trace 0`` repeats the command for
``--seconds`` and reports the end-to-end metrics as medians over the
repetitions, each scaled to the host's reference speed by a probe
timed while it ran (``bench_calibrate.py``).  ``--trace 1`` adds a counting run and a profiled run of
the same command and reports the per-layer metrics.  Every run's output
is checked against a reference; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See README.md in
this directory for the metric and workload definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import bench_calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE_DIR = ROOT / "src" / "repro"
REFERENCES = HERE / "references.json"
STATE_DIR = ROOT / ".perfbench"

#: The program receives ``seed mod SEED_SPACE``: the seeds whose
#: reference outputs ship in references.json.
SEED_SPACE = 16
#: Setup-only launches topping up each untraced run's ``setup_s`` samples.
MIN_SETUP_SAMPLES = 5
#: No program run starts later than DEADLINE_S into an invocation, and
#: none lasts longer than CHILD_TIMEOUT_S, so an invocation ends within
#: 180 s.
DEADLINE_S = 100.0
CHILD_TIMEOUT_S = 75.0

GRID_ARGS = [
    "directory-grid", "--nodes", "64", "--protocols", "broadcast",
    "--mixes", "webstone", "--scale", "0.1",
]
#: ``grid64_sharded`` runs its two shards in-process.  On the 2-vCPU host
#: this was tuned on, the ``process`` backend's time is mostly pipe
#: wake-up latency, which took 8.8 s one hour and 31-36 s the next for
#: the same command, so it cannot be timed steadily there.
GRID_BACKEND = "inline"
#: Observability exports of ``table3_observed``: flag -> file in the
#: run's directory.
OBSERVED_OUTPUTS = {
    "--trace-out": "spans.jsonl",
    "--profile-out": "profile.json",
    "--streaming-out": "streaming.jsonl",
    "--metrics-out": "metrics.prom",
}
#: The line the program prints for each export, after the table.
NOTICE = re.compile(rb"^\((trace|profile|streaming|metrics)[: ].*\n", re.M)


class Workload:
    def __init__(self, name: str, args: Sequence[str], requests: int,
                 reference: str, results_file: Optional[str] = None,
                 observed: bool = False, reference_args=None):
        self.name = name
        self.args = list(args)
        #: Simulated client requests one run completes (checked by the
        #: counting run of ``--trace 1``).
        self.requests = requests
        #: Key of the references.json digests this one's output matches.
        self.reference = reference
        #: Committed output at seed 0, compared byte for byte.
        self.results_file = results_file
        self.observed = observed
        #: Command whose output defines the reference (make_references.py).
        self.reference_args = list(reference_args or args)

    def argv(self, seed: int, outdir: Path) -> List[str]:
        argv = self.args + ["--seed", str(seed)]
        if self.observed:
            for flag, name in OBSERVED_OUTPUTS.items():
                argv += [flag, str(outdir / name)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload("table5_hits", ["table5"], 16_000, "table5_hits",
                 results_file="results/table5.txt"),
        Workload("grid64_sharded", GRID_ARGS + [
            "--parallel-sim", "2", "--sim-backend", GRID_BACKEND], 480,
                 "grid64_sharded", reference_args=GRID_ARGS),
        Workload("table3_observed", ["table3"], 2_520, "table3",
                 results_file="results/table3.txt", observed=True),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "cpu_s": "s", "requests_per_s": "req/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "engine.self_s": "s", "engine.events": "count", "engine.us_per_event": "us",
    "queues.self_s": "s", "queues.ops": "count",
    "resources.self_s": "s", "resources.ps_jobs": "count",
    "resources.requests": "count", "sync.lock_acquires": "count",
    "pdes.self_s": "s", "pdes.rounds": "count", "pdes.rounds_per_request": "1/req",
    "net.self_s": "s", "net.sends": "count", "net.broadcasts": "count",
    "net.dir_msgs_per_request": "1/req",
    "core.self_s": "s", "core.lookups": "count", "core.inserts": "count",
    "core.remote_fetches": "count", "core.dir_updates": "count",
    "core.hit_ratio": "fraction", "core.false_hits": "count",
    "core.false_misses": "count",
    "cache.self_s": "s", "cache.inserts": "count", "cache.accesses": "count",
    "cache.evictions": "count",
    "hosts.self_s": "s", "hosts.file_reads": "count",
    "clients.self_s": "s", "clients.requests": "count",
    "obs.self_s": "s", "obs.spans": "count", "obs.export_s": "s",
    "workload.self_s": "s",
    "other.self_s": "s", "trace.overhead_frac": "fraction",
}

#: Per-layer metrics read straight from the counting run.
DIRECT_COUNTS = (
    "engine.events", "queues.ops", "resources.ps_jobs", "resources.requests",
    "sync.lock_acquires", "pdes.rounds", "net.sends",
    "net.broadcasts", "core.lookups", "core.inserts", "core.remote_fetches",
    "core.dir_updates", "cache.inserts", "cache.accesses", "cache.evictions",
    "hosts.file_reads", "clients.requests", "obs.spans",
)
#: Counts that must repeat exactly for one seed and source tree.
EXACT_COUNTS = DIRECT_COUNTS + (
    "stats.local_hits", "stats.remote_hits", "stats.misses",
    "stats.false_hits", "stats.false_misses", "stats.dir_msgs_sent",
)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def expected_digest(workload: Workload, seed: int, references: dict) -> str:
    if seed == 0 and workload.results_file:
        return sha256((ROOT / workload.results_file).read_bytes())
    return references["digests"][workload.reference][str(seed)]


def output_problem(workload: Workload, stdout: bytes, expected: str,
                   outdir: Path) -> Optional[str]:
    """``None`` when the run's output is correct, else what is wrong."""
    table = stdout
    if workload.observed:
        table = NOTICE.sub(b"", stdout)
        for name in OBSERVED_OUTPUTS.values():
            path = outdir / name
            if not path.is_file() or path.stat().st_size == 0:
                return f"export {name} missing or empty"
            text = path.read_text()
            if name.endswith(".json"):
                json.loads(text)
            elif name.endswith(".jsonl"):
                for line in text.splitlines():
                    json.loads(line)
    if sha256(table) != expected:
        return "output differs from the reference"
    return None


# ---------------------------------------------------------------------------
# running the program
# ---------------------------------------------------------------------------

def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    # Users run with bytecode caches; keep them (inside the checkout).
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    def __init__(self, workload: Workload, seed: int, references: dict,
                 scratch: Path):
        self.workload = workload
        self.seed = seed
        self.expected = expected_digest(workload, seed, references)
        self.scratch = scratch
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.backend: Optional[str] = None
        self.trace_info: Optional[dict] = None
        self.speed_info: Optional[dict] = None
        self._n = 0

    def launch(self, mode: str) -> Optional[dict]:
        """One fresh-interpreter run; its measurements, or ``None`` when
        it failed (non-zero exit or wrong output)."""
        self._n += 1
        outdir = self.scratch / f"run{self._n}"
        outdir.mkdir()
        result_path = outdir / "result.json"
        argv = self.workload.argv(self.seed, outdir)
        cmd = [sys.executable, str(HERE / "bench_child.py"), mode,
               str(result_path), "--", *argv]
        if mode != "setup":
            self.attempted += 1
        start = time.monotonic()
        # A process group of its own, so that a timeout also kills any
        # process the run started.
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, cwd=ROOT,
                                env=self.env, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, stderr = proc.communicate()
        problem = None
        if proc.returncode != 0 or not result_path.exists():
            problem = (f"{mode} run exited {proc.returncode}: "
                       f"{stderr.decode(errors='replace')[-400:]}")
        elif mode != "setup":
            problem = output_problem(self.workload, stdout, self.expected,
                                     outdir)
        if problem is not None:
            if mode != "setup":
                self.failed += 1
            self.problems.append(problem)
            shutil.rmtree(outdir)
            return None
        result = json.loads(result_path.read_text())
        shutil.rmtree(outdir)
        self.backend = result["backend"]
        result["setup_s"] = result["t_main"] - start
        if mode != "setup":
            result["run_s"] = result["t_end"] - result["t_main"]
        return result


def quartiles(values: Sequence[float]):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def untraced_reps(runner: Runner, budget_s: float,
                  deadline: float) -> List[dict]:
    """Repeat the plain run while the next one still fits in ``budget_s``
    (at least one run, unless the program keeps failing)."""
    reps: List[dict] = []
    start = time.monotonic()
    while time.monotonic() < deadline:
        began = time.monotonic()
        result = runner.launch("plain")
        if result is not None:
            reps.append(result)
        now = time.monotonic()
        last = now - began
        if now + last > deadline or (reps and now - start + last > budget_s):
            return reps
        if not reps and runner.failed >= 3:
            return reps
    return reps


def at_reference_speed(result: dict) -> dict:
    """A repetition's times at the host's reference speed: each divided by
    the probe's median ÷ ``REFERENCE_S`` over the same interval."""
    reference = bench_calibrate.REFERENCE_S
    scaled = {"setup_s": result["setup_s"] * reference / result["probe_setup_s"]}
    if "probe_run_s" in result:
        speed = reference / result["probe_run_s"]
        scaled["run_s"] = result["run_s"] * speed
        scaled["cpu_s"] = result["cpu_s"] * speed
    return scaled


def end_to_end(runner: Runner, seconds: float, deadline: float) -> dict:
    """Per-repetition samples of each end-to-end metric, at the host's
    reference speed."""
    reps = untraced_reps(runner, seconds, deadline)
    setups = list(reps)
    while len(setups) < MIN_SETUP_SAMPLES and time.monotonic() < deadline:
        result = runner.launch("setup")
        if result is not None:
            setups.append(result)
    if not reps:
        return {}
    requests = runner.workload.requests
    scaled = [at_reference_speed(r) for r in reps]
    runner.speed_info = {
        "probe_run_median_s": statistics.median(r["probe_run_s"] for r in reps),
        "reference_s": bench_calibrate.REFERENCE_S,
        "raw_setup_s": statistics.median(r["setup_s"] for r in setups),
        "raw_run_s": statistics.median(r["run_s"] for r in reps),
    }
    return {
        "setup_s": [at_reference_speed(r)["setup_s"] for r in setups],
        "run_s": [t["run_s"] for t in scaled],
        "cpu_s": [t["cpu_s"] for t in scaled],
        "requests_per_s": [requests / t["run_s"] for t in scaled],
        "peak_rss_mb": [r["peak_rss_kb"] / 1024 for r in reps],
    }


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------

def per_layer(runner: Runner, seconds: float, deadline: float) -> Dict[str, float]:
    start = time.monotonic()
    counted = runner.launch("count")
    profiled = runner.launch("profile")
    remaining = seconds - (time.monotonic() - start)
    reps = untraced_reps(runner, remaining, deadline)
    if counted is None or profiled is None or not reps:
        return {}
    counts = counted["counts"]
    mismatched = [
        key for key in EXACT_COUNTS
        if counts.get(key, 0) != profiled["counts"].get(key, 0)
    ]
    if mismatched:
        runner.problems.append(f"counts differ between runs: {mismatched}")
    if counts.get("clients.requests") != runner.workload.requests:
        runner.problems.append(
            f"completed {counts.get('clients.requests')} requests, "
            f"expected {runner.workload.requests}"
        )
    check_against_state(runner, counts)
    untraced = statistics.median([r["run_s"] for r in reps])
    runner.trace_info = {
        "profiled_run_s": profiled["run_s"],
        "untraced_run_s": untraced,
        "profiled_total_s": profiled["profile"]["total_s"],
    }
    return layer_metrics(counted, profiled, untraced, runner.workload.requests)


def layer_metrics(counted: dict, profiled: dict, untraced_run_s: float,
                  requests: int) -> Dict[str, float]:
    """The per-layer metrics from a counting run, a profiled run and the
    untraced median ``run_s``.  A counter no wrapper fired reads 0."""
    counts, timers = counted["counts"], counted["timers"]
    metrics: Dict[str, float] = {key: counts.get(key, 0) for key in DIRECT_COUNTS}
    for layer, value in profiled["profile"]["self_s"].items():
        metrics[f"{layer}.self_s"] = value
    events = metrics["engine.events"]
    hits = counts.get("stats.local_hits", 0) + counts.get("stats.remote_hits", 0)
    outcomes = hits + counts.get("stats.misses", 0)
    metrics.update({
        "engine.us_per_event": untraced_run_s / events * 1e6 if events else 0.0,
        "pdes.rounds_per_request": metrics["pdes.rounds"] / requests,
        "net.dir_msgs_per_request": counts.get("stats.dir_msgs_sent", 0) / requests,
        "core.hit_ratio": hits / outcomes if outcomes else 0.0,
        "core.false_hits": counts.get("stats.false_hits", 0),
        "core.false_misses": counts.get("stats.false_misses", 0),
        "obs.export_s": timers.get("obs.export_s", 0.0),
        "trace.overhead_frac": profiled["run_s"] / untraced_run_s - 1,
    })
    return metrics


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        h.update(path.relative_to(PACKAGE_DIR).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_against_state(runner: Runner, counts: dict) -> None:
    """Counts of one seed and source tree must repeat across invocations."""
    key = f"{source_digest()[:16]}-{runner.workload.name}-{runner.seed}"
    path = STATE_DIR / f"counts-{key}.json"
    exact = {k: counts.get(k, 0) for k in EXACT_COUNTS}
    if path.exists():
        previous = json.loads(path.read_text())
        differ = sorted(k for k in exact if previous.get(k) != exact[k])
        if differ:
            runner.problems.append(f"counts differ from an earlier run: {differ}")
        return
    # Only counts from an invocation with nothing wrong become the record.
    if runner.problems or runner.failed:
        return
    STATE_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(exact, sort_keys=True))


# ---------------------------------------------------------------------------
# provenance and reporting
# ---------------------------------------------------------------------------

def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(runner: Runner, seed: int) -> dict:
    return {
        "workload": runner.workload.name,
        "seed": seed,
        "program_seed": runner.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
        "source_sha256": source_digest()[:16],
        "grid_backend": GRID_BACKEND,
        "auto_backend": runner.backend,
    }


def preflight() -> None:
    if not (PACKAGE_DIR / "cli.py").is_file():
        raise SystemExit(
            f"error: no program source at {PACKAGE_DIR}; run from the root "
            "of a checkout of the repository"
        )


def compile_sources() -> None:
    """Write the bytecode cache once, so no timed run compiles."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(PACKAGE_DIR)],
                   cwd=ROOT, env=child_env(), check=True,
                   stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    references = json.loads(REFERENCES.read_text())
    STATE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=STATE_DIR) as scratch:
        runner = Runner(WORKLOADS[name], seed % SEED_SPACE, references,
                        Path(scratch))
        if trace:
            values = per_layer(runner, seconds, deadline)
            units = PER_LAYER_UNITS
            spread = {}
        else:
            samples = end_to_end(runner, seconds, deadline)
            units = END_TO_END_UNITS
            values = {k: statistics.median(v) for k, v in samples.items()}
            spread = {k: (len(v),) + quartiles(v) for k, v in samples.items()}
    return {
        "runner": runner,
        "provenance": provenance(runner, seed),
        "correct": (runner.failed == 0 and not runner.problems
                    and set(values) == set(units)),
        "values": values,
        "units": units,
        "spread": spread,
    }


def print_report(report: dict) -> None:
    runner = report["runner"]
    prov = report["provenance"]
    print(f"== {prov['workload']} (seed {prov['seed']}, program seed "
          f"{prov['program_seed']}) ==")
    for name, value in report["values"].items():
        unit = report["units"][name]
        line = f"  {name:26s} {value:14.6g} {unit}"
        if name in report["spread"]:
            n, q1, q3 = report["spread"][name]
            line += f"   (median of {n}; quartiles {q1:.6g} .. {q3:.6g})"
        print(line)
    attempted, failed = runner.attempted, runner.failed
    print(f"  {'failed_frac':26s} {failed / max(1, attempted):14.6g} fraction"
          f"   ({failed} of {attempted} runs)")
    if runner.speed_info:
        print(f"  host speed: {json.dumps(runner.speed_info)}")
    if runner.trace_info:
        print(f"  trace: {json.dumps(runner.trace_info)}")
    for problem in runner.problems:
        print(f"  problem: {problem}")
    print(f"provenance: {json.dumps(prov, sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    preflight()
    compile_sources()

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        report = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              deadline)
        print_report(report)
        reports.append(report)

    metrics = {}
    for report in reports:
        prefix = "" if len(reports) == 1 else report["provenance"]["workload"] + "."
        for name, value in report["values"].items():
            metrics[prefix + name] = {"value": value, "unit": report["units"][name]}
    correct = all(r["correct"] for r in reports)
    attempted = sum(r["runner"].attempted for r in reports)
    failed = sum(r["runner"].failed for r in reports)
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
