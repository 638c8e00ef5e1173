"""Regenerate references.json: the SHA-256 of each workload's output for
every program seed the benchmark uses.

Usage (from the root of a checkout)::

    python3 perfbench/make_references.py

Each reference command runs once per seed, untraced, in a fresh
interpreter.  ``grid64_sharded`` is referenced by the same command
without ``--parallel-sim``, so a sharded run is checked against the
serial simulator.  ``table3_observed`` is referenced by plain ``table3``,
without the exports.  At seed 0 the digests must equal those of the committed
``results/`` files that ``run.py`` compares against directly.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import (
    PACKAGE_DIR, REFERENCES, ROOT, SEED_SPACE, WORKLOADS, child_env, sha256,
)


def main() -> int:
    env = child_env()
    env["PYTHONPATH"] = str(PACKAGE_DIR.parent)
    digests = {}
    for workload in WORKLOADS.values():
        if workload.reference in digests:
            continue
        digests[workload.reference] = {}
        for seed in range(SEED_SPACE):
            out = subprocess.run(
                [sys.executable, "-m", "repro", *workload.reference_args,
                 "--seed", str(seed)],
                cwd=ROOT, env=env, check=True, stdout=subprocess.PIPE,
            ).stdout
            digests[workload.reference][str(seed)] = sha256(out)
            if seed == 0 and workload.results_file:
                committed = (ROOT / workload.results_file).read_bytes()
                if sha256(committed) != sha256(out):
                    raise SystemExit(
                        f"{workload.name}: seed-0 output differs from "
                        f"{workload.results_file}"
                    )
            print(workload.reference, seed,
                  digests[workload.reference][str(seed)][:12],
                  flush=True)
    REFERENCES.write_text(
        json.dumps({"seed_space": SEED_SPACE, "digests": digests},
                   indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
