"""Writes `reference/<workload>.json`: every pool seed's CSV outputs.

    python3 perfbench/make_reference.py [workload ...]

Run from the root of the checkout whose outputs become the reference (the
benchmark's references were produced by the commit that added it).  For
workloads whose means depend on the optimal LP vertex, the LP optima of the
traced run are stored as well.  Regenerating the reference re-baselines the
correctness check; do it only for a deliberate change of outputs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

from run import REFERENCE_DIR, child_env, read_text, run_worker, source_digest
from workloads import POOL_SIZE, WORKLOADS


def make_reference(root: str, name: str) -> dict:
    workload = WORKLOADS[name]
    out_dir = os.path.join(root, ".perfbench_runs", f"reference-{name}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    trace = int(workload.vertex_dependent)
    result = run_worker(root, child_env(root), name, list(range(POOL_SIZE)), 1e9, trace,
                        out_dir, timeout=3600)
    seeds = {}
    for run in result["passes"]:
        if any(c["exit"] != 0 for c in run["calls"]):
            raise SystemExit(f"{name} seed {run['seed']}: a call failed: {run['calls']}")
        entry = seeds.setdefault(str(run["seed"]), {})
        if run["traced"]:
            entry["objectives"] = run["objectives"]
        else:
            entry["csv"] = [
                read_text(os.path.join(run["dir"], f"call{k}.csv"))
                for k in range(len(workload.calls))
            ]
    return {
        "workload": name,
        "calls": [list(call.argv) for call in workload.calls],
        "versions": result["versions"],
        "source_sha256": source_digest(root),
        "seeds": seeds,
    }


def main(names) -> int:
    root = os.getcwd()
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name in names or sorted(WORKLOADS):
        t0 = time.perf_counter()
        reference = make_reference(root, name)
        with open(os.path.join(REFERENCE_DIR, f"{name}.json"), "w") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(reference['seeds'])} seeds in {time.perf_counter() - t0:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
