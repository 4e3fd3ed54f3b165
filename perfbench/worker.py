"""Runs one workload's passes inside one fresh single-threaded process.

Started by `run.py`, never imported by it.  The process imports
`helpercache.cli` once, then runs one pass per CLI seed until the time budget
is spent, writing every call's CSV under `--out-dir` and a JSON summary to
`--result`.  With `--trace 0` the calibration unit of `calibrate.py` runs
between calls.  With `--trace 1` each seed runs twice, untraced and then
traced, so the two runs' CSVs can be compared and the tracing overhead
measured; the traced passes' spans are written to `spans.csv` in `--out-dir`
at the end.

    python3 perfbench/worker.py --workload macro-coded --seeds 3,7 \
        --seconds 10 --trace 0 --out-dir .perfbench_runs/x --result r.json
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from importlib import metadata

import calibrate
from tracer import Recorder, layer_metrics
from workloads import WORKLOADS

MIN_PASSES = 3  # the fewest passes whose median shrugs off one slow pass


def _run_pass(cli, workload, seed: int, out_dir: str, recorder=None,
              calibrated: bool = False) -> dict:
    """Run the workload's calls at one seed, timing each call.

    With `calibrated`, the calibration unit runs after every call, outside
    the timed calls, so each call has a machine-speed reading on both sides
    (the first call's earlier reading is the previous pass's last one).
    """
    os.makedirs(out_dir, exist_ok=True)
    walls, cpus, cal, outcomes = [], [], [], []
    for k, call in enumerate(workload.calls):
        argv = [*call.argv, "--seed", str(seed), "--out", os.path.join(out_dir, f"call{k}.csv")]
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        try:
            if recorder is None:
                code = cli.main(argv)
            else:
                code = recorder.call("cli.main", cli.main, argv)
            outcomes.append({"exit": code, "error": None})
        except Exception as exc:  # a crash of the program under test is a result
            traceback.print_exc()
            outcomes.append({"exit": None, "error": f"{type(exc).__name__}: {exc}"})
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
        if calibrated:
            cal.append(calibrate.timed_unit_forked())
    return {"seed": seed, "traced": recorder is not None, "wall_s": sum(walls),
            "cpu_s": sum(cpus), "call_wall_s": walls, "call_cpu_s": cpus, "cal_s": cal,
            "calls": outcomes, "dir": out_dir}


def _write_spans(path: str, traced: list):
    with open(path, "w") as fh:
        fh.write("pass,index,name,start,end,parent\n")
        for number, spans in traced:
            for index, (name, start, end, parent) in enumerate(spans):
                fh.write(f"{number},{index},{name},{start!r},{end!r},{parent}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    seeds = [int(s) for s in args.seeds.split(",")]

    t0 = time.perf_counter()
    from helpercache import cli, d2d, macro_sim, placement_coded

    import_s = time.perf_counter() - t0
    modules = {"cli": cli, "macro_sim": macro_sim, "placement_coded": placement_coded,
               "d2d": d2d}

    passes = []
    traced_spans = []
    recorder = Recorder()
    calibrated = not args.trace
    started = time.perf_counter()
    if calibrated:
        calibrate.timed_unit_forked()  # imports and first page touches
        last_cal = calibrate.timed_unit_forked()
    for number, seed in enumerate(seeds):
        pass_dir = os.path.join(args.out_dir, f"pass{number}-seed{seed}")
        run = _run_pass(cli, workload, seed, os.path.join(pass_dir, "untraced"),
                        calibrated=calibrated)
        if calibrated:
            run["cal_s"].insert(0, last_cal)
            last_cal = run["cal_s"][-1]
        passes.append(run)
        if args.trace:
            recorder.reset()
            recorder.install(modules)
            try:
                run = _run_pass(cli, workload, seed, os.path.join(pass_dir, "traced"),
                                recorder)
            finally:
                recorder.uninstall()
            run["objectives"] = recorder.counters.objectives
            run["layers"] = layer_metrics(recorder)
            passes.append(run)
            traced_spans.append((number, recorder.spans))
        elapsed = time.perf_counter() - started
        if number + 1 >= MIN_PASSES and elapsed * (number + 2) / (number + 1) > args.seconds:
            break

    if traced_spans:
        _write_spans(os.path.join(args.out_dir, "spans.csv"), traced_spans)
    result = {
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "passes": passes,
        "missing_probes": recorder.missing,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "helpercache": getattr(cli, "__version__", None),
        },
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
