"""helpercache benchmark: end-to-end timings and a traced per-layer split.

    python3 perfbench/run.py --workload macro-coded --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0     # the three, one by one

Run from the root of a source checkout; the package is imported from `src/`,
nothing is installed.  A run is a closed loop with one client: one fresh,
single-threaded worker process (`worker.py`) runs the workload's CLI calls one
after another, a pass per CLI seed, until `--seconds` are spent.

`--trace 0` reports the end-to-end metrics, each a median over passes:
  setup_s      a fresh interpreter finishing `import helpercache.cli` (median
               of SETUP_PROBES probes after one warm-up)
  wall_s       wall time of one pass of CLI calls, after setup
  cpu_s        user plus system CPU time of the same interval
  reps_per_s   Monte Carlo replications (macro snapshots, D2D cluster draws)
               per second of wall_s
  peak_rss_mb  peak resident set of the worker process, in 1e6 bytes
Every timing is in reference seconds: each CLI call and each set-up probe is
scaled by the calibration unit of `calibrate.py`, timed just before and just
after it, because on a shared machine the clock alone drifts by a quarter
between runs.  The unscaled readings are printed and recorded as
`*_unscaled`.

`--trace 1` runs each seed untraced and then traced and reports the
per-layer metrics of `tracer.py`, unscaled, as means over traced passes, so
that the layers' self times add up to `trace.wall_s`; `trace.overhead_s` is
the mean traced minus the mean untraced pass wall time, and
`trace.unaccounted_s` is `trace.wall_s` minus the layers' self times.

Every output row is checked (`check.py`); `fail_rate` is failed rows over
attempted rows and goes into the result's `failed` and `attempted`.  The last
line of standard output is the JSON result; the full record, with the
machine description, goes to `.perfbench_runs/<workload>-seed<n>-trace<t>/`.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
from calibrate import REFERENCE_S
from check import check_call, objective_problems
from tracer import LAYERS
from workloads import WORKLOADS, pass_seeds

SETUP_PROBES = 3
RUN_LIMIT_S = 170.0  # the whole run, set-up probes included, ends before this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def measure_setup(root: str, env: dict, count: int = SETUP_PROBES):
    """Wall times of fresh interpreters that import `helpercache.cli`, and
    the calibration readings around them.  The first probe, which may
    compile bytecode, is not kept, and neither is the first calibration
    reading, which pays for the unit's first memory touches."""
    times = []
    cal = []
    calibrate.timed_unit()
    for number in range(count + 1):
        if number:
            cal.append(calibrate.timed_unit())
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import helpercache.cli"],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"import helpercache.cli failed:\n{proc.stderr}")
    cal.append(calibrate.timed_unit())
    return times[1:], cal


def run_worker(root, env, workload, seeds, seconds, trace, out_dir, timeout) -> dict:
    result_path = os.path.join(out_dir, "worker.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seeds", ",".join(map(str, seeds)), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", out_dir, "--result", result_path]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    with open(result_path) as fh:
        return json.load(fh)


def load_reference(workload: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json")) as fh:
        return json.load(fh)


def read_text(path: str) -> str | None:
    try:
        with open(path, newline="") as fh:
            return fh.read()
    except OSError:
        return None


def check_passes(workload, passes, reference) -> tuple[int, list[str]]:
    """Attempted rows and one message per failed row, over all passes."""
    attempted, failed = 0, []
    untraced_text = {}
    for run in passes:
        ref = reference["seeds"][str(run["seed"])]
        bad_rows: dict[int, str] = {}
        offset = 0
        for k, (call, outcome) in enumerate(zip(workload.calls, run["calls"])):
            text = read_text(os.path.join(run["dir"], f"call{k}.csv"))
            problems = check_call(call, outcome, text, ref["csv"][k], workload)
            if run["traced"] and not problems and text != untraced_text.get((run["seed"], k)):
                problems = ["traced CSV differs from the untraced one"] * call.rows
            for i, message in enumerate(problems):
                bad_rows[offset + i] = message
            if not run["traced"]:
                untraced_text[(run["seed"], k)] = text
            offset += call.rows
        if run["traced"] and workload.vertex_dependent:
            for i, message in enumerate(objective_problems(run["objectives"],
                                                           ref["objectives"])):
                if message is not None:
                    bad_rows.setdefault(min(i, workload.rows - 1), message)
        attempted += workload.rows
        failed += [f"seed {run['seed']} {'traced' if run['traced'] else 'untraced'} "
                   f"{msg}" for _, msg in sorted(bad_rows.items())]
    return attempted, failed


def scale_each(times: list[float], cal: list[float]) -> list[float]:
    """Each time scaled to the reference machine speed by the mean of the
    calibration readings taken just before and just after it."""
    return [t * REFERENCE_S / ((before + after) / 2)
            for t, before, after in zip(times, cal, cal[1:])]


def end_to_end(workload, result, setup) -> dict:
    """The reported metrics; every timing is in reference seconds."""
    passes = result["passes"]
    wall = [sum(scale_each(p["call_wall_s"], p["cal_s"])) for p in passes]
    cpu = [sum(scale_each(p["call_cpu_s"], p["cal_s"])) for p in passes]
    return {
        "setup_s": (statistics.median(scale_each(*setup)), "s"),
        "wall_s": (statistics.median(wall), "s"),
        "cpu_s": (statistics.median(cpu), "s"),
        "reps_per_s": (statistics.median(workload.replications / w for w in wall), "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def unscaled(workload, result, setup) -> dict:
    """The timings as the clock read them, recorded and printed but not
    reported: their run-to-run spread is mostly the machine's drift."""
    passes = result["passes"]
    return {
        "setup_s_unscaled": (statistics.median(setup[0]), "s"),
        "wall_s_unscaled": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s_unscaled": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "reps_per_s_unscaled": (
            statistics.median(workload.replications / p["wall_s"] for p in passes), "1/s"
        ),
        "calibration_s": (statistics.median(c for p in passes for c in p["cal_s"]), "s"),
    }


def _bytes_out(directory: str) -> int:
    return sum(os.path.getsize(p) for p in glob.glob(os.path.join(directory, "*")))


def per_layer(result) -> dict:
    """Means over traced passes, so that the layer self times still add up."""
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    names = list(traced[0]["layers"])
    out = {name: statistics.fmean(p["layers"][name] for p in traced) for name in names}
    out["cli.bytes_out"] = statistics.fmean(_bytes_out(p["dir"]) for p in traced)
    out["trace.wall_s"] = statistics.fmean(p["wall_s"] for p in traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.fmean(
        p["wall_s"] for p in untraced
    )
    out["trace.unaccounted_s"] = out["trace.wall_s"] - sum(
        out[f"{layer}.self_s"] for layer in LAYERS
    )
    return {name: (value, unit_of(name)) for name, value in out.items()}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ns_per_draw"):
        return "ns"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("bytes_computed") or name.endswith("bytes_out"):
        return "bytes"
    return "count"


def _first_line(path: str, key: str) -> str | None:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _caches() -> dict:
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = read_text(os.path.join(index, "level"))
        kind = read_text(os.path.join(index, "type"))
        size = read_text(os.path.join(index, "size"))
        if level and kind and size:
            out[f"L{level.strip()} {kind.strip()}"] = size.strip()
    return out


def _git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest(root: str) -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "helpercache", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def environment(root: str, env: dict, result: dict, name: str, args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": _first_line("/proc/cpuinfo", "model name"),
        "caches": _caches(),
        "ram": _first_line("/proc/meminfo", "MemTotal"),
        "versions": result["versions"],
        "blas_threads": {var: env[var] for var in THREAD_VARS},
        "load": "one worker process, single-threaded",
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pass_seeds": [p["seed"] for p in result["passes"] if not p["traced"]],
        "missing_probes": result["missing_probes"],
        "worker_import_s": result["import_s"],
    }


def run_one(name: str, args) -> int:
    """One run of one workload; prints its summary and, last, its JSON result."""
    started = time.perf_counter()
    root = os.getcwd()
    workload = WORKLOADS[name]
    try:
        if not os.path.isfile(os.path.join(root, "src", "helpercache", "cli.py")):
            raise BenchError("run from a helpercache checkout: src/helpercache is missing")
        reference = load_reference(name)
        env = child_env(root)
        setup = measure_setup(root, env) if args.trace == 0 else ()
        out_dir = os.path.join(root, ".perfbench_runs",
                               f"{name}-seed{args.seed}-trace{args.trace}")
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        seeds = pass_seeds(args.seed, count=4 * len(reference["seeds"]))
        timeout = RUN_LIMIT_S - (time.perf_counter() - started)
        result = run_worker(root, env, name, seeds, args.seconds, args.trace,
                            out_dir, timeout)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = check_passes(workload, result["passes"], reference)
    metrics = end_to_end(workload, result, setup) if args.trace == 0 else per_layer(result)
    clock = unscaled(workload, result, setup) if args.trace == 0 else {}
    record = {
        "environment": environment(root, env, result, name, args),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
        "unscaled": {m: {"value": v, "unit": u} for m, (v, u) in clock.items()},
        "attempted": attempted,
        "failed_rows": failed,
        "passes": result["passes"],
        "setup_probes_s": setup[0] if setup else [],
        "setup_calibration_s": setup[1] if setup else [],
    }
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for message in failed[:20]:
        print(f"FAILED {message}")
    count = sum(1 for p in result["passes"] if p["traced"] == bool(args.trace))
    summary = (f"medians over {count} passes, setup over {SETUP_PROBES} probes"
               if args.trace == 0 else f"means over {count} traced passes")
    print(f"workload {name}, seed {args.seed}, trace {args.trace}: {summary}")
    for metric, (value, unit) in {**metrics, **clock}.items():
        print(f"  {metric:34s} {value:.6g} {unit}")
    print(f"  {'fail_rate':34s} {len(failed) / attempted:.6g} ratio "
          f"({len(failed)} of {attempted} rows)")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Calibration readings only track the speed of the core they ran on, so
    # the benchmark and every process it starts share one CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_one(name, args) for name in names)


if __name__ == "__main__":
    sys.exit(main())
