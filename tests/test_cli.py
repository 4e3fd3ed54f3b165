import argparse
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from popularity_oracles import sorted_fit, trace_from_samples

import helpercache
from helpercache import cli, macro_sim, placement_coded
from helpercache.cli import main
from helpercache.d2d import MAX_MC_USERS, MAX_SCORES, MAX_USERS
from helpercache.errors import IterationLimitError, UnboundedProblemError
from helpercache.macro_sim import (
    MAX_HELPERS,
    MAX_PLACEMENT_BYTES,
    MAX_USER_HELPER_PAIRS,
    MacroConfig,
    check_user_helper_pairs,
    experiment_popularity,
)
from helpercache.popularity import (
    catalog_size,
    sample_requests,
    zipf_model,
)
from helpercache.rng import stream


def child_env():
    """The environment for a child interpreter that imports this package."""
    src = str(Path(helpercache.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}


def run_child(*argv, timeout=60):
    """The exit code, the seconds `main` took and the stderr of the CLI run
    in a child interpreter, which keeps a hang or an exhausted memory out of
    the suite."""
    probe = (
        "import sys, time; from helpercache.cli import main; "
        "t = time.perf_counter(); code = main(sys.argv[1:]); "
        "print(code, time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        env=child_env(), capture_output=True, text=True, timeout=timeout,
    )
    code, seconds = done.stdout.split()
    return int(code), float(seconds), done.stderr


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestFit:
    def test_synthetic_fit_matches_the_library_call(self, capsys):
        code, out, err = run_cli(
            capsys,
            "fit", "--samples", "5000", "--m", "50",
            "--synthetic-gamma", "0.9", "--seed", "3",
        )
        assert code == 0 and err == ""
        lines = dict(line.split("=", 1) for line in out.strip().splitlines())
        model = zipf_model(0.9, 50)
        samples = sample_requests(model, stream(3, "fit-trace"), 5000)
        gamma_hat, m_hat = sorted_fit(trace_from_samples(samples))
        assert float(lines["gamma_hat"]) == pytest.approx(gamma_hat, rel=1e-12)
        assert int(lines["m_hat"]) == m_hat

    def test_trace_file_fit_with_json_output(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        rows = ["file_id,count"]
        rows += [f"{i},{round(1e9 * i ** -0.7)}" for i in range(1, 51)]
        trace.write_text("\n".join(rows) + "\n")
        out_path = tmp_path / "fit.json"
        code, out, _ = run_cli(
            capsys, "fit", "--trace", str(trace), "--out", str(out_path)
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["gamma_hat"] == pytest.approx(0.7, abs=1e-3)
        assert payload["m_hat"] == 50
        manifest = json.loads((tmp_path / "fit.json.manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert manifest["outputs"] == [str(out_path)]

    def test_file_ids_past_the_float_range_fit_like_small_ones(self, capsys, tmp_path):
        # File ids are labels, never numbers: one past 2**1024 fits the same.
        counts = [40, 8, 8, 3, 1]
        outputs = []
        for first_id in (1, 2**1100):
            trace = tmp_path / f"trace-{len(outputs)}.csv"
            rows = [f"{first_id + i},{c}" for i, c in enumerate(counts)]
            trace.write_text("\n".join(["file_id,count", *rows]) + "\n")
            code, out, err = run_cli(capsys, "fit", "--trace", str(trace))
            assert code == 0 and err == ""
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert outputs[0].endswith("m_hat=5\n")

    @pytest.mark.parametrize(
        "body", ["1,10\n2,abc\n", "1,10\n2\n"], ids=["non-integer", "one-column"]
    )
    def test_malformed_trace_row_exits_two(self, capsys, tmp_path, body):
        trace = tmp_path / "trace.csv"
        trace.write_text("file_id,count\n" + body)
        code, out, err = run_cli(capsys, "fit", "--trace", str(trace))
        assert code == 2 and out == ""
        assert err.startswith("error: trace CSV line 3: expected integers")

    @pytest.mark.parametrize(
        "body,message",
        [
            ("1,10\n2,-20\n3,1\n4,2\n", "trace CSV line 3: count -20 of file id 2 is negative"),
            ("1,10\n2,3\n\n1,1\n", "trace CSV line 5: duplicate file id 1, first on line 2"),
            (f"1,10\n2,{2**1100}\n3,1\n", "trace CSV line 3: count of file id 2 is past the float range"),
        ],
        ids=["negative-count", "duplicate-id", "huge-count"],
    )
    def test_refused_trace_row_names_its_line(self, capsys, tmp_path, body, message):
        trace = tmp_path / "trace.csv"
        trace.write_text("file_id,count\n" + body)
        code, out, err = run_cli(capsys, "fit", "--trace", str(trace))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_zero_counts_are_left_out_of_the_fit(self, capsys, tmp_path):
        fits = []
        for body in ("1,40\n2,8\n3,8\n4,1\n", "9,0\n1,40\n2,8\n5,0\n3,8\n4,1\n6,0\n"):
            trace = tmp_path / "trace.csv"
            trace.write_text("file_id,count\n" + body)
            fits.append(run_cli(capsys, "fit", "--trace", str(trace)))
        assert fits[0] == fits[1]
        assert fits[0][0] == 0 and fits[0][1].endswith("m_hat=4\n")

    def test_non_utf8_trace_exits_two(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_bytes(b"file_id,count\n1,10\n\xff\xfe,3\n")
        code, out, err = run_cli(capsys, "fit", "--trace", str(trace))
        assert code == 2 and out == ""
        assert err.startswith(f"error: trace CSV {trace} is not UTF-8 text")


class TestPlace:
    @pytest.mark.parametrize("helpers,bound_s", [(1024, 5.0), (10_000, 10.0)])
    def test_greedy_at_many_helpers_finishes_in_seconds(self, tmp_path, helpers, bound_s):
        # Whole process on a 2-core Xeon: 0.45 s at 1024 helpers and 0.74 s
        # at 10^4, the helper cap.  A child process keeps a regression from
        # hanging the suite.
        argv = ("place", "--helpers", str(helpers), "--out", str(tmp_path / "p.json"))
        code, seconds, _ = run_child(*argv, timeout=120)
        assert code == 0 and seconds < bound_s
        caches = json.loads((tmp_path / "p.json").read_text())
        assert len(caches) == helpers
        assert all(len(cache) <= 3 for cache in caches.values())

    def test_most_popular_caches_every_top_rank(self, capsys):
        code, out, err = run_cli(
            capsys,
            "place", "--policy", "most-popular", "--helpers", "4",
            "--capacity", "3", "--m", "20",
        )
        assert code == 0 and err == ""
        caches = json.loads(out)
        assert set(caches) == {"0", "1", "2", "3"}
        assert all(cache == [1, 2, 3] for cache in caches.values())

    def test_greedy_writes_file_and_manifest(self, capsys, tmp_path):
        out_path = tmp_path / "placement.json"
        code, _, _ = run_cli(
            capsys,
            "place", "--helpers", "3", "--capacity", "2", "--m", "30",
            "--seed", "7", "--out", str(out_path),
        )
        assert code == 0
        caches = json.loads(out_path.read_text())
        assert set(caches) == {"0", "1", "2"}
        assert all(len(cache) <= 2 for cache in caches.values())
        manifest = json.loads((tmp_path / "placement.json.manifest.json").read_text())
        assert manifest["parameters"]["policy"] == "greedy"
        assert manifest["parameters"]["helpers"] == 3
        assert manifest["seed"] == 7
        assert manifest["wall_time_s"] >= 0

    @pytest.mark.parametrize("policy", ["greedy", "most-popular"])
    def test_default_whole_file_placement_is_pinned(self, capsys, policy):
        code, out, err = run_cli(capsys, "place", "--policy", policy, "--seed", "0")
        assert code == 0 and err == ""
        body = ",\n".join(
            f'  "{h}": [\n    1,\n    2,\n    3\n  ]' for h in range(4)
        )
        assert out == "{\n" + body + "\n}\n"

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("--helpers", "32", "--capacity", "50", "--m", "200"),
                "fbcd2e181c156fe9e5afd7efab81ecb994b599ac03891fe71d4df0dd827cfd52",
            ),
            (
                ("--helpers", "16", "--capacity", "30", "--helper-mode", "uniform"),
                "1fd6b85692c181132ac256b470138ab71aec41568e47121d7f910f78f1e9abe5",
            ),
        ],
    )
    def test_overlapping_greedy_placement_is_pinned(self, capsys, argv, digest):
        # Overlapping helpers cache different ranks, so the per-helper lists
        # differ in length and content.
        code, out, err = run_cli(capsys, "place", "--seed", "0", *argv)
        assert code == 0 and err == ""
        assert len({tuple(c) for c in json.loads(out).values()}) > 2
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("policy", ["greedy", "most-popular"])
    def test_capacity_past_int64_acts_as_the_catalog(self, capsys, policy):
        argv = ("place", "--policy", policy, "--m", "30", "--helpers", "6", "--capacity")
        code, out, err = run_cli(capsys, *argv, str(10**20))
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, *argv, "30")[1]

    def test_coded_placement_csv(self, capsys):
        code, out, err = run_cli(
            capsys,
            "place", "--policy", "coded", "--helpers", "2", "--capacity", "2",
            "--m", "6", "--n", "8", "--coded-groups", "6",
        )
        assert code == 0 and err == ""
        header, rows = csv_rows(out)
        assert header == ["file_rank", "helper_id", "rho"]
        for rank, helper, rho in rows:
            assert 1 <= int(rank) <= 6
            assert int(helper) in (0, 1)
            assert 0.0 <= float(rho) <= 1.0

    def test_brute_force_guard_failure_exits_one(self, capsys):
        code, out, err = run_cli(
            capsys,
            "place", "--policy", "brute-force", "--helpers", "3",
            "--capacity", "2", "--m", "30",
        )
        assert code == 1
        assert "brute-force search space exceeds the guard of 1000000" in err

    @pytest.mark.parametrize("error", [IterationLimitError, UnboundedProblemError])
    def test_solver_failure_exits_one(self, capsys, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error("solver gave up")

        monkeypatch.setattr(placement_coded, "simplex_solve", fail)
        code, out, err = run_cli(
            capsys, "place", "--policy", "coded", "--helpers", "2", "--m", "6",
        )
        assert code == 1 and out == ""
        assert err == "solver gave up\n"

    def test_lp_above_the_nonzero_guard_exits_one_before_allocating(self, capsys):
        # 100 users and 128 coded groups make an LP of 144256 nonzeros.
        tracemalloc.start()
        try:
            code, out, err = run_cli(
                capsys,
                "simulate-macro", "--policy", "coded", "--n", "100",
                "--coded-groups", "128",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and out == ""
        assert "has 144256 nonzeros, above the guard of 100000" in err
        assert peak < 100e6

    def test_coded_place_of_100_users_and_64_groups_runs(self, capsys):
        # 72128 nonzeros; the dense matrix the guard used to price was 6 GB.
        code, out, err = run_cli(
            capsys,
            "place", "--policy", "coded", "--n", "100", "--coded-groups", "64",
            "--helpers", "32",
        )
        assert code == 0 and err == ""
        header, rows = csv_rows(out)
        assert header == ["file_rank", "helper_id", "rho"] and rows


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("simulate-macro", "--policy", "most-popular", "--reps", "10000000000000"),
            "error: reps=10000000000000 over 1 sweep point(s) scores "
            "10000000000000 replicates, above the cap of 50000000\n",
        ),
        (
            ("simulate-macro", "--policy", "most-popular",
             "--trace-samples", "1000000000000", "--reps", "1"),
            "error: trace_samples=1000000000000 exceeds the cap of 100000000\n",
        ),
        (
            ("fit", "--samples", "1000000000000"),
            "error: samples=1000000000000 exceeds the cap of 100000000\n",
        ),
        (
            ("place", "--helpers", "100000000000"),
            f"error: helpers: must be at most {MAX_HELPERS}\n",
        ),
        (
            ("simulate-macro", "--helpers", "1000000", "--reps", "1", "--gamma", "0.8"),
            f"error: helpers: must be at most {MAX_HELPERS}\n",
        ),
        (
            ("sweep-helpers", "--counts", f"0,2,{MAX_HELPERS + 1}", "--reps", "1"),
            f"error: counts: must be at most {MAX_HELPERS}\n",
        ),
        (
            ("place", "--policy", "most-popular", "--m", "10000000", "--helpers", "1000"),
            "error: m=10000000 files at 1000 helpers take 10000000000 bytes of "
            f"placements, above the cap of {MAX_PLACEMENT_BYTES}\n",
        ),
        (
            ("sweep-helpers", "--policy", "coded", "--m", "10000000",
             "--counts", "8,16,32", "--reps", "1"),
            "error: m=10000000 files at 56 helpers take 4480000000 bytes of "
            f"placements, above the cap of {MAX_PLACEMENT_BYTES}\n",
        ),
        (
            ("sweep-helpers", "--counts", "0", "--n", "10000001", "--reps", "1"),
            "error: n=10000001 users at 0 helpers make 10000001 user-helper pairs, "
            f"above the cap of {MAX_USER_HELPER_PAIRS}\n",
        ),
        (
            ("simulate-macro", "--cell-radius", "1e308", "--helpers", "0", "--reps", "1"),
            "error: cell_radius=1e+308 must be > 0 with a finite diameter\n",
        ),
    ],
    ids=[
        "reps", "trace-samples", "samples", "place-helpers", "macro-helpers", "counts",
        "place-bytes", "sweep-bytes", "pairs-without-helpers", "cell-radius",
    ],
)
def test_oversized_macro_and_fit_inputs_exit_two_before_allocating(capsys, argv, message):
    # Each would need terabytes; the refusal comes before any allocation.
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", message)
    assert peak < 20e6


@pytest.mark.parametrize(
    "argv,message",
    [
        (("simulate-macro", "--qos", "inf"), "qos: must be finite"),
        (("simulate-macro", "--file-bits", "0"), "file_bits: must be > 0"),
        (("simulate-macro", "--gamma", "-1"), "gamma: must be >= 0"),
        (("place", "--helper-mode", "ring"), "helper_mode: must be one of grid, uniform"),
        (("sweep-helpers", "--counts", ","), "counts: needs at least 1 value(s)"),
        (("place", "--n", "0"), "n: must be an integer >= 1"),
        (("simulate-macro", "--reps", "x"), "reps: invalid literal for int() with base 10: 'x'"),
        (("simulate-d2d", "--r", "2"), "r: must be a fraction in (0, 1], e.g. 0.1 or 1/10"),
        (("fit", "--trace", "counts.csv"), "trace CSV must start with header file_id,count"),
        (
            ("fit", "--trace", "missing.csv"),
            "cannot read trace CSV missing.csv: [Errno 2] No such file or directory: "
            "'missing.csv'",
        ),
        (("fit", "--trace", "."), "cannot read trace CSV .: [Errno 21] Is a directory: '.'"),
        (("fit", "--seed", "-1"), "seed: must be an integer >= 0"),
        (
            ("simulate-d2d", "--r", "1/2", "--n", "20", "--m", "5", "--mode", "analytic",
             "--out", "no-dir/x.csv"),
            "out: cannot write to directory no-dir",
        ),
        (("fit", "--samples", "500", "--m", "20", "--out", "no-dir/x.json"),
         "out: cannot write to directory no-dir"),
        (("place", "--out", "."), "out: . is a directory"),
    ],
    ids=[
        "qos", "file-bits", "gamma", "helper-mode", "counts", "n", "reps", "r", "trace",
        "missing-trace", "trace-directory", "seed", "out-no-dir", "fit-out-no-dir",
        "out-directory",
    ],
)
def test_refused_values_exit_two_with_one_line(capsys, monkeypatch, tmp_path, argv, message):
    # The whole stderr is the one message line: no traceback, nothing else.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "counts.csv").write_text("1,50\n2,20\n")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("place", "--cell-radius", "1e308"),
        ("place", "--cell-radius", "1e308", "--helper-mode", "uniform"),
    ],
    ids=["grid", "uniform"],
)
def test_cell_of_infinite_diameter_exits_two_quickly(argv):
    # 2 * 1e308 is inf: the grid layout found no lattice point inside and
    # grew until memory ran out, and the uniform draw raised OverflowError.
    code, seconds, err = run_child(*argv)
    assert code == 2 and seconds < 1.0
    assert err == "error: cell_radius=1e+308 must be > 0 with a finite diameter\n"


@pytest.mark.parametrize("command", ["place", "simulate-macro"])
def test_cell_whose_edge_rate_rounds_to_zero_exits_two_quickly(command):
    # Past a radius of about 9.56e6 m the default macro link's rate at the
    # cell edge rounds to 0, which used to surface as a base-station rate
    # error that named neither the flag nor the radius.
    code, seconds, err = run_child(command, "--cell-radius", "1e7")
    assert code == 2 and seconds < 1.0
    assert err == (
        "error: cell_radius=10000000.0 leaves users at the cell edge a "
        "base-station rate of 0 bit/s\n"
    )


@pytest.mark.parametrize("command", ["place", "simulate-macro"])
def test_cell_of_5e6_m_still_runs(capsys, command):
    code, out, err = run_cli(capsys, command, "--cell-radius", "5e6")
    assert code == 0 and out and not err


def test_cell_of_1e_300_m_places_its_grid_helpers(capsys):
    # The grid layout kept lattice points within cell_radius + 1e-9 m, which
    # at this radius is the whole square, and the cell refused its corners.
    code, out, err = run_cli(
        capsys, "simulate-macro", "--cell-radius", "1e-300", "--reps", "2", "--gamma", "0.8"
    )
    assert code == 0 and out and not err


@pytest.mark.parametrize(
    "argv, exponent, m",
    [
        (("place", "--gamma", "400"), "400", 100),
        (("simulate-d2d", "--gamma", "400"), "400", 1000),
        (("sweep-gamma1", "--gamma1-values", "0.5,400", "--reps", "2"), "400", 1000),
    ],
    ids=["place", "simulate-d2d", "gamma1"],
)
def test_zipf_pmf_that_underflows_names_its_exponent(capsys, argv, exponent, m):
    # 7^-400 rounds to 0.0, which the popularity model refused as a pmf
    # entry that was not positive, naming neither exponent nor catalog.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        f"error: a Zipf exponent of {exponent} over a catalog of {m} files gives "
        f"rank {m} a probability of 0 in floating point; lower the exponent or the "
        "catalog\n"
    )


@pytest.mark.parametrize(
    "argv,pairs",
    [
        (("simulate-macro", "--n", "312501", "--helpers", "32", "--reps", "1",
          "--gamma", "0.8"), 10_000_032),
        (("place", "--n", "2500001"), 10_000_004),
    ],
    ids=["simulate-macro", "place"],
)
def test_users_times_helpers_past_the_cap_exit_two_quickly(argv, pairs):
    # One pair past the cap.  10^7 users at 32 helpers asked for a 4.77 GiB
    # array and ended in a traceback.
    code, seconds, err = run_child(*argv)
    assert code == 2 and seconds < 1.0
    assert f"make {pairs} user-helper pairs, above the cap of {MAX_USER_HELPER_PAIRS}" in err
    check_user_helper_pairs(MAX_USER_HELPER_PAIRS // 32, 32)  # at the cap: accepted


# `sweep-capacity` takes every macro flag but `--capacity`.
SWEEP_CAPACITY_ARGS = ["--n", "6", "--m", "30", "--gamma", "0.8", "--reps", "2"]
MACRO_ARGS = [*SWEEP_CAPACITY_ARGS, "--capacity", "3"]


class TestMacroCommands:
    def test_simulate_macro_csv_plot_and_manifest(self, capsys, tmp_path):
        out_path = tmp_path / "macro.csv"
        code, _, _ = run_cli(
            capsys,
            "simulate-macro", "--helpers", "2", "--seed", "5",
            "--out", str(out_path), *MACRO_ARGS,
        )
        assert code == 0
        header, rows = csv_rows(out_path.read_text())
        assert header == ["x", "mean_satisfied", "stderr", "policy", "seed"]
        assert len(rows) == 1
        assert rows[0][0] == "2" and rows[0][3] == "greedy" and rows[0][4] == "5"
        assert 0.0 <= float(rows[0][1]) <= 6.0
        plot_lines = (tmp_path / "macro.plot.csv").read_text().splitlines()
        assert plot_lines[0] == "# x: number of helpers"
        assert plot_lines[1] == "# y: mean satisfied users"
        assert plot_lines[2] == "x,y,yerr,series"
        manifest = json.loads((tmp_path / "macro.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate-macro"
        assert manifest["version"] == "0.1.0"
        assert manifest["outputs"] == [str(out_path), str(tmp_path / "macro.plot.csv")]

    def test_sweep_helpers_reruns_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run_cli(
                capsys,
                "sweep-helpers", "--counts", "0,2", "--seed", "11",
                "--out", str(path), *MACRO_ARGS,
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_sweep_capacity_x_column_is_the_cache_size(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep-capacity", "--capacities", "0,3", "--helpers", "2",
            "--policy", "most-popular", "--seed", "2",
            *SWEEP_CAPACITY_ARGS,
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert [row[0] for row in rows] == ["0", "3"]

    @pytest.mark.parametrize("helpers", ["0", "32"])
    def test_base_station_time_past_the_product_range(self, capsys, helpers):
        # 1e308 bits times the number of base-station users passed the float
        # range, so those users' finite times read inf and missed the deadline
        # (0.0 and 19.0 satisfied), with a RuntimeWarning on stderr.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys,
                "simulate-macro", "--file-bits", "1e308", "--qos", "1e308",
                "--gamma", "1", "--reps", "2", "--helpers", helpers,
            )
        assert (code, err) == (0, "")
        assert csv_rows(out)[1][0][:2] == [helpers, "24.0"]


# One small call of each command form, with the primary output's schema line.
CONTRACT = [
    (("fit", "--samples", "500", "--m", "20"), "{"),
    (("place", "--helpers", "2", "--capacity", "2", "--m", "10"), "{"),
    (
        ("place", "--policy", "coded", "--helpers", "2", "--capacity", "2",
         "--m", "6", "--n", "8", "--coded-groups", "6"),
        "file_rank,helper_id,rho",
    ),
    (("simulate-macro", "--helpers", "2", *MACRO_ARGS), "x,mean_satisfied,stderr,policy,seed"),
    (("sweep-helpers", "--counts", "0,2", *MACRO_ARGS), "x,mean_satisfied,stderr,policy,seed"),
    (
        ("sweep-capacity", "--capacities", "0,3", "--helpers", "2",
         *SWEEP_CAPACITY_ARGS),
        "x,mean_satisfied,stderr,policy,seed",
    ),
    (
        ("simulate-d2d", "--r", "1/2", "--n", "20", "--m", "5", "--mode", "analytic"),
        "r,gamma,gamma1,mean_active,stderr,K,mode",
    ),
    (
        ("sweep-r", "--r-values", "1,1/2", "--n", "20", "--m", "5", "--mode", "analytic"),
        "r,gamma,gamma1,mean_active,stderr,K,mode",
    ),
    (
        ("sweep-gamma1", "--gamma1-values", "0,1", "--r-values", "1/2", "--n", "20",
         "--m", "5", "--reps", "3"),
        "r,gamma,gamma1,mean_active,stderr,K,mode",
    ),
    (("scaling-check", "--n-values", "100"), "n,m,r,K,mean_active,ratio,stderr,mode"),
]


@pytest.mark.parametrize(
    "argv, first_line", CONTRACT, ids=[f"{argv[0]}-{k}" for k, (argv, _) in enumerate(CONTRACT)]
)
def test_output_contract_of_every_command(capsys, tmp_path, argv, first_line):
    # With --out: the primary file, a plot file for every command but `fit`
    # and `place`, and a manifest of both in write order and of the resolved
    # parameters.  Without it, stdout is the primary file (`fit` prints its
    # two lines either way).
    out = tmp_path / "res.csv"
    full = [*argv, "--seed", "4", "--out", str(out)]
    code, printed, err = run_cli(capsys, *full)
    assert (code, err) == (0, "")
    primary = out.read_text()
    assert primary.splitlines()[0] == first_line
    outputs = [str(out)]
    if argv[0] not in ("fit", "place"):
        outputs.append(str(tmp_path / "res.plot.csv"))
        plot = (tmp_path / "res.plot.csv").read_text().splitlines()
        assert plot[0].startswith("# x: ") and plot[1].startswith("# y: ")
        assert plot[2] == "x,y,yerr,series"
    manifest_path = tmp_path / "res.csv.manifest.json"
    assert sorted(tmp_path.iterdir()) == sorted(map(Path, [*outputs, manifest_path]))
    manifest = json.loads(manifest_path.read_text())
    assert manifest["outputs"] == outputs
    assert (manifest["command"], manifest["seed"]) == (argv[0], 4)
    assert manifest["parameters"] == cli.resolve_params(cli.build_parser().parse_args(full))

    code, alone, err = run_cli(capsys, *argv, "--seed", "4")
    assert (code, err) == (0, "")
    if argv[0] == "fit":
        assert alone == printed
        fitted = json.loads(primary)
        assert alone == f"gamma_hat={fitted['gamma_hat']}\nm_hat={fitted['m_hat']}\n"
    else:
        assert (printed, alone) == ("", primary)


@pytest.mark.parametrize("trace", ["missing.csv", "."], ids=["missing", "directory"])
def test_output_contract_of_an_unreadable_trace(capsys, monkeypatch, tmp_path, trace):
    # A trace that cannot be read is refused like a missing --config: exit 2,
    # one stderr line naming the trace, and no output file or manifest.
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "fit", "--trace", trace, "--out", "res.json")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read trace CSV {trace}: ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("fit", "--samples", "500", "--m", "20"),
        ("simulate-d2d", "--r", "1/2", "--n", "20", "--m", "5", "--mode", "analytic"),
    ],
    ids=["fit", "simulate-d2d"],
)
@pytest.mark.parametrize("out", ["no-dir/res.csv", "."], ids=["missing-dir", "directory"])
def test_output_contract_of_an_unwritable_out(capsys, monkeypatch, tmp_path, argv, out):
    # An --out that cannot be written is refused before the run: exit 2, one
    # stderr line naming `out`, nothing on stdout and no file left behind.
    monkeypatch.chdir(tmp_path)
    code, printed, err = run_cli(capsys, *argv, "--out", out)
    assert (code, printed) == (2, "")
    assert err.startswith("error: out: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


class TestConfigLayering:
    def test_flags_override_config_values(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"r": "1/2", "n": 40, "m": 10, "gamma": 0.7, "mode": "analytic"}
        ))
        code, out, _ = run_cli(
            capsys, "simulate-d2d", "--config", str(config), "--r", "1/4"
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["r", "gamma", "gamma1", "mean_active", "stderr", "K", "mode"]
        assert rows[0][0] == "0.25"  # the flag beat the config file
        assert rows[0][1] == "0.7"  # the config beat the default
        assert rows[0][6] == "analytic"

    def test_manifest_parameters_replay_the_run(self, capsys, tmp_path):
        first = tmp_path / "first.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep-helpers", "--counts", "0,2", "--policy", "most-popular",
            "--seed", "9", "--out", str(first), *MACRO_ARGS,
        )
        assert code == 0
        params = json.loads((tmp_path / "first.csv.manifest.json").read_text())[
            "parameters"
        ]
        second = tmp_path / "second.csv"
        params["out"] = str(second)
        config = tmp_path / "replay.json"
        config.write_text(json.dumps(params))
        code, _, _ = run_cli(capsys, "sweep-helpers", "--config", str(config))
        assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_unknown_config_key_exits_two(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"bogus": 1}))
        code, _, err = run_cli(capsys, "simulate-d2d", "--config", str(config))
        assert code == 2
        assert "bogus" in err and "simulate-d2d" in err

    def test_invalid_config_value_exits_two(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"reps": 0}))
        code, _, err = run_cli(capsys, "simulate-d2d", "--config", str(config))
        assert code == 2
        assert "reps" in err

    def test_invalid_flag_value_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "simulate-d2d", "--gamma=-1")
        assert code == 2
        assert "gamma" in err

    def test_missing_config_file_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate-d2d", "--config", str(tmp_path / "absent.json")
        )
        assert code == 2
        assert "cannot read" in err

    def test_malformed_config_exits_two(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text("not json")
        code, _, err = run_cli(capsys, "simulate-d2d", "--config", str(config))
        assert code == 2
        config.write_text("[1, 2]")
        code, _, err = run_cli(capsys, "simulate-d2d", "--config", str(config))
        assert code == 2
        assert "JSON object" in err

    def test_non_utf8_config_exits_two(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_bytes(b'{"reps": "\xff"}')
        code, out, err = run_cli(capsys, "simulate-d2d", "--config", str(config))
        assert code == 2 and out == ""
        assert "is not UTF-8 text" in err

    def test_unwritable_output_exits_two(self, capsys, tmp_path):
        missing = tmp_path / "no-dir"
        code, out, err = run_cli(
            capsys,
            "simulate-d2d", "--r", "1/2", "--n", "20", "--m", "5",
            "--mode", "analytic", "--out", str(missing / "x.csv"),
        )
        assert (code, out, err) == (2, "", f"error: out: cannot write to directory {missing}\n")
        assert list(tmp_path.iterdir()) == []


class TestD2DCommands:
    @pytest.mark.parametrize("mode", ["mc", "analytic"])
    def test_r_with_infinite_inverse_exits_two(self, capsys, mode):
        # 1/5e-324 overflows to inf, so no cluster grid exists for it.
        code, out, err = run_cli(
            capsys,
            "simulate-d2d", "--mode", mode, "--n", "50", "--m", "20",
            "--reps", "20", "--r", "5e-324",
        )
        assert code == 2 and out == ""
        assert "r=5e-324" in err

    def test_simulate_d2d_analytic_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate-d2d", "--r", "1/4", "--n", "50", "--m", "20",
            "--gamma", "0.6", "--mode", "analytic",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert row["r"] == "0.25"
        assert row["gamma1"] == ""  # deterministic caching has no such knob
        assert row["K"] == "16"
        assert row["mode"] == "analytic"
        assert row["stderr"] == "0.0"

    def test_fraction_values_accept_slash_notation(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate-d2d", "--r", "1/5", "--n", "30", "--m", "10",
            "--mode", "analytic",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert rows[0][0] == "0.2"

    def test_sweep_r_emits_one_row_per_distance(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep-r", "--r-values", "1,1/2,1/4", "--n", "30", "--m", "10",
            "--mode", "analytic",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert [row[0] for row in rows] == ["1.0", "0.5", "0.25"]
        assert [row[5] for row in rows] == ["1", "4", "16"]

    def test_sweep_gamma1_full_caches_are_exponent_blind(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep-gamma1", "--gamma1-values", "0,1", "--r-values", "1/2",
            "--n", "30", "--m", "5", "--M", "5", "--reps", "50",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert [row[2] for row in rows] == ["0.0", "1.0"]
        assert rows[0][3] == rows[1][3]
        assert all(row[6] == "mc" for row in rows)

    def test_incomplete_random_strategy_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate-d2d", "--strategy", "random-zipf", "--n", "20", "--m", "10",
        )
        assert code == 2
        assert "gamma1" in err

    def test_steep_random_caches_exit_two_quickly(self):
        # gamma1=20 leaves ranks past 2 so unlikely that filling a third cache
        # slot takes about 3.5e9 draws; the sampler refuses before drawing.  A
        # child process keeps a regression from hanging the suite.
        argv = (
            "simulate-d2d", "--strategy", "random-zipf", "--gamma1", "20",
            "--M", "3", "--m", "100", "--n", "10", "--reps", "1", "--mode", "mc",
        )
        code, seconds, err = run_child(*argv)
        assert code == 2 and seconds < 1.0
        assert "gamma1=20" in err and "M=3" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate-d2d", "--mode", "mc", "--reps", "1000000000000"),
            ("sweep-r", "--mode", "mc", "--reps", "100000000"),
            ("sweep-gamma1", "--reps", "10000000"),
        ],
        ids=["simulate-d2d", "sweep-r", "sweep-gamma1"],
    )
    def test_monte_carlo_past_the_score_cap_exits_two_quickly(self, argv):
        # 10^12 replications, or 8 grids x 10^8 (a 6.4 GB array of counts),
        # are refused before anything is allocated or drawn.  A child
        # process keeps a regression from exhausting the suite's memory.
        code, seconds, err = run_child(*argv)
        assert code == 2 and seconds < 1.0
        assert "reps=" in err and f"cap of {MAX_SCORES}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate-d2d", "--mode", "mc", "--reps", "10000000"),
            ("sweep-gamma1", "--n", "1000000", "--reps", "101"),
            ("scaling-check", "--mode", "mc", "--n-values", "10000000", "--reps", "11"),
        ],
        ids=["simulate-d2d", "sweep-gamma1", "scaling-check"],
    )
    def test_monte_carlo_past_the_user_cap_exits_two_quickly(self, argv):
        # More than 10^8 users drawn in one Monte Carlo call (5 * 10^9 at
        # the default 500 devices, under the score cap) would run for
        # minutes; the call is refused before anything is drawn.
        code, seconds, err = run_child(*argv)
        assert code == 2 and seconds < 1.0
        assert "reps=" in err and f"cap of {MAX_MC_USERS}" in err

    def test_random_caches_too_slow_for_the_run_exit_two_quickly(self):
        # gamma1=13.29 with M=2 passes the per-device bound (just under 1e4
        # draws) but would spend about 5e9 draws on 500 devices over 1000
        # replications; the whole-run bound refuses it before drawing.
        argv = ("simulate-d2d", "--strategy", "random-zipf", "--gamma1", "13.29", "--M", "2")
        code, seconds, err = run_child(*argv)
        assert code == 2 and seconds < 1.0
        for name in ("gamma1=13.29", "M=2", "reps=1000"):
            assert name in err

    def test_wide_random_caches_are_priced_by_their_columns(self):
        # About 5.0e8 expected draws, under the run bound, but each is
        # compared with up to 900 held ranks: priced at 900/16 each, the run
        # is refused before drawing (unpriced, it ran for minutes).
        argv = (
            "simulate-d2d", "--mode", "mc", "--strategy", "random-zipf",
            "--gamma1", "0", "--M", "900", "--reps", "435",
        )
        code, seconds, err = run_child(*argv)
        assert code == 2 and seconds < 1.0
        for name in ("gamma1=0", "M=900", "reps=435", "priced 2.81e+10"):
            assert name in err

    def test_mc_runs_rerun_identically(self, capsys):
        argv = (
            "simulate-d2d", "--r", "1/3", "--n", "40", "--m", "15",
            "--mode", "mc", "--reps", "80", "--seed", "21",
        )
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    @pytest.mark.parametrize("mode", ["analytic", "mc"])
    def test_cache_size_past_the_catalog_acts_as_the_catalog(self, capsys, mode):
        # At M=1e18 a cluster's k*M overflows int64; only min(M, m) matters.
        def mean_active(r, M):
            code, out, _ = run_cli(
                capsys,
                "simulate-d2d", "--r", r, "--M", M, "--n", "50", "--m", "40",
                "--reps", "20", "--mode", mode,
            )
            assert code == 0
            header, rows = csv_rows(out)
            return float(dict(zip(header, rows[0]))["mean_active"])

        huge = str(10**18)
        # One cluster whose first user caches the whole catalog is active.
        assert mean_active("1", huge) == 1.0
        if mode == "analytic":
            assert mean_active("1/10", huge) == mean_active("1/10", "40")

    def test_cache_size_past_the_catalog_keeps_the_monte_carlo_stream(self, capsys):
        # Blocks are sized by n alone, so every M >= m draws one stream.
        outs = []
        for M in ("1000", str(10**17)):
            code, out, _ = run_cli(
                capsys,
                "simulate-d2d", "--r", "1/10", "--mode", "mc", "--reps", "50", "--M", M,
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert csv_rows(outs[0])[1][0][3] == "96.3"

    @pytest.mark.parametrize(
        "strategy, gamma1",
        [([], ""), (["--strategy", "random-zipf", "--gamma1", "0.5"], "0.5")],
        ids=["deterministic", "random-zipf"],
    )
    def test_grid_of_more_than_2_64_cells(self, capsys, strategy, gamma1):
        # r = 1e-10 makes K = 1e20 clusters, whose labels fit no integer dtype.
        code, out, _ = run_cli(
            capsys,
            "simulate-d2d", "--mode", "mc", "--n", "50", "--m", "20", "--reps", "20",
            "--r", "1e-10", *strategy,
        )
        assert code == 0
        assert csv_rows(out)[1] == [
            ["1e-10", "0.6", gamma1, "0.0", "0.0", str(10**20), "mc"]
        ]

    @pytest.mark.parametrize("r", ["1e-160", "1e-200"])
    def test_grid_past_the_float_range(self, capsys, r):
        # K = 1/r^2 is past the float range: the analytic sum converted it
        # with 1.0 / K and raised OverflowError.  No occupancy of two users
        # has a probability there, so every mode reads 0.0 at the same K.
        rows = []
        for mode in ("auto", "analytic", "mc"):
            code, out, _ = run_cli(
                capsys, "simulate-d2d", "--r", r, "--mode", mode, "--reps", "20"
            )
            assert code == 0
            rows.extend(csv_rows(out)[1])
        assert [row[3] for row in rows] == ["0.0"] * 3
        assert len(rows) == 3 and len({row[5] for row in rows}) == 1
        assert float(rows[0][5]) > 1e308

    def test_population_past_the_cap_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate-d2d", "--n", str(MAX_USERS + 1), "--reps", "1"
        )
        assert code == 2
        assert f"n={MAX_USERS + 1}" in err


class TestScalingCheck:
    def test_monte_carlo_runs_once_at_the_exact_optimum(self, capsys, tmp_path):
        # Both modes pick the side of the exact maximum, and mc draws only
        # there.  Drawing every one of the 633 sides took 12.2 s whole
        # process (2-core Xeon) and kept side 200, the noisiest maximum.
        out = tmp_path / "mc.csv"
        common = ("--n-values", "100000", "--reps", "1")
        code, seconds, _ = run_child(
            "scaling-check", "--mode", "mc", *common, "--out", str(out), timeout=120
        )
        assert code == 0 and seconds < 3.0
        header, rows = csv_rows(out.read_text(encoding="utf-8"))
        row = dict(zip(header, rows[0]))
        assert (float(row["r"]), row["K"], row["mode"]) == (1 / 196, "38416", "mc")
        _, exact, _ = run_cli(capsys, "scaling-check", *common)
        (analytic,) = csv_rows(exact)[1]
        assert analytic[2:4] == [row["r"], row["K"]]

    def test_catalog_past_the_float_range_exits_two(self, capsys):
        # scale * ln(n) overflowed to inf, and rounding it to a catalog size
        # raised an OverflowError traceback (exit 1).
        code, out, err = run_cli(capsys, "scaling-check", "--scale", "1e308")
        assert (code, out) == (2, "")
        assert err == "error: scale=1e+308 times ln(n=250) is past the float range\n"
        assert "Traceback" not in err

    def test_single_row_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "scaling-check", "--n-values", "100", "--gamma", "1.2"
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["n", "m", "r", "K", "mean_active", "ratio", "stderr", "mode"]
        row = dict(zip(header, rows[0]))
        assert row["n"] == "100"
        assert int(row["m"]) == catalog_size(100, scale=50.0)
        assert row["mode"] == "analytic"
        assert float(row["ratio"]) == pytest.approx(
            float(row["mean_active"]) / 100.0
        )
        assert 0 < float(row["r"]) <= 1.0
        assert math.isclose(
            int(row["K"]), round(1.0 / float(row["r"])) ** 2
        )


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "helpercache 0.1.0" in capsys.readouterr().out


def captured_main(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["sweep-r", "--help"],
        ["place", "--bogus", "1"],
        ["no-such-command"],
        [],
        ["--version"],
        ["sweep-helpers", "--counts", "x"],
        ["fit", "--samples", "1"],
        ["sweep-r", "--bogus", "1"],
        ["sweep-r", "--reps", "x"],
        ["sweep-r", "extra"],
        ["bogus"],
    ],
)
def test_parser_with_only_the_invoked_command_matches_the_full_one(
    capsys, monkeypatch, argv
):
    # `main` gives only the invoked subcommand its arguments; what a call
    # prints and returns must not change.
    lazy = captured_main(capsys, argv)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda only=None: full())
    assert lazy == captured_main(capsys, argv)


def test_one_command_parser_registers_only_that_command():
    def registered(parser):
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return list(sub.choices)

    assert registered(cli.build_parser()) == list(cli.COMMANDS)
    assert registered(cli.build_parser("sweep-r")) == ["sweep-r"]


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_one_command_parser_reads_its_flags_like_the_full_one(command):
    argv = [command, "--seed", "3", "--out", "x.csv"]
    argv += [f"--{p.name.replace('_', '-')}" for p in cli.COMMANDS[command][:1]] + ["1"]
    assert cli.build_parser(command).parse_args(argv) == cli.build_parser().parse_args(argv)


def readme_commands():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(), re.S)
    return [
        line
        for block in blocks
        for line in block.splitlines()
        if line.startswith("helpercache ")
    ]


def test_readme_examples_run(monkeypatch, tmp_path):
    # Every example runs to exit 0, in a directory that holds the trace
    # `fit --trace requests.csv` reads and takes the files `--out` writes.
    commands = readme_commands()
    assert len(commands) >= 10
    monkeypatch.chdir(tmp_path)
    (tmp_path / "requests.csv").write_text("file_id,count\n1,50\n2,21\n3,9\n4,4\n")
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line


@pytest.mark.parametrize("capacity, distinct", [("500", 1), ("50", 3)])
def test_place_prints_the_placement_that_simulate_macro_measures(
    capsys, monkeypatch, capacity, distinct
):
    # The README's promise: for the same flags and seed, `place` prints the
    # caches that `simulate-macro` places and then measures.  At capacity 500
    # every helper holds the whole catalog; at 50 the planning users split
    # the eight caches into three distinct ones.
    flags = ("--helpers", "8", "--capacity", capacity, "--m", "400", "--gamma", "0.8")
    original = macro_sim.make_placement
    measured = []

    def record(*args, **kwargs):
        measured.append(original(*args, **kwargs))
        return measured[-1]

    monkeypatch.setattr(macro_sim, "make_placement", record)
    code, _, err = run_cli(capsys, "simulate-macro", *flags, "--reps", "1", "--seed", "6")
    assert (code, err, len(measured)) == (0, "", 1)
    monkeypatch.undo()
    code, out, err = run_cli(capsys, "place", *flags, "--seed", "6")
    assert (code, err) == (0, "")
    ranks = {str(h): (np.flatnonzero(c) + 1).tolist() for h, c in enumerate(measured[0].rho.T)}
    assert json.loads(out) == ranks
    assert len({tuple(cache) for cache in ranks.values()}) == distinct


def test_fit_prints_the_exponent_the_macro_commands_fit(capsys):
    # The README's promise: `fit`'s synthetic trace is the one the macro
    # commands fit when `--gamma` is not given.
    code, out, err = run_cli(
        capsys, "fit", "--synthetic-gamma", "0.7", "--samples", "3000", "--m", "90",
        "--seed", "8",
    )
    assert (code, err) == (0, "")
    config = MacroConfig(trace_gamma=0.7, trace_samples=3000, catalog_size=90)
    fitted = experiment_popularity(config, 8)
    assert out.splitlines()[0] == f"gamma_hat={fitted.gamma}"


def test_import_loads_no_scipy():
    # scipy costs about a second to import.  The coded LP loads only the HiGHS
    # bindings that scipy bundles, not scipy.optimize or scipy.sparse.
    probe = (
        "import sys, helpercache.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
        "helpercache.cli.main(['place', '--policy', 'coded']); "
        "print([m for m in ('scipy.optimize', 'scipy.sparse') if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=child_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    lines = done.stdout.strip().splitlines()
    assert lines[0] == "[]"
    assert lines[1] == "file_rank,helper_id,rho"
    if placement_coded._highs_core() is not None:  # else linprog solves
        assert lines[-1] == "[]"


@pytest.mark.skipif(
    placement_coded._highs_core() is None, reason="this scipy ships no HiGHS bindings"
)
def test_scipy_optimize_reuses_the_loaded_highs_bindings():
    # After a coded solve, linprog in the same process uses the same module.
    probe = (
        "import sys; from helpercache import placement_coded as pc; "
        "core = pc._highs_core(); "
        "from scipy.optimize import linprog; "
        "from scipy.optimize._highspy import _highs_wrapper; "
        "res = linprog([-3, -2], A_ub=[[1, 1], [1, 3]], b_ub=[4, 6], method='highs-ds'); "
        "print(_highs_wrapper._h is core, res.status, res.x.tolist())"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=child_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "True 0 [4.0, 0.0]"
