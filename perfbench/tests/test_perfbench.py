"""Tests of the benchmark itself: span arithmetic, the output check, and the
workloads' argument lists.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import calibrate  # noqa: E402
from check import check_call, objective_problems, parse_csv  # noqa: E402
from run import check_passes, load_reference, scale_each  # noqa: E402
from tracer import LAYERS, Probe, Recorder, layer_metrics, self_times  # noqa: E402
from workloads import POOL_SIZE, WORKLOADS, pass_seeds  # noqa: E402

OK = {"exit": 0, "error": None}


def test_self_times_of_nested_spans():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.child", 2.0, 3.5, 1),
        ("b", 5.0, 9.0, 0),
        ("b.child", 5.5, 6.0, 3),
        ("b.child", 7.0, 8.0, 3),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.5, 1.5, 2.5, 0.5, 1.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def _busy(seconds: float):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_recorder_layers_add_up_to_the_root_span():
    inner = types.SimpleNamespace(leaf=lambda: _busy(0.01))

    def middle():
        _busy(0.01)
        inner.leaf()
        inner.leaf()

    outer = types.SimpleNamespace(middle=middle)
    recorder = Recorder()
    probes = (
        Probe("outer", "middle", "macro_sim", "macro_sim.sweep"),
        Probe("inner", "leaf", "simplex", "simplex.solve"),
    )
    recorder.install({"outer": outer, "inner": inner}, probes)
    try:
        recorder.call("cli.main", lambda: (_busy(0.005), outer.middle()))
    finally:
        recorder.uninstall()
    assert outer.middle is middle
    assert [name for name, *_ in recorder.spans] == [
        "cli.main", "outer.middle", "inner.leaf", "inner.leaf"
    ]
    layers = layer_metrics(recorder)
    root = recorder.spans[0][2] - recorder.spans[0][1]
    assert sum(layers[f"{layer}.self_s"] for layer in LAYERS) == pytest.approx(root)
    assert layers["simplex.solve_s"] >= 0.02
    assert layers["macro_sim.sweep_self_s"] >= 0.01
    assert layers["macro_sim.self_s"] == pytest.approx(layers["macro_sim.sweep_self_s"])


def test_missing_binding_is_listed_not_fatal():
    recorder = Recorder()
    recorder.install({"m": types.SimpleNamespace()}, (Probe("m", "gone", "cli", "x"),))
    assert recorder.missing == ["m.gone"]


def test_times_are_scaled_by_the_readings_around_them():
    ref = calibrate.REFERENCE_S
    cal = [ref, 2 * ref, ref]
    assert scale_each([1.0, 3.0], cal) == pytest.approx([1 / 1.5, 3 / 1.5])
    assert scale_each([2.0], [ref, ref]) == pytest.approx([2.0])


def test_forked_calibration_reports_the_child_time():
    assert calibrate.timed_unit_forked() > 0.0


def _call_and_text(name: str, k: int = 0):
    workload = WORKLOADS[name]
    reference = load_reference(name)
    text = reference["seeds"]["0"]["csv"][k]
    return workload, workload.calls[k], text


def _with_cell(text: str, row: int, column: str, value: str) -> str:
    header, rows = parse_csv(text)
    rows[row][header.index(column)] = value
    return "\n".join(",".join(r) for r in [header, *rows]) + "\n"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_passes_its_own_check(name):
    workload = WORKLOADS[name]
    reference = load_reference(name)
    assert reference["calls"] == [list(call.argv) for call in workload.calls]
    assert sorted(map(int, reference["seeds"])) == list(range(POOL_SIZE))
    for entry in reference["seeds"].values():
        for call, text in zip(workload.calls, entry["csv"]):
            assert check_call(call, OK, text, text, workload) == []


def test_check_rejects_a_perturbed_monte_carlo_row():
    workload, call, text = _call_and_text("macro-uncoded")
    header, rows = parse_csv(text)
    mean, se = float(rows[3][1]), float(rows[3][2])
    moved = _with_cell(text, 3, "mean_satisfied", repr(mean + 10 * se))
    failed = check_call(call, OK, moved, text, workload)
    assert len(failed) == 1 and failed[0].startswith("row 3:")
    within = _with_cell(text, 3, "mean_satisfied", repr(mean + 2 * se))
    assert check_call(call, OK, within, text, workload) == []


def test_check_rejects_a_perturbed_analytic_row():
    workload, call, text = _call_and_text("d2d-clusters", 2)
    header, rows = parse_csv(text)
    value = float(rows[0][header.index("mean_active")])
    moved = _with_cell(text, 0, "mean_active", repr(value * (1 + 1e-7)))
    assert len(check_call(call, OK, moved, text, workload)) == 1


def test_check_fails_every_row_of_a_failed_call():
    workload, call, text = _call_and_text("d2d-clusters")
    assert len(check_call(call, {"exit": 1, "error": None}, text, text, workload)) == call.rows
    crash = {"exit": None, "error": "RuntimeError: boom"}
    assert len(check_call(call, crash, None, text, workload)) == call.rows
    short = "\n".join(text.splitlines()[:-1]) + "\n"
    assert len(check_call(call, OK, short, text, workload)) == call.rows


def test_coded_rows_check_the_lp_optimum_not_the_vertex():
    workload, call, text = _call_and_text("macro-coded")
    other_vertex = _with_cell(text, 1, "mean_satisfied", "5.5")
    assert check_call(call, OK, other_vertex, text, workload) == []
    assert len(check_call(call, OK, _with_cell(text, 1, "mean_satisfied", "99"), text,
                          workload)) == 1
    optima = load_reference("macro-coded")["seeds"]["0"]["objectives"]
    assert objective_problems(optima, optima) == [None] * len(optima)
    worse = [optima[0], optima[1] * (1 - 1e-4), optima[2]]
    assert [p is None for p in objective_problems(worse, optima)] == [True, False, True]


def test_traced_csv_must_match_the_untraced_one(tmp_path):
    workload = WORKLOADS["macro-coded"]
    reference = load_reference("macro-coded")
    entry = reference["seeds"]["0"]
    passes = []
    for traced, text in (
        (False, entry["csv"][0]),
        (True, _with_cell(entry["csv"][0], 1, "mean_satisfied", "5.5")),
    ):
        directory = tmp_path / str(traced)
        directory.mkdir()
        (directory / "call0.csv").write_text(text)
        passes.append({"seed": 0, "traced": traced, "calls": [OK], "dir": str(directory),
                       "objectives": entry["objectives"]})
    attempted, failed = check_passes(workload, passes, reference)
    assert attempted == 2 * workload.rows
    assert len(failed) == workload.rows
    assert all("differs from the untraced" in message for message in failed)


def test_pass_seeds_are_drawn_from_the_pool_by_seed():
    assert pass_seeds(5, 30) == pass_seeds(5, 30)
    assert pass_seeds(5, 30) != pass_seeds(6, 30)
    assert sorted(pass_seeds(5)) == list(range(POOL_SIZE))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_arguments_parse_and_exit_zero(name, tmp_path):
    from helpercache import cli

    for k, call in enumerate(WORKLOADS[name].calls):
        argv = list(call.argv)
        if "--reps" in argv:
            argv[argv.index("--reps") + 1] = "2"
        out = tmp_path / f"call{k}.csv"
        assert cli.main([*argv, "--seed", "0", "--out", str(out)]) == 0
        header, rows = parse_csv(out.read_text())
        assert len(rows) == call.rows
