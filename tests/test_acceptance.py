"""Release gate: the package's headline behaviors, each timed and reported.

Every test prints one `[acceptance] <name>: PASS/FAIL` line on the real
stdout (writing through pytest's capture, so the lines always appear in the
run log) and then asserts the same condition.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from delays import baseline_delay, delay_savings, evaluate_delay
from lp_matrices import to_csc
from test_simplex import enumerate_vertices, random_lp

from helpercache.cli import main
from helpercache.d2d import (
    D2DScenario,
    _monte_carlo,
    expected_active_analytic,
    scaling_check,
    sweep_r,
)
from helpercache.macro_sim import MacroConfig, sweep_helper_count
from helpercache.placement_coded import build_lp, simplex_solve, solve_lp_detailed
from helpercache.placement_uncoded import (
    HelperSpecs,
    brute_force_place,
    greedy_place,
    most_popular_place,
)
from helpercache.popularity import fit_zipf, sample_requests, zipf_model
from helpercache.rng import stream
from helpercache.topology import (
    ConnectivityGraph,
    build_connectivity,
    place_helpers,
    place_uniform,
)

FILE_BITS = 2.4e8


@pytest.fixture()
def gate(capfd):
    def report(name: str, passed: bool, detail: str = "") -> None:
        line = f"[acceptance] {name}: {'PASS' if passed else 'FAIL'}"
        with capfd.disabled():
            print(line, flush=True)
        assert passed, f"{line} {detail}".rstrip()

    return report


def test_greedy_half_approximation(gate):
    started = time.perf_counter()
    worst = math.inf
    ok = True
    for i in range(200):
        rng = stream(1001, "c1", i)
        n_helpers = int(rng.integers(1, 4))
        m = int(rng.integers(1, 7))
        cap = int(rng.integers(1, 3))
        n_users = int(rng.integers(1, 7))
        rates = rng.uniform(1e6, 3e7, (n_users, n_helpers))
        rates *= rng.random((n_users, n_helpers)) < 0.7
        graph = ConnectivityGraph(rates=rates, bs_rate=rng.uniform(1e5, 2e7, n_users))
        pop = zipf_model(float(rng.uniform(0, 2)), m)
        specs = HelperSpecs.uniform(n_helpers, cap)
        greedy = delay_savings(
            greedy_place(graph, pop, specs, FILE_BITS), graph, pop, FILE_BITS
        )
        brute = delay_savings(
            brute_force_place(graph, pop, specs, FILE_BITS), graph, pop, FILE_BITS
        )
        ok = ok and greedy >= 0.5 * brute - 1e-9
        if brute > 0:
            worst = min(worst, greedy / brute)
    elapsed = time.perf_counter() - started
    gate(
        "greedy half-approximation bound",
        ok and elapsed < 60.0,
        f"(worst ratio {worst:.4f}, {elapsed:.1f} s)",
    )


def test_single_coverage_matches_most_popular(gate):
    worst = 0.0
    for i in range(50):
        rng = stream(1002, "c2", i)
        n_helpers = int(rng.integers(1, 5))
        n_users = int(rng.integers(1, 9))
        m = int(rng.integers(2, 9))
        cap = int(rng.integers(1, 4))
        assignment = rng.integers(-1, n_helpers, n_users)
        rates = np.zeros((n_users, n_helpers))
        for u, h in enumerate(assignment):
            if h >= 0:
                rates[u, h] = rng.uniform(5e6, 3e7)
        graph = ConnectivityGraph(rates=rates, bs_rate=rng.uniform(1e5, 2e7, n_users))
        pop = zipf_model(float(rng.uniform(0, 1.5)), m)
        specs = HelperSpecs.uniform(n_helpers, cap)
        d_greedy = evaluate_delay(
            greedy_place(graph, pop, specs, FILE_BITS), graph, pop, FILE_BITS
        )
        d_popular = evaluate_delay(
            most_popular_place(specs, pop), graph, pop, FILE_BITS
        )
        worst = max(worst, abs(d_greedy - d_popular) / max(d_popular, 1.0))
    gate(
        "single-coverage greedy equals most-popular",
        worst <= 1e-9,
        f"(worst relative gap {worst:.3e})",
    )


def test_helper_gain_and_saturation(gate):
    started = time.perf_counter()
    counts = [0, 2, 4, 8, 10, 16, 24, 32]
    points = sweep_helper_count(counts, MacroConfig(), "greedy", reps=100, root_seed=11)
    by_count = {int(pt.x): pt for pt in points}
    ratio = by_count[10].mean_satisfied / by_count[0].mean_satisfied
    tail = [by_count[c] for c in (16, 24, 32)]
    second_diff = (
        tail[2].mean_satisfied - 2.0 * tail[1].mean_satisfied + tail[0].mean_satisfied
    )
    combined = math.sqrt(
        tail[0].stderr**2 + 4.0 * tail[1].stderr**2 + tail[2].stderr**2
    )
    elapsed = time.perf_counter() - started
    gate(
        "helper deployment satisfaction gain and saturation",
        ratio >= 3.0 and second_diff <= 2.0 * combined and elapsed < 600.0,
        f"(ratio {ratio:.2f}, tail 2nd diff {second_diff:.2f} vs 2x{combined:.2f}, {elapsed:.0f} s)",
    )


def test_fractional_placement_tracks_and_dominates_greedy(gate):
    helpers = place_helpers(32, 400.0)
    pop = zipf_model(0.8, 8)
    specs = HelperSpecs.uniform(32, 3)
    worst_gap = 0.0
    dominated = True
    for seed in (3, 17, 29):
        users = place_uniform(32, 400.0, stream(seed, "c4-users"))
        graph = build_connectivity(helpers, users, 150.0)
        greedy = greedy_place(graph, pop, specs, FILE_BITS)
        d_uncoded = evaluate_delay(greedy, graph, pop, FILE_BITS)
        s_uncoded = delay_savings(greedy, graph, pop, FILE_BITS)
        _, report = solve_lp_detailed(build_lp(graph, pop.pmf, specs, np.ones(pop.m)))
        d_coded = baseline_delay(graph, FILE_BITS) - FILE_BITS * report.objective
        worst_gap = max(worst_gap, abs(d_uncoded - d_coded) / d_uncoded)
        s_coded = FILE_BITS * report.objective
        dominated = dominated and (
            s_coded >= s_uncoded - 1e-9 * baseline_delay(graph, FILE_BITS)
        )
    gate(
        "fractional placement tracks and dominates greedy",
        worst_gap <= 0.10 and dominated,
        f"(worst relative gap {worst_gap:.4f})",
    )


def test_simplex_matches_vertex_enumeration(gate):
    rng = stream(1005, "c5")
    worst = 0.0
    for _ in range(100):
        c, A, b, upper = random_lp(rng)
        result = simplex_solve(c, to_csc(A), b, upper=upper)
        best = enumerate_vertices(c, A, b, upper)
        worst = max(worst, abs(result.objective - best))
    gate(
        "simplex matches vertex enumeration",
        worst <= 1e-7,
        f"(worst objective gap {worst:.2e})",
    )


def test_cluster_model_analytic_vs_monte_carlo(gate):
    started = time.perf_counter()
    reps = 10_000
    worst_excess = -math.inf
    for gamma in (0.2, 0.6, 1.5):
        for n in (100, 500):
            # one draw per (gamma, n), scored on each r's cluster grid
            sc = D2DScenario(n=n, m=1000, M=1, r=1.0, gamma=gamma)
            r_values = (1 / 2, 1 / 5, 1 / 10)
            (runs,) = _monte_carlo(
                sc, stream(1006, "c6", int(gamma * 10), n), reps, r_values, [None]
            )
            for r, mc in zip(r_values, runs):
                exact = expected_active_analytic(replace(sc, r=r)).expected_active
                if mc.stderr > 0:
                    allowance = 3.0 * mc.stderr
                else:
                    # zero observed variance: a deviation the run never saw is
                    # still consistent with rate <= 3/reps per cluster row
                    allowance = 3.0 * mc.K / reps
                worst_excess = max(
                    worst_excess, abs(mc.expected_active - exact) - allowance
                )
    elapsed = time.perf_counter() - started
    gate(
        "cluster model analytic vs monte carlo",
        worst_excess <= 0.0 and elapsed < 300.0,
        f"(worst excess over allowance {worst_excess:.3e}, {elapsed:.0f} s)",
    )


def test_interior_optimum_of_collaboration_distance(gate):
    scenario = D2DScenario(n=500, m=1000, M=1, r=1.0, gamma=0.6)
    rows = sweep_r(
        scenario,
        [1.0, 1 / 2, 1 / 4, 1 / 5, 1 / 10, 1 / 20, 1 / 25, 1 / 50],
        reps=1000,
        root_seed=7,
        mode="mc",
    )
    means = [row.mean_active for row in rows]
    peak = means.index(max(means))
    margins = []
    for end in (0, len(rows) - 1):
        combined = math.hypot(rows[peak].stderr, rows[end].stderr)
        margins.append((means[peak] - means[end]) / combined if combined else math.inf)
    gate(
        "interior optimum of collaboration distance",
        0 < peak < len(rows) - 1 and all(margin > 3.0 for margin in margins),
        f"(peak at r={rows[peak].r}, margins {margins[0]:.0f} and {margins[1]:.0f} SE)",
    )


def test_per_user_activity_scaling(gate):
    cells = dict(n_values=(250, 500, 1000, 2000), M=1, scale=50.0)
    defaults = dict(reps=2000, root_seed=0, mode="analytic")
    heavy = scaling_check(1.5, **cells, **defaults)
    ratios = [row.ratio for row in heavy]
    spread = (max(ratios) - min(ratios)) / (sum(ratios) / len(ratios))
    light = scaling_check(0.6, **cells, **defaults)
    decreasing = all(
        b.ratio < a.ratio - 2.0 * math.hypot(a.stderr / a.n, b.stderr / b.n)
        for a, b in zip(light, light[1:])
    )
    gate(
        "per-user activity scaling across cell sizes",
        spread < 0.15 and decreasing,
        f"(heavy-tail spread {spread:.4f})",
    )


def test_popularity_estimation_suite(gate):
    ok = True
    for gamma in (0.0, 0.6, 1.2, 2.0):
        for m in (1, 10, 1000):
            pmf = zipf_model(gamma, m).pmf
            ok = ok and abs(float(pmf.sum()) - 1.0) <= 1e-12
            ok = ok and bool(np.all(np.diff(pmf) <= 1e-15))
    ok = ok and bool(
        np.allclose(zipf_model(0.0, 7).pmf, 1.0 / 7.0, rtol=0, atol=1e-15)
    )
    exact = [round(1e12 * i**-0.8) for i in range(1, 101)]
    gamma_exact, m_exact = fit_zipf(exact)
    ok = ok and abs(gamma_exact - 0.8) <= 1e-6 and m_exact == 100
    model = zipf_model(1.2, 500)
    samples = sample_requests(model, stream(11, "fitme"), 1_000_000)
    gamma_sampled, _ = fit_zipf(np.bincount(samples, minlength=501))
    ok = ok and abs(gamma_sampled - 1.2) <= 0.1
    gate(
        "request popularity estimation suite",
        ok,
        f"(exact fit {gamma_exact:.8f}, sampled fit {gamma_sampled:.3f})",
    )


def test_byte_identical_reruns(gate, tmp_path):
    identical = True
    macro = [
        "sweep-helpers", "--counts", "0,2", "--n", "6", "--m", "30",
        "--capacity", "3", "--gamma", "0.8", "--reps", "2", "--seed", "11",
    ]
    d2d = [
        "simulate-d2d", "--r", "1/3", "--mode", "mc", "--n", "40", "--m", "15",
        "--reps", "80", "--seed", "21",
    ]
    for label, argv in (("macro", macro), ("d2d", d2d)):
        outputs = []
        for attempt in ("one", "two"):
            out = tmp_path / f"{label}-{attempt}.csv"
            assert main(argv + ["--out", str(out)]) == 0
            plot = tmp_path / f"{label}-{attempt}.plot.csv"
            outputs.append(out.read_bytes() + plot.read_bytes())
        identical = identical and outputs[0] == outputs[1]
    gate("byte-identical reruns", identical)
