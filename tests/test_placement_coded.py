import logging
import math

import numpy as np
import pytest
from delays import baseline_delay, delay_savings, evaluate_coded_delay, evaluate_delay
from graph_oracles import graph_from_rates, rates_of

from helpercache import rng as hrng
from helpercache.errors import (
    DegenerateInstanceError,
    InfeasiblePlacementError,
    InvalidParameterError,
)
from helpercache.cli import _coded_rows
from helpercache.placement_coded import (
    build_lp,
    group_files,
    solve_grouped,
    solve_lp_detailed,
)
from helpercache.placement_uncoded import HelperSpecs, Placement, greedy_place
from helpercache.popularity import zipf_model

FILE_BITS = 2.4e8

# same four-user/two-helper conflict instance as the uncoded tests
FIXTURE_RATES = np.array(
    [
        [1.0e7, 0.0],
        [9.0e6, 0.0],
        [8.0e6, 8.0e6],
        [0.0, 1.0e7],
    ]
)
FIXTURE_BS = np.array([2.0e6, 2.0e6, 2.0e5, 2.0e6])
FIXTURE_OPTIMAL_UNCODED_DELAY = 226.8


def file_lp(graph, pop, specs):
    """The LP of a catalog whose files each take one unit of storage."""
    return build_lp(graph, pop.pmf, specs, np.ones(pop.m))


@pytest.fixture
def fixture():
    graph = graph_from_rates(FIXTURE_RATES, FIXTURE_BS)
    return graph, zipf_model(1.0, 4), HelperSpecs.uniform(2, 2)


def test_instance_dimensions(fixture):
    graph, pop, specs = fixture
    instance = file_lp(graph, pop, specs)
    assert instance.file_units.size * len(instance.capacities) == 8
    # rows: one per (edge, file), one per (covered user, file), one per helper
    assert instance.A.shape == (5 * 4 + 4 * 4 + 2, 8 + 5 * 4)
    assert instance.b[-2:] == pytest.approx([2.0, 2.0])
    # rho columns cost nothing; one block of a columns per kept link, in
    # (user, helper) order
    links = [(0, 0), (1, 0), (2, 0), (2, 1), (3, 1)]
    assert np.array_equal(instance.c, link_costs(graph, pop, 8, links))


def test_coded_dominates_uncoded_on_fixture(fixture):
    graph, pop, specs = fixture
    placement, report = solve_lp_detailed(file_lp(graph, pop, specs))
    base = baseline_delay(graph, FILE_BITS)
    uncoded_savings = base - FIXTURE_OPTIMAL_UNCODED_DELAY
    delay = base - FILE_BITS * report.objective
    assert FILE_BITS * report.objective >= uncoded_savings - 1e-9 * base
    assert delay <= FIXTURE_OPTIMAL_UNCODED_DELAY + 1e-9 * base
    assert report.iterations >= 1
    # the fastest-first evaluation reproduces the LP's own delay
    assert evaluate_coded_delay(placement, graph, pop, FILE_BITS) == pytest.approx(
        delay, abs=1e-6
    )


def test_lp_beats_greedy_on_random_instances():
    rng = hrng.stream(88, "dominance")
    for _ in range(100):
        n_users = int(rng.integers(1, 5))
        n_helpers = int(rng.integers(1, 3))
        m = int(rng.integers(2, 5))
        rates = np.where(
            rng.random((n_users, n_helpers)) < 0.8,
            rng.uniform(3e6, 3e7, (n_users, n_helpers)),
            0.0,
        )
        graph = graph_from_rates(rates, rng.uniform(5e5, 2e6, n_users))
        pop = zipf_model(float(rng.uniform(0.0, 1.8)), m)
        specs = HelperSpecs.uniform(n_helpers, int(rng.integers(1, 3)))
        greedy_savings = delay_savings(
            greedy_place(graph, pop, specs, FILE_BITS), graph, pop, FILE_BITS
        )
        _, report = solve_lp_detailed(file_lp(graph, pop, specs))
        scale = baseline_delay(graph, FILE_BITS)
        assert FILE_BITS * report.objective >= greedy_savings - 1e-9 * scale


def test_single_user_solution_is_integral():
    rng = hrng.stream(89, "integral")
    for _ in range(20):
        rates = rng.uniform(4e6, 3e7, (1, 2))
        graph = graph_from_rates(rates, np.array([1e6]))
        pop = zipf_model(float(rng.uniform(0.2, 1.5)), 4)
        specs = HelperSpecs((2, 1))
        placement, _ = solve_lp_detailed(file_lp(graph, pop, specs))
        dist_to_corner = np.minimum(placement.rho, 1.0 - placement.rho)
        assert float(dist_to_corner.max()) <= 1e-7


def test_single_helper_caches_top_ranks():
    graph = graph_from_rates(np.array([[2e7]]), np.array([1e6]))
    pop = zipf_model(0.9, 4)
    placement, _ = solve_lp_detailed(file_lp(graph, pop, HelperSpecs((2,))))
    np.testing.assert_allclose(placement.rho[:, 0], [1.0, 1.0, 0.0, 0.0], atol=1e-9)


def test_no_helpers_reduces_to_baseline():
    graph = graph_from_rates(np.zeros((3, 0)), np.array([1e6, 2e6, 5e5]))
    pop = zipf_model(0.8, 4)
    instance = file_lp(graph, pop, HelperSpecs(()))
    assert instance.A.shape == (0, 0)
    placement, report = solve_lp_detailed(instance)
    assert placement.rho.shape == (4, 0)
    assert report.objective == 0.0
    delay = baseline_delay(graph, FILE_BITS) - FILE_BITS * report.objective
    assert delay == pytest.approx(baseline_delay(graph, FILE_BITS), rel=1e-12)


def test_no_users_is_degenerate():
    graph = graph_from_rates(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(DegenerateInstanceError):
        file_lp(graph, zipf_model(1.0, 3), HelperSpecs.uniform(2, 1))


def test_slow_edges_dropped_with_warning(caplog):
    rates = np.array([[5e5, 2e7]])  # first helper is slower than the BS
    graph = graph_from_rates(rates, np.array([1e6]))
    pop = zipf_model(1.0, 2)
    with caplog.at_level(logging.WARNING, logger="helpercache.placement_coded"):
        instance = file_lp(graph, pop, HelperSpecs.uniform(2, 1))
    assert "slower than the base station" in caplog.text
    assert np.array_equal(instance.c, link_costs(graph, pop, 4, [(0, 1)]))


def link_costs(graph, pop, n_rho, links):
    """The LP objective: 0 for the rho columns, then each link's savings
    weight times the pmf."""
    rates = rates_of(graph)
    weights = [1.0 / graph.bs_rate[u] - 1.0 / rates[u, h] for u, h in links]
    return np.concatenate([np.zeros(n_rho), *(w * pop.pmf for w in weights)])


def test_evaluate_zero_and_full_fractions(fixture):
    graph, pop, specs = fixture
    zero = Placement(rho=np.zeros((4, 2)), capacities=specs.capacities)
    assert evaluate_coded_delay(zero, graph, pop, FILE_BITS) == pytest.approx(
        baseline_delay(graph, FILE_BITS), rel=1e-12
    )
    single = graph_from_rates(np.array([[6e6]]), np.array([1e6]))
    full = Placement(rho=np.ones((4, 1)), capacities=(4,))
    assert evaluate_coded_delay(full, single, pop, FILE_BITS) == pytest.approx(
        FILE_BITS / 6e6, rel=1e-12
    )


def test_partial_fractions_split_between_helpers():
    # 0.5 from a fast helper, 0.3 from a slow one, 0.2 from the BS
    graph = graph_from_rates(np.array([[2e7, 5e6]]), np.array([1e6]))
    pop = zipf_model(0.0, 1)
    placement = Placement(rho=np.array([[0.5, 0.3]]), capacities=(1, 1))
    expected = FILE_BITS * (0.5 / 2e7 + 0.3 / 5e6 + 0.2 / 1e6)
    assert evaluate_coded_delay(placement, graph, pop, FILE_BITS) == pytest.approx(
        expected, rel=1e-12
    )


def test_infeasible_coded_placements_rejected(fixture):
    graph, pop, specs = fixture
    with pytest.raises(InfeasiblePlacementError):
        Placement(rho=np.full((4, 2), 0.9), capacities=(2, 2))  # 3.6 > 2
    with pytest.raises(InfeasiblePlacementError):
        Placement(rho=np.array([[1.2, 0.0]] * 4), capacities=(4, 4))
    wrong_shape = Placement(rho=np.zeros((3, 2)), capacities=(2, 2))
    with pytest.raises(InfeasiblePlacementError):
        evaluate_coded_delay(wrong_shape, graph, pop, FILE_BITS)


def test_uncoded_embedding_matches_delays(fixture):
    graph, pop, specs = fixture
    uncoded = greedy_place(graph, pop, specs, FILE_BITS)
    coded = Placement(uncoded.rho.astype(float), uncoded.capacities)
    assert evaluate_coded_delay(coded, graph, pop, FILE_BITS) == pytest.approx(
        evaluate_delay(uncoded, graph, pop, FILE_BITS), rel=1e-12
    )


def test_group_files_bucketing():
    pop = zipf_model(0.8, 10)
    sizes, pmf = group_files(pop, 3)
    np.testing.assert_array_equal(sizes, [4, 3, 3])
    np.testing.assert_allclose(
        pmf,
        [pop.pmf[0:4].sum(), pop.pmf[4:7].sum(), pop.pmf[7:10].sum()],
        rtol=1e-15,
    )
    assert np.all(np.diff(pmf) <= 0)
    assert abs(pmf.sum() - 1.0) <= 1e-15

    sizes, pmf = group_files(pop, 10)
    np.testing.assert_array_equal(sizes, np.ones(10))
    np.testing.assert_allclose(pmf, pop.pmf, rtol=1e-15)

    sizes, pmf = group_files(pop, 1)
    np.testing.assert_array_equal(sizes, [10])
    assert pmf == pytest.approx([1.0], abs=1e-15)

    with pytest.raises(InvalidParameterError):
        group_files(pop, 0)
    with pytest.raises(InvalidParameterError):
        group_files(pop, 11)


def test_grouped_catalog_shrinks_lp():
    pop = zipf_model(0.8, 1000)
    sizes, pmf = group_files(pop, 50)
    assert sizes.size == pmf.size == 50
    # per helper, the bucket LP carries 20x fewer storage variables
    assert np.all(sizes == 20)


def test_grouped_solution_close_to_ungrouped(fixture):
    graph, _, _ = fixture
    pop = zipf_model(0.8, 40)
    specs = HelperSpecs.uniform(2, 6)
    _, full_report = solve_lp_detailed(file_lp(graph, pop, specs))
    expanded, bucket_report = solve_grouped(graph, pop, specs, groups=8)
    assert expanded.rho.shape == (40, 2)
    # bucketing restricts the LP, so it cannot win, and stays within 10%
    assert bucket_report.objective <= full_report.objective + 1e-9
    assert bucket_report.objective >= 0.9 * full_report.objective
    base = baseline_delay(graph, FILE_BITS)
    bucket_delay = base - FILE_BITS * bucket_report.objective
    assert evaluate_coded_delay(expanded, graph, pop, FILE_BITS) == pytest.approx(
        bucket_delay, abs=1e-6
    )
    used = expanded.rho.sum(axis=0)
    assert np.all(used <= np.array(specs.capacities) + 1e-9)


def test_identity_grouping_matches_plain_lp(fixture):
    graph, pop, specs = fixture
    _, full_report = solve_lp_detailed(file_lp(graph, pop, specs))
    _, identity_report = solve_grouped(graph, pop, specs, groups=pop.m)
    assert identity_report.objective == pytest.approx(
        full_report.objective, abs=1e-9
    )


def test_placement_rows(fixture):
    graph, pop, specs = fixture
    instance = file_lp(graph, pop, specs)
    placement, _ = solve_lp_detailed(instance)
    rows = _coded_rows(placement)
    assert all(r > 0 for _, _, r in rows)
    assert rows == sorted(rows, key=lambda t: (t[0], t[1]))


def loop_placement_rows(placement):
    """`_coded_rows` as a loop over every (rank, helper) entry."""
    rows = []
    m, n_helpers = placement.rho.shape
    for f in range(m):
        for h in range(n_helpers):
            value = float(placement.rho[f, h])
            if value > 0.0:
                rows.append((f + 1, h, value))
    return rows


def test_placement_rows_match_the_loop():
    rng = hrng.stream(17, "placement-rows")
    tiny = [0.0, -0.0, 5e-324, 2.2e-308, 1e-310, 1.0]
    for _ in range(200):
        m, H = int(rng.integers(0, 7)), int(rng.integers(0, 5))
        rho = rng.uniform(0.0, 1.0, (m, H))
        rho[rng.random((m, H)) < 0.3] = 0.0
        pick = rng.random((m, H)) < 0.3
        rho[pick] = rng.choice(tiny, size=int(pick.sum()))
        assert_rows_match_the_loop(Placement(rho, (m,) * H))
    whole = np.array([[True, False], [True, True]])
    assert_rows_match_the_loop(Placement(whole, (2, 1)))


def assert_rows_match_the_loop(placement):
    rows = _coded_rows(placement)
    assert rows == loop_placement_rows(placement)
    assert all(type(v) is int for f, h, _ in rows for v in (f, h))
    assert all(type(r) is float for _, _, r in rows)
