import math
import tracemalloc

import numpy as np
import pytest
from delays import baseline_delay, delay_savings, evaluate_delay
from greedy_oracles import greedy_steps
from placement_oracles import whole_files

from helpercache import rng as hrng
from helpercache.cli import _placement_json
from helpercache.errors import (
    InfeasiblePlacementError,
    InstanceTooLargeError,
)
from helpercache.placement_uncoded import (
    BRUTE_FORCE_GUARD,
    HelperSpecs,
    brute_force_place,
    greedy_place,
    most_popular_place,
)
from helpercache.popularity import zipf_model
from helpercache.topology import ConnectivityGraph

# Two-helper conflict fixture: four users, the third covered by both helpers
# and stuck with a weak BS link, which is exactly the situation where splitting
# the catalog across the helpers beats caching the same files twice.
FIXTURE_RATES = np.array(
    [
        [1.0e7, 0.0],
        [9.0e6, 0.0],
        [8.0e6, 8.0e6],
        [0.0, 1.0e7],
    ]
)
FIXTURE_BS = np.array([2.0e6, 2.0e6, 2.0e5, 2.0e6])
FILE_BITS = 2.4e8

# frozen values, cross-checked below against a plain-loop fsum oracle
FIXTURE_BASELINE = 1560.0
FIXTURE_MOST_POPULAR_DELAY = 512.16
FIXTURE_OPTIMAL_DELAY = 226.8
FIXTURE_OPTIMAL_CACHES = ({1, 2}, {3, 4})


@pytest.fixture
def fixture_instance():
    graph = ConnectivityGraph(rates=FIXTURE_RATES, bs_rate=FIXTURE_BS)
    return graph, zipf_model(1.0, 4), HelperSpecs.uniform(2, 2)


def with_added(placement, helper, rank):
    """Copy of `placement` with one more file at `helper`."""
    caches = list(placement.caches)
    caches[helper] = caches[helper] | {rank}
    return whole_files(caches, placement.capacities, placement.rho.shape[0])


def loop_delay(caches, pop):
    terms = []
    for u in range(4):
        for f in range(1, pop.m + 1):
            best = FIXTURE_BS[u]
            for h, cache in enumerate(caches):
                if f in cache and FIXTURE_RATES[u, h] > 0:
                    best = max(best, FIXTURE_RATES[u, h])
            terms.append(pop.pmf[f - 1] * FILE_BITS / best)
    return math.fsum(terms)


def test_empty_placement_is_bs_baseline(fixture_instance):
    graph, pop, specs = fixture_instance
    empty = whole_files((frozenset(), frozenset()), specs.capacities, pop.m)
    assert evaluate_delay(empty, graph, pop, FILE_BITS) == pytest.approx(
        FIXTURE_BASELINE, rel=1e-12
    )
    assert baseline_delay(graph, FILE_BITS) == pytest.approx(
        FIXTURE_BASELINE, rel=1e-12
    )


def test_most_popular_delay_matches_loop_oracle(fixture_instance):
    graph, pop, specs = fixture_instance
    placement = most_popular_place(specs, pop)
    assert placement.caches == (frozenset({1, 2}), frozenset({1, 2}))
    got = evaluate_delay(placement, graph, pop, FILE_BITS)
    assert got == pytest.approx(FIXTURE_MOST_POPULAR_DELAY, rel=1e-12)
    assert got == pytest.approx(loop_delay(placement.caches, pop), rel=1e-12)


def test_brute_force_splits_catalog_on_fixture(fixture_instance):
    graph, pop, specs = fixture_instance
    brute = brute_force_place(graph, pop, specs, FILE_BITS)
    assert tuple(set(c) for c in brute.caches) == FIXTURE_OPTIMAL_CACHES
    delay = evaluate_delay(brute, graph, pop, FILE_BITS)
    assert delay == pytest.approx(FIXTURE_OPTIMAL_DELAY, rel=1e-12)
    assert delay == pytest.approx(loop_delay(brute.caches, pop), rel=1e-12)


def test_greedy_finds_fixture_optimum(fixture_instance):
    graph, pop, specs = fixture_instance
    greedy = greedy_place(graph, pop, specs, FILE_BITS)
    assert tuple(set(c) for c in greedy.caches) == FIXTURE_OPTIMAL_CACHES
    assert evaluate_delay(greedy, graph, pop, FILE_BITS) == pytest.approx(
        FIXTURE_OPTIMAL_DELAY, rel=1e-12
    )


def test_full_caches_use_best_helper_rate(fixture_instance):
    graph, pop, _ = fixture_instance
    specs = HelperSpecs.uniform(2, 4)
    placement = most_popular_place(specs, pop)
    expected = FILE_BITS * sum(
        1.0 / max(FIXTURE_BS[u], FIXTURE_RATES[u].max()) for u in range(4)
    )
    assert evaluate_delay(placement, graph, pop, FILE_BITS) == pytest.approx(
        expected, rel=1e-12
    )


def test_infeasible_placements_rejected(fixture_instance):
    graph, pop, specs = fixture_instance
    with pytest.raises(InfeasiblePlacementError):
        whole_files((frozenset({1, 2, 3}), frozenset()), (2, 2), pop.m)
    # A placement over a larger catalog than the instance's.
    beyond = whole_files((frozenset({5}), frozenset()), (2, 2), 5)
    with pytest.raises(InfeasiblePlacementError):
        evaluate_delay(beyond, graph, pop, FILE_BITS)
    one_helper = whole_files((frozenset(),), (2,), pop.m)
    with pytest.raises(InfeasiblePlacementError):
        evaluate_delay(one_helper, graph, pop, FILE_BITS)


def test_most_popular_shapes():
    pop = zipf_model(0.7, 10)
    assert most_popular_place(HelperSpecs.uniform(3, 0), pop).caches == (
        frozenset(),
    ) * 3
    assert most_popular_place(HelperSpecs.uniform(2, 10), pop).caches == (
        frozenset(range(1, 11)),
    ) * 2
    assert most_popular_place(HelperSpecs.uniform(4, 3), pop).caches == (
        frozenset({1, 2, 3}),
    ) * 4


def test_most_popular_holds_one_boolean_matrix():
    # 10^6 files at 32 helpers: the matrix is 32 MB, while the ranks of every
    # cached file alone would take 256 MB as int64.
    pop = zipf_model(0.8, 10**6)
    specs = HelperSpecs.uniform(32, 10**6)
    tracemalloc.start()
    try:
        placement = most_popular_place(specs, pop)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert placement.rho.dtype == bool and placement.rho.all()
    assert placement.rho.nbytes == 32 * 10**6
    assert peak < 1.5 * placement.rho.nbytes


def test_zero_capacity_greedy_empty(fixture_instance):
    graph, pop, _ = fixture_instance
    placement = greedy_place(graph, pop, HelperSpecs.uniform(2, 0), FILE_BITS)
    assert placement.caches == (frozenset(), frozenset())


def test_greedy_gains_non_increasing(fixture_instance):
    graph, pop, specs = fixture_instance
    steps = greedy_steps(graph, pop, specs, FILE_BITS)
    gains = [g for _, _, g in steps]
    assert all(a >= b - 1e-9 for a, b in zip(gains, gains[1:]))
    assert all(g > 0 for g in gains)


def test_greedy_tie_breaks_toward_low_rank_and_helper():
    # one user covered by two identical helpers: the first pick must be
    # (file 1, helper 0), and the duplicate of file 1 on helper 1 is worthless
    rates = np.array([[5e6, 5e6]])
    graph = ConnectivityGraph(rates=rates, bs_rate=np.array([1e6]))
    pop = zipf_model(1.0, 2)
    steps = greedy_steps(graph, pop, HelperSpecs.uniform(2, 1), 2.4e8)
    assert [(h, f) for h, f, _ in steps] == [(0, 1), (1, 2)]


def random_instance(rng, n_helpers_max=3, m_max=6, cap_max=2):
    n_users = int(rng.integers(1, 6))
    n_helpers = int(rng.integers(1, n_helpers_max + 1))
    m = int(rng.integers(2, m_max + 1))
    rates = np.where(
        rng.random((n_users, n_helpers)) < 0.7,
        rng.uniform(2e6, 3e7, (n_users, n_helpers)),
        0.0,
    )
    bs = rng.uniform(5e5, 1.9e6, n_users)
    graph = ConnectivityGraph(rates=rates, bs_rate=bs)
    pop = zipf_model(float(rng.uniform(0.0, 2.0)), m)
    caps = tuple(int(rng.integers(0, cap_max + 1)) for _ in range(n_helpers))
    return graph, pop, HelperSpecs(caps)


def test_greedy_feasible_and_deterministic():
    rng = hrng.stream(31, "uncoded-props")
    for _ in range(50):
        graph, pop, specs = random_instance(rng)
        a = greedy_place(graph, pop, specs, FILE_BITS)
        b = greedy_place(graph, pop, specs, FILE_BITS)
        assert a.caches == b.caches
        assert all(
            len(c) <= cap for c, cap in zip(a.caches, specs.capacities)
        )


def test_adding_a_file_never_hurts():
    rng = hrng.stream(32, "monotone")
    for _ in range(40):
        graph, pop, specs = random_instance(rng)
        placement = whole_files(
            (frozenset(),) * specs.n_helpers, (pop.m,) * specs.n_helpers, pop.m
        )
        before = evaluate_delay(placement, graph, pop, FILE_BITS)
        h = int(rng.integers(0, specs.n_helpers))
        f = int(rng.integers(1, pop.m + 1))
        after = evaluate_delay(with_added(placement, h, f), graph, pop, FILE_BITS)
        assert after <= before + 1e-9


def test_marginal_gains_shrink_with_context():
    # submodularity: the same (file, helper) pair gains less when added to a
    # larger placement
    rng = hrng.stream(33, "submodular")
    for _ in range(100):
        graph, pop, specs = random_instance(rng)
        caps = (pop.m,) * specs.n_helpers
        small_sets = [set() for _ in range(specs.n_helpers)]
        for _ in range(int(rng.integers(0, 3))):
            small_sets[int(rng.integers(0, specs.n_helpers))].add(
                int(rng.integers(1, pop.m + 1))
            )
        big_sets = [set(s) for s in small_sets]
        for _ in range(int(rng.integers(1, 4))):
            big_sets[int(rng.integers(0, specs.n_helpers))].add(
                int(rng.integers(1, pop.m + 1))
            )
        h = int(rng.integers(0, specs.n_helpers))
        f = int(rng.integers(1, pop.m + 1))
        small = whole_files(small_sets, caps, pop.m)
        big = whole_files(big_sets, caps, pop.m)

        def gain(p):
            return evaluate_delay(p, graph, pop, FILE_BITS) - evaluate_delay(
                with_added(p, h, f), graph, pop, FILE_BITS
            )

        assert gain(small) >= gain(big) - 1e-9


def test_greedy_is_half_approximation_sample():
    # a quick 30-instance slice of the acceptance sweep
    rng = hrng.stream(34, "halfapx")
    for _ in range(30):
        graph, pop, specs = random_instance(rng)
        s_greedy = delay_savings(
            greedy_place(graph, pop, specs, FILE_BITS), graph, pop, FILE_BITS
        )
        s_brute = delay_savings(
            brute_force_place(graph, pop, specs, FILE_BITS), graph, pop, FILE_BITS
        )
        assert s_greedy >= 0.5 * s_brute - 1e-9


def test_single_coverage_greedy_equals_most_popular():
    rng = hrng.stream(35, "singlecov")
    for _ in range(10):
        n_users, n_helpers = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        m = int(rng.integers(2, 7))
        owner = rng.integers(0, n_helpers, n_users)
        rates = np.zeros((n_users, n_helpers))
        rates[np.arange(n_users), owner] = rng.uniform(4e6, 3e7, n_users)
        graph = ConnectivityGraph(rates=rates, bs_rate=rng.uniform(5e5, 2e6, n_users))
        pop = zipf_model(float(rng.uniform(0.2, 1.5)), m)
        specs = HelperSpecs.uniform(n_helpers, int(rng.integers(1, 3)))
        d_greedy = evaluate_delay(
            greedy_place(graph, pop, specs, FILE_BITS), graph, pop, FILE_BITS
        )
        d_mp = evaluate_delay(
            most_popular_place(specs, pop), graph, pop, FILE_BITS
        )
        assert d_greedy == pytest.approx(d_mp, abs=1e-9)


def test_single_helper_brute_is_most_popular():
    rates = np.array([[8e6], [7e6], [9e6]])
    graph = ConnectivityGraph(rates=rates, bs_rate=np.array([1e6, 1.2e6, 9e5]))
    pop = zipf_model(0.9, 5)
    specs = HelperSpecs.uniform(1, 2)
    brute = brute_force_place(graph, pop, specs, FILE_BITS)
    assert brute.caches == most_popular_place(specs, pop).caches


def test_brute_force_guard_message():
    graph = ConnectivityGraph(rates=np.ones((1, 2)) * 5e6, bs_rate=np.array([1e6]))
    pop = zipf_model(0.8, 30)
    with pytest.raises(InstanceTooLargeError) as err:
        brute_force_place(graph, pop, HelperSpecs.uniform(2, 15), FILE_BITS)
    assert f"exceeds the guard of {BRUTE_FORCE_GUARD}" in str(err.value)


def test_brute_force_zero_users_returns_empty():
    graph = ConnectivityGraph(rates=np.zeros((0, 2)), bs_rate=np.zeros(0))
    pop = zipf_model(1.0, 3)
    placement = brute_force_place(graph, pop, HelperSpecs.uniform(2, 1), FILE_BITS)
    assert placement.caches == (frozenset(), frozenset())
    assert evaluate_delay(placement, graph, pop, FILE_BITS) == 0.0


def test_placement_json_shape(fixture_instance):
    graph, pop, specs = fixture_instance
    text = _placement_json(greedy_place(graph, pop, specs, FILE_BITS))
    import json

    doc = json.loads(text)
    assert doc == {"0": [1, 2], "1": [3, 4]}
