"""The merged-segment greedy of `greedy_oracles.greedy_steps` against the heaps it replaced.

`greedy_oracles.class_greedy_steps` keeps one heap entry per class of ranks
cached at the same helper set, and `greedy_oracles.lazy_greedy_steps` one
entry per (rank, helper) pair.  Both must return the trajectory of
`greedy_steps`, (helper, rank, gain) ties included, compared with `==`.
Random instances mix gamma = 0 (every rank tied), tied link rates, duplicated
helpers (equal coverage weights), helpers without users, and capacities from
0 past the catalog size.
"""

import tracemalloc

import numpy as np
import pytest
from greedy_oracles import class_greedy_steps, greedy_steps, lazy_greedy_steps

from helpercache import placement_uncoded
from helpercache import rng as hrng
from helpercache.macro_sim import MacroConfig, experiment_popularity, plan_deployment
from helpercache.placement_uncoded import HelperSpecs, _clear_winner, _Segments
from helpercache.popularity import zipf_model
from helpercache.topology import ConnectivityGraph

# Few distinct levels so that tied link rates are common.
RATE_LEVELS = np.array([2e6, 5e6, 5e6, 1.2e7, 3e7])
GAMMAS = (0.0, 0.3, 0.8, 1.5, None)  # None: drawn from U(0, 1.5)

# The greedy calls of the benchmark's macro sweeps: `sweep-helpers` over its
# helper counts at the default capacity, and `sweep-capacity` over its cache
# sizes at 32 helpers.
SWEEP_POINTS = [(c, 2000) for c in (0, 2, 4, 8, 10, 16, 24, 32)] + [
    (32, cap) for cap in (0, 250, 500, 1000, 2000, 4000)
]


def random_instance(rng):
    n, H, m = int(rng.integers(0, 9)), int(rng.integers(0, 7)), int(rng.integers(1, 14))
    rates = np.where(
        rng.random((n, H)) < 0.6, rng.choice(RATE_LEVELS, size=(n, H)), 0.0
    )
    if H >= 2 and rng.random() < 0.3:
        rates[:, 1] = rates[:, 0]  # two helpers with equal coverage weights
    if H and rng.random() < 0.3:
        rates[:, int(rng.integers(H))] = 0.0  # a helper with no users
    bs = rng.choice([1e6, 1.5e6, 1.9e6], size=n)
    gamma = GAMMAS[int(rng.integers(len(GAMMAS)))]
    if gamma is None:
        gamma = float(rng.uniform(0.0, 1.5))
    caps = tuple(int(rng.integers(0, m + 2)) for _ in range(H))
    graph = ConnectivityGraph(rates=rates.reshape(n, H), bs_rate=bs)
    return graph, zipf_model(gamma, m), HelperSpecs(caps)


def test_class_greedy_equals_lazy_greedy_on_random_instances(monkeypatch):
    scored_alone = []
    item_step = placement_uncoded._item_step

    def counted(*args):
        scored_alone.append(args)
        return item_step(*args)

    monkeypatch.setattr(placement_uncoded, "_item_step", counted)
    rng = hrng.stream(606, "greedy-classes")
    seen = {"gamma0": 0, "zero_cap": 0, "big_cap": 0, "idle_helper": 0}
    for _ in range(1200):
        graph, pop, specs = random_instance(rng)
        # At 1e-316 the gains are subnormal and distinct coverage weights
        # can round to equal gains, which go to the lower helper index.
        for file_bits in (2.4e8, 1.0, 1e-316):
            steps = greedy_steps(graph, pop, specs, file_bits)
            assert steps == class_greedy_steps(graph, pop, specs, file_bits)
            assert steps == lazy_greedy_steps(graph, pop, specs, file_bits)
        seen["gamma0"] += pop.gamma == 0.0
        seen["zero_cap"] += 0 in specs.capacities
        seen["big_cap"] += any(c > pop.m for c in specs.capacities)
        seen["idle_helper"] += any(
            graph.users_of(h).size == 0 for h in range(graph.n_helpers)
        )
    assert min(seen.values()) >= 50, seen
    # Items whose helper depends on the rank (no clear winner, or a gain that
    # is not a normal float) take the per-item path.
    assert len(scored_alone) >= 50


def test_class_greedy_equals_lazy_greedy_on_the_default_cell():
    config = MacroConfig()
    pop = experiment_popularity(config, 0)
    _, graph = plan_deployment(16, config, 0)
    specs = HelperSpecs.uniform(16, 2000)
    steps = greedy_steps(graph, pop, specs, config.file_bits)
    assert len(steps) > 10_000
    assert steps == class_greedy_steps(graph, pop, specs, config.file_bits)
    assert steps == lazy_greedy_steps(graph, pop, specs, config.file_bits)


def test_merged_greedy_equals_the_heaps_on_the_sweep_points():
    config = MacroConfig()
    for seed in (0, 1, 2):
        pop = experiment_popularity(config, seed)
        for count, capacity in SWEEP_POINTS:
            _, graph = plan_deployment(count, config, seed)
            specs = HelperSpecs.uniform(count, capacity)
            steps = greedy_steps(graph, pop, specs, config.file_bits)
            assert steps == class_greedy_steps(graph, pop, specs, config.file_bits)
            # The lazy greedy costs seconds per call at 24 or 32 helpers with
            # large caches, so it checks the smaller points of one seed.
            if seed == 0 and count * capacity <= 8000:
                assert steps == lazy_greedy_steps(graph, pop, specs, config.file_bits)


def test_merged_greedy_equals_the_class_heap_past_the_rank_window(monkeypatch):
    # More live ranks than one segment looks at: the window must grow once
    # the first items of ranks beyond it could still come first.
    grown = []
    items = placement_uncoded._Segments.items

    def counted(self, *args):
        found = items(self, *args)
        grown.append(found is None)
        return found

    monkeypatch.setattr(placement_uncoded._Segments, "items", counted)
    for gamma in (0.0, 0.6, 1.2):
        config = MacroConfig(catalog_size=12_000, gamma=gamma)
        pop = experiment_popularity(config, 0)
        for count, capacity in ((8, 3000), (32, 100)):
            _, graph = plan_deployment(count, config, 0)
            specs = HelperSpecs.uniform(count, capacity)
            steps = greedy_steps(graph, pop, specs, config.file_bits)
            assert steps == class_greedy_steps(graph, pop, specs, config.file_bits)
    assert sum(grown) >= 6


def test_clear_winner_keeps_its_helper_while_it_stays_open():
    rng = hrng.stream(607, "clear-winner")
    kept = 0
    for _ in range(2000):
        H = int(rng.integers(1, 9))
        # Few levels, so that exact ties are common; zeros and negatives too.
        s = rng.choice([-0.5, 0.0, 0.0, 1.0, 1.0 + 1e-13, 2.0, 3.0], size=H)
        s = s * float(rng.choice([1.0, 1e-300, 1e200]))
        ok = rng.random(H) < 0.8
        first = _clear_winner(s, ok)
        if first >= 0:
            w = float(rng.choice([2.4e8, 1.0, 1e-9]))
            gains = np.where(ok, w * s, -1.0)
            if np.finfo(float).tiny <= gains[first] < np.inf:
                assert int(gains.argmax()) == first
        for h in rng.permutation(H).tolist():
            if not ok[h]:
                continue
            ok[h] = False
            now = _clear_winner(s, ok)
            if first == -2:
                assert now == -2
            elif first >= 0 and ok[first]:
                assert now == first
                kept += 1
    assert kept >= 200


def test_segments_keep_at_most_their_item_budget(monkeypatch):
    # Every segment, when taken and after every re-route, is cut to its
    # first _SEGMENT_ITEMS items; on this cell some get more than that.
    sizes = []
    budgeted = placement_uncoded._budgeted

    def counted(items, limit):
        kept, limit = budgeted(items, limit)
        sizes.append((items.shape[1], kept.shape[1]))
        return kept, limit

    monkeypatch.setattr(placement_uncoded, "_budgeted", counted)
    config = MacroConfig()
    pop = experiment_popularity(config, 0)
    _, graph = plan_deployment(32, config, 0)
    specs = HelperSpecs.uniform(32, 2000)
    placement_uncoded._greedy(graph, pop, specs, config.file_bits)
    budget = placement_uncoded._SEGMENT_ITEMS
    assert max(kept for _, kept in sizes) <= budget
    assert max(given for given, _ in sizes) > budget


def test_one_greedy_stays_within_its_item_budget():
    # 2.3 MB measured.  Without the item budget this call peaked at 2.6 MB,
    # within this bound; test_segments_keep_at_most_their_item_budget is
    # the test that sees the budget go.
    config = MacroConfig()
    pop = experiment_popularity(config, 0)
    _, graph = plan_deployment(32, config, 0)
    specs = HelperSpecs.uniform(32, 2000)
    placement_uncoded._greedy(graph, pop, specs, config.file_bits)
    tracemalloc.start()
    try:
        helpers, _, _ = placement_uncoded._greedy(graph, pop, specs, config.file_bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert helpers.size > 30_000
    assert peak < 6e6


def place_defaults(helpers, **overrides):
    """The graph, popularity and specs `place --helpers N` plans on (m 100,
    capacity 3, 24 users, gamma 0.8), at seed 0 unless overridden."""
    seed = overrides.pop("seed", 0)
    capacity = overrides.pop("capacity", 3)
    config = MacroConfig(**{"catalog_size": 100, "gamma": 0.8, **overrides})
    _, graph = plan_deployment(helpers, config, seed)
    pop = experiment_popularity(config, seed)
    return graph, pop, HelperSpecs.uniform(helpers, capacity), config.file_bits


@pytest.mark.parametrize("helpers", [128, 256])
def test_segments_equal_the_class_heap_at_the_place_defaults(helpers):
    # Helpers fill after three files each, so fills come every few steps.
    graph, pop, specs, file_bits = place_defaults(helpers)
    steps = greedy_steps(graph, pop, specs, file_bits)
    assert len(steps) > 300
    assert steps == class_greedy_steps(graph, pop, specs, file_bits)


def test_segments_equal_the_class_heap_when_helpers_fill_often():
    rng = hrng.stream(608, "greedy-fills")
    filled = 0
    for _ in range(10):
        helpers = int(rng.integers(32, 257))
        graph, pop, specs, file_bits = place_defaults(
            helpers,
            seed=int(rng.integers(1000)),
            capacity=int(rng.integers(1, 6)),
            catalog_size=int(rng.integers(20, 150)),
            n_users=int(rng.integers(8, 41)),
            gamma=float(rng.choice([0.0, 0.5, 0.8, 1.2])),
            helper_mode=str(rng.choice(["grid", "uniform"])),
        )
        steps = greedy_steps(graph, pop, specs, file_bits)
        assert steps == class_greedy_steps(graph, pop, specs, file_bits)
        used = np.bincount([h for h, _, _ in steps], minlength=specs.n_helpers)
        filled += int(np.sum(used == np.array(specs.capacities)))
    assert filled >= 500


def test_one_greedy_at_1024_helpers_stays_within_its_memory_bound():
    # Each made class keeps a coverage weight per helper (8 KB at 1024
    # helpers); 6.1 MB measured for 665 steps and 259 classes.
    graph, pop, specs, file_bits = place_defaults(1024)
    placement_uncoded._greedy(graph, pop, specs, file_bits)
    tracemalloc.start()
    try:
        helpers, _, _ = placement_uncoded._greedy(graph, pop, specs, file_bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert helpers.size > 600
    assert peak < 10e6


def test_coverage_weights_equal_the_sum_over_each_helpers_users():
    # Helpers are summed in blocks of equal user count // 8 (below 128) or
    # equal user count, padded with zeros; every weight must still be the
    # numpy sum over the helper's own users, bit for bit.
    rng = hrng.stream(609, "coverage-weights")
    counts = list(range(0, 20)) + [23, 24, 31, 32, 33, 64, 127, 128, 129, 200, 300]
    n_users = max(counts)
    rates = np.zeros((n_users, len(counts)))
    for h, k in enumerate(counts):
        users = rng.permutation(n_users)[:k]
        rates[users, h] = rng.choice(RATE_LEVELS, size=k) * rng.uniform(0.5, 2.0, k)
    graph = ConnectivityGraph(rates=rates, bs_rate=rng.uniform(1e6, 2e6, n_users))
    specs = HelperSpecs.uniform(len(counts), 2)
    run = _Segments(graph, zipf_model(0.8, 50), specs, 2.4e8)
    root = run.by_row[0]
    row, _ = run.successor(0, int(np.argmax(root.s)))
    for c in (root, run.by_row[row]):
        for h in range(len(counts)):
            users = graph.users_of(h)
            want = np.maximum(0.0, c.cur[users] - graph.inv_rates[users, h]).sum()
            assert c.s[h] == (want if c.cand[h] else 0.0), (h, counts[h])
