"""The class greedy of `greedy_steps` against the lazy greedy it replaced.

`lazy_greedy_steps` below is the former body of `greedy_steps`, kept as the
oracle: a heap of m x H upper bounds, one per (rank, helper) pair, re-queued
until the popped bound is exact.  Both must return the same (helper, rank,
gain) trajectory, compared with `==`.  Random instances mix gamma = 0 (every
rank tied), tied link rates, duplicated helpers (equal coverage weights),
helpers without users, and capacities from 0 past the catalog size.
"""

import heapq
import math

import numpy as np

from helpercache import rng as hrng
from helpercache.errors import InfeasiblePlacementError, InvalidParameterError
from helpercache.macro_sim import MacroConfig, experiment_popularity, plan_deployment
from helpercache.placement_uncoded import HelperSpecs, greedy_steps
from helpercache.popularity import zipf_model
from helpercache.topology import ConnectivityGraph

# Few distinct levels so that tied link rates are common.
RATE_LEVELS = np.array([2e6, 5e6, 5e6, 1.2e7, 3e7])
GAMMAS = (0.0, 0.3, 0.8, 1.5, None)  # None: drawn from U(0, 1.5)


def lazy_greedy_steps(graph, pop, specs, file_bits):
    if specs.n_helpers != graph.n_helpers:
        raise InfeasiblePlacementError("specs/graph helper counts differ")
    if not math.isfinite(file_bits) or file_bits <= 0:
        raise InvalidParameterError("file_bits must be finite and > 0")
    n, m = graph.n_users, pop.m
    if n == 0 or all(c == 0 for c in specs.capacities):
        return []
    users_of = [graph.users_of(h) for h in range(graph.n_helpers)]
    edge_inv = [graph.inv_rates[users_of[h], h] for h in range(graph.n_helpers)]
    cur_inv = np.repeat((1.0 / graph.bs_rate)[:, None], m, axis=1)

    # With empty caches the gain of (f, h) factorizes as pmf[f] * base[h].
    base = np.array(
        [
            float(np.maximum(0.0, 1.0 / graph.bs_rate[users_of[h]] - edge_inv[h]).sum())
            for h in range(graph.n_helpers)
        ]
    )
    heap = [
        (-file_bits * pop.pmf[f - 1] * base[h], f, h)
        for h in range(graph.n_helpers)
        if specs.capacities[h] > 0 and users_of[h].size > 0
        for f in range(1, m + 1)
    ]
    heapq.heapify(heap)

    room = list(specs.capacities)
    steps: list[tuple[int, int, float]] = []
    while heap:
        _, f, h = heapq.heappop(heap)
        if room[h] == 0:
            continue
        col = cur_inv[users_of[h], f - 1]
        gain = float(
            file_bits * pop.pmf[f - 1] * np.maximum(0.0, col - edge_inv[h]).sum()
        )
        if heap and (-gain, f, h) > heap[0]:
            # Stale bound: someone else may now be better.  Re-queue and retry.
            heapq.heappush(heap, (-gain, f, h))
            continue
        if gain <= 0.0:
            break
        steps.append((h, f, gain))
        cur_inv[users_of[h], f - 1] = np.minimum(col, edge_inv[h])
        room[h] -= 1
    return steps


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


def test_class_greedy_equals_lazy_greedy_on_random_instances():
    rng = hrng.stream(606, "greedy-classes")
    seen = {"gamma0": 0, "zero_cap": 0, "big_cap": 0, "idle_helper": 0}
    for _ in range(1200):
        graph, pop, specs = random_instance(rng)
        # At 1e-316 the gains are subnormal and distinct coverage weights
        # can round to equal gains, which go to the lower helper index.
        for file_bits in (2.4e8, 1.0, 1e-316):
            assert greedy_steps(graph, pop, specs, file_bits) == lazy_greedy_steps(
                graph, pop, specs, file_bits
            )
        seen["gamma0"] += pop.gamma == 0.0
        seen["zero_cap"] += 0 in specs.capacities
        seen["big_cap"] += any(c > pop.m for c in specs.capacities)
        seen["idle_helper"] += any(
            graph.users_of(h).size == 0 for h in range(graph.n_helpers)
        )
    assert min(seen.values()) >= 50, seen


def test_class_greedy_equals_lazy_greedy_on_the_default_cell():
    config = MacroConfig()
    pop = experiment_popularity(config, 0)
    _, graph = plan_deployment(16, config, 0)
    specs = HelperSpecs.uniform(16, 2000)
    steps = greedy_steps(graph, pop, specs, config.file_bits)
    assert len(steps) > 10_000
    assert steps == lazy_greedy_steps(graph, pop, specs, config.file_bits)
