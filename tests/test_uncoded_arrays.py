"""Whole-file placements as boolean matrices against the frozenset placement.

`placement_oracles.FrozensetPlacement` is the frozenset placement that the
policies once returned.  On the same caches both must keep the same caches
and capacities, store the same matrix, and refuse the same inputs at the same
helper.  The matrix words two refusals its own way: "stores 3 file units"
where the frozensets say "caches 3 files", and "rho must be (m, n_helpers)"
where they say "one capacity per helper is required".  A matrix of m rows
holds only ranks 1 to m, so no input here holds any other rank.
"""

import numpy as np
import pytest
from greedy_oracles import greedy_steps
from placement_oracles import FrozensetPlacement, whole_files

from helpercache import rng as hrng
from helpercache.errors import InfeasiblePlacementError
from helpercache.macro_sim import MacroConfig, experiment_popularity, plan_deployment
from helpercache.placement_uncoded import (
    HelperSpecs,
    greedy_place,
    most_popular_place,
)


def outcome(build):
    try:
        return build(), None
    except Exception as exc:  # the type and message are what is compared
        return None, (type(exc), str(exc))


def matrix_message(message: str) -> str:
    """The refusal of the matrix where the frozenset placement says `message`."""
    if message == "one capacity per helper is required":
        return "rho must be (m, n_helpers)"
    return message.replace(" caches ", " stores ").replace(" files,", " file units,")


def assert_same(caches, capacities, catalog_sizes):
    want, want_error = outcome(lambda: FrozensetPlacement(caches, capacities))
    for m in catalog_sizes:
        got, got_error = outcome(lambda: whole_files(caches, capacities, m))
        if want is None:
            assert got_error == (want_error[0], matrix_message(want_error[1]))
            continue
        assert got_error is None
        assert got.rho.dtype == bool
        assert got.caches == want.caches
        assert got.capacities == want.capacities
        assert got.rho.shape[1] == want.n_helpers
        assert np.array_equal(got.rho, want.fractions(m))
    return want_error


# Explicit ids keep each case's name as cases come and go.
@pytest.mark.parametrize(
    "caches, capacities, message",
    [
        (({1, 2, 3}, {4}), (2, 2), "helper 0 caches 3 files, capacity 2"),
        (({1}, {1, 2, 3}), (1, 2), "helper 1 caches 3 files, capacity 2"),
        (({1},), (1, 1), "one capacity per helper is required"),
    ],
    ids=[
        "caches0-capacities0-helper 0 caches 3 files, capacity 2",
        "caches2-capacities2-helper 1 caches 3 files, capacity 2",
        "caches4-capacities4-one capacity per helper is required",
    ],
)
def test_refusals_keep_their_message_and_order(caches, capacities, message):
    error = assert_same(tuple(frozenset(c) for c in caches), capacities, [4, 10])
    assert error == (InfeasiblePlacementError, message)


def test_shared_cache_objects():
    shared = frozenset({3, 1, 2})
    assert assert_same((shared, shared, frozenset(), shared), (3, 3, 0, 5), [3, 4]) is None
    # The shared object is over capacity at one helper only.
    error = assert_same((shared, shared), (3, 2), [4])
    assert error == (InfeasiblePlacementError, "helper 1 caches 3 files, capacity 2")


def test_empty_helpers_and_catalog_sizes():
    assert assert_same((), (), [1, 5]) is None
    assert assert_same((frozenset(), frozenset()), (0, 4), [1]) is None
    # The last rank of the catalog, and capacities past it.
    assert assert_same((frozenset({2, 9}), frozenset({1})), (2, 1), [9, 20]) is None
    assert assert_same((frozenset({1, 2}),), (10**30,), [2, 3]) is None


def test_iterables_with_repeats_and_numpy_ranks():
    caches = ([3, 3, 1], np.array([2, 2]), (np.int64(4), 4.0), range(1, 3))
    assert assert_same(caches, (2, 1, 1, 2), [4, 6]) is None


def test_random_placements_match_the_frozenset_placement():
    rng = hrng.stream(1313, "uncoded-arrays")
    refused = kept = 0
    for _ in range(3000):
        H = int(rng.integers(0, 6))
        pool = [
            frozenset(rng.integers(1, 14, int(rng.integers(0, 7))).tolist())
            for _ in range(max(H, 1))
        ]
        # Some helpers share one cache object, others an empty cache.
        caches = tuple(pool[int(rng.integers(0, len(pool)))] for _ in range(H))
        capacities = tuple(rng.integers(0, 8, H + int(rng.random() < 0.05)).tolist())
        error = assert_same(caches, capacities, [13, 20])
        refused += error is not None
        kept += error is None
    assert refused > 300 and kept > 300


def frozenset_greedy(graph, pop, specs, file_bits):
    """`greedy_place` as it was: frozensets from the greedy's steps."""
    steps = greedy_steps(graph, pop, specs, file_bits)
    helpers = np.array([h for h, _, _ in steps], dtype=np.int64)
    ranks = np.array([f for _, f, _ in steps], dtype=np.int64)
    ranks = ranks[np.argsort(helpers, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(helpers, minlength=specs.n_helpers)).tolist()
    caches = tuple(frozenset(ranks[a:b]) for a, b in zip([0, *ends], ends))
    return FrozensetPlacement(caches=caches, capacities=specs.capacities)


def frozenset_most_popular(specs, pop):
    """`most_popular_place` as it was: one frozenset per distinct size."""
    sizes = [min(cap, pop.m) for cap in specs.capacities]
    tops = {k: frozenset(range(1, k + 1)) for k in set(sizes)}
    return FrozensetPlacement(
        caches=tuple(tops[k] for k in sizes), capacities=specs.capacities
    )


def assert_placements_equal(got, want, m):
    assert got.caches == want.caches
    assert got.capacities == want.capacities
    assert got.rho.dtype == bool
    assert np.array_equal(got.rho, want.fractions(m))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_policies_match_the_frozenset_placements_on_the_sweep_points(seed):
    config = MacroConfig()
    pop = experiment_popularity(config, seed)
    for count in (0, 2, 4, 8, 10, 16, 24, 32):
        _, graph = plan_deployment(count, config, seed)
        specs = HelperSpecs.uniform(count, config.capacity)
        got = greedy_place(graph, pop, specs, config.file_bits)
        assert_placements_equal(
            got, frozenset_greedy(graph, pop, specs, config.file_bits), pop.m
        )
        assert_placements_equal(
            most_popular_place(specs, pop), frozenset_most_popular(specs, pop), pop.m
        )
    for capacity in (0, 250, 500, 1000, 2000, 4000):
        specs = HelperSpecs.uniform(32, capacity)
        assert_placements_equal(
            most_popular_place(specs, pop), frozenset_most_popular(specs, pop), pop.m
        )
