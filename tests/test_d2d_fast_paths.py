"""The D2D model's fast paths against the loops they replaced, with `==`.

`_random_caches` replays the lockstep rejection rounds without rescanning
every row each round; `d2d_oracles.random_caches_lockstep` is the former
loop.  The caches and the generator state after the fill must be equal.

`expected_active_analytic` takes its all-miss products over blocks of
occupancies; `d2d_oracles.expected_active_by_k` takes one product per
occupancy.  Both multiply the same factors in the same order, so the
expectations must be equal.
"""

import math

import numpy as np
import pytest
from d2d_oracles import expected_active_by_k, random_caches_lockstep

from helpercache.d2d import (
    RANDOM_CACHE_MAX_DRAWS,
    D2DScenario,
    _fill_draws,
    _random_caches,
    expected_active_analytic,
)
from helpercache.popularity import catalog_size, zipf_model
from helpercache.rng import stream

CATALOG = 12


def _near_draw_limit(M: int, m: int) -> float:
    """A gamma1 whose fill needs about half the per-device draw limit."""
    lo, hi = 0.0, 30.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if _fill_draws(M, zipf_model(mid, m).pmf) > RANDOM_CACHE_MAX_DRAWS / 2:
            hi = mid
        else:
            lo = mid
    return lo


def _assert_same_fill(count, M, gamma1, m):
    rng, twin = stream(9, "fill", count, M), stream(9, "fill", count, M)
    caches = _random_caches(count, M, zipf_model(gamma1, m), rng)
    expected = random_caches_lockstep(count, M, gamma1, m, twin)
    assert caches.dtype == expected.dtype
    assert np.array_equal(caches, expected)
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("M", [1, 2, 4, CATALOG - 1])
@pytest.mark.parametrize("gamma1", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("count", [0, 1, 3, 200])
def test_random_cache_replay_equals_the_lockstep_loop(M, gamma1, count):
    _assert_same_fill(count, M, gamma1, CATALOG)


@pytest.mark.parametrize("M", [2, 4, CATALOG - 1])
@pytest.mark.parametrize("count", [1, 3])
def test_random_cache_replay_near_the_draw_limit(M, count):
    # Thousands of rounds, most of them for one or two rows.
    gamma1 = _near_draw_limit(M, CATALOG)
    assert _fill_draws(M, zipf_model(gamma1, CATALOG).pmf) > RANDOM_CACHE_MAX_DRAWS / 4
    _assert_same_fill(count, M, gamma1, CATALOG)


@pytest.mark.parametrize("M", [0, CATALOG])
@pytest.mark.parametrize("count", [0, 5])
def test_random_cache_branches_without_rounds(M, count):
    _assert_same_fill(count, M, 1.0, CATALOG)


def test_random_cache_replay_on_a_large_fill():
    _assert_same_fill(20_000, 4, 1.5, 1000)


@pytest.mark.parametrize("gamma1", [0.0, 2.0])
def test_random_cache_replay_at_the_sweep_block_shape(gamma1):
    # A block of 32 replications of 500 devices with M = 4 over 1000 files,
    # as `sweep-gamma1 --M 4` fills it; at gamma1 = 2 its rejection tail
    # runs for dozens of rounds.
    _assert_same_fill(16_000, 4, gamma1, 1000)


def _scaling_cases(n_values, M, gamma=1.5):
    """The (scenario, popularity) pairs `scaling_check` evaluates."""
    for n in n_values:
        m = catalog_size(n, scale=50.0)
        pop = zipf_model(gamma, m)
        for side in range(1, int(math.ceil(2.0 * math.sqrt(n))) + 1):
            yield D2DScenario(n=n, m=m, M=M, r=1.0 / side, gamma=gamma), pop


def _assert_same_expectation(cases):
    for scenario, pop in cases:
        assert expected_active_analytic(scenario, pop) == expected_active_by_k(
            scenario, pop
        ), scenario


def test_analytic_blocks_equal_the_per_k_sum_on_the_benchmark_scaling_check():
    cases = list(_scaling_cases((250, 500, 1000, 2000, 4000, 8000), M=1))
    assert len(cases) == 537
    _assert_same_expectation(cases)


@pytest.mark.parametrize("M", [2, 3])
def test_analytic_blocks_equal_the_per_k_sum_with_larger_caches(M):
    _assert_same_expectation(_scaling_cases((250, 2000), M=M))


def test_analytic_blocks_equal_the_per_k_sum_at_edges():
    pop = zipf_model(0.6, 10)
    cases = [
        # every occupancy of at least two users is below the 1e-18 cut
        (D2DScenario(n=2, m=10, M=1, r=1e-5, gamma=0.6), pop),
        # caches of the whole catalog, and of nothing
        (D2DScenario(n=40, m=10, M=10, r=0.25, gamma=0.6), pop),
        (D2DScenario(n=40, m=10, M=25, r=0.5, gamma=0.6), pop),
        (D2DScenario(n=40, m=10, M=0, r=0.5, gamma=0.6), pop),
        (D2DScenario(n=1, m=10, M=3, r=1.0, gamma=0.6), pop),
    ]
    _assert_same_expectation(cases)
    assert expected_active_analytic(*cases[0]).expected_active == 0.0
