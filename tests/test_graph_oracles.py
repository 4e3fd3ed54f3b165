"""The in-range cell graph against the dense construction it replaced.

`build_connectivity` screens pairs by squared distance before the exact
test and the link rate, and `fastest_first` orders each user's links alone.
Both must give the bits of `graph_oracles`: the links, rates and
base-station rates, the order, seconds per bit and link mask on every linked
slot, and what `fetch_fastest_first` collects.
"""

import numpy as np
import pytest
from graph_oracles import argsort_fastest_first, dense_connectivity, rates_of

from helpercache.topology import (
    ConnectivityGraph,
    build_connectivity,
    fetch_fastest_first,
    place_helpers,
)


def assert_same_graph(helpers, users, radius, rng=None):
    got = build_connectivity(helpers, users, radius)
    want = dense_connectivity(helpers, users, radius)
    assert (got.n_users, got.n_helpers) == (want.n_users, want.n_helpers)
    for name in ("user", "helper", "rate", "bs_rate"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert_same_order(got, rng)
    return got


def assert_same_order(graph, rng=None):
    order, inv, linked = graph.fastest_first
    want_order, want_inv, want_linked = argsort_fastest_first(graph)
    assert order.shape == want_order.shape
    assert order.dtype == want_order.dtype
    assert np.array_equal(linked, want_linked)
    assert np.array_equal(inv, want_inv)
    assert np.array_equal(order[linked], want_order[want_linked])
    # The fetch kernel reads only the linked slots.
    rng = rng or np.random.default_rng(0)
    shape = (graph.n_users, graph.n_helpers)
    fractions = np.where(rng.random(shape) < 0.5, rng.random(shape), 0.0)
    got = fetch_fastest_first(graph, fractions)
    want = _fetch_with(want_order, want_inv, want_linked, graph, fractions)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def _fetch_with(order, inv, linked, graph, fractions):
    """`fetch_fastest_first` fed the oracle's order instead of the graph's."""
    stub = ConnectivityGraph(
        graph.user, graph.helper, graph.rate, graph.bs_rate, graph.n_helpers
    )
    stub.__dict__["fastest_first"] = (order, inv, linked)
    return fetch_fastest_first(stub, fractions)


@pytest.mark.parametrize("seed", range(12))
def test_random_stacked_draws(seed):
    # Up to six draws of users one after another, as a sweep chunk holds them.
    rng = np.random.default_rng(seed)
    helpers = place_helpers(int(rng.integers(1, 40)), 400.0)
    draws = int(np.prod(rng.integers(1, 4, size=rng.integers(0, 3))))
    users = rng.uniform(-400.0, 400.0, size=(draws * int(rng.integers(1, 30)), 2))
    radius = float(rng.choice([20.0, 150.0, 250.0]))
    graph = assert_same_graph(helpers, users, radius, rng)
    assert (graph.n_users, graph.n_helpers) == (users.shape[0], helpers.shape[0])


def test_pairs_at_the_radius_and_one_ulp_either_side():
    radius = 150.0
    helpers = np.array([[0.0, 0.0], [10.0, -20.0], [-3.0, 7.5]])
    angles = 2 * np.pi * np.arange(64) / 64
    along = np.column_stack([np.cos(angles), np.sin(angles)])
    steps = (np.nextafter(radius, 0.0), radius, np.nextafter(radius, np.inf))
    users = np.concatenate([h + d * along for h in helpers for d in steps])
    graph = assert_same_graph(helpers, users, radius)
    # Some pairs land exactly on the radius, some one ulp away either side,
    # and some in range have a sum of squares above fl(radius**2).
    dx, dy = (users[:, None, :] - helpers).transpose(2, 0, 1)
    dists = np.hypot(dx, dy)
    assert np.any(dists == radius)
    assert np.any((dists > radius) & (dists < radius * (1 + 1e-12)))
    assert np.any((dists < radius) & (dists > radius * (1 - 1e-12)))
    assert np.any((dists <= radius) & (dx * dx + dy * dy > radius * radius))
    assert np.array_equal(rates_of(graph) > 0, dists <= radius)


def test_a_wide_radius_where_rates_fall_below_the_cap():
    rng = np.random.default_rng(3)
    helpers = place_helpers(16, 400.0)
    users = rng.uniform(-400.0, 400.0, size=(5 * 40, 2))
    graph = assert_same_graph(helpers, users, 400.0, rng)
    assert graph.rate.min() < graph.rate.max()
    assert np.unique(graph.rate).size > 10


def test_co_located_users_and_helpers_tie():
    helpers = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    users = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 0.0], [2.5, 2.5]])
    graph = assert_same_graph(helpers, users, 150.0)
    order, _, linked = graph.fastest_first
    # Equal rates keep helper-index order.
    assert order[0][linked[0]].tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize(
    "n_helpers, users_shape",
    [(0, (5, 2)), (4, (0, 2)), (0, (0, 2)), (0, (3, 2)), (3, (0, 2))],
)
def test_no_helpers_or_no_users(n_helpers, users_shape):
    helpers = place_helpers(n_helpers, 400.0)
    users = np.random.default_rng(1).uniform(-400.0, 400.0, size=users_shape)
    graph = assert_same_graph(helpers, users, 150.0)
    assert (graph.n_users, graph.n_helpers) == (users_shape[0], n_helpers)
    assert graph.user.size == 0
    assert graph.fastest_first[0].shape == (users_shape[0], 0)


def test_degree_zero_when_every_user_is_out_of_range():
    helpers = place_helpers(6, 400.0)
    users = np.full((2 * 3, 2), 1e4)
    graph = assert_same_graph(helpers, users, 150.0)
    assert graph.user.size == 0
    assert graph.fastest_first[0].shape == (6, 0)


@pytest.mark.parametrize(
    "radius", [1e150, 1e160, 1e200, 1e-153, 1e-158, 1e-160, 1e-170, 5e-324]
)
def test_radii_whose_squares_overflow_or_underflow(radius):
    # Users stay near the base station, whose rate would round to 0 far out.
    # Helper 2's squares are subnormal at 1e-153, helper 6's overflow at
    # 1e150, and the last 64 ring user 0 at the radius: at 1e-158 the bound
    # on the squares is subnormal and some of them pass it.
    rng = np.random.default_rng(7)
    users = rng.uniform(-2.0, 2.0, size=(4 * 10, 2)) * min(radius, 100.0)
    angles = 2 * np.pi * np.arange(64) / 64
    ring = users[0] + radius * np.column_stack([np.cos(angles), np.sin(angles)])
    helpers = np.concatenate([rng.uniform(-2.0, 2.0, size=(7, 2)) * radius, ring])
    helpers[0] = users[0]
    helpers[1] = users[1] + [0.5 * radius, 0.0]
    helpers[2] = users[2] + [1e-2 * radius, 0.0]
    helpers[6] = [1e5 * radius, 0.0]
    graph = assert_same_graph(helpers, users, radius, rng)
    # Past about 1e6 m a link's rate rounds to 0, so only co-located pairs
    # keep a rate at the large radii.
    rates = rates_of(graph)
    assert rates[0, 0] > 0
    assert (rates[[1, 2], [1, 2]] > 0).tolist() == [radius < 1.0] * 2
    assert not np.any(rates[:, 6])
    assert 0 < graph.rate.size < rates.size
    assert np.any(rates[0, 7:]) == (radius < 1.0)


def test_a_radius_that_is_not_a_number_links_nothing():
    helpers = place_helpers(3, 400.0)
    users = np.zeros((2, 2))
    graph = assert_same_graph(helpers, users, float("nan"))
    assert graph.user.size == 0
