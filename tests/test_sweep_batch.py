"""The batched macro sweep against the per-replicate loop it replaced.

`oracle_sweep` is the former body of `macro_sim._sweep`: one connectivity
graph and one `simulate_snapshot` per (point, replicate).  The batched sweep
must give the same per-replicate satisfied counts and the same `SweepPoint`s,
compared with `==`.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from snapshot import simulate_snapshot

from helpercache import macro_sim
from helpercache.errors import InvalidParameterError
from helpercache.macro_sim import (
    MacroConfig,
    SweepPoint,
    _deliver,
    _satisfied_counts,
    _sweep,
    experiment_popularity,
    plan_deployment,
)
from helpercache.placement_uncoded import HelperSpecs, Placement
from helpercache.popularity import sample_requests
from helpercache.rng import stream
from helpercache.topology import build_connectivity, place_uniform


def oracle_sweep(points, config, policy, reps, root_seed):
    """Per-replicate counts and points of the per-(point, replicate) loop."""
    if reps < 1:
        raise InvalidParameterError("reps must be >= 1")
    pop = experiment_popularity(config, root_seed)
    plans = {}
    counts = []
    out = []
    for x, count, capacity in points:
        if count not in plans:
            plans[count] = plan_deployment(count, config, root_seed)
        helpers, plan = plans[count]
        specs = HelperSpecs.uniform(count, capacity)
        placed = macro_sim.make_placement(policy, plan, pop, specs, config)
        # As floats, so that a whole-file placement, which the sweep scores as
        # booleans, is scored here as 0/1 fractions.
        placement = Placement(placed.rho.astype(float), placed.capacities)
        satisfied = np.empty(reps)
        for k in range(reps):
            users = place_uniform(
                config.n_users, config.cell_radius_m, stream(root_seed, "eval-users", k)
            )
            outcome = simulate_snapshot(
                build_connectivity(helpers, users, config.helper_radius_m),
                placement,
                pop,
                config.file_bits,
                config.qos_s,
                stream(root_seed, "requests", k),
            )
            satisfied[k] = outcome.satisfied_count
        err = float(satisfied.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
        out.append(
            SweepPoint(x=float(x), mean_satisfied=float(satisfied.mean()), stderr=err)
        )
        counts.append(satisfied)
    return np.array(counts), out


SMALL = MacroConfig(n_users=12, catalog_size=60, capacity=6, gamma=0.8, coded_groups=4)


def assert_same(points, config, policy, reps, root_seed):
    want_counts, want_points = oracle_sweep(points, config, policy, reps, root_seed)
    got_counts = _satisfied_counts(points, config, policy, reps, root_seed)
    np.testing.assert_array_equal(got_counts, want_counts)
    assert _sweep(points, config, policy, reps, root_seed) == want_points
    return got_counts


def helper_points(counts, capacity):
    return [(c, c, capacity) for c in counts]


def degrees(graph, draws=1):
    """The most helpers any one user links to, per draw of users, the draws'
    users listed one draw after another."""
    links = np.bincount(graph.user, minlength=graph.n_users)
    return links.reshape(draws, -1).max(axis=1)


@pytest.mark.parametrize("mode", ["grid", "uniform"])
@pytest.mark.parametrize("policy", ["greedy", "most-popular", "coded"])
def test_helper_sweep_matches_the_loop(policy, mode):
    # 0 helpers leaves every user unlinked; 3 is repeated.
    config = replace(SMALL, helper_mode=mode)
    assert_same(helper_points([3, 0, 8, 3], 6), config, policy, 9, 17)


@pytest.mark.parametrize("policy", ["greedy", "most-popular", "coded"])
def test_capacity_sweep_matches_the_loop(policy):
    points = [(cap, 8, cap) for cap in (0, 3, 6, 60)]
    assert_same(points, SMALL, policy, 8, 23)


def test_brute_force_matches_the_loop():
    config = replace(SMALL, catalog_size=6, capacity=1)
    assert_same(helper_points([0, 2, 2], 1), config, "brute-force", 6, 5)


def test_users_without_links_match_the_loop():
    config = replace(SMALL, helper_radius_m=40.0)
    _, plan = plan_deployment(8, config, 3)
    assert np.unique(plan.user).size < plan.n_users
    assert_same(helper_points([8, 16], 6), config, "greedy", 10, 3)


def test_coded_degree_of_eight_or_more_matches_the_loop():
    config = MacroConfig(
        catalog_size=200, capacity=50, gamma=0.8, coded_groups=4, helper_radius_m=350.0
    )
    helpers, _ = plan_deployment(32, config, 0)
    users = place_uniform(config.n_users, 400.0, stream(0, "eval-users", 0))
    assert degrees(build_connectivity(helpers, users, config.helper_radius_m))[0] >= 8
    assert_same(helper_points([32, 16], 50), config, "coded", 6, 0)


@pytest.mark.parametrize("per_chunk", [1, 3])
def test_chunk_size_changes_no_output(monkeypatch, per_chunk):
    # 3 replicates per chunk does not divide 7.
    monkeypatch.setattr(macro_sim, "_CHUNK_ELEMENTS", per_chunk * SMALL.n_users * 8)
    assert_same(helper_points([4, 8], 6), SMALL, "greedy", 7, 29)


def test_draws_and_graphs_are_built_once_per_sweep(monkeypatch):
    calls = {"sample_requests": 0, "build_connectivity": 0}
    for name in calls:
        original = getattr(macro_sim, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(macro_sim, name, counted)
    reps = 5
    _satisfied_counts(helper_points([3, 0, 8, 3], 6), SMALL, "most-popular", reps, 1)
    # One request draw per replicate (the pinned gamma fits no trace); one
    # planning graph and one graph of the chunk's users per distinct helper
    # count.
    assert calls == {"sample_requests": reps, "build_connectivity": 2 * 3}


def dense_fractions(m, n_helpers):
    """A fractional placement that spreads every file over all helpers, so a
    served user sums its download time over four or more links."""
    return stream(7, "fractions").uniform(0.15, 0.35, (m, n_helpers))


def test_fractional_sums_match_the_loop_across_degrees(monkeypatch):
    # Replicates with degree below and above 8 share one chunk's graph here.
    def place(policy, graph, pop, specs, config):
        rho = dense_fractions(pop.m, graph.n_helpers)
        capacities = tuple(int(c) + 1 for c in rho.sum(axis=0))
        return Placement(rho=rho, capacities=capacities)

    monkeypatch.setattr(macro_sim, "make_placement", place)
    config = replace(SMALL, n_users=24, helper_radius_m=200.0)
    assert_same(helper_points([32], 6), config, "coded", 30, 4)


def test_stacked_scores_equal_each_replicate_alone():
    # Replicates of degree 7 to 9 share one flat graph of all their users,
    # padded to degree 9; a replicate's download times and base-station share
    # must not depend on the users or the padding of the others.
    config = replace(SMALL, n_users=24, helper_radius_m=200.0)
    pop = experiment_popularity(config, 4)
    helpers, _ = plan_deployment(32, config, 4)
    reps = 30
    draws = [place_uniform(24, 400.0, stream(4, "eval-users", k)) for k in range(reps)]
    requests = np.stack(
        [sample_requests(pop, stream(4, "requests", k), 24) for k in range(reps)]
    )
    rho = dense_fractions(pop.m, 32)
    chunk = build_connectivity(helpers, np.concatenate(draws), config.helper_radius_m)
    assert degrees(chunk, reps).min() < 8 <= degrees(chunk, reps).max()

    alone = np.empty((reps, 24))
    for k in range(reps):
        graph = build_connectivity(helpers, draws[k], config.helper_radius_m)
        alone[k] = _deliver(graph, rho[requests[k] - 1], 1.0)
    together = _deliver(chunk, rho[requests - 1], 1.0)
    assert together.shape == (reps, 24)
    assert (together == alone).all()
