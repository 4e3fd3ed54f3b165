"""The fastest-first fetch kernel against the per-user loops it replaced.

The loops below are the former bodies of `simulate_snapshot` (one branch per
placement kind), `evaluate_delay` and `evaluate_coded_delay`, kept as
oracles.  Random instances mix users without any helper, helpers slower than
the base station, tied link rates, and stored fractions that sum to just
below or just above one.
"""

import numpy as np
import pytest
from delays import evaluate_coded_delay, evaluate_delay
from graph_oracles import graph_from_rates, rates_of
from placement_oracles import whole_files
from snapshot import simulate_snapshot

from helpercache import rng as hrng
from helpercache.macro_sim import WHOLE_FILE_TOL
from helpercache.placement_uncoded import Placement
from helpercache.popularity import sample_requests, zipf_model
from helpercache.topology import fetch_fastest_first

B = 2.4e8
# Few distinct levels so that ties are common; 1e6 is below every BS rate.
RATE_LEVELS = np.array([1e6, 4e6, 4e6, 1.2e7, 3e7])
# Per-file totals of the stored fractions across all helpers.
FILE_TOTALS = (0.3, 1.0 - 1e-8, 1.0 - 1e-11, 1.0, 1.0 + 1e-12, 1.7)


def random_graph(rng):
    n, H = int(rng.integers(1, 9)), int(rng.integers(0, 6))
    rates = np.where(
        rng.random((n, H)) < 0.6, rng.choice(RATE_LEVELS, size=(n, H)), 0.0
    )
    rates[rng.random(n) < 0.25] = 0.0  # users without any helper
    return graph_from_rates(rates, rng.uniform(2e6, 2e7, n))


def random_fractions(rng, m, H):
    rho = np.zeros((m, H))
    for f in range(m if H else 0):
        total = FILE_TOTALS[int(rng.integers(len(FILE_TOTALS)))]
        holders = rng.choice(H, size=int(rng.integers(1, H + 1)), replace=False)
        split = rng.dirichlet(np.ones(holders.size)) * total
        rho[f, holders] = np.minimum(split, 1.0)
    return Placement(rho=rho, capacities=(m,) * H)


def random_whole_files(rng, m, H):
    caches = [np.flatnonzero(rng.random(m) < 0.4) + 1 for _ in range(H)]
    return whole_files(caches, (m,) * H, m)


def oracle_snapshot_uncoded(graph, placement, pop, requests):
    n = graph.n_users
    holds = np.zeros((graph.n_helpers, pop.m + 1), dtype=bool)
    for h, cache in enumerate(placement.caches):
        if cache:
            holds[h, list(cache)] = True
    times, served = np.zeros(n), np.zeros(n, dtype=bool)
    rates = rates_of(graph)
    for u in range(n):
        nbrs = np.flatnonzero(rates[u] > 0)
        holders = nbrs[holds[nbrs, requests[u]]] if nbrs.size else nbrs
        if holders.size:
            served[u] = True
            times[u] = B / rates[u, holders].max()
    return served, times


def oracle_snapshot_coded(graph, placement, pop, requests):
    n = graph.n_users
    times, served = np.zeros(n), np.zeros(n, dtype=bool)
    rates = rates_of(graph)
    for u in range(n):
        nbrs = np.flatnonzero(rates[u] > 0)
        if nbrs.size == 0:
            continue
        fractions = placement.rho[requests[u] - 1, nbrs]
        if fractions.sum() < 1.0 - 1e-9:
            continue
        served[u] = True
        order = np.argsort(-rates[u, nbrs], kind="stable")
        cum = np.clip(np.cumsum(fractions[order]), 0.0, 1.0)
        take = np.diff(cum, prepend=0.0)
        times[u] = B * float(take @ (1.0 / rates[u, nbrs[order]]))
    return served, times


def oracle_finish(graph, served, times):
    times = times.copy()
    n_bs = int(graph.n_users - served.sum())
    times[~served] = B * n_bs / graph.bs_rate[~served]
    return times


def oracle_delay_uncoded(graph, placement, pop):
    rates = rates_of(graph)
    with np.errstate(divide="ignore"):
        inv_edges = np.where(rates > 0, 1.0 / rates, np.inf)
    best = np.repeat((1.0 / graph.bs_rate)[:, None], pop.m, axis=1)
    for h, cache in enumerate(placement.caches):
        if cache:
            idx = np.fromiter(cache, dtype=np.int64) - 1
            best[:, idx] = np.minimum(best[:, idx], inv_edges[:, h][:, None])
    return float(B * (best @ pop.pmf).sum())


def oracle_delay_coded(graph, placement, pop):
    total = 0.0
    rates = rates_of(graph)
    for u in range(graph.n_users):
        inv_bs = 1.0 / graph.bs_rate[u]
        nbrs = np.flatnonzero(rates[u] > 0)
        if nbrs.size == 0:
            total += inv_bs
            continue
        order = nbrs[np.argsort(-rates[u, nbrs], kind="stable")]
        inv_rates = 1.0 / rates[u, order]
        cum = np.clip(np.cumsum(placement.rho[:, order], axis=1), 0.0, 1.0)
        fracs = np.diff(cum, axis=1, prepend=0.0)
        per_file = fracs @ inv_rates + (1.0 - cum[:, -1]) * inv_bs
        total += float(pop.pmf @ per_file)
    return B * total


def instances(name, count=60):
    rng = hrng.stream(41, name)
    for _ in range(count):
        graph = random_graph(rng)
        pop = zipf_model(float(rng.uniform(0.0, 1.5)), int(rng.integers(1, 7)))
        yield rng, graph, pop


@pytest.mark.parametrize("kind", ["whole-file", "fractional"])
def test_snapshot_matches_per_user_loops(kind):
    make = random_whole_files if kind == "whole-file" else random_fractions
    oracle = oracle_snapshot_uncoded if kind == "whole-file" else oracle_snapshot_coded
    seen_served = seen_bs = 0
    for k, (rng, graph, pop) in enumerate(instances(f"snapshot-{kind}")):
        placement = make(rng, pop.m, graph.n_helpers)
        out = simulate_snapshot(graph, placement, pop, B, 200.0, hrng.stream(k, "req"))
        requests = sample_requests(pop, hrng.stream(k, "req"), graph.n_users)
        served, times = oracle(graph, placement, pop, requests)

        rho = placement.rho
        collected, _ = fetch_fastest_first(graph, rho[requests - 1])
        np.testing.assert_array_equal(collected >= 1.0 - WHOLE_FILE_TOL, served)
        assert out.download_time == pytest.approx(
            oracle_finish(graph, served, times), rel=1e-12
        )
        assert out.helper_served_fraction == served.mean()
        seen_served += int(served.sum())
        seen_bs += int((~served).sum())
    assert seen_served > 0 and seen_bs > 0


@pytest.mark.parametrize("kind", ["whole-file", "fractional"])
def test_expected_delay_matches_per_user_loops(kind):
    for rng, graph, pop in instances(f"delay-{kind}"):
        if kind == "whole-file":
            uncoded = random_whole_files(rng, pop.m, graph.n_helpers)
            assert evaluate_delay(uncoded, graph, pop, B) == pytest.approx(
                oracle_delay_uncoded(graph, uncoded, pop), rel=1e-12
            )
            coded = Placement(uncoded.rho.astype(float), uncoded.capacities)
        else:
            coded = random_fractions(rng, pop.m, graph.n_helpers)
        assert evaluate_coded_delay(coded, graph, pop, B) == pytest.approx(
            oracle_delay_coded(graph, coded, pop), rel=1e-12
        )


def test_remainder_rules_differ_on_slow_holders():
    # One user whose only helper holds the file but is slower than the base
    # station: the whole-file rule downloads from the station, the fractional
    # rule takes the helper's share as stored.
    graph = graph_from_rates(np.array([[1e6]]), np.array([4e6]))
    pop = zipf_model(0.0, 1)
    whole = whole_files(({1},), (1,), 1)
    assert evaluate_delay(whole, graph, pop, B) == pytest.approx(B / 4e6, rel=1e-15)
    coded = Placement(whole.rho.astype(float), whole.capacities)
    assert evaluate_coded_delay(coded, graph, pop, B) == pytest.approx(
        B / 1e6, rel=1e-15
    )
    half = Placement(rho=np.array([[0.5]]), capacities=(1,))
    assert evaluate_coded_delay(half, graph, pop, B) == pytest.approx(
        B * (0.5 / 1e6 + 0.5 / 4e6), rel=1e-15
    )


def test_kernel_shapes_and_unlinked_users():
    rates = np.array([[3e7, 0.0, 1e7], [0.0, 0.0, 0.0]])
    graph = graph_from_rates(rates, np.array([2e6, 2e6]))
    per_user = np.array([[0.5, 1.0, 0.75], [1.0, 1.0, 1.0]])
    collected, seconds = fetch_fastest_first(graph, per_user)
    np.testing.assert_array_equal(collected, [1.0, 0.0])
    assert seconds == pytest.approx([0.5 / 3e7 + 0.5 / 1e7, 0.0], rel=1e-15)
    # A row per file, scored one file at a time as every user's request.
    rho = np.array([[0.2, 1.0, 0.3], [1.0, 0.0, 0.0]])
    per_file = [fetch_fastest_first(graph, np.broadcast_to(row, (2, 3))) for row in rho]
    for collected, seconds in per_file:
        assert collected.shape == seconds.shape == (2,)
    collected = np.column_stack([c for c, _ in per_file])
    np.testing.assert_allclose(collected, [[0.5, 1.0], [0.0, 0.0]], rtol=1e-15)


def left_to_right_seconds(rates, fractions):
    """Helper seconds per bit of one user, added one link at a time."""
    linked = np.flatnonzero(rates > 0)
    order = linked[np.argsort(-rates[linked], kind="stable")]
    cum = took = total = 0.0
    for h in order:
        cum += fractions[h]
        now = min(cum, 1.0)
        total += (now - took) * (1.0 / rates[h])
        took = now
    return total


def test_helper_seconds_add_left_to_right_whatever_the_padding():
    # Fractional rows over 8 to 12 links, padded to 12 and then widened by
    # unlinked helpers: a pairwise sum would move some rows by an ulp.
    rng = hrng.stream(43, "left-to-right")
    n, degree = 400, 12
    links = rng.integers(8, degree + 1, n)
    rates = rng.uniform(1e6, 3e7, (n, degree))
    rates[np.arange(degree) >= links[:, None]] = 0.0
    fractions = rng.uniform(0.01, 0.12, (n, degree))
    want = [left_to_right_seconds(rates[u], fractions[u]) for u in range(n)]
    bs = np.full(n, 2e6)
    for extra in (0, 3):
        wide = np.hstack([rates, np.zeros((n, extra))])
        graph = graph_from_rates(wide, bs)
        padded = np.hstack([fractions, rng.uniform(0.0, 0.5, (n, extra))])
        _, seconds = fetch_fastest_first(graph, padded)
        assert seconds.tolist() == want
