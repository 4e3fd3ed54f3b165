"""The grouped D2D sweeps against the point-by-point loop they replaced.

`sweep_r` and `sweep_gamma1` draw each Monte Carlo stream once per group of
points that differ only in r and gamma1: each block's positions and requests
are drawn once, each gamma1 fills its caches from its own copy of the child
stream, and every cluster grid is scored from those draws.
`d2d_oracles.sweep_row` evaluates one point at a time, redrawing its stream
and scoring it with the former gid-sorted kernel; every row must be equal
with `==`.
"""

import logging
from dataclasses import replace

import numpy as np
import pytest
from d2d_oracles import chunk_counts_by_gid, draw_block, simulate_by_gid, sweep_row

from helpercache import d2d
from helpercache.d2d import (
    D2DScenario,
    _cells,
    _draw_block,
    _score_block,
    _score_random,
    simulate_active_clusters,
    sweep_gamma1,
    sweep_r,
)
from helpercache.errors import InvalidParameterError
from helpercache.rng import stream

R_VALUES = [1.0, 0.5, 0.25, 0.2, 1 / 7, 0.1]


def _det(**kw):
    base = dict(n=60, m=50, M=2, r=1.0, gamma=0.7)
    base.update(kw)
    return D2DScenario(**base)


def _rand(**kw):
    base = dict(n=40, m=30, M=3, r=1.0, gamma=0.7, strategy="random-zipf", gamma1=0.9)
    base.update(kw)
    return D2DScenario(**base)


def _oracle_r(scenario, r_values, pop, reps, root_seed, mode):
    return [
        sweep_row(replace(scenario, r=float(r)), pop, reps, root_seed, mode)
        for r in r_values
    ]


def _oracle_gamma1(scenario, gamma1_values, r_values, pop, reps, root_seed):
    return [
        sweep_row(
            replace(scenario, r=float(r), gamma1=float(g1)), pop, reps, root_seed, "mc"
        )
        for r in r_values
        for g1 in gamma1_values
    ]


@pytest.mark.parametrize("make", [_det, _rand], ids=["deterministic", "random-zipf"])
@pytest.mark.parametrize("seed", [0, 3])
def test_sweep_r_equals_the_point_loop(make, seed):
    sc = make()
    pop = sc.popularity()
    got = sweep_r(sc, R_VALUES, pop, reps=150, root_seed=seed, mode="mc")
    assert got == _oracle_r(sc, R_VALUES, pop, 150, seed, "mc")
    assert {row.mode for row in got} == {"mc"}


@pytest.mark.parametrize("make", [_det, _rand], ids=["deterministic", "random-zipf"])
def test_auto_mode_mixes_analytic_and_shared_draws(make, caplog):
    r_values = [0.5, 0.3, 0.25, 0.07, 1 / 3]
    sc = make()
    pop = sc.popularity()
    with caplog.at_level(logging.WARNING, logger="helpercache.d2d"):
        got = sweep_r(sc, r_values, pop, reps=90, root_seed=11, mode="auto")
    warned = [rec.getMessage() for rec in caplog.records if "does not tile" in rec.getMessage()]
    if sc.strategy == "deterministic":
        assert [row.mode for row in got] == ["analytic", "mc", "analytic", "mc", "analytic"]
    else:
        assert {row.mode for row in got} == {"mc"}
    assert len(warned) == 2
    assert "r=0.3 " in warned[0] and "r=0.07 " in warned[1]
    assert got == _oracle_r(sc, r_values, pop, 90, 11, "auto")


def test_sweep_gamma1_equals_the_point_loop():
    sc = _rand()
    pop = sc.popularity()
    gamma1_values, r_values = [0.0, 0.6, 1.5], [0.2, 0.1]
    got = sweep_gamma1(sc, gamma1_values, r_values, pop, reps=80, root_seed=17)
    assert got == _oracle_gamma1(sc, gamma1_values, r_values, pop, 80, 17)
    assert [(row.r, row.gamma1) for row in got] == [
        (r, g1) for r in r_values for g1 in gamma1_values
    ]


@pytest.mark.parametrize("M", [4, 30, 0], ids=["M4", "full", "empty"])
def test_multi_block_sweep_gamma1_equals_the_point_loop(M, monkeypatch):
    # 130 // 40 = 3 replications per block: eight full blocks and a short
    # one, each filled once per gamma1; M = m copies the catalog and M = 0
    # draws nothing.
    monkeypatch.setattr(d2d, "_BLOCK_USERS", 130)
    sc = _rand(M=M)
    pop = sc.popularity()
    gamma1_values, r_values = [0.0, 1.5, 2.0], [0.5, 0.2]
    got = sweep_gamma1(sc, gamma1_values, r_values, pop, reps=25, root_seed=8)
    assert got == _oracle_gamma1(sc, gamma1_values, r_values, pop, 25, 8)
    if M == 0:
        assert all(row.mean_active == 0.0 for row in got)


@pytest.mark.parametrize("make", [_det, _rand], ids=["deterministic", "random-zipf"])
def test_multi_chunk_runs(make, monkeypatch):
    monkeypatch.setattr(d2d, "_BLOCK_USERS", 130)
    sc = make()
    pop = sc.popularity()
    # 130 // n replications per block: several full blocks and a short one
    got = sweep_r(sc, [0.5, 0.2, 1 / 9], pop, reps=37, root_seed=5, mode="mc")
    assert got == _oracle_r(sc, [0.5, 0.2, 1 / 9], pop, 37, 5, "mc")


@pytest.mark.parametrize(
    "sc", [_det(M=0), _rand(M=0), _det(), _rand()], ids=["det-M0", "rand-M0", "det", "rand"]
)
@pytest.mark.parametrize("reps", [1, 25])
def test_empty_caches_and_single_replication(sc, reps):
    pop = sc.popularity()
    got = sweep_r(sc, [0.5, 0.25], pop, reps=reps, root_seed=2, mode="mc")
    assert got == _oracle_r(sc, [0.5, 0.25], pop, reps, 2, "mc")
    if sc.M == 0:
        assert all(row.mean_active == 0.0 for row in got)
    if reps == 1:
        assert all(row.stderr == 0.0 for row in got)


def test_requests_are_drawn_once_per_group_and_chunk(monkeypatch):
    # A chunk is a block of replications, drawn at once.  A whole gamma1
    # sweep is one group, so each block's requests are drawn once, not once
    # per gamma1.
    monkeypatch.setattr(d2d, "_BLOCK_USERS", 300)
    sc = _rand()
    pop = sc.popularity()
    request_calls = []
    real = d2d.sample_requests

    def counting(model, rng, size):
        if model is pop:
            request_calls.append(size)
        return real(model, rng, size)

    monkeypatch.setattr(d2d, "sample_requests", counting)
    reps, per_block = 25, 300 // sc.n
    blocks = -(-reps // per_block)
    sweep_gamma1(sc, [0.3, 1.1], [0.5, 0.25, 0.2], pop, reps=reps, root_seed=1)
    assert len(request_calls) == blocks
    assert sum(request_calls) == reps * sc.n


def test_gamma1_points_share_positions_and_requests(monkeypatch):
    # Common random numbers: every gamma1 of a block is scored on the very
    # arrays of that block's requests, replications and cells, the cells
    # built from its positions; only the caches differ.
    monkeypatch.setattr(d2d, "_BLOCK_USERS", 300)
    scored = []
    real = d2d._score_random

    def spy(requests, caches, own, m, rep, reps, cell, K):
        scored.append((requests, caches, rep, cell))
        return real(requests, caches, own, m, rep, reps, cell, K)

    monkeypatch.setattr(d2d, "_score_random", spy)
    sc = _rand(M=4)
    gamma1_values = [0.0, 0.75, 2.0]
    sweep_gamma1(sc, gamma1_values, [0.2], sc.popularity(), reps=25, root_seed=3)
    blocks, g = -(-25 // (300 // sc.n)), len(gamma1_values)
    assert len(scored) == blocks * g
    for b in range(blocks):
        (requests, caches, rep, cell), *others = scored[g * b : g * (b + 1)]
        for other_requests, other_caches, other_rep, other_cell in others:
            assert other_requests is requests
            assert other_rep is rep and other_cell is cell
            assert not np.array_equal(other_caches, caches)


def test_sweeps_reach_the_monte_carlo_once_per_group(monkeypatch):
    # Callers that wrap d2d._monte_carlo see the scenario first and reps
    # fourth, once per group of points that share a draw: a whole gamma1
    # sweep is one group, with each distinct r and gamma1 once.
    seen = []
    real = d2d._monte_carlo

    def spy(*args):
        seen.append((args[3], tuple(args[4]), tuple(args[5])))
        return real(*args)

    monkeypatch.setattr(d2d, "_monte_carlo", spy)
    sc = _rand()
    sweep_gamma1(sc, [0.3, 1.1], [0.5, 0.25], sc.popularity(), reps=20, root_seed=1)
    assert seen == [(20, (0.5, 0.25), (0.3, 1.1))]
    seen.clear()
    sweep_r(sc, [0.5, 0.25, 0.5], sc.popularity(), reps=20, root_seed=1, mode="mc")
    assert seen == [(20, (0.5, 0.25), (0.9,))]


def test_r_values_score_one_draw_like_separate_calls():
    sc = _rand()
    pop = sc.popularity()
    r_values = [0.5, 0.3, 0.125]
    (grouped,) = d2d._monte_carlo(sc, pop, stream(4, "g"), 60, r_values, [sc.gamma1])
    single = [
        simulate_active_clusters(_rand(r=r), pop, stream(4, "g"), 60) for r in r_values
    ]
    assert grouped == single
    with pytest.raises(InvalidParameterError):
        d2d._monte_carlo(sc, pop, stream(4, "g"), 60, [0.5, 0.0], [sc.gamma1])


def test_run_guard_fires_before_any_draw(monkeypatch):
    drawn = []
    monkeypatch.setattr(d2d, "_draw_block", lambda *a: drawn.append(a))
    monkeypatch.setattr(d2d, "_random_caches", lambda *a: drawn.append(a))
    sc = D2DScenario(
        n=500, m=1000, M=2, r=0.1, gamma=0.6, strategy="random-zipf", gamma1=13.29
    )
    with pytest.raises(InvalidParameterError, match="reps=101"):
        sweep_r(sc, [0.5, 0.1], sc.popularity(), reps=101, root_seed=0, mode="mc")
    with pytest.raises(InvalidParameterError, match="reps=101"):
        sweep_gamma1(sc, [13.29, 0.5], [0.5, 0.1], sc.popularity(), reps=101, root_seed=0)
    assert drawn == []


@pytest.mark.parametrize("make", [_det, _rand], ids=["deterministic", "random-zipf"])
def test_wide_cell_keys_match_the_gid_sort(make):
    # 300 x 300 clusters: the cell index no longer fits 16 bits, and 20000
    # users crowd enough of them that a wrapped 16-bit key would split clusters
    side = 300
    assert np.min_scalar_type(side * side - 1) == np.uint32
    sc = make(n=20_000, M=1, r=1 / side)
    pop = sc.popularity()
    rng, twin = stream(8, "wide"), stream(8, "wide")
    pos, requests, caches = draw_block(sc, pop, twin, twin.spawn(1)[0], 3)
    x, y, asked = _draw_block(pop, rng, 3 * sc.n)
    rep = np.repeat(np.arange(3, dtype=np.uint8), sc.n)
    cell, K = _cells(x, y, side)
    if caches is None:  # with M = 1 a request's cache block is its rank
        got = _score_block(asked, rep, 3, cell, sc.n)
    else:
        own = (caches == asked[:, None]).any(axis=1)
        got = _score_random(asked, caches, own, sc.m, rep, 3, cell, K)
    want = chunk_counts_by_gid(sc, pos, requests, caches, 3, side)
    np.testing.assert_array_equal(got, want)
    assert got.sum() > 0
    assert simulate_active_clusters(sc, pop, stream(9, "wide"), 4) == simulate_by_gid(
        sc, pop, stream(9, "wide"), 4
    )
