"""The D2D scorer against the scorer it replaced, with `==`.

`d2d._score_chunk` scores deterministic caches by each request's cache
block and random caches by sorted request keys.  `d2d_oracles.score_chunk`
is the former scorer, which gathered int64 ranks and keys per grid side, and
`d2d_oracles.simulate_chunks` runs it chunk by chunk on the same stream as
`simulate_active_clusters`.  Every statistic must be equal.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from d2d_oracles import draw_chunk, score_chunk, simulate_chunks

from helpercache import d2d
from helpercache.d2d import D2DScenario, _draw_chunk, _score_chunk, simulate_active_clusters
from helpercache.popularity import sample_requests
from helpercache.rng import stream

# 0.3 does not tile the square and falls back to a 3 x 3 grid.
R_VALUES = [1.0, 0.5, 0.3, 0.25, 1 / 7, 0.1]

DET = D2DScenario(n=60, m=50, M=2, r=1.0, gamma=0.7)
RAND = D2DScenario(
    n=40, m=30, M=3, r=1.0, gamma=0.7, strategy="random-zipf", gamma1=0.9
)


def _assert_matches_oracle(sc, reps, r_values=R_VALUES, seed=3):
    pop = sc.popularity()
    got = simulate_active_clusters(sc, pop, stream(seed, "s"), reps, r_values=r_values)
    want = simulate_chunks(sc, pop, stream(seed, "s"), reps, r_values)
    assert got == want
    return got


@pytest.mark.parametrize(
    "sc",
    [
        *[replace(DET, M=M) for M in (0, 1, 3, DET.m, DET.m + 7)],
        *[replace(RAND, M=M) for M in (0, 1, 3, RAND.m)],
    ],
    ids=lambda sc: f"{sc.strategy}-M{sc.M}",
)
def test_cache_sizes(sc):
    got = _assert_matches_oracle(sc, reps=50)
    if sc.M == 0:
        assert all(st.expected_active == 0.0 for st in got)
    else:
        assert any(st.expected_active > 0.0 for st in got)


@pytest.mark.parametrize("sc", [DET, RAND], ids=["deterministic", "random-zipf"])
def test_single_replication(sc):
    _assert_matches_oracle(sc, reps=1)


@pytest.mark.parametrize("sc", [DET, RAND], ids=["deterministic", "random-zipf"])
def test_single_user(sc):
    got = _assert_matches_oracle(replace(sc, n=1), reps=30)
    assert all(st.expected_active == 0.0 for st in got)


@pytest.mark.parametrize("sc", [DET, RAND], ids=["deterministic", "random-zipf"])
def test_multi_chunk_runs(sc, monkeypatch):
    monkeypatch.setattr(d2d, "_CHUNK_ELEMENTS", 1000)
    _assert_matches_oracle(sc, reps=37)


@pytest.mark.parametrize("sc", [DET, RAND], ids=["deterministic", "random-zipf"])
def test_300x300_grid(sc):
    # Cell labels need 32 bits; 20000 users crowd enough clusters that a
    # wrapped 16-bit label would merge some of them.
    got = _assert_matches_oracle(replace(sc, n=20_000, M=1), reps=3, r_values=[1 / 300])
    assert got[0].K == 90_000 and got[0].expected_active > 0.0


@pytest.mark.parametrize("reps", [100, 108])
def test_random_keys_on_both_sides_of_the_int32_switch(reps):
    # Keys carry the own bit below gid * (m + 1) + rank: int32 holds them
    # at 100 replications of 100 clusters, not at 108.
    sc = D2DScenario(
        n=200, m=100_000, M=1, r=0.1, gamma=1.2, strategy="random-zipf", gamma1=1.5
    )
    fits_int32 = 2 * reps * 100 * (sc.m + 1) + 2 < 2**31
    assert fits_int32 == (reps == 100)
    got = _assert_matches_oracle(sc, reps=reps, r_values=[0.1])
    assert got[0].expected_active > 1.0


@pytest.mark.parametrize("sc", [DET, RAND], ids=["deterministic", "random-zipf"])
def test_very_fine_grids_group_users_like_a_coarse_one(sc):
    # Users placed on a 4 x 4 lattice share a cell on every grid of side
    # 4 * 2^k and more, so each side must score the chunk alike: 2^20 needs
    # 64-bit cells, 2^31 random keys past int64, and 10^15 more than 2^64
    # cells.
    sc = replace(sc, n=30)
    pop = sc.popularity()
    reps = 20
    chunk = _draw_chunk(sc, pop, stream(6, "lattice"), reps)
    pos, requests, caches, own = draw_chunk(sc, pop, stream(6, "lattice"), reps)
    pos = (np.floor(pos * 4) + 0.5) / 4
    chunk = chunk._replace(x=pos[:, 0].copy(), y=pos[:, 1].copy())
    want = score_chunk(sc, pos, requests, caches, own, reps, 4)
    assert want.sum() > 0
    for side in (4, 2**20, 2**31, 10**15):
        np.testing.assert_array_equal(_score_chunk(sc, chunk, reps, side), want)


def test_deterministic_scoring_memory():
    # sweep-r's default chunk: 500 users x 1000 replications scored on three
    # grids.  The former scorer peaked at 63.5 MB here, 12 MB of it draws.
    sc = D2DScenario(n=500, m=1000, M=1, r=0.1, gamma=0.6)
    pop = sc.popularity()
    sample_requests(pop, stream(1, "warm"), 1)  # the sampler's table stays untraced
    tracemalloc.start()
    try:
        chunk = _draw_chunk(sc, pop, stream(0, "memory"), 1000)
        for side in (1, 10, 50):
            _score_chunk(sc, chunk, 1000, side)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
