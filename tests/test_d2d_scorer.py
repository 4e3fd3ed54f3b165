"""The D2D scorer against the scorers it replaced, with `==`.

`d2d._monte_carlo` draws and scores blocks of replications:
deterministic caches by each request's cache block, random caches by sorted
request keys.  `d2d_oracles.simulate_blocks` draws the same blocks in the
same stream layout and scores each with `d2d_oracles.score_chunk`, the
former scorer, which gathered int64 ranks and keys per grid side.  Every
statistic must be equal, whichever way block edges fall.

`d2d._score_random` sorts cache and request keys in one array;
`d2d_oracles.score_random_two_sorts`, the scorer it replaced, sorted them
apart and searched one in the other.  Both are run on the same blocks, down
to groups in which two or three users ask for one rank.
"""

import itertools
import tracemalloc
from dataclasses import replace

import d2d_oracles
import numpy as np
import pytest
from d2d_oracles import cluster_active, score_random_two_sorts, simulate_blocks

from helpercache import d2d
from helpercache.d2d import (
    D2DScenario,
    _cells,
    _draw_block,
    _random_caches,
    _score_random,
    simulate_active_clusters,
)
from helpercache.popularity import sample_requests, zipf_model
from helpercache.rng import stream

# 0.3 does not tile the square and falls back to a 3 x 3 grid.
R_VALUES = [1.0, 0.5, 0.3, 0.25, 1 / 7, 0.1]

DET = D2DScenario(n=60, m=50, M=2, r=1.0, gamma=0.7)
RAND = D2DScenario(
    n=40, m=30, M=3, r=1.0, gamma=0.7, strategy="random-zipf", gamma1=0.9
)


def _assert_matches_oracle(sc, reps, r_values=R_VALUES, seed=3):
    pop = sc.popularity()
    (got,) = d2d._monte_carlo(sc, pop, stream(seed, "s"), reps, r_values, [sc.gamma1])
    want = simulate_blocks(sc, pop, stream(seed, "s"), reps, r_values)
    assert got == want
    return got


@pytest.mark.parametrize(
    "sc",
    [
        *[replace(DET, M=M) for M in (0, 1, 3, DET.m, DET.m + 7)],
        *[replace(RAND, M=M) for M in (0, 1, 3, RAND.m - 1, RAND.m)],
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
def test_300x300_grid(sc):
    # Cell labels need 32 bits; 20000 users crowd enough clusters that a
    # wrapped 16-bit label would merge some of them.
    got = _assert_matches_oracle(replace(sc, n=20_000, M=1), reps=3, r_values=[1 / 300])
    assert got[0].K == 90_000 and got[0].expected_active > 0.0


@pytest.mark.parametrize("block_users", [130, 700])
@pytest.mark.parametrize(
    "sc",
    [
        *[replace(DET, M=M) for M in (0, DET.M, DET.m + 7)],
        *[replace(RAND, M=M) for M in (0, RAND.M, RAND.m)],
    ],
    ids=lambda sc: f"{sc.strategy}-M{sc.M}",
)
def test_replication_blocks_score_like_whole_chunks(sc, block_users, monkeypatch):
    # 53 replications of 60 (40) users: blocks of 2 (3) replications at 130
    # users and of 11 (17) at 700, each time with a short last block.
    monkeypatch.setattr(d2d, "_BLOCK_USERS", block_users)
    _assert_matches_oracle(sc, reps=53)


@pytest.mark.parametrize("sc", [DET, RAND], ids=["deterministic", "random-zipf"])
def test_module_blocks_with_a_short_last_block(sc):
    step = d2d._BLOCK_USERS // sc.n
    assert step > 1
    _assert_matches_oracle(sc, reps=2 * step + 7, r_values=[1.0, 0.3, 0.1])


@pytest.mark.parametrize("sc", [DET, RAND], ids=["deterministic", "random-zipf"])
def test_populations_past_a_block_score_one_replication_at_a_time(sc):
    sc = replace(sc, n=40_000)
    assert d2d._BLOCK_USERS // sc.n == 0
    got = _assert_matches_oracle(sc, reps=3, r_values=[1.0, 0.3, 0.01])
    assert got[-1].expected_active > 0.0


@pytest.mark.parametrize("sc", [DET, RAND], ids=["deterministic", "random-zipf"])
def test_very_fine_grids_in_small_blocks(sc, monkeypatch):
    # Blocks of 3 replications: past 2^64 cells each block labels its own
    # occupied cells, and past int64 keys (side 2^31) numbers its own groups.
    monkeypatch.setattr(d2d, "_BLOCK_USERS", 90)
    _assert_lattice_scores_alike(sc, monkeypatch)


@pytest.mark.parametrize("reps", [53, 54])
def test_random_keys_on_both_sides_of_the_int32_switch(reps):
    # Keys carry two tag bits below gid * (m + 1) + rank: int32 holds them
    # at 53 replications of 100 clusters, not at 54.
    sc = D2DScenario(
        n=200, m=100_000, M=1, r=0.1, gamma=1.2, strategy="random-zipf", gamma1=1.5
    )
    fits_int32 = 4 * reps * 100 * (sc.m + 1) < 2**31
    assert fits_int32 == (reps == 53)
    got = _assert_matches_oracle(sc, reps=reps, r_values=[0.1])
    assert got[0].expected_active > 1.0


@pytest.mark.parametrize("sc", [DET, RAND], ids=["deterministic", "random-zipf"])
def test_very_fine_grids_group_users_like_a_coarse_one(sc, monkeypatch):
    _assert_lattice_scores_alike(sc, monkeypatch)


def _on_lattice(v):
    return (np.floor(v * 4) + 0.5) / 4


def _assert_lattice_scores_alike(sc, monkeypatch):
    # Users placed on a 4 x 4 lattice share a cell on every grid of side
    # 4 * 2^k and more, so each side must score the draws alike: 2^20 needs
    # 64-bit cells, 2^31 random keys past int64, and 10^15 more than 2^64
    # cells.
    draw, oracle_draw = d2d._draw_block, d2d_oracles.draw_block

    def lattice_draw(*args):
        x, y, requests = draw(*args)
        return _on_lattice(x), _on_lattice(y), requests

    def lattice_oracle_draw(*args):
        pos, requests, caches = oracle_draw(*args)
        return _on_lattice(pos), requests, caches

    monkeypatch.setattr(d2d, "_draw_block", lattice_draw)
    monkeypatch.setattr(d2d_oracles, "draw_block", lattice_oracle_draw)
    sc = replace(sc, n=30)
    pop = sc.popularity()
    (want,) = simulate_blocks(sc, pop, stream(6, "lattice"), 20, [1 / 4])
    assert want.expected_active > 0
    sides = (4, 2**20, 2**31, 10**15)
    (got,) = d2d._monte_carlo(
        sc, pop, stream(6, "lattice"), 20, [1 / side for side in sides], [sc.gamma1]
    )
    assert [st.K for st in got] == [side * side for side in sides]
    for st in got:
        assert (st.expected_active, st.stderr) == (want.expected_active, want.stderr)


def test_deterministic_scoring_memory():
    # sweep-r's default run: 500 users x 1000 replications drawn and scored
    # on three grids.  Drawn and scored as one chunk, it peaked at 29.8 MB
    # here, and at 63.5 MB with the former scorer; a chunk scored in blocks
    # took 10.3 MB, 8 MB of it the positions.  Drawn block by block, the run
    # takes 1.1 MB.
    sc = D2DScenario(n=500, m=1000, M=1, r=0.1, gamma=0.6)
    pop = sc.popularity()
    sample_requests(pop, stream(1, "warm"), 1)  # the sampler's table stays untraced
    tracemalloc.start()
    try:
        d2d._monte_carlo(sc, pop, stream(0, "memory"), 1000, [1.0, 0.1, 0.02], [None])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def _first_block(sc, rng, reps):
    """The positions, requests, random caches and own-copy flags of a call's
    first block of `reps` replications."""
    x, y, requests = _draw_block(sc.popularity(), rng, reps * sc.n)
    model = zipf_model(sc.gamma1, sc.m)
    caches = _random_caches(reps * sc.n, sc.M, model, rng.spawn(1)[0])
    own = (caches == requests[:, None]).any(axis=1)
    return x, y, requests, caches, own


def _groups_block(caches, requests, m, K):
    """`_score_random`'s arguments for groups over m files, group g holding
    the users of row g of `caches` (users x M ranks) and `requests`, placed
    at replication g // K, cell g % K.  The groups fill whole replications,
    so that the users are rep-major, the same number per replication."""
    count, n, M = caches.shape
    assert count % K == 0
    caches = caches.reshape(count * n, M).astype(np.uint8)
    requests = requests.reshape(-1).astype(np.uint8)
    g = np.repeat(np.arange(count), n)
    own = (caches == requests[:, None]).any(axis=1)
    rep = (g // K).astype(np.uint32)
    cell = (g % K).astype(np.min_scalar_type(K - 1))
    return requests, caches, own, m, rep, count // K, cell, K


def _brute_force(caches, requests, K, reps):
    active = np.zeros(reps)
    for g, (rows, asked) in enumerate(zip(caches, requests)):
        caches_of = [set(row) for row in rows.tolist()]
        active[g // K] += cluster_active(caches_of, asked.tolist())
    return active


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("M", [1, 2])
@pytest.mark.parametrize("K", [1, 7])
def test_every_small_group_scores_like_the_two_sort_scorer(n, M, K):
    # Every group of n users over a 3-file catalog: each user's cache is one
    # of the M-subsets (M = m - 1 at M = 2) and each request any rank, so two
    # or three users ask for one rank with every mix of own copies.
    m = 3
    subsets = list(itertools.combinations(range(1, m + 1), M))
    rows = np.array(list(itertools.product(subsets, repeat=n)))
    asks = np.array(list(itertools.product(range(1, m + 1), repeat=n)))
    caches = np.repeat(rows, len(asks), axis=0)
    requests = np.tile(asks, (len(rows), 1))
    # Inactive groups fill the last replication: every user holds ranks
    # 1..M and asks for rank m.
    pad = -len(caches) % K
    caches = np.concatenate([caches, np.tile(np.arange(1, M + 1), (pad, n, 1))])
    requests = np.concatenate([requests, np.full((pad, n), m)])
    args = _groups_block(caches, requests, m, K)
    got = _score_random(*args)
    assert np.array_equal(got, score_random_two_sorts(*args))
    assert np.array_equal(got, _brute_force(caches, requests, K, args[5]))
    # The own bits of two requesters of one rank: (0, 0), (0, 1) and (1, 1).
    own = args[2].reshape(-1, n)
    same = requests[:, 0] == requests[:, 1]
    pairs = {(a, b) for a, b in own[same, :2].astype(int).tolist()}
    assert pairs >= {(0, 0), (0, 1), (1, 1)}


@pytest.mark.parametrize(
    "rep1_caches,rep1_requests",
    [([[4], [5]], [3, 5]), ([[3], [5]], [3, 4])],
    ids=["request", "own-copy"],
)
def test_keys_at_a_replication_edge(rep1_caches, rep1_requests):
    # Two replications of two users in one cell, n users each, so each
    # replication's keys are sorted in a row of their own.  Replication 0
    # ends with a cache key of rank 3, and replication 1 starts with a
    # request of rank 3, or with its requester's own copy of it, so the
    # request's lookup reads replication 0's last key.  Neither replication
    # is active.
    caches = np.array([[[3], [2]], rep1_caches])
    requests = np.array([[1, 1], rep1_requests])
    ranks_of = [np.concatenate((c.ravel(), r)) for c, r in zip(caches, requests)]
    assert ranks_of[0].max() == 3 == ranks_of[1].min()
    assert 3 in caches[0] and 3 not in requests[0]
    holders = [u for u, row in enumerate(caches[1]) if 3 in row]
    assert holders in ([], [requests[1].tolist().index(3)])
    args = _groups_block(caches, requests, 5, 1)
    got = _score_random(*args)
    assert np.array_equal(got, [0.0, 0.0])
    assert np.array_equal(got, score_random_two_sorts(*args))
    assert np.array_equal(got, _brute_force(caches, requests, 1, 2))


def test_single_file_catalog_scores_groups_of_two_as_active():
    # m = 1: every user holds and asks for rank 1, so a group is active iff
    # it holds two users.  Five replications of four users in four cells
    # make groups of one to four users.
    cell = np.array(
        [[0, 1, 2, 3], [0, 0, 1, 2], [3, 1, 3, 3], [1, 2, 1, 2], [0, 0, 0, 0]],
        dtype=np.uint8,
    )
    reps, n = cell.shape
    rep = np.repeat(np.arange(reps, dtype=np.uint8), n)
    ones = np.ones(reps * n, dtype=np.uint8)
    args = (ones, ones[:, None], ones.astype(bool), 1, rep, reps, cell.ravel(), 4)
    got = _score_random(*args)
    assert np.array_equal(got, [0.0, 1.0, 1.0, 2.0, 1.0])
    assert np.array_equal(got, score_random_two_sorts(*args))
    _assert_matches_oracle(replace(RAND, m=1, M=1), reps=20)


@pytest.mark.parametrize("side", [2**28, 2**31])
def test_numbered_groups_score_like_the_two_sort_scorer(side):
    # 4 reps K (m + 1) reaches 2^63 on both sides, so the occupied groups
    # are numbered; at 2^28 the two-sort scorer still keys them by
    # rep * K + cell, which must not change a count.
    sc = replace(RAND, n=30, m=2, M=1)
    reps = 20
    K = side * side
    assert 4 * reps * K * (sc.m + 1) >= 2**63
    assert (2 * reps * K * (sc.m + 1) + 2 < 2**63) == (side == 2**28)
    x, y, requests, caches, own = _first_block(sc, stream(6, "numbered"), reps)
    cell, K = _cells(_on_lattice(x), _on_lattice(y), side)
    rep = np.repeat(np.arange(reps, dtype=np.uint8), sc.n)
    args = (requests, caches, own, sc.m, rep, reps, cell, K)
    got = _score_random(*args)
    assert got.sum() > 0
    assert np.array_equal(got, score_random_two_sorts(*args))


def test_steep_fill_keeps_its_memory():
    # 2^19 caches of 4 ranks at gamma1 = 2, where most rows are still open
    # after round M, so the later rounds compact long arrays of open rows.
    # The fill that compacted them through boolean masks peaked at 20.68 MB
    # here (20.69 MB under pytest), and at 23.6 MB when its open rows and
    # slots were both taken before the old ones were dropped.
    model = zipf_model(2.0, 1000)
    sample_requests(model, stream(1, "warm"), 1)  # the sampler's table stays untraced
    tracemalloc.start()
    try:
        _random_caches(1 << 19, 4, model, stream(0, "memory"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20.7e6


def test_single_file_fill_keeps_only_its_caches():
    # 2^21 caches of one rank over 1000 files: 4.2 MB of caches, 8.8 MB at
    # the peak here.  The fill that allocated the slots of later rounds,
    # which M = 1 never reads, peaked at 23.1 MB.
    model = zipf_model(1.0, 1000)
    sample_requests(model, stream(1, "warm"), 1)  # the sampler's table stays untraced
    tracemalloc.start()
    try:
        caches = _random_caches(1 << 21, 1, model, stream(0, "memory"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert caches.nbytes == 1 << 22
    assert peak < 10e6


@pytest.mark.parametrize(
    "M,m,fill_bound,score_bound",
    [(1, 1000, 55e6, 1.5e6), (4, 1000, 18.5e6, 2e6), (4, 100_000, 26e6, 3.5e6)],
)
def test_random_fill_and_scoring_memory(M, m, fill_bound, score_bound):
    # 2^21 cache entries, n * M * reps, filled at once, and a run of those
    # reps drawn and scored on a 10 x 10 grid.  The fill that wrote a
    # (count, M) array through 2-D index pairs peaked at 65.3, 20.9 and
    # 28.2 MB here.  Scored as one chunk, the run took 62.9, 22.0 and
    # 38.8 MB, and with the two-sort scorer 69.2, 23.6 and 38.3 MB.  Drawn
    # and scored block by block, it peaks 0.2, 0.3 and 0.4 MB above the
    # 1.3, 1.3 and 4.2 MB that building its caching model's tables takes.
    sc = D2DScenario(
        n=500, m=m, M=M, r=0.1, gamma=0.6, strategy="random-zipf", gamma1=1.0
    )
    pop = sc.popularity()
    reps = (1 << 21) // (sc.n * M)
    sample_requests(pop, stream(1, "warm"), 1)  # the sampler's table stays untraced
    tracemalloc.start()
    try:
        model = zipf_model(1.0, m)
        sample_requests(model, stream(1, "warm"), 1)
        tables = tracemalloc.get_traced_memory()[1]  # building the caching model
    finally:
        tracemalloc.stop()
    tracemalloc.start()
    try:
        _random_caches(reps * sc.n, M, model, stream(0, "memory"))
        fill_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tracemalloc.start()
    try:
        simulate_active_clusters(sc, pop, stream(0, "memory"), reps)
        run_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fill_peak < fill_bound
    assert run_peak - tables < score_bound
