"""D2D references the tests check the vectorized model against.

`helpercache.d2d` computes cluster activity on whole arrays of users and
replications; the one-cluster forms spell the caching rules and the activity
rule out user by user.  `draw_block` draws one block of replications in the
library's stream layout (positions as one (2, users) draw, then requests,
random caches on the call's child stream), and `simulate_blocks` runs
blocks of max(1, `d2d._BLOCK_USERS` // n) replications like
`d2d._monte_carlo`, each scored by an oracle: `score_chunk`, the
former scorer, which gathers int64 ranks and keys for every grid side, or
`chunk_counts_by_gid`, the former kernel, which sorts users by
`rep * K + cell`.  `sweep_row` is the point-by-point sweep the grouped
sweeps replaced: every Monte Carlo point opens its own stream and redraws it.
`random_caches_lockstep` fills random caches by rescanning every row for the
incomplete ones each round, and `expected_active_by_k` sums the analytic
model one occupancy at a time.  `score_random_two_sorts` is the former
random-cache scorer, which sorted cache keys and request keys apart, and
`scaling_check_by_side` the former analytic scaling table, one
`expected_active_analytic` call per side.
"""

import math

import numpy as np

from helpercache import d2d
from helpercache.d2d import (
    RANDOM_CACHE_MAX_DRAWS,
    ClusterStats,
    D2DScenario,
    D2DSweepRow,
    ScalingRow,
    _binomial_pmf,
    _fill_draws,
    _random_caches,
    expected_active_analytic,
    grid_side,
)
from helpercache.errors import InvalidParameterError
from helpercache.popularity import (
    PopularityModel,
    catalog_size,
    sample_requests,
    zipf_model,
)
from helpercache.rng import stream


def cvc_deterministic(k: int, M: int, m: int) -> tuple[frozenset[int], ...]:
    """Caches of k co-located users: user j holds ranks (j-1)M+1 .. min(jM, m).

    The union is the min(kM, m) most popular files with no repetition; users
    past the catalog end hold nothing.
    """
    if k < 0:
        raise InvalidParameterError("k must be >= 0")
    if M < 0:
        raise InvalidParameterError("M must be >= 0")
    if m < 1:
        raise InvalidParameterError("m must be >= 1")
    caches = []
    for j in range(1, k + 1):
        lo = min((j - 1) * M, m)
        hi = min(j * M, m)
        caches.append(frozenset(range(lo + 1, hi + 1)))
    return tuple(caches)


def cache_random(
    M: int, gamma1: float, m: int, rng: np.random.Generator
) -> frozenset[int]:
    """One user's random cache: M distinct ranks, Zipf(gamma1)-weighted."""
    return frozenset(int(v) for v in _random_caches(1, M, zipf_model(gamma1, m), rng)[0])


def random_caches_lockstep(
    count: int, M: int, gamma1: float, m: int, rng: np.random.Generator
) -> np.ndarray:
    """(count, M) random caches, one candidate per incomplete row per round;
    each round finds the incomplete rows by scanning all of them."""
    if M > m:
        raise InvalidParameterError("random caches need M <= m")
    out = np.zeros((count, M), dtype=np.min_scalar_type(m))
    if M == 0 or count == 0:
        return out
    if M == m:
        return np.tile(np.arange(1, m + 1, dtype=out.dtype), (count, 1))
    model = zipf_model(gamma1, m)
    draws = _fill_draws(M, model.pmf)
    if draws > RANDOM_CACHE_MAX_DRAWS:
        raise InvalidParameterError("random-zipf caches may need too many draws")
    filled = np.zeros(count, dtype=np.int64)
    while True:
        rows = np.flatnonzero(filled < M)
        if rows.size == 0:
            return out
        draws = sample_requests(model, rng, rows.size)
        fresh = ~(out[rows] == draws[:, None]).any(axis=1)
        hit = rows[fresh]
        out[hit, filled[hit]] = draws[fresh]
        filled[hit] += 1


def expected_active_by_k(scenario, pop) -> ClusterStats:
    """The analytic model's expectation, one all-miss product per occupancy."""
    side, _ = grid_side(scenario.r, exact=True)
    K = side * side
    n, M, m = scenario.n, scenario.M, scenario.m
    if M == 0 or n < 2:
        return ClusterStats(expected_active=0.0, stderr=0.0, K=K)
    cdf0 = np.concatenate([[0.0], pop.cdf])
    ks = np.arange(2, n + 1)
    pk = _binomial_pmf(n, 1.0 / K, ks)
    kept = pk >= 1e-18
    total = 0.0
    for k, weight in zip(ks[kept].tolist(), pk[kept].tolist()):
        head = cdf0[min(k * M, m)]
        j = np.arange(1, k + 1)
        lo = np.minimum((j - 1) * M, m)
        hi = np.minimum(j * M, m)
        q = head - (cdf0[hi] - cdf0[lo])
        total += weight * (1.0 - float(np.prod(1.0 - q)))
    return ClusterStats(expected_active=K * total, stderr=0.0, K=K)


def cluster_active(caches, requests) -> bool:
    """True iff some user's request is held by a different user in the cluster."""
    if len(caches) != len(requests):
        raise InvalidParameterError("caches and requests must have equal length")
    for i, req in enumerate(requests):
        for j, cache in enumerate(caches):
            if j != i and req in cache:
                return True
    return False


def chunk_counts_by_gid(scenario, pos, requests, caches, reps, side):
    """Active clusters per replication of one block's draws, grouping users
    with a stable sort of `rep * K + cell`."""
    n, m, M = scenario.n, scenario.m, min(scenario.M, scenario.m)
    K = side * side
    cx = np.minimum((pos[:, 0] * side).astype(np.int64), side - 1)
    cy = np.minimum((pos[:, 1] * side).astype(np.int64), side - 1)
    gid = np.repeat(np.arange(reps, dtype=np.int64) * K, n) + cx * side + cy

    order = np.argsort(gid, kind="stable")
    g = gid[order]
    starts = np.flatnonzero(np.concatenate([[True], g[1:] != g[:-1]]))
    sizes = np.diff(np.append(starts, g.size))
    req = requests[order].astype(np.int64)
    if scenario.strategy == "deterministic":
        j = np.arange(g.size) - np.repeat(starts, sizes) + 1
        k = np.repeat(sizes, sizes)
        head = np.minimum(k * M, m)
        own_lo = np.minimum((j - 1) * M, m)
        own_hi = np.minimum(j * M, m)
        active = (req <= head) & ~((req > own_lo) & (req <= own_hi))
    elif M == 0:
        active = np.zeros(g.size, dtype=bool)
    else:
        keys = np.sort((gid[:, None] * (m + 1) + caches).ravel())
        req_keys = g * (m + 1) + req
        holders = np.searchsorted(keys, req_keys, side="right") - np.searchsorted(
            keys, req_keys, side="left"
        )
        own = (caches[order] == req[:, None]).any(axis=1)
        active = (holders - own.astype(np.int64)) >= 1
    group_active = np.logical_or.reduceat(active, starts)
    rep_of_group = g[starts] // K
    return np.bincount(rep_of_group[group_active], minlength=reps).astype(float)


def draw_block(
    scenario: D2DScenario,
    pop: PopularityModel,
    rng: np.random.Generator,
    cache_rng: np.random.Generator | None,
    reps: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """One block's draws: positions (users x 2) from one (2, users) draw of
    `rng`, then one request per user from `rng`, and for random caches the
    users' caches from `cache_rng`.  None of them depends on r."""
    total = reps * scenario.n
    pos = rng.random((2, total)).T
    requests = sample_requests(pop, rng, total)
    caches = None
    if scenario.strategy == "random-zipf":
        model = zipf_model(scenario.gamma1, scenario.m)
        caches = _random_caches(total, scenario.M, model, cache_rng)
    return pos, requests, caches


def score_chunk(
    scenario: D2DScenario,
    pos: np.ndarray,
    requests: np.ndarray,
    caches: np.ndarray | None,
    reps: int,
    side: int,
) -> np.ndarray:
    """Active clusters per replication of one block's draws on a side x side
    cluster grid."""
    n, m = scenario.n, scenario.m
    M = min(scenario.M, m)  # caps block ends exactly, without int64 overflow
    K = side * side
    cell = np.minimum((pos[:, 0] * side).astype(np.int64), side - 1) * side
    cell += np.minimum((pos[:, 1] * side).astype(np.int64), side - 1)

    # Users arrive rep-major, so a stable sort on the cell alone orders them
    # by (cell, rep) and keeps arrival order inside each cluster; the group id
    # g = cell * reps + rep is then non-decreasing.  On keys of at most 16
    # bits numpy sorts by radix.
    order = np.argsort(cell.astype(np.min_scalar_type(K - 1)), kind="stable")
    g = cell[order] * reps + order // n
    starts = np.flatnonzero(np.concatenate([[True], g[1:] != g[:-1]]))
    req = requests[order].astype(np.int64)

    if scenario.strategy == "deterministic":
        # Rank within the cluster decides which contiguous block a user holds.
        sizes = np.diff(np.append(starts, g.size))
        j = np.arange(g.size) - np.repeat(starts, sizes) + 1
        k = np.repeat(sizes, sizes)
        head = np.minimum(k * M, m)
        own_lo = np.minimum((j - 1) * M, m)
        own_hi = np.minimum(j * M, m)
        active = (req <= head) & ~((req > own_lo) & (req <= own_hi))
    else:
        # A cache row holds distinct ranks, so the requester's own copy is at
        # most one of the cluster's copies of its request: another user holds
        # it iff the first matching key (the second, when the requester holds
        # it too) is there.  Two -1 sentinels end the keys.
        own = (caches[order] == req[:, None]).any(axis=1)
        keys = np.sort((g[:, None] * (m + 1) + caches[order]).ravel())
        req_keys = g * (m + 1) + req
        first = np.searchsorted(keys, req_keys)
        keys = np.append(keys, [-1, -1])
        active = keys[first + own] == req_keys

    group_active = np.logical_or.reduceat(active, starts)
    rep_of_group = g[starts] % reps
    return np.bincount(rep_of_group[group_active], minlength=reps).astype(float)


def simulate_blocks(scenario, pop, rng, reps, r_values, score=score_chunk):
    """`d2d._monte_carlo` for one caching model: blocks of
    max(1, d2d._BLOCK_USERS // n) replications, each drawn by `draw_block`
    and scored by `score` on every side; with M = 0 nothing is drawn."""
    sides = [grid_side(r, exact=False)[0] for r in r_values]
    counts = np.zeros((len(sides), reps))
    if scenario.M > 0:
        cache_rng = rng.spawn(1)[0] if scenario.strategy == "random-zipf" else None
        step = max(1, d2d._BLOCK_USERS // scenario.n)
        for lo in range(0, reps, step):
            take = min(step, reps - lo)
            drawn = draw_block(scenario, pop, rng, cache_rng, take)
            for row, side in zip(counts, sides):
                row[lo : lo + take] = score(scenario, *drawn, take, side)
    return [
        ClusterStats(
            expected_active=float(row.mean()),
            stderr=float(row.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0,
            K=side * side,
        )
        for row, side in zip(counts, sides)
    ]


def simulate_by_gid(scenario, pop, rng, reps):
    """Monte Carlo of one point, each block scored by `chunk_counts_by_gid`."""
    return simulate_blocks(scenario, pop, rng, reps, [scenario.r], chunk_counts_by_gid)[0]


def sweep_row(scenario, pop, reps, root_seed, mode):
    """One sweep point on its own: analytic, or a fresh `d2d-mc` stream."""
    if mode == "auto":
        analytic = scenario.strategy == "deterministic" and grid_side(
            scenario.r, exact=False
        )[1]
        mode = "analytic" if analytic else "mc"
    if mode == "analytic":
        stats = expected_active_analytic(scenario, pop)
    else:
        stats = simulate_by_gid(scenario, pop, stream(root_seed, "d2d-mc"), reps)
    return D2DSweepRow(
        r=scenario.r,
        gamma=scenario.gamma,
        gamma1=scenario.gamma1,
        mean_active=stats.expected_active,
        stderr=stats.stderr,
        K=stats.K,
        mode=mode,
    )


def score_random_two_sorts(requests, caches, own, m, rep, reps, cell, K):
    """The former `d2d._score_random`: cache keys and request keys sorted
    apart, each request key looked up by binary search among the cache keys
    behind two -1 sentinels; the own bit sits below the request key.  Users
    may come in any order, any number per replication."""
    stride = m + 1
    if 2 * reps * K * stride + 2 < 1 << 63:
        gid = rep.astype(np.int64)
        gid *= K
        gid += cell.astype(np.int64)
        groups, rep_of_group = reps * K, None
    else:
        pairs, gid = np.unique(
            np.column_stack((rep, cell)), axis=0, return_inverse=True
        )
        gid = gid.ravel()
        groups, rep_of_group = len(pairs), pairs[:, 0].astype(np.intp)
    base = gid.astype(np.int32 if 2 * groups * stride + 2 < 1 << 31 else np.int64)
    base *= stride
    total, M = caches.shape
    keys = np.empty(total * M + 2, dtype=base.dtype)
    np.add(base[:, None], caches, out=keys[:-2].reshape(total, M))
    keys[:-2].sort()
    keys[-2:] = -1
    asked = base
    asked += requests
    asked <<= 1
    asked |= own
    asked.sort()
    own = asked & 1
    asked >>= 1
    first = np.searchsorted(keys[:-2], asked)
    first += own
    held = asked[keys[first] == asked]
    held //= stride
    held = held[np.diff(held, prepend=-1) != 0]
    active_rep = held // K if rep_of_group is None else rep_of_group[held]
    return np.bincount(active_rep, minlength=reps).astype(float)


def scaling_check_by_side(gamma, n_values, M=1, scale=50.0):
    """The analytic `scaling_check` as a loop over sides, each evaluated by
    its own `expected_active_analytic` call."""
    rows = []
    for n in n_values:
        m = catalog_size(n, scale=scale)
        pop = zipf_model(gamma, m)
        best = None
        for side in range(1, int(math.ceil(2.0 * math.sqrt(n))) + 1):
            sc = D2DScenario(n=n, m=m, M=M, r=1.0 / side, gamma=gamma)
            stats = expected_active_analytic(sc, pop)
            if best is None or stats.expected_active > best[0].expected_active:
                best = (stats, side)
        stats, side = best
        rows.append(
            ScalingRow(
                n=n,
                m=m,
                r=1.0 / side,
                K=stats.K,
                mean_active=stats.expected_active,
                ratio=stats.expected_active / n,
                stderr=stats.stderr,
                mode="analytic",
            )
        )
    return rows
