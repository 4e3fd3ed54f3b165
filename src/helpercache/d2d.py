"""Device-to-device caching in a unit-square cell tiled by square clusters.

Users land uniformly in the cell; each cluster of side r is a potential D2D
collaboration domain.  A cluster is active when some user's request sits in
another same-cluster user's cache, whether or not the requester holds it too;
a request that only the requester's own cache holds does not activate the
cluster.  The module computes the expected number of active clusters
analytically for the deterministic caching rule and by Monte Carlo for both
caching rules, plus the collaboration-radius and caching-exponent sweeps and
scaling tables.

The analytic expression is an independent derivation (expectation over the
binomial cluster occupancy of one minus the all-miss product) and is validated
against this module's own Monte Carlo, not against published values.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError
from .popularity import PopularityModel, catalog_size, sample_requests, zipf_model
from .rng import stream

logger = logging.getLogger(__name__)

STRATEGIES = ("deterministic", "random-zipf")
TILE_TOL = 1e-9
_ANALYTIC_BLOCK = 1 << 14  # factors per all-miss product block; log-factorials per cached block
_BLOCK_USERS = 1 << 14  # users drawn and scored at once, so that temporaries stay in cache
_WINDOW = 12.0  # first occupancy window: n/K +- _WINDOW * (std + 1)
# Expected draws to fill one random cache row above which the input is refused.
RANDOM_CACHE_MAX_DRAWS = 1e4
# Priced draws to fill every random cache of one Monte Carlo run above which
# the input is refused.  A draw is compared with up to M ranks its row holds,
# so it is priced max(1, M / 16) draws.  Just under the cap, over 1000 files
# at gamma1 = 0, `simulate-d2d --mode mc --strategy random-zipf --gamma1 0`
# takes 25 s and 42 MB whole process with `--M 16 --reps 62029` (5.0e8
# draws), and 15-17 s and 74 MB with `--M 900 --reps 7` (8.0e6 draws;
# 2-core Xeon).  Unpriced, `--M 900 --reps 435` passed and took 312 s.
RANDOM_RUN_MAX_DRAWS = 5e8
# Users per cell above which a scenario is refused.  Between n = 10^6 and
# 10^7 (reps=1), a Monte Carlo run's peak memory grows by about 56 bytes per
# user (51 with random caches of M = 1), so the cap keeps a run near 0.6 GB;
# an analytic run's stays near 32 MB (38 MB for `scaling-check --n-values
# 10000000`), because it computes only the log-factorials that its occupancy
# windows read.
MAX_USERS = 10**7
# (Caching model, cluster grid, replication) triples above which a Monte
# Carlo call is refused.  A call keeps 8 bytes per triple and, for the
# statistics, 8 per replication: at the cap `simulate-d2d --n 2 --mode mc
# --reps 10000000` takes 1.6 s (2.9 s with random caches) and 200 MB
# (2-core Xeon).
MAX_SCORES = 10**7
# Users drawn by one Monte Carlo call (n * reps) above which it is refused,
# for MAX_SCORES bounds its memory but not its time.  At the cap,
# `simulate-d2d --mode mc --reps 200000` (n = 500) takes 3.6-3.7 s whole
# process, 11-13 s with random caches (--strategy random-zipf --gamma1 1
# --M 4), and `sweep-r --mode mc` over eight grids 17-18 s, in 42-53 MB
# (2-core Xeon).
# Time grows with the grids, the caching models and M.
MAX_MC_USERS = 10**8


@dataclass(frozen=True)
class D2DScenario:
    """Cluster-model inputs; the cell is the unit square, r the cluster side."""

    n: int
    m: int
    M: int
    r: float
    gamma: float
    strategy: str = "deterministic"
    gamma1: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameterError("n must be >= 1")
        if self.n > MAX_USERS:
            raise InvalidParameterError(
                f"n={self.n} users exceeds the cap of {MAX_USERS}"
            )
        if self.m < 1:
            raise InvalidParameterError("m must be >= 1")
        if self.M < 0:
            raise InvalidParameterError("M must be >= 0")
        if not (0.0 < self.r <= 1.0):
            raise InvalidParameterError("r must lie in (0, 1]")
        if not math.isfinite(1.0 / self.r):
            raise InvalidParameterError(
                f"r={self.r!r} is too small: its cluster grid, 1/r per edge, "
                "is not finite"
            )
        if not math.isfinite(self.gamma) or self.gamma < 0:
            raise InvalidParameterError("gamma must be finite and >= 0")
        if self.strategy not in STRATEGIES:
            raise InvalidParameterError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )
        if self.strategy == "random-zipf":
            if self.gamma1 is None or not math.isfinite(self.gamma1) or self.gamma1 < 0:
                raise InvalidParameterError(
                    "random-zipf strategy needs a finite gamma1 >= 0"
                )
            if self.M > self.m:
                raise InvalidParameterError("random caches need M <= m")
        elif self.gamma1 is not None:
            raise InvalidParameterError(
                "gamma1 only applies to the random-zipf strategy"
            )

    def popularity(self) -> PopularityModel:
        return zipf_model(self.gamma, self.m)


@dataclass(frozen=True)
class ClusterStats:
    expected_active: float
    stderr: float
    K: int


def grid_side(r: float, exact: bool) -> tuple[int, bool]:
    """Clusters per cell edge.  1/r must be an integer when `exact`.

    Non-tiling r in Monte Carlo mode falls back to a floor(1/r) grid (slightly
    larger clusters) with a warning.
    """
    inv = 1.0 / r
    nearest = round(inv)
    if nearest >= 1 and abs(inv - nearest) <= TILE_TOL * max(1.0, inv):
        return int(nearest), True
    if exact:
        raise InvalidParameterError(
            f"1/r must be an integer for the analytic model; got r={r!r}"
            f" (nearest valid: 1/{max(nearest, 1)})"
        )
    return max(int(math.floor(inv)), 1), False


def _fill_draws(M: int, pmf: np.ndarray) -> float:
    """Bound on the expected draws from `pmf` that fill one random cache.

    A row holding the j most popular ranks needs 1 / pmf[j:].sum() draws on
    average for its next rank, more than any other row holding j ranks; the
    bound sums that over j < M.  A full catalog (M == m) is copied, not drawn.
    """
    if M == 0 or M >= pmf.size:
        return 0.0
    # Tail sums from the pmf, not 1 - cdf, which cancels to 0 for steep gamma1.
    tails = np.cumsum(pmf[::-1])[::-1][:M]
    return float((1.0 / tails).sum())


def _cache_model(scenario: D2DScenario, reps: int) -> PopularityModel:
    """The Zipf(gamma1) model that the random caches of `reps` replications
    are drawn from.

    Fills whose expected draws (`_fill_draws`) pass RANDOM_CACHE_MAX_DRAWS
    per device, or whose priced draws pass RANDOM_RUN_MAX_DRAWS over the
    run, could run for hours, so they are refused here, before any draw.
    """
    M, gamma1 = scenario.M, scenario.gamma1
    model = zipf_model(gamma1, scenario.m)
    per_device = _fill_draws(M, model.pmf)
    draws = per_device * scenario.n * reps
    priced = draws * max(1, M / 16)
    if per_device > RANDOM_CACHE_MAX_DRAWS or priced > RANDOM_RUN_MAX_DRAWS:
        raise InvalidParameterError(
            f"random-zipf caches with gamma1={gamma1:g} and M={M} may need "
            f"{per_device:.3g} draws per device (limit {RANDOM_CACHE_MAX_DRAWS:g}), "
            f"{draws:.3g} for {scenario.n} devices over reps={reps}, priced "
            f"{priced:.3g} at max(1, M/16) each (limit {RANDOM_RUN_MAX_DRAWS:g}); "
            "lower gamma1, M or reps"
        )
    return model


def _random_caches(
    count: int, M: int, model: PopularityModel, rng: np.random.Generator
) -> np.ndarray:
    """(count, M) matrix of distinct ranks per row, drawn from `model` with
    duplicate rejection.  Rows fill in lockstep rounds, one candidate per
    incomplete row per round, drawn in row order.

    A round fills at most one column of a row, so no row is complete before
    round M: rounds 1..M read `count` uniforms each, in row order, and round t
    compares its candidates with the first t-1 columns only.  Later rounds
    draw for the incomplete rows, kept in row order as they shrink.

    The rounds fill an (M, count) array, so that each column is contiguous
    and a row's next free slot is one flat index; the result is its
    transpose.  Every round writes each candidate into its row's next free
    slot and advances the slot only where the candidate was fresh.  A
    rejected candidate equals a rank its row already holds, so comparing a
    later candidate with it changes nothing, and the row's next fresh
    candidate overwrites it; slots past it still hold 0, which is no rank.
    A full catalog (M == m) is copied, not drawn.  Ranks are held in the
    narrowest unsigned dtype that holds m.  The caller bounds the expected
    draws (`_cache_model`).
    """
    m = model.m
    if M > m:
        raise InvalidParameterError("random caches need M <= m")
    dtype = np.min_scalar_type(m)  # the dtype of sample_requests' ranks
    if M == 0 or count == 0:
        return np.zeros((count, M), dtype=dtype)
    if M == m:
        return np.tile(np.arange(1, m + 1, dtype=dtype), (count, 1))
    held = np.zeros((M, count), dtype=dtype)
    flat = held.reshape(-1)
    held[0] = sample_requests(model, rng, count)  # round 1 draws no duplicate
    if M == 1:
        return held.T
    # Flat index of each row's next free slot: column j of row i is at
    # j * count + i, so a row is complete once its index reaches M * count.
    slot = np.arange(count, 2 * count)
    for t in range(1, M):
        draws = sample_requests(model, rng, count)
        fresh = held[0] != draws
        for column in held[1:t]:
            fresh &= column != draws
        flat[slot] = draws
        slot += fresh * count
    rows = np.flatnonzero(slot < M * count)
    slot = slot.take(rows)  # kept aligned with the incomplete rows
    while rows.size:
        draws = sample_requests(model, rng, rows.size)
        fresh = held[0].take(rows) != draws
        for column in held[1:]:
            fresh &= column.take(rows) != draws
        flat[slot] = draws
        slot += fresh * count
        open_rows = np.flatnonzero(slot < M * count)
        rows = rows.take(open_rows)  # the old rows go before the slots are taken
        slot = slot.take(open_rows)
    return held.T


@functools.cache
def _log_factorial_block(b: int) -> np.ndarray:
    """log(k!) for the _ANALYTIC_BLOCK values of k from b * _ANALYTIC_BLOCK,
    read-only, computed by math.lgamma the first time block b is asked for."""
    B = _ANALYTIC_BLOCK
    # lgamma(k + 1.0) for the block's k, without a list of floats
    block = np.fromiter(map(math.lgamma, map(float, range(b * B + 1, (b + 1) * B + 1))), float, B)
    block.flags.writeable = False
    return block


def _log_factorials(lo: int, hi: int) -> np.ndarray:
    """log(k!) for k = lo..hi, from the blocks that the range reaches.  The
    occupancy windows of a large n so compute a small part of the table."""
    B = _ANALYTIC_BLOCK
    first = lo // B
    blocks = [_log_factorial_block(b) for b in range(first, hi // B + 1)]
    table = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)  # one is not copied
    return table[lo - first * B : hi - first * B + 1]


def _binomial_pmf(n: int, p: float, ks: np.ndarray) -> np.ndarray:
    """Binomial(n, p) probabilities of the consecutive `ks` lo..hi in 2..n,
    computed in log space."""
    if p == 1.0:
        return (ks == n).astype(float)
    lo, hi = int(ks[0]), int(ks[-1])
    log_n = _log_factorials(n, n)[0]
    rest = _log_factorials(n - hi, n - lo)[::-1]  # log((n - k)!) for each k
    return np.exp(
        log_n - _log_factorials(lo, hi) - rest + ks * math.log(p) + (n - ks) * math.log1p(-p)
    )


def _occupancies(n: int, K: int) -> tuple[np.ndarray, np.ndarray]:
    """The occupancies k >= 2 of one of K clusters whose Binomial(n, 1/K)
    probability pk is at least 1e-18, with their pk, in increasing k.

    The pmf is unimodal, so these are the kept k of a window around n/K
    whose ends are below the cut or at 2 and n.  The window starts at
    _WINDOW standard deviations plus _WINDOW each way, which was wide enough
    for every case tried, and doubles until its ends qualify.  A grid so
    fine that 1/K rounds to 0.0 keeps no occupancy.
    """
    p = 1 / K  # exact: 1.0 / K cannot convert a K past the float range
    if p == 0.0:
        return np.zeros(0, dtype=int), np.zeros(0)
    half = _WINDOW * (math.sqrt(n * p * (1.0 - p)) + 1.0)
    while True:
        lo = max(2, math.floor(n * p - half))
        hi = min(n, max(2, math.ceil(n * p + half)))
        ks = np.arange(lo, hi + 1)
        pk = _binomial_pmf(n, p, ks)
        if (lo == 2 or pk[0] < 1e-18) and (hi == n or pk[-1] < 1e-18):
            kept = pk >= 1e-18  # occupancies too unlikely to matter
            return ks[kept], pk[kept]
        half *= 2.0


class _Hits:
    """P(active | k) by occupancy k for the deterministic caching rule at
    one (n, m, M), each k computed on first use and kept.

    Given k users, P(active | k) = 1 - prod_j (1 - q_j), with q_j the mass
    of the cluster's cache union minus user j's own block.  The products
    are taken over blocks of occupancies, one row of factors per k padded
    with 1.0.  Past column ceil(m/M)+1 they need no columns: when kM >= m
    the union is the whole catalog, so the empty block of user
    ceil(m/M)+1 contributes the factor 0.0 and P(active | k) is 1.0.
    """

    def __init__(self, n: int, m: int, M: int, cdf: np.ndarray):
        self.m, self.M = m, M
        self.cdf0 = np.concatenate([[0.0], cdf])
        self.cap = -(-m // M) + 1
        self.top = min(n, self.cap)  # k >= cap reads hit[cap], which is 1.0
        self.hit = np.full(self.top + 1, np.nan)
        self.hit[self.cap :] = 1.0

    def __getitem__(self, ks: np.ndarray) -> np.ndarray:
        """P(active | k) for each of the increasing occupancies `ks`."""
        ks = np.minimum(ks, self.top)
        out = self.hit[ks]
        todo = ks[np.isnan(out)]
        if todo.size == 0:
            return out
        m, M, cap, cdf0 = self.m, self.M, self.cap, self.cdf0
        rows = max(1, _ANALYTIC_BLOCK // cap)
        for start in range(0, todo.size, rows):
            k = todo[start : start + rows]
            j = np.arange(1, min(int(k[-1]), cap) + 1)
            own = cdf0[np.minimum(j * M, m)] - cdf0[np.minimum((j - 1) * M, m)]
            head = cdf0[np.minimum(k * M, m)]
            factors = 1.0 - (head[:, None] - own)
            factors[j > k[:, None]] = 1.0
            self.hit[k] = 1.0 - np.prod(factors, axis=1)
        return self.hit[ks]


def _hit_table(scenario: D2DScenario, pop: PopularityModel) -> _Hits | None:
    """The scenario's `_Hits`, or None when no cluster can be active."""
    # min(kM, m) == min(k min(M, m), m) for k >= 1, and the capped products
    # cannot overflow int64.
    M = min(scenario.M, scenario.m)
    if M == 0 or scenario.n < 2:
        return None
    return _Hits(scenario.n, scenario.m, M, pop.cdf)


def _expected_active(n: int, K: int, hits: _Hits | None) -> float:
    """K times the expectation of P(active | k) over the occupancy k of one
    of K clusters, summed in increasing k."""
    if hits is None:
        return 0.0
    ks, pk = _occupancies(n, K)
    if ks.size == 0:
        return 0.0
    pk *= hits[ks]
    return K * float(np.cumsum(pk)[-1])  # cumsum adds left to right


def expected_active_analytic(
    scenario: D2DScenario, pop: PopularityModel
) -> ClusterStats:
    """Exact expected active clusters for the deterministic caching rule.

    By linearity the answer is K times the per-cluster activation probability:
    occupancy k is Binomial(n, 1/K), and given k the users' requests are
    independent, so P(active | k) = 1 - prod_j (1 - q_j) with q_j the mass of
    the cluster's cache union minus user j's own block (`_Hits`).  The sum
    runs over the occupancies k >= 2 of probability at least 1e-18
    (`_occupancies`).
    """
    if scenario.strategy != "deterministic":
        raise InvalidParameterError("the analytic model covers only deterministic caching")
    if pop.m != scenario.m:
        raise InvalidParameterError("popularity catalog must match the scenario")
    side, _ = grid_side(scenario.r, exact=True)
    K = side * side
    mean = _expected_active(scenario.n, K, _hit_table(scenario, pop))
    return ClusterStats(expected_active=mean, stderr=0.0, K=K)


def _draw_block(
    pop: PopularityModel, rng: np.random.Generator, users: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The x and y positions of `users` users, as one (2, users) draw from
    `rng`, then one request per user, in the narrowest unsigned dtype that
    holds m.  None of the draws depends on r, gamma1 or the caches.
    """
    x, y = rng.random((2, users))
    return x, y, sample_requests(pop, rng, users)


def _cells(x: np.ndarray, y: np.ndarray, side: int) -> tuple[np.ndarray, int]:
    """Each user's cell on a side x side grid, and the number of cell labels.

    The label cx * side + cy is built in the narrowest unsigned dtype that
    holds K - 1.  A grid of more than 2^64 cells fits no dtype; its occupied
    cells are labelled 0, 1, ... instead, which groups users the same way.
    """
    K = side * side
    if K <= 1 << 64:
        dtype = np.min_scalar_type(K - 1)
        cell = np.minimum((x * side).astype(dtype), side - 1)
        cell *= side
        cell += np.minimum((y * side).astype(dtype), side - 1)
        return cell, K
    xy = np.minimum(np.floor(np.column_stack((x, y)) * side), side - 1)
    labels, cell = np.unique(xy, axis=0, return_inverse=True)
    return cell.ravel(), len(labels)


def _score_block(
    block: np.ndarray, rep: np.ndarray, reps: int, cell: np.ndarray, n: int
) -> np.ndarray:
    """Active clusters per replication of `reps` replications of n users
    under deterministic caches, from each user's cache block `block` =
    ceil(req / M), replication `rep` and cell (`_cells`).  No array is
    changed, so one block's scorings share them.

    With M capped at m, the user of arrival rank j in a cluster of k users
    holds block j, ranks (j-1)M+1 .. jM.  So a request in block b is held by
    another member iff b <= k and b != j; because req <= m, this is exactly
    the rule on the capped ranges min(kM, m) and (min((j-1)M, m), min(jM, m)].
    Users arrive rep-major, so a stable sort on the cell alone orders them
    by (cell, rep) and keeps arrival order inside each cluster, which gives
    j and k.  Cells are in the narrowest unsigned dtype that holds K - 1,
    which numpy sorts by radix up to 16 bits.
    """
    total = cell.size
    order = np.argsort(cell, kind="stable")
    rep, b = rep[order], block[order]
    cell = cell[order]
    del order  # the largest temporary, freed before the peak
    new = np.empty(total, dtype=bool)  # first user of each (cell, rep) group
    new[0] = True
    np.not_equal(cell[1:], cell[:-1], out=new[1:])
    new[1:] |= rep[1:] != rep[:-1]
    starts = np.flatnonzero(new)
    sizes = np.diff(starts, append=total)
    active = b <= np.repeat(sizes.astype(np.min_scalar_type(n)), sizes)
    head = np.repeat(starts, sizes)  # each user's group, by its first position
    j = np.arange(1, total + 1)
    j -= head
    active &= b != j
    head = np.compress(active, head)
    head = np.compress(np.diff(head, prepend=-1) != 0, head)  # one per active group
    return np.bincount(rep[head], minlength=reps).astype(float)


def _score_random(
    requests: np.ndarray,
    caches: np.ndarray,
    own: np.ndarray,
    m: int,
    rep: np.ndarray,
    reps: int,
    cell: np.ndarray,
    K: int,
) -> np.ndarray:
    """Active clusters per replication for random caches over m files, from
    each user's request, cache row, whether it holds its own request (`own`),
    replication `rep` (0 .. reps-1) and cell label (below K).  Users are
    rep-major, the same number per replication, as the block loop draws them.

    Each cache rank and each request becomes a key gid * (m + 1) + rank,
    with group id gid = rep * K + cell.  Cache keys enter one array as
    key << 2 and request keys as key << 2 | 2 | own, with `own` set when the
    requester holds its request itself, and the array is sorted.  A cache
    row holds distinct ranks, so a requester's own copy is at most one of
    its group's copies.  The first request of a rank in a group, at sorted
    position p, is served by another user iff keys[p - 1 - own] == key << 2.
    Later requests of the rank can read the wrong entry without changing
    the group's answer: requesters without their own copy sort first and
    are served iff anyone holds the rank, and two requesters that hold it
    themselves hold two copies.  A request key names its group, so the
    active groups come out sorted and are counted without an array of
    reps * K.

    Each replication's keys are sorted in a row of their own, which takes
    less time than one sort of them all.  A row's keys all lie below
    the next row's, so the rows end to end are the sorted array; the lookup
    of a row's first request may read the row before, whose keys name
    other groups and never match.

    Keys are int32 when 4 * reps * K * (m + 1) < 2^31 and int64 otherwise.
    Where even int64 would overflow, the occupied (rep, cell) pairs are
    numbered 0, 1, ... and serve as the group ids.
    """
    stride = m + 1
    total, M = caches.shape
    if 4 * reps * K * stride < 1 << 63:
        groups, rep_of_group = reps * K, None
    else:
        pairs, gid = np.unique(
            np.column_stack((rep, cell)), axis=0, return_inverse=True
        )
        groups, rep_of_group = len(pairs), pairs[:, 0].astype(np.intp)
    dtype = np.int32 if 4 * groups * stride < 1 << 31 else np.int64
    keys = np.empty(total * (M + 1), dtype=dtype)
    asked = keys[total * M :]  # the request keys, built from the group ids
    if rep_of_group is None:
        np.multiply(rep, K, out=asked, dtype=dtype)
        np.add(asked, cell, out=asked, dtype=dtype)  # cell < K fits dtype
    else:
        asked[:] = gid.ravel()
        del pairs, gid  # freed before the keys' peak
    asked *= stride
    cached = keys[: total * M].reshape(M, total)
    np.add(asked, caches.T, out=cached)
    cached <<= 2
    asked += requests
    asked <<= 2
    asked |= 2
    asked |= own
    # The keys are built in whole columns and then copied into one row per
    # replication, which costs less than building them in strided views.
    keys = keys.reshape(M + 1, reps, -1).swapaxes(0, 1).reshape(reps, -1)
    keys.sort()
    keys = keys.reshape(-1)
    # The requests' sorted positions; the tag is read from each key's low
    # byte, so the temporaries take a byte per key.
    at = np.flatnonzero(np.bitwise_and(keys, 2, dtype=np.uint8, casting="unsafe") != 0)
    key = keys[at]
    at -= 1
    at -= key & 1
    key >>= 2
    held = np.compress(keys[at] == key << 2, key)
    held //= stride  # group ids of the active users, sorted
    held = np.compress(np.diff(held, prepend=-1) != 0, held)
    active_rep = held // K if rep_of_group is None else rep_of_group[held]
    return np.bincount(active_rep, minlength=reps).astype(float)


def _check_users(n: int, reps: int) -> None:
    """Refuse a Monte Carlo run that would draw more than MAX_MC_USERS users."""
    if n * reps > MAX_MC_USERS:
        raise InvalidParameterError(
            f"reps={reps} draws n={n} users each, {n * reps} in all, above the "
            f"cap of {MAX_MC_USERS}"
        )


def simulate_active_clusters(
    scenario: D2DScenario,
    pop: PopularityModel,
    rng: np.random.Generator,
    reps: int,
) -> ClusterStats:
    """Monte Carlo active-cluster count at `scenario.r`: mean and standard
    error over `reps` replications drawn from `rng` (`_monte_carlo`).

    A cache size past the catalog acts as M = m; with M = 0 no cluster can
    be active, and nothing is drawn.  Calls of more than MAX_SCORES
    replications or MAX_MC_USERS users (n * reps), and random caches whose
    fill may need more than RANDOM_CACHE_MAX_DRAWS expected draws per device
    or more than RANDOM_RUN_MAX_DRAWS priced draws over the run, are refused
    before the first draw.
    """
    ((stats,),) = _monte_carlo(scenario, pop, rng, reps, [scenario.r], [scenario.gamma1])
    return stats


def _monte_carlo(
    scenario: D2DScenario,
    pop: PopularityModel,
    rng: np.random.Generator,
    reps: int,
    r_values: list[float],
    gamma1_values: list[float | None],
) -> list[list[ClusterStats]]:
    """Monte Carlo active-cluster counts for every caching exponent of
    `gamma1_values` (None for deterministic caches) on every cluster grid of
    `r_values`: one list of ClusterStats per gamma1, one per r in each.

    Replications go in blocks of max(1, _BLOCK_USERS // n), the last one
    possibly shorter.  A block is drawn once (`_draw_block`: positions, then
    requests, from `rng`), its cells are built once per grid, and it is
    scored on every grid and every gamma1 before the next block: by
    `_score_block` on the requests' cache blocks, or by `_score_random` on
    each gamma1's caches and own-copy flags, built once per gamma1.  Random
    caches come block after block from the first child stream of `rng`'s
    seed sequence, which the call spawns once; each gamma1 fills its caches
    from its own generator on that child seed sequence.  So a replication's
    positions and requests depend only on `rng`, n, the request popularity
    and the replication's block, not on r, the caching rule, gamma1 or M.  A
    full block draws the same whatever `reps` is, and each (gamma1, r) pair
    scores what a call with that pair alone on a fresh copy of `rng` does.

    Every bound, MAX_SCORES (model, grid, replication) triples included,
    is checked for every gamma1 before the first draw.
    """
    if reps < 1:
        raise InvalidParameterError("reps must be >= 1")
    if pop.m != scenario.m:
        raise InvalidParameterError("popularity catalog must match the scenario")
    sides = []
    for r in r_values:
        replace(scenario, r=r)  # validates r
        side, exact = grid_side(r, exact=False)
        if not exact:
            msg = "r=%g does not tile the unit square; using a %d x %d cluster grid"
            logger.warning(msg, r, side, side)
        sides.append(side)
    scores = reps * len(sides) * len(gamma1_values)
    if scores > MAX_SCORES:
        raise InvalidParameterError(
            f"reps={reps} over {len(sides)} cluster grid(s) and "
            f"{len(gamma1_values)} caching model(s) scores {scores} (model, grid, "
            f"replication) triples, above the cap of {MAX_SCORES}"
        )
    n = scenario.n
    _check_users(n, reps)
    models = [
        None if g1 is None else _cache_model(replace(scenario, gamma1=g1), reps)
        for g1 in gamma1_values
    ]
    counts = np.zeros((len(models), len(sides), reps))
    if scenario.M > 0:
        cache_rngs = [None] * len(models)
        if models[0] is not None:
            bits = rng.bit_generator
            child = bits.seed_seq.spawn(1)[0]  # what rng.spawn(1)[0] is seeded by
            cache_rngs = [np.random.Generator(type(bits)(child)) for _ in models]
        step = max(1, _BLOCK_USERS // n)
        for lo in range(0, reps, step):
            take = min(step, reps - lo)
            x, y, requests = _draw_block(pop, rng, take * n)
            rep = np.repeat(np.arange(take, dtype=np.min_scalar_type(take - 1)), n)
            cells = [_cells(x, y, side) for side in sides]
            for model, cache_rng, rows in zip(models, cache_rngs, counts):
                if model is None:  # deterministic caches, the call's only model
                    requests -= 1
                    requests //= min(scenario.M, scenario.m)
                    requests += 1  # each request's cache block
                    for row, (cell, _) in zip(rows, cells):
                        row[lo : lo + take] = _score_block(requests, rep, take, cell, n)
                else:
                    caches = _random_caches(take * n, scenario.M, model, cache_rng)
                    own = np.zeros(take * n, dtype=bool)  # users holding their request
                    for column in caches.T:
                        own |= column == requests
                    for row, (cell, K) in zip(rows, cells):
                        row[lo : lo + take] = _score_random(
                            requests, caches, own, scenario.m, rep, take, cell, K
                        )
    return [
        [
            ClusterStats(
                expected_active=float(row.mean()),
                stderr=float(row.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0,
                K=side * side,
            )
            for row, side in zip(rows, sides)
        ]
        for rows in counts
    ]


@dataclass(frozen=True)
class D2DSweepRow:
    r: float
    gamma: float
    gamma1: float | None
    mean_active: float
    stderr: float
    K: int
    mode: str


def _point_mode(scenario: D2DScenario, mode: str) -> str:
    """`auto` is analytic where the exact model covers the point."""
    if mode != "auto":
        return mode
    analytic = scenario.strategy == "deterministic" and grid_side(
        scenario.r, exact=False
    )[1]
    return "analytic" if analytic else "mc"


def _positions(values) -> dict:
    """Each distinct value's position among the distinct `values`."""
    return {v: k for k, v in enumerate(dict.fromkeys(values))}


def _sweep(
    points: list[D2DScenario],
    pop: PopularityModel,
    reps: int,
    root_seed: int,
    mode: str,
) -> list[D2DSweepRow]:
    """One row per scenario; the scenarios differ only in r and gamma1.
    The Monte Carlo points share one draw, whose caches are filled once per
    gamma1 and scored on every grid."""
    if mode not in ("auto", "analytic", "mc"):
        raise InvalidParameterError("mode must be 'auto', 'analytic', or 'mc'")
    modes = [_point_mode(sc, mode) for sc in points]
    stats: list[ClusterStats | None] = [None] * len(points)
    mc = []
    for i, (sc, point_mode) in enumerate(zip(points, modes)):
        if point_mode == "analytic":
            stats[i] = expected_active_analytic(sc, pop)
        else:
            mc.append(i)
    if mc:
        gamma1_at = _positions(points[i].gamma1 for i in mc)
        r_at = _positions(points[i].r for i in mc)
        # Every sweep opens the same stream on purpose.  Positions and
        # requests come from it and random caches from its child stream, so
        # all points see identical positions and requests (common random
        # numbers), and curves differ only by the parameter.
        table = _monte_carlo(
            points[mc[0]],
            pop,
            stream(root_seed, "d2d-mc"),
            reps,
            list(r_at),
            list(gamma1_at),
        )
        for i in mc:
            stats[i] = table[gamma1_at[points[i].gamma1]][r_at[points[i].r]]
    return [
        D2DSweepRow(
            r=sc.r,
            gamma=sc.gamma,
            gamma1=sc.gamma1,
            mean_active=st.expected_active,
            stderr=st.stderr,
            K=st.K,
            mode=point_mode,
        )
        for sc, st, point_mode in zip(points, stats, modes)
    ]


def sweep_r(
    scenario: D2DScenario,
    r_values,
    pop: PopularityModel,
    reps: int,
    root_seed: int,
    mode: str = "auto",
) -> list[D2DSweepRow]:
    """Expected active clusters per collaboration distance r.

    Every Monte Carlo point reads the same stream, and r changes no draw, so
    the points are drawn once and each is scored on its own cluster grid.
    """
    points = [replace(scenario, r=float(r)) for r in r_values]
    return _sweep(points, pop, reps, root_seed, mode)


def sweep_gamma1(
    scenario: D2DScenario,
    gamma1_values,
    r_values,
    pop: PopularityModel,
    reps: int,
    root_seed: int,
) -> list[D2DSweepRow]:
    """Active-cluster curves over the caching exponent, one curve per r.

    Rows run over r, then gamma1.  All points share one block loop: each
    block's positions and requests are drawn once for the whole sweep, each
    gamma1 fills its caches from its own copy of the child stream, and each
    gamma1's draws are scored on every r's cluster grid.  So every gamma1
    reads the same positions and requests, only its caches differ, and each
    row equals what a sweep of that gamma1 alone returns.
    """
    if scenario.strategy != "random-zipf":
        raise InvalidParameterError("gamma1 sweeps need the random-zipf strategy")
    points = [
        replace(scenario, r=float(r), gamma1=float(g1))
        for r in r_values
        for g1 in gamma1_values
    ]
    return _sweep(points, pop, reps, root_seed, "mc")


@dataclass(frozen=True)
class ScalingRow:
    n: int
    m: int
    r: float
    K: int
    mean_active: float
    ratio: float  # mean_active / n
    stderr: float
    mode: str


def scaling_check(
    gamma: float,
    n_values=(250, 500, 1000, 2000),
    M: int = 1,
    scale: float = 50.0,
    reps: int = 2000,
    root_seed: int = 0,
    mode: str = "analytic",
) -> list[ScalingRow]:
    """Per-user active clusters across cell sizes, with r re-optimized per n.

    The catalog grows logarithmically with n (`scale` files per log unit).
    In both modes each n's collaboration distance is the 1/side, side from
    1 to ceil(2 sqrt(n)), of the first strict maximum of the exact expected
    active clusters (`_expected_active`).  Every side of one n reads one
    `_Hits` table, and each side sums only its kept occupancies, so a side
    costs about its binomial window, 24 standard deviations wide.  The mc
    mode then runs one Monte Carlo call at that side, on the stream
    ("scaling", n, side).
    """
    if mode not in ("analytic", "mc"):
        raise InvalidParameterError("mode must be 'analytic' or 'mc'")
    rows = []
    for n in n_values:
        n = int(n)
        m = catalog_size(n, scale=scale)
        pop = zipf_model(gamma, m)
        sc = D2DScenario(n=n, m=m, M=M, r=1.0, gamma=gamma)
        if mode == "mc":
            _check_users(n, reps)  # before the side search, which a refusal wastes
        hits = _hit_table(sc, pop)
        means = [
            _expected_active(n, side * side, hits)
            for side in range(1, int(math.ceil(2.0 * math.sqrt(n))) + 1)
        ]
        side = 1 + means.index(max(means))
        if mode == "analytic":
            stats = ClusterStats(means[side - 1], 0.0, side * side)
        else:
            rng = stream(root_seed, "scaling", n, side)
            stats = simulate_active_clusters(replace(sc, r=1.0 / side), pop, rng, reps)
        rows.append(
            ScalingRow(
                n=n,
                m=m,
                r=1.0 / side,
                K=stats.K,
                mean_active=stats.expected_active,
                ratio=stats.expected_active / n,
                stderr=stats.stderr,
                mode=mode,
            )
        )
    return rows
