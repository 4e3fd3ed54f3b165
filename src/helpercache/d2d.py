"""Device-to-device caching in a unit-square cell tiled by square clusters.

Users land uniformly in the cell; each cluster of side r is a potential D2D
collaboration domain.  A cluster is active when some user's request sits in
another same-cluster user's cache (a request found in the user's own cache is
served locally and does not activate the cluster).  The module computes the
expected number of active clusters analytically for the deterministic caching
rule and by Monte Carlo for both caching rules, plus the collaboration-radius
and caching-exponent sweeps and scaling tables.

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
_CHUNK_ELEMENTS = 1 << 21  # keeps Monte Carlo chunking (and streams) stable
_ANALYTIC_BLOCK = 1 << 14  # factors per block of the analytic all-miss products
# Expected draws to fill one random cache row above which the input is refused.
RANDOM_CACHE_MAX_DRAWS = 1e4
# Expected draws to fill every random cache of one Monte Carlo run above which
# the input is refused; at about 0.2 us a draw (2-core Xeon) that is under two
# minutes of filling.
RANDOM_RUN_MAX_DRAWS = 5e8
# Users per cell above which a scenario is refused.  A run's peak memory
# grows linearly with n, by about 105 bytes per user in Monte Carlo and 55
# analytically (reps=1), so the cap keeps a run near 1 GB.
MAX_USERS = 10**7


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


def _fill_draws(M: int, gamma1: float, m: int) -> float:
    """Bound on the expected Zipf(gamma1) draws that fill one random cache.

    A row holding the j most popular ranks needs 1 / pmf[j:].sum() draws on
    average for its next rank, more than any other row holding j ranks; the
    bound sums that over j < M.  A full catalog (M == m) is copied, not drawn.
    """
    if M == 0 or M >= m:
        return 0.0
    pmf = zipf_model(gamma1, m).pmf
    # Tail sums from the pmf, not 1 - cdf, which cancels to 0 for steep gamma1.
    tails = np.cumsum(pmf[::-1])[::-1][:M]
    return float((1.0 / tails).sum())


def _random_caches(
    count: int, M: int, gamma1: float, m: int, rng: np.random.Generator
) -> np.ndarray:
    """(count, M) matrix of distinct ranks per row, drawn Zipf(gamma1) with
    duplicate rejection.  Rows fill in lockstep rounds, one candidate per
    incomplete row per round, drawn in row order.

    A round fills at most one column of a row, so no row is complete before
    round M: rounds 1..M read `count` uniforms each, in row order, and round t
    compares its candidates with the first t-1 columns only.  Later rounds
    draw for the incomplete rows, kept in row order as they shrink.

    When `_fill_draws` exceeds RANDOM_CACHE_MAX_DRAWS the rounds could run
    for hours, so the input is refused before any draw.
    """
    if M > m:
        raise InvalidParameterError("random caches need M <= m")
    out = np.zeros((count, M), dtype=np.int64)
    if M == 0 or count == 0:
        return out
    if M == m:
        return np.tile(np.arange(1, m + 1, dtype=np.int64), (count, 1))
    model = zipf_model(gamma1, m)
    draws = _fill_draws(M, gamma1, m)
    if draws > RANDOM_CACHE_MAX_DRAWS:
        raise InvalidParameterError(
            f"random-zipf caches with gamma1={gamma1:g} and M={M} may need "
            f"{draws:.3g} draws per device (limit {RANDOM_CACHE_MAX_DRAWS:g}); "
            "lower gamma1 or M"
        )
    filled = np.zeros(count, dtype=np.int64)
    for t in range(M):
        draws = sample_requests(model, rng, count)
        hit = np.flatnonzero(~(out[:, :t] == draws[:, None]).any(axis=1))
        out[hit, filled[hit]] = draws[hit]
        filled[hit] += 1
    rows = np.flatnonzero(filled < M)
    while rows.size:
        draws = sample_requests(model, rng, rows.size)
        fresh = ~(out[rows] == draws[:, None]).any(axis=1)
        hit = rows[fresh]
        out[hit, filled[hit]] = draws[fresh]
        filled[hit] += 1
        rows = rows[filled[rows] < M]
    return out


@functools.lru_cache(maxsize=8)
def _log_factorials(n: int) -> np.ndarray:
    """log(k!) for k = 0..n (read-only, shared between calls)."""
    out = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    out.flags.writeable = False
    return out


def _binomial_pmf(n: int, p: float, ks: np.ndarray) -> np.ndarray:
    """Binomial(n, p) probabilities of `ks`, computed in log space."""
    if p == 1.0:
        return (ks == n).astype(float)
    logf = _log_factorials(n)
    return np.exp(
        logf[n] - logf[ks] - logf[n - ks] + ks * math.log(p) + (n - ks) * math.log1p(-p)
    )


def expected_active_analytic(
    scenario: D2DScenario, pop: PopularityModel
) -> ClusterStats:
    """Exact expected active clusters for the deterministic caching rule.

    By linearity the answer is K times the per-cluster activation probability:
    occupancy k is Binomial(n, 1/K), and given k the users' requests are
    independent, so P(active | k) = 1 - prod_j (1 - q_j) with q_j the mass of
    the cluster's cache union minus user j's own block.

    The products are taken over blocks of occupancies, one row of factors
    per k padded with 1.0.  Past column ceil(m/M)+1 they need no columns:
    when kM >= m the union is the whole catalog, so the empty block of user
    ceil(m/M)+1 contributes the factor 0.0.
    """
    if scenario.strategy != "deterministic":
        raise InvalidParameterError("the analytic model covers only deterministic caching")
    if pop.m != scenario.m:
        raise InvalidParameterError("popularity catalog must match the scenario")
    side, _ = grid_side(scenario.r, exact=True)
    K = side * side
    # min(kM, m) == min(k min(M, m), m) for k >= 1, and the capped products
    # cannot overflow int64.
    n, m = scenario.n, scenario.m
    M = min(scenario.M, m)
    if M == 0 or n < 2:
        return ClusterStats(expected_active=0.0, stderr=0.0, K=K)
    cdf0 = np.concatenate([[0.0], pop.cdf])
    ks = np.arange(2, n + 1)
    pk = _binomial_pmf(n, 1.0 / K, ks)
    kept = pk >= 1e-18  # occupancies too unlikely to matter
    ks, pk = ks[kept], pk[kept]
    cap = -(-m // M) + 1
    rows = max(1, _ANALYTIC_BLOCK // cap)
    total = 0.0
    for start in range(0, ks.size, rows):
        k = ks[start : start + rows]
        j = np.arange(1, min(int(k[-1]), cap) + 1)
        own = cdf0[np.minimum(j * M, m)] - cdf0[np.minimum((j - 1) * M, m)]
        head = cdf0[np.minimum(k * M, m)]
        factors = 1.0 - (head[:, None] - own)
        factors[j > k[:, None]] = 1.0
        miss = np.prod(factors, axis=1)
        for weight, p in zip(pk[start : start + rows].tolist(), miss.tolist()):
            total += weight * (1.0 - p)
    return ClusterStats(expected_active=K * total, stderr=0.0, K=K)


def _draw_chunk(
    scenario: D2DScenario,
    pop: PopularityModel,
    rng: np.random.Generator,
    reps: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]:
    """One chunk's draws in stream order: user positions, then caches (random
    strategy only), then one request per user.

    Returns positions, requests, caches and, for random caches, whether each
    user holds its own request.  None of them depends on r.
    """
    total = reps * scenario.n
    pos = rng.random((total, 2))
    caches = own = None
    if scenario.strategy == "random-zipf":
        caches = _random_caches(total, scenario.M, scenario.gamma1, scenario.m, rng)
    requests = sample_requests(pop, rng, total)
    if caches is not None:
        own = (caches == requests[:, None]).any(axis=1)
    return pos, requests, caches, own


def _score_chunk(
    scenario: D2DScenario,
    pos: np.ndarray,
    requests: np.ndarray,
    caches: np.ndarray | None,
    own: np.ndarray | None,
    reps: int,
    side: int,
) -> np.ndarray:
    """Active clusters per replication of one chunk's draws on a side x side
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
    req = requests[order]

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
        keys = np.sort((g[:, None] * (m + 1) + caches[order]).ravel())
        req_keys = g * (m + 1) + req
        first = np.searchsorted(keys, req_keys)
        keys = np.append(keys, [-1, -1])
        active = keys[first + own[order]] == req_keys

    group_active = np.logical_or.reduceat(active, starts)
    rep_of_group = g[starts] % reps
    return np.bincount(rep_of_group[group_active], minlength=reps).astype(float)


def simulate_active_clusters(
    scenario: D2DScenario,
    pop: PopularityModel,
    rng: np.random.Generator,
    reps: int,
    *,
    r_values=None,
) -> ClusterStats | list[ClusterStats]:
    """Monte Carlo active-cluster count: mean and standard error over `reps`.

    Draw order per replication batch: user positions, then caches (random
    strategy only), then one request per user.  Batching is sized by a fixed
    element budget so results per replication do not depend on `reps`.
    Random caches whose fill may need more than RANDOM_RUN_MAX_DRAWS expected
    draws over the whole run are refused before the first draw.

    With `r_values`, the draws are made once and scored on each value's
    cluster grid in place of `scenario.r`; the result is then a list with one
    ClusterStats per value, each equal to what a call with that r on a fresh
    copy of `rng` returns.
    """
    if reps < 1:
        raise InvalidParameterError("reps must be >= 1")
    if pop.m != scenario.m:
        raise InvalidParameterError("popularity catalog must match the scenario")
    r_list = [scenario.r] if r_values is None else [float(r) for r in r_values]
    sides = []
    for r in r_list:
        replace(scenario, r=r)  # validates r
        side, exact = grid_side(r, exact=False)
        if not exact:
            logger.warning(
                "r=%g does not tile the unit square; using a %d x %d cluster grid",
                r,
                side,
                side,
            )
        sides.append(side)
    if scenario.strategy == "random-zipf":
        per_device = _fill_draws(scenario.M, scenario.gamma1, scenario.m)
        draws = per_device * scenario.n * reps
        if draws > RANDOM_RUN_MAX_DRAWS:
            raise InvalidParameterError(
                f"random-zipf caches with gamma1={scenario.gamma1:g} and "
                f"M={scenario.M} may need {per_device:.3g} draws per device, "
                f"{draws:.3g} for {scenario.n} devices over reps={reps} (limit "
                f"{RANDOM_RUN_MAX_DRAWS:g}); lower gamma1, M or reps"
            )
    per_rep = scenario.n * max(scenario.M, 1)
    chunk = max(1, _CHUNK_ELEMENTS // per_rep)
    counts = np.empty((len(sides), reps))
    done = 0
    while done < reps:
        take = min(chunk, reps - done)
        drawn = _draw_chunk(scenario, pop, rng, take)
        for row, side in zip(counts, sides):
            row[done : done + take] = _score_chunk(scenario, *drawn, take, side)
        done += take
    stats = [
        ClusterStats(
            expected_active=float(row.mean()),
            stderr=float(row.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0,
            K=side * side,
        )
        for row, side in zip(counts, sides)
    ]
    return stats[0] if r_values is None else stats


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


def _sweep(
    points: list[D2DScenario],
    pop: PopularityModel,
    reps: int,
    root_seed: int,
    mode: str,
) -> list[D2DSweepRow]:
    """One row per scenario.  Monte Carlo points that differ only in r share
    their draws, so each such group is drawn once and scored per grid."""
    if mode not in ("auto", "analytic", "mc"):
        raise InvalidParameterError("mode must be 'auto', 'analytic', or 'mc'")
    modes = [_point_mode(sc, mode) for sc in points]
    stats: list[ClusterStats | None] = [None] * len(points)
    groups: dict[D2DScenario, list[int]] = {}
    for i, (sc, point_mode) in enumerate(zip(points, modes)):
        if point_mode == "analytic":
            stats[i] = expected_active_analytic(sc, pop)
        else:
            groups.setdefault(replace(sc, r=1.0), []).append(i)
    for members in groups.values():
        # Every group opens the same stream on purpose: points see identical
        # positions and requests, so curves differ only by the parameter.
        group = simulate_active_clusters(
            points[members[0]],
            pop,
            stream(root_seed, "d2d-mc"),
            reps,
            r_values=[points[i].r for i in members],
        )
        for i, point_stats in zip(members, group):
            stats[i] = point_stats
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

    Rows run over r, then gamma1.  The points of one gamma1 share their draws
    (positions, random caches, requests), so each gamma1 is drawn once and
    scored on every r's cluster grid.
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
    For each n the collaboration distance is chosen as the best 1/integer by
    the same evaluation mode used for the reported row.
    """
    if mode not in ("analytic", "mc"):
        raise InvalidParameterError("mode must be 'analytic' or 'mc'")
    rows = []
    for n in n_values:
        n = int(n)
        m = catalog_size(n, scale=scale)
        pop = zipf_model(gamma, m)
        best: tuple[ClusterStats, int] | None = None
        for side in range(1, int(math.ceil(2.0 * math.sqrt(n))) + 1):
            sc = D2DScenario(n=n, m=m, M=M, r=1.0 / side, gamma=gamma)
            if mode == "analytic":
                stats = expected_active_analytic(sc, pop)
            else:
                stats = simulate_active_clusters(
                    sc, pop, stream(root_seed, "scaling", n, side), reps
                )
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
                mode=mode,
            )
        )
    return rows

