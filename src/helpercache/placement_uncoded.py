"""Whole-file cache placement: the greedy, most-popular and brute-force policies.

A placement stores, for each helper, the set of file ranks cached in full.  A
user's download rate for a file is the best rate among the base station and the
in-range helpers that cache it, so the expected-delay objective is a weighted
coverage function of the chosen (file, helper) pairs: monotone and submodular,
which makes the greedy a 1/2-approximation under the per-helper capacity
constraint.

The gain of caching rank f at helper h is `fl(file_bits * pmf[f-1])` times a
coverage weight that depends only on the set of helpers already caching f.
`greedy_steps` therefore searches over classes of ranks with equal helper
sets, one heap entry per class, instead of over every (rank, helper) pair; its
trajectory, ties included, is that of the pairwise lazy greedy.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasiblePlacementError,
    InstanceTooLargeError,
    InvalidParameterError,
)
from .popularity import PopularityModel
from .topology import ConnectivityGraph

BRUTE_FORCE_GUARD = 10**6


@dataclass(frozen=True)
class HelperSpecs:
    """Per-helper cache capacities, in whole files."""

    capacities: tuple[int, ...]

    def __post_init__(self):
        caps = tuple(int(c) for c in self.capacities)
        if any(c < 0 for c in caps):
            raise InvalidParameterError("capacities must be >= 0")
        object.__setattr__(self, "capacities", caps)

    @property
    def n_helpers(self) -> int:
        return len(self.capacities)

    @classmethod
    def uniform(cls, n_helpers: int, capacity: int) -> "HelperSpecs":
        return cls(capacities=(int(capacity),) * int(n_helpers))


@dataclass(frozen=True)
class UncodedPlacement:
    """One frozenset of cached file ranks (1-based) per helper."""

    caches: tuple[frozenset[int], ...]
    capacities: tuple[int, ...]

    def __post_init__(self):
        caches = tuple(frozenset(map(int, c)) for c in self.caches)
        caps = tuple(int(c) for c in self.capacities)
        if len(caches) != len(caps):
            raise InfeasiblePlacementError("one capacity per helper is required")
        for h, (cache, cap) in enumerate(zip(caches, caps)):
            if len(cache) > cap:
                raise InfeasiblePlacementError(
                    f"helper {h} caches {len(cache)} files, capacity {cap}"
                )
            if cache and min(cache) < 1:
                raise InfeasiblePlacementError("file ranks are 1-based")
        object.__setattr__(self, "caches", caches)
        object.__setattr__(self, "capacities", caps)

    @property
    def n_helpers(self) -> int:
        return len(self.caches)

    def fractions(self, m: int) -> np.ndarray:
        """(m, n_helpers) stored fractions: 1.0 where a helper caches the rank."""
        sizes = [len(cache) for cache in self.caches]
        ranks = np.fromiter(
            itertools.chain.from_iterable(self.caches), dtype=np.int64, count=sum(sizes)
        )
        if ranks.size and ranks.max() > m:
            raise InfeasiblePlacementError(
                f"a helper caches a rank beyond the catalog size {m}"
            )
        rho = np.zeros((m, self.n_helpers))
        rho[ranks - 1, np.repeat(np.arange(self.n_helpers), sizes)] = 1.0
        return rho


def most_popular_place(specs: HelperSpecs, pop: PopularityModel) -> UncodedPlacement:
    """Every helper independently caches the min(capacity, m) most popular files."""
    caches = tuple(
        frozenset(range(1, min(cap, pop.m) + 1)) for cap in specs.capacities
    )
    return UncodedPlacement(caches=caches, capacities=specs.capacities)


class _Class:
    """The ranks cached at exactly the helper set `held` (a bit mask).

    `cur` is every user's best seconds per bit over the base station and the
    helpers in `held`.  `s[h]` is the coverage weight of adding helper h, so
    caching member f at h gains `weights[f - 1] * s[h]`.  `cand` marks the
    helpers a member can go to: not in `held`, with users and with capacity.
    `best` caches a helper whose `s` wins clearly, or is negative (see
    `_clear_winner`), and `stamp` names the class's one live entry in the
    greedy's heap.
    """

    __slots__ = ("held", "cur", "cand", "s", "s_list", "ranks", "best", "stamp")

    def __init__(self, held, cur, cand, users_of, edge_inv):
        self.held, self.cur, self.cand = held, cur, cand
        self.s = np.zeros(cand.size)
        for h in np.flatnonzero(cand):
            # The gathered array and the numpy sum the gain of one (rank,
            # helper) pair has always used, so every float is bit-equal.
            self.s[h] = np.maximum(0.0, cur[users_of[h]] - edge_inv[h]).sum()
        self.s_list = self.s.tolist()
        self.ranks: list[int] = []
        self.best = -1
        self.stamp = -1


# Relative margin by which a class's best `s` must beat every other open
# candidate's before the class caches that helper (see `_clear_winner`).
_CLEAR_WIN = 1e-12


def _clear_winner(s: np.ndarray, ok: np.ndarray) -> int:
    """The first argmax of `s` over `ok` if every other candidate's `s` either
    equals it or trails it by more than `_CLEAR_WIN`; -1 if one trails it by
    less; -2 if nothing is `ok`.

    A clear winner keeps the first argmax of the rounded gains `fl(w * s)` for
    every weight w whose gain is a normal float, and keeps it while helpers
    drop out of `ok`, so a class may cache it until it fills.
    """
    s = np.where(ok, s, -1.0)
    top = s.max()
    if top < 0.0:
        return -2
    h = int(s.argmax())
    s[s == top] = -1.0
    return h if top > (1.0 + _CLEAR_WIN) * s.max() else -1


def greedy_steps(
    graph: ConnectivityGraph,
    pop: PopularityModel,
    specs: HelperSpecs,
    file_bits: float,
) -> list[tuple[int, int, float]]:
    """Run the greedy and return its trajectory as (helper, rank, gain).

    Each step caches the (rank, helper) pair of largest exact marginal delay
    reduction; the gains are non-increasing.  Ties break toward lower file
    rank, then lower helper index.  Selection stops at the capacities or at
    the first non-positive marginal gain, whichever comes first.

    The search runs over classes of ranks instead of over pairs.  The gain of
    (f, h) is `fl(file_bits * pmf[f-1]) * s_h(S)`, where S is the set of
    helpers already caching f, so ranks with equal S form a class.  pmf does
    not increase with rank, so a class's lowest rank has the largest gain at
    every helper and wins its ties; the best pair overall is therefore some
    class's lowest rank at that class's best open helper, the first argmax of
    the rounded gains.  The heap holds one exact entry per class.  An entry
    is dropped when its stamp is stale, and recomputed when it is popped and
    names a helper that has since filled.
    """
    if specs.n_helpers != graph.n_helpers:
        raise InfeasiblePlacementError("specs/graph helper counts differ")
    if not math.isfinite(file_bits) or file_bits <= 0:
        raise InvalidParameterError("file_bits must be finite and > 0")
    if graph.n_users == 0 or all(c == 0 for c in specs.capacities):
        return []
    users_of = [graph.users_of(h) for h in range(graph.n_helpers)]
    edge_inv = [graph.inv_rates[users_of[h], h] for h in range(graph.n_helpers)]
    weights = (file_bits * pop.pmf).tolist()
    room = list(specs.capacities)
    is_open = np.array(room) > 0
    stamps = itertools.count()
    heap: list[tuple[float, int, int, int, _Class]] = []

    def push(c: _Class) -> None:
        """Queue class `c`'s exact entry: its lowest rank at its best helper."""
        c.stamp = next(stamps)
        f = c.ranks[0]
        w = weights[f - 1]
        h = c.best
        if h < 0 or not room[h]:
            h = c.best = _clear_winner(c.s, c.cand & is_open)
            if h == -2:
                return  # no member of this class can be cached anywhere
        if h >= 0:
            gain = w * c.s_list[h]
            if sys.float_info.min <= gain < math.inf:
                heapq.heappush(heap, (-gain, f, h, c.stamp, c))
                return
        gains = np.where(c.cand & is_open, w * c.s, -1.0)
        h = int(gains.argmax())
        heapq.heappush(heap, (-float(gains[h]), f, h, c.stamp, c))

    inv_bs = 1.0 / graph.bs_rate
    has_users = np.array([u.size > 0 for u in users_of], dtype=bool)
    start = _Class(0, inv_bs, is_open & has_users, users_of, edge_inv)
    start.ranks = list(range(1, pop.m + 1))
    classes = {0: start}
    push(start)

    steps: list[tuple[int, int, float]] = []
    while heap:
        neg_gain, f, h, stamp, c = heapq.heappop(heap)
        if stamp != c.stamp:
            continue
        if not room[h]:
            push(c)
            continue
        if neg_gain >= 0.0:
            break
        steps.append((h, f, -neg_gain))
        room[h] -= 1
        if not room[h]:
            is_open[h] = False
        heapq.heappop(c.ranks)
        if c.ranks:
            push(c)
        held = c.held | (1 << h)
        nxt = classes.get(held)
        if nxt is None:
            cur = c.cur.copy()
            cur[users_of[h]] = np.minimum(cur[users_of[h]], edge_inv[h])
            cand = c.cand.copy()
            cand[h] = False
            nxt = classes[held] = _Class(held, cur, cand, users_of, edge_inv)
        # Ranks reach a class in increasing order unless rounding ties steer
        # two of them apart and back together; then the older entry goes stale.
        heapq.heappush(nxt.ranks, f)
        if nxt.ranks[0] == f:
            push(nxt)
    return steps


def greedy_place(
    graph: ConnectivityGraph,
    pop: PopularityModel,
    specs: HelperSpecs,
    file_bits: float,
) -> UncodedPlacement:
    """Greedy placement (1/2-approximation of the optimal delay savings)."""
    caches = [set() for _ in range(specs.n_helpers)]
    for h, f, _ in greedy_steps(graph, pop, specs, file_bits):
        caches[h].add(f)
    return UncodedPlacement(
        caches=tuple(frozenset(c) for c in caches), capacities=specs.capacities
    )


def brute_force_place(
    graph: ConnectivityGraph,
    pop: PopularityModel,
    specs: HelperSpecs,
    file_bits: float,
) -> UncodedPlacement:
    """Exhaustively optimal placement for tiny instances.

    Guarded: the product over helpers of C(m, capacity) must not exceed
    BRUTE_FORCE_GUARD.  Candidate caches are enumerated per helper by (size
    ascending, then lexicographic), and the first placement achieving the
    minimum delay is returned, so full ties resolve to empty caches.
    """
    if specs.n_helpers != graph.n_helpers:
        raise InfeasiblePlacementError("specs/graph helper counts differ")
    m = pop.m
    space = 1
    for cap in specs.capacities:
        space *= math.comb(m, min(cap, m))
        if space > BRUTE_FORCE_GUARD:
            raise InstanceTooLargeError(
                "brute-force search space exceeds the guard of "
                f"{BRUTE_FORCE_GUARD}"
            )

    ranks = range(1, m + 1)
    per_helper: list[list[tuple[int, ...]]] = [
        [
            combo
            for size in range(min(cap, m) + 1)
            for combo in itertools.combinations(ranks, size)
        ]
        for cap in specs.capacities
    ]

    inv_bs_mat = np.repeat((1.0 / graph.bs_rate)[:, None], m, axis=1)
    idx_lists = [
        [np.asarray(combo, dtype=np.int64) - 1 for combo in combos]
        for combos in per_helper
    ]

    pmf = pop.pmf
    best = {"delay": math.inf, "choice": None}

    def recurse(h: int, acc: np.ndarray, chosen: tuple[tuple[int, ...], ...]):
        if h == len(per_helper):
            delay = float(file_bits * (acc @ pmf).sum()) if acc.size else 0.0
            if delay < best["delay"]:
                best["delay"] = delay
                best["choice"] = chosen
            return
        col = graph.inv_rates[:, h][:, None]
        for combo, idx in zip(per_helper[h], idx_lists[h]):
            if combo:
                nxt = acc.copy()
                nxt[:, idx] = np.minimum(nxt[:, idx], col)
            else:
                nxt = acc
            recurse(h + 1, nxt, chosen + (combo,))

    recurse(0, inv_bs_mat, ())
    assert best["choice"] is not None
    return UncodedPlacement(
        caches=tuple(frozenset(c) for c in best["choice"]),
        capacities=specs.capacities,
    )


def placement_to_json(placement: UncodedPlacement) -> str:
    """JSON export: helper id (0-based, as a string key) to sorted rank list."""
    import json

    doc = {str(h): sorted(cache) for h, cache in enumerate(placement.caches)}
    return json.dumps(doc, indent=2, sort_keys=True)
