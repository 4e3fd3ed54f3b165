"""The greedy's trajectory and the references the tests check it against.

`greedy_steps` lists the (helper, rank, gain) steps of the run greedy,
`placement_uncoded._greedy`, that `greedy_place` runs.
`class_greedy_steps` is the class greedy that it replaced:
one exact heap entry per class of ranks cached at the same helper set, one
heap operation per cached file.  `lazy_greedy_steps` is the lazy greedy
before it: a heap of m x H upper bounds, one per (rank, helper) pair,
re-queued until the popped bound is exact.  All three must return the same
(helper, rank, gain) trajectory, compared with `==`.
"""

import heapq
import itertools
import math
import sys

import numpy as np
from graph_oracles import rates_of

from helpercache.errors import InfeasiblePlacementError, InvalidParameterError
from helpercache.placement_uncoded import HelperSpecs, _clear_winner, _greedy
from helpercache.popularity import PopularityModel
from helpercache.topology import ConnectivityGraph


def helper_links(graph: ConnectivityGraph):
    """Each helper's users, ascending, and their seconds per bit, read off
    the dense rate matrix."""
    rates = rates_of(graph)
    users_of = [np.flatnonzero(rates[:, h] > 0) for h in range(graph.n_helpers)]
    return users_of, [1.0 / rates[users_of[h], h] for h in range(graph.n_helpers)]


def greedy_steps(
    graph: ConnectivityGraph,
    pop: PopularityModel,
    specs: HelperSpecs,
    file_bits: float,
) -> list[tuple[int, int, float]]:
    """The greedy's trajectory as (helper, rank, gain), one step per cached
    file; see `placement_uncoded._greedy`."""
    helpers, ranks, gains = _greedy(graph, pop, specs, file_bits)
    return list(zip(helpers.tolist(), ranks.tolist(), gains.tolist()))


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


def class_greedy_steps(
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
    users_of, edge_inv = helper_links(graph)
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


def lazy_greedy_steps(graph, pop, specs, file_bits):
    if specs.n_helpers != graph.n_helpers:
        raise InfeasiblePlacementError("specs/graph helper counts differ")
    if not math.isfinite(file_bits) or file_bits <= 0:
        raise InvalidParameterError("file_bits must be finite and > 0")
    n, m = graph.n_users, pop.m
    if n == 0 or all(c == 0 for c in specs.capacities):
        return []
    users_of, edge_inv = helper_links(graph)
    cur_inv = np.repeat((1.0 / graph.bs_rate)[:, None], m, axis=1)

    # With empty caches the gain of (f, h) factorizes as pmf[f] * base[h].
    base = np.array(
        [
            float(np.maximum(0.0, 1.0 / graph.bs_rate[users_of[h]] - edge_inv[h]).sum())
            for h in range(graph.n_helpers)
        ]
    )
    heap = [
        (-file_bits * pop.pmf[f - 1] * base[h], f, h)
        for h in range(graph.n_helpers)
        if specs.capacities[h] > 0 and users_of[h].size > 0
        for f in range(1, m + 1)
    ]
    heapq.heapify(heap)

    room = list(specs.capacities)
    steps: list[tuple[int, int, float]] = []
    while heap:
        _, f, h = heapq.heappop(heap)
        if room[h] == 0:
            continue
        col = cur_inv[users_of[h], f - 1]
        gain = float(
            file_bits * pop.pmf[f - 1] * np.maximum(0.0, col - edge_inv[h]).sum()
        )
        if heap and (-gain, f, h) > heap[0]:
            # Stale bound: someone else may now be better.  Re-queue and retry.
            heapq.heappush(heap, (-gain, f, h))
            continue
        if gain <= 0.0:
            break
        steps.append((h, f, gain))
        cur_inv[users_of[h], f - 1] = np.minimum(col, edge_inv[h])
        room[h] -= 1
    return steps
