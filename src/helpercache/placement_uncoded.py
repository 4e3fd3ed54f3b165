"""Whole-file cache placement: delay evaluation, lazy greedy, and oracles.

A placement stores, for each helper, the set of file ranks cached in full.  A
user's download rate for a file is the best rate among the base station and the
in-range helpers that cache it, so the expected-delay objective is a weighted
coverage function of the chosen (file, helper) pairs: monotone and submodular,
which is what makes the lazy greedy both correct and a 1/2-approximation under
the per-helper capacity constraint.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasiblePlacementError,
    InstanceTooLargeError,
    InvalidParameterError,
)
from .popularity import PopularityModel
from .topology import ConnectivityGraph, fetch_fastest_first

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
        caches = tuple(frozenset(int(f) for f in c) for c in self.caches)
        caps = tuple(int(c) for c in self.capacities)
        if len(caches) != len(caps):
            raise InfeasiblePlacementError("one capacity per helper is required")
        for h, (cache, cap) in enumerate(zip(caches, caps)):
            if len(cache) > cap:
                raise InfeasiblePlacementError(
                    f"helper {h} caches {len(cache)} files, capacity {cap}"
                )
            if any(f < 1 for f in cache):
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


def evaluate_delay(
    placement: UncodedPlacement,
    graph: ConnectivityGraph,
    pop: PopularityModel,
    file_bits: float,
) -> float:
    """Expected total download delay (seconds) summed over users.

    Each user requests independently from `pop` and downloads at the best rate
    among the base station and the in-range helpers caching the file.
    """
    if placement.n_helpers != graph.n_helpers:
        raise InfeasiblePlacementError(
            f"placement has {placement.n_helpers} helpers, graph {graph.n_helpers}"
        )
    if not math.isfinite(file_bits) or file_bits <= 0:
        raise InvalidParameterError("file_bits must be finite and > 0")
    rho = placement.fractions(pop.m)
    collected, helper = fetch_fastest_first(
        graph, np.broadcast_to(rho, (graph.n_users,) + rho.shape)
    )
    inv_bs = (1.0 / graph.bs_rate)[:, None]
    # A whole file comes from the fastest holder or the base station, whichever
    # is faster; a user with no holder in range gets it all from the station.
    best = np.minimum(inv_bs, helper + (1.0 - collected) * inv_bs)
    return float(file_bits * (best @ pop.pmf).sum())


def baseline_delay(graph: ConnectivityGraph, file_bits: float) -> float:
    """Delay with no helper caches at all (every request served by the BS)."""
    return float(file_bits * (1.0 / graph.bs_rate).sum())


def delay_savings(
    placement: UncodedPlacement,
    graph: ConnectivityGraph,
    pop: PopularityModel,
    file_bits: float,
) -> float:
    return baseline_delay(graph, file_bits) - evaluate_delay(
        placement, graph, pop, file_bits
    )


def most_popular_place(specs: HelperSpecs, pop: PopularityModel) -> UncodedPlacement:
    """Every helper independently caches the min(capacity, m) most popular files."""
    caches = tuple(
        frozenset(range(1, min(cap, pop.m) + 1)) for cap in specs.capacities
    )
    return UncodedPlacement(caches=caches, capacities=specs.capacities)


def greedy_steps(
    graph: ConnectivityGraph,
    pop: PopularityModel,
    specs: HelperSpecs,
    file_bits: float,
) -> list[tuple[int, int, float]]:
    """Run the lazy greedy and return its trajectory as (helper, rank, gain).

    Gains are exact marginal delay reductions at the moment of selection; the
    sequence is non-increasing.  Ties break toward lower file rank, then lower
    helper index.  Selection stops at the capacities or at the first
    non-positive marginal gain, whichever comes first.
    """
    if specs.n_helpers != graph.n_helpers:
        raise InfeasiblePlacementError("specs/graph helper counts differ")
    if not math.isfinite(file_bits) or file_bits <= 0:
        raise InvalidParameterError("file_bits must be finite and > 0")
    n, m = graph.n_users, pop.m
    if n == 0 or all(c == 0 for c in specs.capacities):
        return []
    users_of = [graph.users_of(h) for h in range(graph.n_helpers)]
    edge_inv = [graph.inv_rates[users_of[h], h] for h in range(graph.n_helpers)]
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


def greedy_place(
    graph: ConnectivityGraph,
    pop: PopularityModel,
    specs: HelperSpecs,
    file_bits: float,
) -> UncodedPlacement:
    """Lazy-greedy placement (1/2-approximation of the optimal delay savings)."""
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
