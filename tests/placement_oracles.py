"""Whole-file placement references that only tests use.

`FrozensetPlacement` is the frozenset placement that the policies returned
before every placement became a matrix, kept as it was (checks and
`fractions` included) so the tests can compare the two.  `whole_files` builds
the boolean `Placement` that caches given ranks, as tests write placements
by hand.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from helpercache.errors import InfeasiblePlacementError
from helpercache.placement_uncoded import Placement


@dataclass(frozen=True)
class FrozensetPlacement:
    """One frozenset of cached file ranks (1-based) per helper."""

    caches: tuple[frozenset[int], ...]
    capacities: tuple[int, ...]

    def __post_init__(self):
        # Helpers may share one cache object (most-popular placements do);
        # each distinct object is converted and its ranks checked once.
        given = tuple(self.caches)
        converted: dict[int, frozenset[int]] = {}
        for c in given:
            if id(c) not in converted:
                converted[id(c)] = frozenset(map(int, c))
        caches = tuple(converted[id(c)] for c in given)
        caps = tuple(int(c) for c in self.capacities)
        if len(caches) != len(caps):
            raise InfeasiblePlacementError("one capacity per helper is required")
        checked = set()
        for h, (cache, cap) in enumerate(zip(caches, caps)):
            if len(cache) > cap:
                raise InfeasiblePlacementError(
                    f"helper {h} caches {len(cache)} files, capacity {cap}"
                )
            if id(cache) not in checked:
                checked.add(id(cache))
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


def whole_files(caches, capacities, m: int) -> Placement:
    """The boolean placement over m files that caches the ranks (1-based) of
    `caches[h]` at helper h."""
    rho = np.zeros((m, len(caches)), dtype=bool)
    for h, cache in enumerate(caches):
        rho[[int(f) - 1 for f in cache], h] = True
    return Placement(rho, capacities)
