"""Plain-Python D2D references the tests check the vectorized model against.

`helpercache.d2d` computes cluster activity on whole arrays of users and
replications; these one-cluster forms spell the caching rules and the
activity rule out user by user.
"""

import numpy as np

from helpercache.d2d import _random_caches
from helpercache.errors import InvalidParameterError


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
    return frozenset(int(v) for v in _random_caches(1, M, gamma1, m, rng)[0])


def cluster_active(caches, requests) -> bool:
    """True iff some user's request is held by a different user in the cluster."""
    if len(caches) != len(requests):
        raise InvalidParameterError("caches and requests must have equal length")
    for i, req in enumerate(requests):
        for j, cache in enumerate(caches):
            if j != i and req in cache:
                return True
    return False
