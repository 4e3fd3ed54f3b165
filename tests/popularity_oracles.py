"""Trace helpers, and the Zipf fit and sampler that the library replaced.

`sorted_fit` is the former body of `popularity.fit_zipf`: it ranks a
trace's (file id, count) pairs with `sorted()` and fits the log-log line.
`trace_from_samples` aggregates sampled ranks into such pairs.
`sample_two_tables` is the former `popularity.sample_requests`, which read
each bucket's lower and upper rank bound from two guide tables
(`guide_bounds`).
"""

import numpy as np

from helpercache.errors import InsufficientDataError
from helpercache.popularity import _GUIDE, _SAMPLE_BLOCK, PopularityModel


def trace_from_samples(ranks: np.ndarray) -> list[tuple[int, int]]:
    """(file id, count) pairs of sampled ranks (file id = rank), by id."""
    ids, counts = np.unique(np.asarray(ranks, dtype=np.int64), return_counts=True)
    return list(zip(ids.tolist(), counts.tolist()))


def sorted_fit(pairs) -> tuple[float, int]:
    """Fit (gamma_hat, m_hat) from (file id, count) pairs; counts below 1 are
    left out.

    Files are ranked by descending count (ties broken by ascending file id) and
    gamma_hat is minus the slope of the ordinary least-squares line of
    log(count) against log(rank).  m_hat is the number of distinct files.
    """
    kept = [(f, c) for f, c in pairs if c >= 1]
    if len(kept) < 2:
        raise InsufficientDataError("need at least two distinct files to fit")
    ordered = sorted(kept, key=lambda fc: (-fc[1], fc[0]))
    counts = np.array([c for _, c in ordered], dtype=float)
    ranks = np.arange(1, len(ordered) + 1, dtype=float)
    slope, _ = np.polyfit(np.log(ranks), np.log(counts), 1)
    return -float(slope), len(ordered)


def guide_bounds(model: PopularityModel) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of searchsorted(cdf, u, "right") over each guide bucket
    b / _GUIDE <= u < (b + 1) / _GUIDE.

    lo[b] counts cdf <= b / _GUIDE, that is ceil(cdf * _GUIDE) <= b, and
    hi[b] counts cdf < (b + 1) / _GUIDE, that is floor(cdf * _GUIDE) <= b;
    the scaling is exact.
    """
    scaled = model.cdf * _GUIDE
    dtype = np.min_scalar_type(model.m)
    lo = np.bincount(np.ceil(scaled).astype(np.intp), minlength=_GUIDE)
    hi = np.bincount(scaled.astype(np.intp), minlength=_GUIDE)
    return np.cumsum(lo[:_GUIDE], dtype=dtype), np.cumsum(hi[:_GUIDE], dtype=dtype)


def sample_two_tables(
    model: PopularityModel, rng: np.random.Generator, size: int
) -> np.ndarray:
    """The former `sample_requests`: ranks read from the lower bound of each
    uniform's bucket, and searched where the bucket's two bounds differ."""
    lo, hi = guide_bounds(model)
    out = np.empty(size, dtype=np.int64)
    for start in range(0, size, _SAMPLE_BLOCK):
        u = rng.random(min(_SAMPLE_BLOCK, size - start))
        bucket = (u * _GUIDE).astype(np.intp)
        ranks = lo[bucket]
        ambiguous = np.flatnonzero(ranks != hi[bucket])
        block = out[start : start + u.size]
        block[:] = ranks
        block[ambiguous] = np.searchsorted(model.cdf, u[ambiguous], side="right")
    out += 1
    return out
