"""Trace helpers and the Zipf fit that the array fit replaced, for tests.

`sorted_fit` is the former body of `popularity.fit_zipf`: it ranks the
trace's (file id, count) pairs with `sorted()` and fits the log-log line.
`trace_from_samples` aggregates sampled ranks into a `RequestTrace`.
"""

import numpy as np

from helpercache.errors import InsufficientDataError
from helpercache.popularity import RequestTrace


def trace_from_samples(ranks: np.ndarray) -> RequestTrace:
    """Aggregate sampled ranks into a trace (file id = rank)."""
    ids, counts = np.unique(np.asarray(ranks, dtype=np.int64), return_counts=True)
    return RequestTrace.from_pairs(zip(ids.tolist(), counts.tolist()))


def sorted_fit(trace: RequestTrace) -> tuple[float, int]:
    """Fit (gamma_hat, m_hat) from a request trace.

    Files are ranked by descending count (ties broken by ascending file id) and
    gamma_hat is minus the slope of the ordinary least-squares line of
    log(count) against log(rank).  m_hat is the number of distinct files.
    """
    if len(trace.counts) < 2:
        raise InsufficientDataError("need at least two distinct files to fit")
    ordered = sorted(trace.counts, key=lambda fc: (-fc[1], fc[0]))
    counts = np.array([c for _, c in ordered], dtype=float)
    ranks = np.arange(1, len(ordered) + 1, dtype=float)
    slope, _ = np.polyfit(np.log(ranks), np.log(counts), 1)
    return -float(slope), len(ordered)
