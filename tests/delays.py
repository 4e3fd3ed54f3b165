"""Expected-delay evaluators the tests score placements with.

The simulator itself measures placements by Monte Carlo snapshots
(`macro_sim._satisfied_counts`); these closed forms average over the request
distribution instead and serve as references for the placement policies.
"""

import math

import numpy as np

from helpercache.errors import InfeasiblePlacementError, InvalidParameterError
from helpercache.placement_uncoded import Placement
from helpercache.popularity import PopularityModel
from helpercache.topology import ConnectivityGraph, fetch_fastest_first


def fetch_per_file(graph: ConnectivityGraph, rho: np.ndarray):
    """`fetch_fastest_first` of every file of `rho` as every user's request,
    one file at a time: `(collected, seconds_per_bit)`, each (users, files)."""
    shape = (graph.n_users, graph.n_helpers)
    per_file = [fetch_fastest_first(graph, np.broadcast_to(row, shape)) for row in rho]
    collected, helper = (np.column_stack(a) for a in zip(*per_file))
    return collected, helper


def evaluate_delay(
    placement: Placement,
    graph: ConnectivityGraph,
    pop: PopularityModel,
    file_bits: float,
) -> float:
    """Expected total download delay (seconds) summed over users.

    Each user requests independently from `pop` and downloads at the best rate
    among the base station and the in-range helpers caching the file.
    """
    if placement.rho.shape != (pop.m, graph.n_helpers):
        raise InfeasiblePlacementError("placement shape does not match instance")
    if not math.isfinite(file_bits) or file_bits <= 0:
        raise InvalidParameterError("file_bits must be finite and > 0")
    collected, helper = fetch_per_file(graph, placement.rho)
    inv_bs = (1.0 / graph.bs_rate)[:, None]
    # A whole file comes from the fastest holder or the base station, whichever
    # is faster; a user with no holder in range gets it all from the station.
    best = np.minimum(inv_bs, helper + (1.0 - collected) * inv_bs)
    return float(file_bits * (best @ pop.pmf).sum())


def baseline_delay(graph: ConnectivityGraph, file_bits: float) -> float:
    """Delay with no helper caches at all (every request served by the BS)."""
    return float(file_bits * (1.0 / graph.bs_rate).sum())


def delay_savings(
    placement: Placement,
    graph: ConnectivityGraph,
    pop: PopularityModel,
    file_bits: float,
) -> float:
    return baseline_delay(graph, file_bits) - evaluate_delay(
        placement, graph, pop, file_bits
    )


def evaluate_coded_delay(
    placement: Placement,
    graph: ConnectivityGraph,
    pop: PopularityModel,
    file_bits: float,
) -> float:
    """Expected total delay under fastest-first fractional fetching.

    Each user fills the unit demand from its in-range helpers in decreasing
    rate order, capped by the stored fractions, and fetches the remainder from
    the base station.
    """
    if placement.rho.shape != (pop.m, graph.n_helpers):
        raise InfeasiblePlacementError("placement shape does not match instance")
    if not math.isfinite(file_bits) or file_bits <= 0:
        raise InvalidParameterError("file_bits must be finite and > 0")
    collected, helper = fetch_per_file(graph, placement.rho)
    per_file = helper + (1.0 - collected) * (1.0 / graph.bs_rate)[:, None]
    return file_bits * float((per_file @ pop.pmf).sum())
