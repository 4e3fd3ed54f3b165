"""One macro-cell snapshot scored on a single graph, for tests.

`simulate_snapshot` draws one request per user from its own stream and
scores them through `macro_sim._deliver`, the scorer the sweeps use; which
users helpers served comes from the fetch kernel under the same rule.  Tests
use it as the per-replicate oracle of the batched sweep and to probe the
delivery rules on small hand-built graphs.
"""

import math
from dataclasses import dataclass

import numpy as np

from helpercache.errors import InvalidParameterError
from helpercache.macro_sim import WHOLE_FILE_TOL, _deliver
from helpercache.placement_uncoded import Placement
from helpercache.popularity import PopularityModel, sample_requests
from helpercache.topology import ConnectivityGraph, fetch_fastest_first


@dataclass(frozen=True, eq=False)
class SimOutcome:
    download_time: np.ndarray  # seconds, one entry per user
    satisfied_count: int
    helper_served_fraction: float


def simulate_snapshot(
    graph: ConnectivityGraph,
    placement,
    pop: PopularityModel,
    file_bits: float,
    qos_s: float,
    rng: np.random.Generator,
) -> SimOutcome:
    """One request of `file_bits` per graph user; helpers serve what they
    hold, the BS the rest; users done within `qos_s` seconds are satisfied.

    A user is helper-served when the requested file is whole at some in-range
    helper, or, for fractional placements, when the in-range fractions sum to
    at least 1 (collected fastest helper first).  Helper links carry no load
    penalty; the base station is shared equally among its users.
    """
    for name, value in (("file_bits", file_bits), ("qos_s", qos_s)):
        if not math.isfinite(value) or value <= 0:
            raise InvalidParameterError(f"{name} must be finite and > 0")
    n = graph.n_users
    if not isinstance(placement, Placement):
        raise InvalidParameterError("placement must be a Placement")
    rho = placement.rho
    if rho.shape != (pop.m, graph.n_helpers):
        raise InvalidParameterError("placement does not match the graph")
    requests = sample_requests(pop, rng, n)
    wanted = rho[requests - 1]
    times = _deliver(graph, wanted, file_bits)
    served = fetch_fastest_first(graph, wanted)[0] >= 1.0 - WHOLE_FILE_TOL
    return SimOutcome(
        download_time=times,
        satisfied_count=int((times <= qos_s).sum()),
        helper_served_fraction=float(served.mean()) if n else 0.0,
    )
