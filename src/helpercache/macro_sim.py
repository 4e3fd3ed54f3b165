"""Snapshot simulation of a macro cell whose helpers serve cached files.

Every user issues one request.  A user whose file is fully recoverable from
in-range helper caches downloads it at the helper link rate; everyone else
shares the base station, which under static link rates serves equal time
slices, so each base-station download takes its solo time multiplied by the
number of base-station users.

Seed handling: a sweep derives every random draw from named substreams of the
root seed (`plan-users`, `helpers`, and per-replication `eval-users` /
`requests`), so replication k is the same no matter how many replications run,
and every sweep point sees identical user positions and requests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError
from .placement_coded import as_coded, solve_grouped
from .placement_uncoded import HelperSpecs, greedy_place, most_popular_place
from .popularity import (
    PopularityModel,
    fit_zipf,
    sample_requests,
    trace_from_samples,
    zipf_model,
)
from .rng import stream
from .topology import (
    DEFAULT_HELPER_MODEL,
    DEFAULT_MACRO_MODEL,
    CellLayout,
    ConnectivityGraph,
    build_connectivity,
    fetch_fastest_first,
    place_helpers,
    place_uniform,
)

PLACEMENT_POLICIES = ("greedy", "most-popular", "coded")

# A user is helper-served once the collected fraction is within this of 1.
WHOLE_FILE_TOL = 1e-9


@dataclass(frozen=True)
class WorkloadSpec:
    """One simultaneous fixed-size request per user, with a delivery deadline."""

    n_users: int
    file_bits: float = 2.4e8
    qos_s: float = 200.0

    def __post_init__(self):
        if self.n_users < 0:
            raise InvalidParameterError("n_users must be >= 0")
        for name in ("file_bits", "qos_s"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise InvalidParameterError(f"{name} must be finite and > 0")


@dataclass(frozen=True, eq=False)
class SimOutcome:
    download_time: np.ndarray  # seconds, one entry per user
    satisfied_count: int
    helper_served_fraction: float
    qos_s: float


def simulate_snapshot(
    graph: ConnectivityGraph,
    placement,
    pop: PopularityModel,
    workload: WorkloadSpec,
    rng: np.random.Generator,
) -> SimOutcome:
    """One request per user; helpers serve what they hold, the BS the rest.

    A user is helper-served when the requested file is whole at some in-range
    helper, or, for fractional placements, when the in-range fractions sum to
    at least 1 (collected fastest helper first).  Helper links carry no load
    penalty; the base station is shared equally among its users.
    """
    n = graph.n_users
    if workload.n_users != n:
        raise InvalidParameterError("workload.n_users must match the graph")
    rho = as_coded(placement, pop.m).rho
    if rho.shape != (pop.m, graph.n_helpers):
        raise InvalidParameterError("placement does not match the graph")
    requests = sample_requests(pop, rng, n)
    B = workload.file_bits
    collected, helper = fetch_fastest_first(graph, rho[requests - 1])
    # All or nothing: a user with less than the whole file in range gets all
    # of it from the base station.
    served = collected >= 1.0 - WHOLE_FILE_TOL
    times = np.where(served, B * helper, 0.0)
    n_bs = int(n - served.sum())
    if n_bs:
        times[~served] = B * n_bs / graph.bs_rate[~served]
    satisfied = int((times <= workload.qos_s).sum()) if n else 0
    return SimOutcome(
        download_time=times,
        satisfied_count=satisfied,
        helper_served_fraction=float(served.mean()) if n else 0.0,
        qos_s=workload.qos_s,
    )


@dataclass(frozen=True)
class MacroConfig:
    """Default experiment setup: a 400 m cell, 30 MB files, 200 s deadline.

    Helper caches hold 2000 files of a 4000-file catalog (60 GB of 30 MB
    files).  The request exponent is fitted from a synthetic trace unless
    `gamma` pins it.  `helper_radius_m` widens the module default so a few
    tens of helpers can blanket the cell.
    """

    n_users: int = 24
    catalog_size: int = 4000
    capacity: int = 2000
    file_bits: float = 2.4e8
    qos_s: float = 200.0
    cell_radius_m: float = 400.0
    helper_radius_m: float = 150.0
    helper_mode: str = "grid"
    gamma: float | None = None
    trace_gamma: float = 0.8
    trace_samples: int = 200_000
    coded_groups: int = 16

    def __post_init__(self):
        if self.n_users < 1:
            raise InvalidParameterError("n_users must be >= 1")
        if self.catalog_size < 1:
            raise InvalidParameterError("catalog_size must be >= 1")
        if self.capacity < 0:
            raise InvalidParameterError("capacity must be >= 0")
        for name in ("file_bits", "qos_s", "cell_radius_m", "helper_radius_m"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise InvalidParameterError(f"{name} must be finite and > 0")
        if self.helper_mode not in ("grid", "uniform"):
            raise InvalidParameterError("helper_mode must be 'grid' or 'uniform'")
        if self.gamma is not None and (not math.isfinite(self.gamma) or self.gamma < 0):
            raise InvalidParameterError("gamma must be finite and >= 0")
        if self.trace_samples < 2:
            raise InvalidParameterError("trace_samples must be >= 2")
        if not 1 <= self.coded_groups:
            raise InvalidParameterError("coded_groups must be >= 1")

    def workload(self) -> WorkloadSpec:
        return WorkloadSpec(
            n_users=self.n_users, file_bits=self.file_bits, qos_s=self.qos_s
        )


def experiment_models(config: MacroConfig):
    """Helper and base-station link models for the experiment cell."""
    helper = replace(DEFAULT_HELPER_MODEL, helper_radius_m=config.helper_radius_m)
    return helper, DEFAULT_MACRO_MODEL


def experiment_popularity(config: MacroConfig, root_seed: int) -> PopularityModel:
    """The request model: `gamma` as given, else fitted from a synthetic trace."""
    if config.gamma is not None:
        return zipf_model(config.gamma, config.catalog_size)
    source = zipf_model(config.trace_gamma, config.catalog_size)
    samples = sample_requests(
        source, stream(root_seed, "fit-trace"), config.trace_samples
    )
    gamma_hat, _ = fit_zipf(trace_from_samples(samples))
    return zipf_model(max(gamma_hat, 0.0), config.catalog_size)


def make_placement(
    policy: str,
    graph: ConnectivityGraph,
    pop: PopularityModel,
    specs: HelperSpecs,
    config: MacroConfig,
):
    if policy == "greedy":
        return greedy_place(graph, pop, specs, config.file_bits)
    if policy == "most-popular":
        return most_popular_place(specs, pop)
    if policy == "coded":
        groups = min(config.coded_groups, pop.m)
        placement, _ = solve_grouped(graph, pop, specs, groups)
        return placement
    raise InvalidParameterError(
        f"unknown policy {policy!r}; expected one of {PLACEMENT_POLICIES}"
    )


@dataclass(frozen=True)
class SweepPoint:
    x: float
    mean_satisfied: float
    stderr: float


def _replicate(
    helpers: np.ndarray,
    placement,
    pop: PopularityModel,
    config: MacroConfig,
    reps: int,
    root_seed: int,
) -> tuple[float, float]:
    helper_model, macro_model = experiment_models(config)
    workload = config.workload()
    placement = as_coded(placement, pop.m)
    satisfied = np.empty(reps)
    for k in range(reps):
        users = place_uniform(
            config.n_users, config.cell_radius_m, stream(root_seed, "eval-users", k)
        )
        layout = CellLayout(
            cell_radius=config.cell_radius_m, helpers=helpers, users=users
        )
        graph = build_connectivity(layout, helper_model, macro_model)
        outcome = simulate_snapshot(
            graph, placement, pop, workload, stream(root_seed, "requests", k)
        )
        satisfied[k] = outcome.satisfied_count
    mean = float(satisfied.mean())
    err = float(satisfied.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return mean, err


def _plan_graph(
    helpers: np.ndarray, config: MacroConfig, root_seed: int
) -> ConnectivityGraph:
    # Placement is chosen once, against a planning draw of user positions; the
    # replications then measure it on fresh user and request draws.
    users = place_uniform(
        config.n_users, config.cell_radius_m, stream(root_seed, "plan-users")
    )
    helper_model, macro_model = experiment_models(config)
    layout = CellLayout(cell_radius=config.cell_radius_m, helpers=helpers, users=users)
    return build_connectivity(layout, helper_model, macro_model)


def _helper_positions(count: int, config: MacroConfig, root_seed: int) -> np.ndarray:
    rng = stream(root_seed, "helpers", count) if config.helper_mode == "uniform" else None
    return place_helpers(count, config.helper_mode, config.cell_radius_m, rng=rng)


def sweep_helper_count(
    counts,
    config: MacroConfig,
    policy: str,
    reps: int,
    root_seed: int,
) -> list[SweepPoint]:
    """Mean satisfied users per helper count, one placement per point.

    Replications share user-position and request streams across points and
    policies, so curves are paired comparisons rather than independent noise.
    """
    if reps < 1:
        raise InvalidParameterError("reps must be >= 1")
    counts = [int(c) for c in counts]
    if any(c < 0 for c in counts):
        raise InvalidParameterError("helper counts must be >= 0")
    pop = experiment_popularity(config, root_seed)
    points = []
    for count in counts:
        helpers = _helper_positions(count, config, root_seed)
        specs = HelperSpecs.uniform(count, config.capacity)
        placement = make_placement(
            policy, _plan_graph(helpers, config, root_seed), pop, specs, config
        )
        mean, err = _replicate(helpers, placement, pop, config, reps, root_seed)
        points.append(SweepPoint(x=float(count), mean_satisfied=mean, stderr=err))
    return points


def sweep_capacity(
    capacities,
    config: MacroConfig,
    policy: str,
    reps: int,
    root_seed: int,
    helper_count: int = 32,
) -> list[SweepPoint]:
    """Mean satisfied users per cache capacity at a fixed helper deployment."""
    if reps < 1:
        raise InvalidParameterError("reps must be >= 1")
    if helper_count < 0:
        raise InvalidParameterError("helper_count must be >= 0")
    capacities = [int(c) for c in capacities]
    if any(c < 0 for c in capacities):
        raise InvalidParameterError("capacities must be >= 0")
    pop = experiment_popularity(config, root_seed)
    helpers = _helper_positions(helper_count, config, root_seed)
    plan = _plan_graph(helpers, config, root_seed)
    points = []
    for cap in capacities:
        specs = HelperSpecs.uniform(helper_count, cap)
        placement = make_placement(policy, plan, pop, specs, config)
        mean, err = _replicate(helpers, placement, pop, config, reps, root_seed)
        points.append(SweepPoint(x=float(cap), mean_satisfied=mean, stderr=err))
    return points
