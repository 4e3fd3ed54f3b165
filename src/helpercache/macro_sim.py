"""Snapshot simulation of a macro cell whose helpers serve cached files.

Every user issues one request.  A user whose file is fully recoverable from
in-range helper caches downloads it at the helper link rate; everyone else
shares the base station, which under static link rates serves equal time
slices, so each base-station download takes its solo time multiplied by the
number of base-station users.

This module is the one place that knows how a macro experiment is drawn,
planned and measured: fit the popularity (`experiment_popularity`, on the
trace of `fit_synthetic_trace`), draw a helper deployment and the planning
users (`plan_deployment`), place files (`make_placement`), then count the
users served within the deadline over fresh draws.  `place_points` runs the
planning steps; the `place` command and both sweeps call it.

A sweep draws each replication once and scores all its points on it: a
chunk of replications has one flat graph per helper deployment over all
their users, and each point is scored on a chunk by one fetch-kernel call.
The kernel adds each user's helper time in a fixed order, so a replication
scores the same in a chunk as alone.  Chunks hold at most `_CHUNK_ELEMENTS`
user-helper pairs, so memory stays bounded for any `reps`.

Seed handling: every random draw comes from a named substream of the root
seed (`helpers`, `plan-users`, and per-replication `eval-users` /
`requests`), so replication k is the same no matter how many replications
run or how they are chunked, and every sweep point sees identical user
positions and requests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .placement_coded import solve_grouped
from .placement_uncoded import (
    HelperSpecs,
    brute_force_place,
    greedy_place,
    most_popular_place,
)
from .popularity import (
    PopularityModel,
    check_samples,
    fit_zipf,
    request_counts,
    sample_requests,
    zipf_model,
)
from .rng import stream
from .topology import (
    MACRO_LINK,
    ConnectivityGraph,
    build_connectivity,
    check_cell_radius,
    fetch_fastest_first,
    link_rate,
    place_helpers,
    place_uniform,
)

PLACEMENT_POLICIES = ("greedy", "most-popular", "brute-force", "coded")

# A user is helper-served once the collected fraction is within this of 1.
WHOLE_FILE_TOL = 1e-9
# User-helper pairs per chunk of replicates; bounds a sweep's memory.
_CHUNK_ELEMENTS = 1 << 18
# Scored (point, replicate) pairs above which a sweep is refused.  Besides
# its chunks a sweep holds 8 bytes per pair and a row's 8 bytes per replicate
# (measured: 55 bytes per replicate over 8 points), so at most about 0.8 GB.
MAX_SCORES = 5 * 10**7
# Helpers per deployment above which a command is refused.  At 10^4 helpers a
# one-replicate `simulate-macro` takes 0.37 s and 94 MB and a point's placement
# over the default 4000 files is a 40 MB matrix; at 10^5, before this cap, it
# took 4.3 s and 625 MB (2-core Xeon).  The greedy's classes grow with the
# steps taken, not with the helpers: `place --helpers N` at its defaults (100
# files, capacity 3, 24 users) takes 0.28, 0.32, 0.32 and 0.51 s whole process
# and peaks at 39, 42, 43 and 65 MB for N = 128, 256, 1024 and 10^4.
MAX_HELPERS = 10**4
# Bytes of placement matrices one command may hold: a whole-file placement
# takes a byte per (file, helper) entry, a fractional one eight.  The largest
# catalog at 32 helpers takes 320 MB as booleans.
MAX_PLACEMENT_BYTES = 2 * 10**9
# User-helper pairs of one deployment, users times max(helpers, 1), above
# which a command is refused: its positions and connectivity take tens of
# bytes per pair (10^7 users at 32 helpers asked for a 4.77 GiB array).  At
# the cap `simulate-macro --n 312500 --helpers 32 --reps 1 --gamma 0.8`
# takes 0.9-1.0 s and 411 MiB whole process with `--policy most-popular` and
# 2.3-3.3 s and 726 MiB with the greedy, and `place --helpers 10000 --n 1000`
# 3.5-5.5 s and 342 MiB (2-core Xeon, shared with other jobs).
MAX_USER_HELPER_PAIRS = 10**7


def check_placement_bytes(policy: str, m: int, helpers: int) -> None:
    """Refuse placements of m files at `helpers` helpers in all whose
    matrices would take more than MAX_PLACEMENT_BYTES."""
    held = (8 if policy == "coded" else 1) * m * helpers
    if held > MAX_PLACEMENT_BYTES:
        raise InvalidParameterError(
            f"m={m} files at {helpers} helpers take {held} bytes of placements, "
            f"above the cap of {MAX_PLACEMENT_BYTES}"
        )


def check_user_helper_pairs(users: int, helpers: int) -> None:
    """Refuse a deployment whose users times max(helpers, 1) pass
    MAX_USER_HELPER_PAIRS."""
    pairs = users * max(helpers, 1)
    if pairs > MAX_USER_HELPER_PAIRS:
        raise InvalidParameterError(
            f"n={users} users at {helpers} helpers make {pairs} user-helper "
            f"pairs, above the cap of {MAX_USER_HELPER_PAIRS}"
        )


def _deliver(
    graph: ConnectivityGraph, wanted: np.ndarray, file_bits: float
) -> np.ndarray:
    """Download times of one file per user, shaped `wanted.shape[:-1]`.

    `wanted[..., u, h]` is the share of user u's file that helper h stores;
    the graph lists the users of each leading index in turn, and each index
    is a cell with its own base-station share.
    """
    shape = wanted.shape[:-1]
    flat = wanted.reshape(graph.n_users, graph.n_helpers)
    collected, helper = (a.reshape(shape) for a in fetch_fastest_first(graph, flat))
    # All or nothing: a user with less than the whole file in range gets all
    # of it from the base station.
    served = collected >= 1.0 - WHOLE_FILE_TOL
    n_bs = shape[-1] - served.sum(axis=-1, keepdims=True)
    # Dividing first keeps file_bits * n_bs from passing the float range
    # where the time itself does not.
    bs_time = file_bits * (n_bs / graph.bs_rate.reshape(shape))
    return np.where(served, file_bits * helper, bs_time)


@dataclass(frozen=True)
class MacroConfig:
    """Default experiment setup: a 400 m cell, 30 MB files, 200 s deadline.

    Helper caches hold 2000 files of a 4000-file catalog (60 GB of 30 MB
    files).  The request exponent is fitted from a synthetic trace unless
    `gamma` pins it.  Each helper covers the users within `helper_radius_m`,
    so a few tens of helpers can blanket the cell.
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
        for name in ("file_bits", "qos_s", "helper_radius_m"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise InvalidParameterError(f"{name} must be finite and > 0")
        check_cell_radius(self.cell_radius_m)
        # The base-station rate falls with distance, and at the cell edge it
        # rounds to 0 past a radius of about 9.56e6 m.
        if not link_rate(self.cell_radius_m, MACRO_LINK) > 0:
            raise InvalidParameterError(
                f"cell_radius={self.cell_radius_m!r} leaves users at the cell "
                "edge a base-station rate of 0 bit/s"
            )
        if self.helper_mode not in ("grid", "uniform"):
            raise InvalidParameterError("helper_mode must be 'grid' or 'uniform'")
        if self.gamma is not None and (not math.isfinite(self.gamma) or self.gamma < 0):
            raise InvalidParameterError("gamma must be finite and >= 0")
        if self.trace_samples < 2:
            raise InvalidParameterError("trace_samples must be >= 2")
        check_samples("trace_samples", self.trace_samples)
        if not 1 <= self.coded_groups:
            raise InvalidParameterError("coded_groups must be >= 1")


def experiment_popularity(config: MacroConfig, root_seed: int) -> PopularityModel:
    """The request model: `gamma` as given, else fitted from the request
    counts of a synthetic trace."""
    if config.gamma is not None:
        return zipf_model(config.gamma, config.catalog_size)
    gamma_hat, _ = fit_synthetic_trace(
        config.trace_gamma, config.catalog_size, config.trace_samples, root_seed
    )
    return zipf_model(max(gamma_hat, 0.0), config.catalog_size)


def fit_synthetic_trace(gamma: float, m: int, samples: int, root_seed: int):
    """`fit_zipf` of `samples` requests drawn from Zipf(gamma) over m files
    on the `fit-trace` stream: the trace the macro commands fit."""
    model = zipf_model(gamma, m)
    return fit_zipf(request_counts(model, stream(root_seed, "fit-trace"), samples))


def plan_deployment(
    count: int, config: MacroConfig, root_seed: int
) -> tuple[np.ndarray, ConnectivityGraph]:
    """`count` helper positions and the graph a placement is planned on.

    Placement is chosen once, against a planning draw of user positions; the
    replications then measure it on fresh user and request draws.
    """
    radius = config.cell_radius_m
    if config.helper_mode == "uniform":
        helpers = place_uniform(count, radius, stream(root_seed, "helpers", count))
    else:
        helpers = place_helpers(count, radius)
    users = place_uniform(config.n_users, radius, stream(root_seed, "plan-users"))
    return helpers, build_connectivity(helpers, users, config.helper_radius_m)


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
    if policy == "brute-force":
        return brute_force_place(graph, pop, specs, config.file_bits)
    if policy == "coded":
        groups = min(config.coded_groups, pop.m)
        placement, _ = solve_grouped(graph, pop, specs, groups)
        return placement
    raise InvalidParameterError(
        f"unknown policy {policy!r}; expected one of {PLACEMENT_POLICIES}"
    )


def place_points(points, config: MacroConfig, policy: str, root_seed: int):
    """The popularity, the plan of each helper count, and the placement of
    each `(x, helper_count, capacity)` point, once the points pass the
    helper, placement-byte and user-helper caps."""
    largest = max((count for _, count, _ in points), default=0)
    if largest > MAX_HELPERS:
        raise InvalidParameterError(
            f"helpers={largest} exceeds the cap of {MAX_HELPERS}"
        )
    check_placement_bytes(
        policy, config.catalog_size, sum(count for _, count, _ in points)
    )
    check_user_helper_pairs(config.n_users, largest)
    pop = experiment_popularity(config, root_seed)
    plans = {}
    placements = []
    for _, count, capacity in points:
        if count not in plans:
            plans[count] = plan_deployment(count, config, root_seed)
        specs = HelperSpecs.uniform(count, capacity)
        placements.append(make_placement(policy, plans[count][1], pop, specs, config))
    return pop, plans, placements


@dataclass(frozen=True)
class SweepPoint:
    x: float
    mean_satisfied: float
    stderr: float


def _satisfied_counts(
    points, config: MacroConfig, policy: str, reps: int, root_seed: int
) -> np.ndarray:
    """Satisfied users per `(x, helper_count, capacity)` point and replicate.

    `place_points` plans each helper count once and places each point once;
    its placement's (m, H) matrix is kept: boolean for whole files, float for
    fractions (a 0/1 float fetches the same bits as a bool).  At most
    `MAX_SCORES` (point, replicate) pairs are scored.  Replicate k draws its
    users and requests once per sweep and is scored for every point.
    Replicates go in chunks of at most `_CHUNK_ELEMENTS` user-helper
    pairs; each chunk builds one flat graph over its replicates' users per
    distinct helper count and scores every point on that deployment against
    it.  Each replicate has its own streams, so the chunk size changes no
    output.
    """
    if reps < 1:
        raise InvalidParameterError("reps must be >= 1")
    if reps * len(points) > MAX_SCORES:
        raise InvalidParameterError(
            f"reps={reps} over {len(points)} sweep point(s) scores "
            f"{reps * len(points)} replicates, above the cap of {MAX_SCORES}"
        )
    pop, plans, placements = place_points(points, config, policy, root_seed)
    n, radius = config.n_users, config.cell_radius_m
    chunk = max(1, _CHUNK_ELEMENTS // (n * max(max(plans, default=0), 1)))
    satisfied = np.empty((len(points), reps))
    for lo in range(0, reps, chunk):
        ks = range(lo, min(lo + chunk, reps))
        users = np.concatenate(
            [place_uniform(n, radius, stream(root_seed, "eval-users", k)) for k in ks]
        )
        requests = np.stack(
            [sample_requests(pop, stream(root_seed, "requests", k), n) for k in ks]
        )
        for count, (helpers, _) in plans.items():
            graph = build_connectivity(helpers, users, config.helper_radius_m)
            for i in (i for i, point in enumerate(points) if point[1] == count):
                wanted = placements[i].rho[requests - 1]
                times = _deliver(graph, wanted, config.file_bits)
                satisfied[i, lo : ks.stop] = (times <= config.qos_s).sum(axis=-1)
    return satisfied


def _sweep(
    points, config: MacroConfig, policy: str, reps: int, root_seed: int
) -> list[SweepPoint]:
    """Mean and standard error per point of `_satisfied_counts`, whose
    replicates are drawn once per sweep, scored together and chunked under a
    fixed element budget."""
    satisfied = _satisfied_counts(points, config, policy, reps, root_seed)
    out = []
    for (x, _, _), row in zip(points, satisfied):
        err = float(row.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
        out.append(
            SweepPoint(x=float(x), mean_satisfied=float(row.mean()), stderr=err)
        )
    return out


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
    Each replication is drawn once per sweep and scored for every point,
    together with the others in chunks of a fixed size.
    """
    counts = [int(c) for c in counts]
    if any(c < 0 for c in counts):
        raise InvalidParameterError("helper counts must be >= 0")
    points = [(c, c, config.capacity) for c in counts]
    return _sweep(points, config, policy, reps, root_seed)


def sweep_capacity(
    capacities,
    config: MacroConfig,
    policy: str,
    reps: int,
    root_seed: int,
    helper_count: int,
) -> list[SweepPoint]:
    """Mean satisfied users per cache capacity at a fixed helper deployment."""
    if helper_count < 0:
        raise InvalidParameterError("helper_count must be >= 0")
    capacities = [int(c) for c in capacities]
    if any(c < 0 for c in capacities):
        raise InvalidParameterError("capacities must be >= 0")
    points = [(cap, helper_count, cap) for cap in capacities]
    return _sweep(points, config, policy, reps, root_seed)
