"""Fractional (coded) cache placement via a linear program.

Each helper stores a fraction rho[f, h] of every file; a user can recover a
file by collecting fractions from the in-range helpers (fastest first) as long
as they sum to one, fetching any remainder from the base station.  Maximizing
the expected delay savings over rho is an LP: auxiliary variables a[u, f, h]
say which fraction user u actually pulls from helper h, weighted by the
per-second savings of that link over the base station.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInstanceError,
    InfeasiblePlacementError,
    InstanceTooLargeError,
    InvalidParameterError,
)
from .placement_uncoded import HelperSpecs, UncodedPlacement
from .popularity import PopularityModel
from .simplex import simplex_solve
from .topology import ConnectivityGraph, fetch_fastest_first

logger = logging.getLogger(__name__)

RHO_TOL = 1e-9
DENSE_LP_GUARD_BYTES = 10**9  # the solve holds a few copies of the dense A


@dataclass(frozen=True, eq=False)
class CodedPlacement:
    """Stored fraction of each file at each helper, rho in [0, 1]^(m x H)."""

    rho: np.ndarray  # (m, n_helpers)
    capacities: tuple[int, ...]

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        caps = tuple(int(c) for c in self.capacities)
        if rho.ndim != 2 or rho.shape[1] != len(caps):
            raise InfeasiblePlacementError("rho must be (m, n_helpers)")
        if np.any(rho < -RHO_TOL) or np.any(rho > 1 + RHO_TOL):
            raise InfeasiblePlacementError("rho entries must lie in [0, 1]")
        rho = np.clip(rho, 0.0, 1.0)
        used = rho.sum(axis=0)
        for h, cap in enumerate(caps):
            if used[h] > cap + 1e-9:
                raise InfeasiblePlacementError(
                    f"helper {h} stores {used[h]:.12g} file units, capacity {cap}"
                )
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "capacities", caps)

    @property
    def m(self) -> int:
        return self.rho.shape[0]

    @property
    def n_helpers(self) -> int:
        return self.rho.shape[1]

    @classmethod
    def from_uncoded(cls, placement: UncodedPlacement, m: int) -> "CodedPlacement":
        """0/1 fractions equivalent to a whole-file placement."""
        return cls(rho=placement.fractions(m), capacities=placement.capacities)


def as_coded(placement, m: int) -> CodedPlacement:
    """Either placement kind as stored fractions (whole files become 0/1)."""
    if isinstance(placement, CodedPlacement):
        return placement
    if isinstance(placement, UncodedPlacement):
        return CodedPlacement.from_uncoded(placement, m)
    raise InvalidParameterError(
        "placement must be an UncodedPlacement or a CodedPlacement"
    )


@dataclass(frozen=True, eq=False)
class LPInstance:
    """max c.x over {A x <= b, 0 <= x <= upper}; x = (rho columns, a columns).

    Column layout: rho[f, h] occupies column (f-1)*n_helpers + h; the a
    variable of edge e (see `edges`) and file f occupies column
    n_rho + e*m + (f-1).  Rows: a <= rho, then per-(covered user, file)
    sum_h a <= 1, then per-helper capacity.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    upper: np.ndarray
    m: int
    n_helpers: int
    edges: tuple[tuple[int, int, float], ...]  # (user, helper, weight)
    capacities: tuple[int, ...]
    file_units: np.ndarray  # per-file storage cost in file units
    inv_bs_sum: float  # sum over users of 1/bs_rate
    file_bits: float

    @property
    def n_rho(self) -> int:
        return self.m * self.n_helpers

    def col_rho(self, f: int, h: int) -> int:
        return (f - 1) * self.n_helpers + h

    def col_a(self, edge_index: int, f: int) -> int:
        return self.n_rho + edge_index * self.m + (f - 1)

    def delay_from_objective(self, objective: float) -> float:
        """Expected total delay implied by an LP objective value (savings)."""
        return self.file_bits * (self.inv_bs_sum - objective)


def build_lp(
    graph: ConnectivityGraph,
    pop: PopularityModel,
    specs: HelperSpecs,
    file_bits: float,
    file_units=None,
) -> LPInstance:
    """Assemble the placement LP for the given connectivity and popularity.

    Edges whose helper rate is below the user's base-station rate would have
    negative savings weight; they are dropped with a warning.  `file_units`
    give each file's storage cost for the capacity rows (defaults to 1 per
    file; bucketed catalogs pass their bucket sizes here).  Raises
    InstanceTooLargeError when the dense constraint matrix would exceed
    DENSE_LP_GUARD_BYTES.
    """
    if specs.n_helpers != graph.n_helpers:
        raise InfeasiblePlacementError("specs/graph helper counts differ")
    if graph.n_users == 0:
        raise DegenerateInstanceError("LP needs at least one user")
    if not math.isfinite(file_bits) or file_bits <= 0:
        raise InvalidParameterError("file_bits must be finite and > 0")
    m, H = pop.m, graph.n_helpers
    if file_units is None:
        units = np.ones(m)
    else:
        units = np.asarray(file_units, dtype=float).ravel()
        if units.shape != (m,) or np.any(units <= 0):
            raise InvalidParameterError("file_units must be positive, one per file")

    edges: list[tuple[int, int, float]] = []
    dropped = 0
    for u in range(graph.n_users):
        bs = graph.bs_rate[u]
        for h in np.flatnonzero(graph.rates[u] > 0):
            rate = graph.rates[u, h]
            w = 1.0 / bs - 1.0 / rate
            if w < 0:
                dropped += 1
                continue
            edges.append((u, int(h), float(w)))
    if dropped:
        logger.warning(
            "dropped %d helper links slower than the base station", dropped
        )

    n_rho = m * H
    n_edges = len(edges)
    n_a = n_edges * m
    ncols = n_rho + n_a

    covered = sorted({u for u, _, _ in edges})
    edge_ids_of_user = {u: [] for u in covered}
    for e, (u, _, _) in enumerate(edges):
        edge_ids_of_user[u].append(e)

    nrows = n_edges * m + len(covered) * m + H
    dense_bytes = nrows * ncols * 8
    if dense_bytes > DENSE_LP_GUARD_BYTES:
        raise InstanceTooLargeError(
            f"dense LP of {nrows} x {ncols} needs {dense_bytes / 1e9:.2f} GB, "
            f"above the guard of {DENSE_LP_GUARD_BYTES / 1e9:g} GB; "
            "use fewer users or coded groups"
        )
    A = np.zeros((nrows, ncols))
    b = np.zeros(nrows)

    row = 0
    for e, (_, h, _) in enumerate(edges):
        for f in range(1, m + 1):
            A[row, n_rho + e * m + (f - 1)] = 1.0
            A[row, (f - 1) * H + h] = -1.0
            row += 1
    for u in covered:
        for f in range(1, m + 1):
            for e in edge_ids_of_user[u]:
                A[row, n_rho + e * m + (f - 1)] = 1.0
            b[row] = 1.0
            row += 1
    for h in range(H):
        cols = (np.arange(m)) * H + h
        A[row, cols] = units
        b[row] = float(specs.capacities[h])
        row += 1
    assert row == nrows

    c = np.zeros(ncols)
    for e, (u, _, w) in enumerate(edges):
        c[n_rho + e * m : n_rho + (e + 1) * m] = pop.pmf * w

    upper = np.ones(ncols)
    inv_bs_sum = float((1.0 / graph.bs_rate).sum())
    return LPInstance(
        c=c,
        A=A,
        b=b,
        upper=upper,
        m=m,
        n_helpers=H,
        edges=tuple(edges),
        capacities=specs.capacities,
        file_units=units,
        inv_bs_sum=inv_bs_sum,
        file_bits=float(file_bits),
    )


@dataclass(frozen=True)
class LPReport:
    objective: float
    delay_s: float
    iterations: int


def solve_lp_detailed(instance: LPInstance) -> tuple[CodedPlacement, LPReport]:
    """Solve the placement LP to optimality with `simplex_solve` (HiGHS).

    Rows and the objective are equilibrated first: the savings weights are
    about 1e-7 s/bit, below the solver's absolute tolerances.
    """
    c = instance.c
    A = instance.A
    b = instance.b
    if c.size == 0:
        rho = np.zeros((instance.m, instance.n_helpers))
        placement = CodedPlacement(rho=rho, capacities=instance.capacities)
        return placement, LPReport(
            objective=0.0,
            delay_s=instance.delay_from_objective(0.0),
            iterations=0,
        )
    # Equilibrate rows and the objective so pivot tolerances see O(1) numbers.
    row_scale = np.maximum(np.abs(A).max(axis=1), 1e-300)
    obj_scale = max(float(np.abs(c).max()), 1e-300)
    result = simplex_solve(
        c / obj_scale,
        A / row_scale[:, None],
        b / row_scale,
        upper=instance.upper,
    )
    x = result.x
    rho = x[: instance.n_rho].reshape(instance.m, instance.n_helpers).copy()
    rho = np.clip(rho, 0.0, 1.0)
    # Undo any capacity drift from the solver's feasibility tolerance.
    used = instance.file_units @ rho
    for h, cap in enumerate(instance.capacities):
        if used[h] > cap:
            rho[:, h] *= cap / used[h]
    placement = CodedPlacement(rho=rho, capacities=instance.capacities)
    objective = float(instance.c @ x)
    return placement, LPReport(
        objective=objective,
        delay_s=instance.delay_from_objective(objective),
        iterations=result.iterations,
    )


def solve_lp(instance: LPInstance) -> CodedPlacement:
    return solve_lp_detailed(instance)[0]


def evaluate_coded_delay(
    placement: CodedPlacement,
    graph: ConnectivityGraph,
    pop: PopularityModel,
    file_bits: float,
) -> float:
    """Expected total delay under fastest-first fractional fetching.

    Each user fills the unit demand from its in-range helpers in decreasing
    rate order, capped by the stored fractions, and fetches the remainder from
    the base station.
    """
    if placement.n_helpers != graph.n_helpers or placement.m != pop.m:
        raise InfeasiblePlacementError("placement shape does not match instance")
    if not math.isfinite(file_bits) or file_bits <= 0:
        raise InvalidParameterError("file_bits must be finite and > 0")
    rho = placement.rho
    collected, helper = fetch_fastest_first(
        graph, np.broadcast_to(rho, (graph.n_users,) + rho.shape)
    )
    per_file = helper + (1.0 - collected) * (1.0 / graph.bs_rate)[:, None]
    return file_bits * float((per_file @ pop.pmf).sum())


@dataclass(frozen=True, eq=False)
class GroupedCatalog:
    """Contiguous popularity buckets of a catalog, most popular bucket first."""

    pmf: np.ndarray  # (groups,) bucket masses
    sizes: np.ndarray  # (groups,) files per bucket
    starts: np.ndarray  # (groups,) first rank (1-based) of each bucket

    @property
    def groups(self) -> int:
        return self.pmf.size

    @property
    def m(self) -> int:
        return int(self.sizes.sum())


def group_files(pop: PopularityModel, group_count: int) -> GroupedCatalog:
    """Split ranks 1..m into `group_count` contiguous near-equal buckets.

    Larger buckets come first (sizes differ by at most one), which keeps the
    bucket masses non-increasing.
    """
    if not 1 <= group_count <= pop.m:
        raise InvalidParameterError("group_count must be in [1, m]")
    base, rem = divmod(pop.m, group_count)
    sizes = np.array([base + 1] * rem + [base] * (group_count - rem), dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    masses = np.add.reduceat(pop.pmf, starts)
    return GroupedCatalog(pmf=masses, sizes=sizes, starts=starts + 1)


def grouped_popularity(grouped: GroupedCatalog) -> PopularityModel:
    """A popularity model over bucket indices (mass of each bucket)."""
    pmf = grouped.pmf / grouped.pmf.sum()
    return PopularityModel(gamma=math.nan, m=grouped.groups, pmf=pmf)


def expand_grouped_rho(
    grouped: GroupedCatalog, bucket_placement: CodedPlacement
) -> CodedPlacement:
    """Per-file fractions from a bucket-level solution (uniform within bucket)."""
    if bucket_placement.m != grouped.groups:
        raise InfeasiblePlacementError("bucket placement does not match grouping")
    rho = np.repeat(bucket_placement.rho, grouped.sizes, axis=0)
    return CodedPlacement(rho=rho, capacities=bucket_placement.capacities)


def solve_grouped(
    graph: ConnectivityGraph,
    pop: PopularityModel,
    specs: HelperSpecs,
    file_bits: float,
    groups: int,
) -> tuple[CodedPlacement, LPReport]:
    """Bucket the catalog, solve the bucket LP, and expand to per-file rho.

    The bucket LP charges each bucket its size in file units, so expanded
    placements respect the original capacities exactly.
    """
    grouped = group_files(pop, groups)
    bucket_pop = grouped_popularity(grouped)
    instance = build_lp(
        graph, bucket_pop, specs, file_bits, file_units=grouped.sizes
    )
    bucket_placement, report = solve_lp_detailed(instance)
    return expand_grouped_rho(grouped, bucket_placement), report


def coded_placement_rows(placement: CodedPlacement):
    """Nonzero (file_rank, helper_id, rho) triples, rank-major order."""
    rows = []
    for f in range(placement.m):
        for h in range(placement.n_helpers):
            value = float(placement.rho[f, h])
            if value > 0.0:
                rows.append((f + 1, h, value))
    return rows
