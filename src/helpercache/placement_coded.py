"""Fractional (coded) cache placement via a linear program.

Each helper stores a fraction rho[f, h] of every file: a float `Placement`,
whose boolean case the whole-file policies return.  A user can recover a file
by collecting fractions from the in-range helpers (fastest first) as long as
they sum to one, fetching any remainder from the base station.  Maximizing
the expected delay savings over rho is an LP: auxiliary variables a[u, f, h]
say which fraction user u actually pulls from helper h, weighted by the
per-second savings of that link over the base station.

This module is the one place that knows the LP: `build_lp` assembles it as a
sparse `CSCMatrix` (nonzero guard and row scaling included) from a pmf and
the storage cost of each of its entries, `solve_lp_detailed` scales the
objective and calls `simplex_solve`, which hands it to the HiGHS dual simplex
through the bindings scipy bundles, without importing `scipy.optimize` or
`scipy.sparse`; it returns the solver's `SimplexResult` with the objective
unscaled.

The macro experiments solve a bucketed catalog (`solve_grouped`):
`group_files` splits the ranks into contiguous buckets, given as plain
arrays of sizes and probabilities, the LP places buckets, and each file
takes its bucket's fractions.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import logging
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateInstanceError,
    InfeasiblePlacementError,
    InstanceTooLargeError,
    InvalidParameterError,
    IterationLimitError,
    UnboundedProblemError,
)
from .placement_uncoded import HelperSpecs, Placement
from .popularity import PopularityModel
from .topology import ConnectivityGraph

logger = logging.getLogger(__name__)

# The solve time grows about as the square of A's nonzeros: 99,176 took 6.7 s.
LP_NONZERO_GUARD = 10**5

_HIGHS_MODULE = "scipy.optimize._highspy._core"
_HIGHS_NAMES = (  # what `_highs_solve` reads from that module
    "HighsLp",
    "HighsModelStatus",
    "HighsOptions",
    "MatrixFormat",
    "_Highs",
    "kHighsInf",
)


@dataclass(frozen=True, eq=False)
class CSCMatrix:
    """A sparse matrix in compressed sparse column form, as HiGHS takes it.

    Column j holds value[start[j]:start[j + 1]] in rows index[start[j]:
    start[j + 1]], rows ascending, without duplicates or explicit zeros: the
    order `scipy.sparse.csc_array` gives the dense matrix.  `np.asarray`
    returns the dense matrix.
    """

    start: np.ndarray  # (ncols + 1,) int32
    index: np.ndarray  # (nnz,) int32
    value: np.ndarray  # (nnz,) float64
    shape: tuple[int, int]

    def __array__(self, dtype=None, copy=None):
        dense = np.zeros(self.shape, dtype=dtype)
        cols = np.repeat(np.arange(self.shape[1]), np.diff(self.start))
        dense[self.index, cols] = self.value
        return dense


@dataclass(frozen=True, eq=False)
class LPInstance:
    """max c.x over {A x <= b, 0 <= x <= 1}; x = (rho columns, a columns).

    With m = file_units.size files and H = len(capacities) helpers, rho[f, h]
    (0-based f) occupies column f*H + h; the a variable of kept edge e, in
    row-major (user, helper) order, and file f occupies column m*H + e*m + f.
    Rows: a <= rho per (edge, file), then per (covered user, file)
    sum_h a <= 1, then per-helper capacity.  The capacity rows come pre-scaled
    by 1/max(file_units), so every row of A peaks at 1.
    """

    c: np.ndarray
    A: CSCMatrix
    b: np.ndarray
    capacities: tuple[int, ...]
    file_units: np.ndarray  # per-file storage cost in file units


def build_lp(
    graph: ConnectivityGraph,
    pmf: np.ndarray,
    specs: HelperSpecs,
    file_units,
) -> LPInstance:
    """Assemble the placement LP of the files whose request probabilities are
    `pmf`, most popular first, over the given connectivity.

    Edges whose helper rate is below the user's base-station rate would have
    negative savings weight; they are dropped with a warning.  `file_units`
    give each file's storage cost for the capacity rows: its bucket size for
    a bucketed catalog, 1 for a single file.  Rows are written
    already equilibrated: capacity rows and their bounds are divided by
    max(file_units), the other rows have unit entries.  Raises
    InstanceTooLargeError, before allocating, when A would hold more than
    LP_NONZERO_GUARD (10^5) nonzeros: the solve time grows about as their
    square, and an LP of 99,176 nonzeros took 6.7 s to solve on a 2-core box.
    """
    if specs.n_helpers != graph.n_helpers:
        raise InfeasiblePlacementError("specs/graph helper counts differ")
    if graph.n_users == 0:
        raise DegenerateInstanceError("LP needs at least one user")
    m, H = pmf.size, graph.n_helpers
    units = np.asarray(file_units, dtype=float).ravel()
    # Each capacity coefficient units / max(units) must stay a nonzero float.
    if units.shape != (m,) or not np.all(units / units.max() > 0):
        raise InvalidParameterError("file_units must be positive, one per file")

    users, helpers = np.nonzero(graph.rates > 0)  # row-major (user, helper)
    weight = 1.0 / graph.bs_rate[users] - 1.0 / graph.rates[users, helpers]
    slow = weight < 0
    if slow.any():
        logger.warning(
            "dropped %d helper links slower than the base station",
            np.count_nonzero(slow),
        )
        users, helpers, weight = users[~slow], helpers[~slow], weight[~slow]
    covered, user_slot = np.unique(users, return_inverse=True)

    n_rho = m * H
    n_link = users.size * m  # one a column and one a <= rho row per (edge, file)
    n_demand = covered.size * m
    ncols = n_rho + n_link
    nrows = n_link + n_demand + H
    nnz = n_rho + 3 * n_link  # rho: a capacity entry and its links; a: two
    if nnz > LP_NONZERO_GUARD:
        raise InstanceTooLargeError(
            f"LP of {nrows} x {ncols} has {nnz} nonzeros, above the guard of "
            f"{LP_NONZERO_GUARD}; use fewer users or coded groups"
        )

    # rho column f*H + h: the link rows e*m + f of helper h's edges, in
    # ascending e, then capacity row h.  `rows` holds that pattern for f = 0.
    per_helper = np.bincount(helpers, minlength=H) + 1
    capacity_at = np.cumsum(per_helper) - 1
    is_link = np.ones(users.size + H, dtype=bool)
    is_link[capacity_at] = False
    rows = np.empty(is_link.size, dtype=np.int64)
    rows[is_link] = np.argsort(helpers, kind="stable") * m
    rows[capacity_at] = n_link + n_demand + np.arange(H)
    files = np.arange(m)
    top = units.max()
    rho_index = rows + files[:, None] * is_link
    rho_value = np.where(is_link, -1.0, (units / top)[:, None])
    # a column n_rho + e*m + f: link row e*m + f, then demand row of (user, f).
    link = np.arange(n_link)
    demand = n_link + (user_slot[:, None] * m + files).ravel()
    lengths = np.concatenate((np.tile(per_helper, m), np.full(n_link, 2)))
    A = CSCMatrix(
        start=np.concatenate(([0], np.cumsum(lengths))).astype(np.int32),
        index=np.concatenate(
            (rho_index.ravel(), np.column_stack((link, demand)).ravel())
        ).astype(np.int32),
        value=np.concatenate((rho_value.ravel(), np.ones(2 * n_link))),
        shape=(nrows, ncols),
    )
    b = np.zeros(nrows)
    b[n_link:n_link + n_demand] = 1.0
    b[n_link + n_demand:] = np.asarray(specs.capacities, dtype=float) / top

    c = np.zeros(ncols)
    c[n_rho:] = (weight[:, None] * pmf).ravel()
    return LPInstance(c=c, A=A, b=b, capacities=specs.capacities, file_units=units)


@dataclass(frozen=True)
class SimplexResult:
    x: np.ndarray
    objective: float
    iterations: int


def simplex_solve(
    c,
    A: CSCMatrix,
    b,
    upper=None,
    max_iterations: int | None = None,
) -> SimplexResult:
    """Maximize c.x over {A x <= b, 0 <= x <= upper} with the HiGHS dual simplex.

    HiGHS: Huangfu & Hall, "Parallelizing the dual revised simplex method",
    Math. Prog. Comp. 2018.  The LP goes straight to the HiGHS bindings that
    scipy bundles, loaded without importing scipy, with the options
    `scipy.optimize.linprog(method="highs-ds")` sets; on a scipy that ships no
    such bindings, `linprog` itself solves it.  Either way presolve is off, so
    the iteration limit counts simplex iterations on the problem as given.
    HiGHS tolerances are absolute: callers whose coefficients are far from 1
    should equilibrate first.

    `upper` may contain np.inf; omitted means all-unbounded above.  Requires
    b >= 0.  Raises UnboundedProblemError, or IterationLimitError on the
    iteration limit (default 50x the variable count, slacks included) and on
    any other non-optimal HiGHS status.
    """
    c = np.asarray(c, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    nrows, nstruct = A.shape
    if c.size != nstruct or b.size != nrows:
        raise InvalidParameterError("inconsistent LP dimensions")
    if np.any(b < 0):
        raise InvalidParameterError("this solver requires b >= 0")
    if upper is None:
        upper = np.full(nstruct, np.inf)
    else:
        upper = np.asarray(upper, dtype=float).ravel()
        if upper.size != nstruct or np.any(upper < 0):
            raise InvalidParameterError("upper bounds must be >= 0, one per variable")
    if max_iterations is None:
        max_iterations = 50 * max(nstruct + nrows, 1)

    core = _highs_core()
    if core is None:
        x, iterations = _linprog_solve(c, A, b, upper, max_iterations)
    else:
        x, iterations = _highs_solve(core, c, A, b, upper, max_iterations)
    return SimplexResult(x=x, objective=float(c @ x), iterations=iterations)


@functools.cache
def _highs_core():
    """scipy's compiled HiGHS bindings, or None where scipy ships none.

    The module is loaded from its file and registered under its own name, so
    a later `import scipy.optimize` reuses it instead of loading it twice.
    """
    core = sys.modules.get(_HIGHS_MODULE)
    if core is None:
        scipy = importlib.util.find_spec("scipy")
        folders = scipy.submodule_search_locations if scipy else ()
        paths = [
            os.path.join(folder, "optimize", "_highspy", "_core" + suffix)
            for folder in folders
            for suffix in importlib.machinery.EXTENSION_SUFFIXES
        ]
        paths = [path for path in paths if os.path.isfile(path)]
        if not paths:
            return None
        spec = importlib.util.spec_from_file_location(_HIGHS_MODULE, paths[0])
        core = importlib.util.module_from_spec(spec)
        sys.modules[_HIGHS_MODULE] = core
        spec.loader.exec_module(core)
    if not all(hasattr(core, name) for name in _HIGHS_NAMES):
        return None
    return core


def _stopped(max_iterations: int, status: str) -> IterationLimitError:
    return IterationLimitError(
        f"LP solve stopped before an optimum (limit {max_iterations} "
        f"iterations): {status}"
    )


def _highs_solve(core, c, A: CSCMatrix, b, upper, max_iterations: int):
    """(x, iterations) of min -c.x, as `linprog(method="highs-ds")` solves it."""
    nrows, ncols = A.shape
    lp = core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = ncols
    lp.num_row_ = lp.a_matrix_.num_row_ = nrows
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = A.start
    lp.a_matrix_.index_ = A.index
    lp.a_matrix_.value_ = A.value
    lp.col_cost_ = -c
    lp.col_lower_ = np.zeros(ncols)
    lp.col_upper_ = upper
    lp.row_lower_ = np.full(nrows, -core.kHighsInf)
    lp.row_upper_ = b
    options = core.HighsOptions()
    options.presolve = "off"
    options.solver = "simplex"
    options.simplex_strategy = 1  # dual
    options.highs_debug_level = 0
    options.output_flag = False
    options.log_to_console = False
    options.simplex_iteration_limit = max_iterations
    options.ipm_iteration_limit = max_iterations
    highs = core._Highs()
    highs.passOptions(options)
    highs.passModel(lp)
    highs.run()
    status = highs.getModelStatus()
    if status == core.HighsModelStatus.kUnbounded:
        raise UnboundedProblemError("objective is unbounded above")
    if status != core.HighsModelStatus.kOptimal:
        raise _stopped(max_iterations, highs.modelStatusToString(status))
    x = np.array(highs.getSolution().col_value)
    return x, int(highs.getInfo().simplex_iteration_count)


def _linprog_solve(c, A: CSCMatrix, b, upper, max_iterations: int):
    """(x, iterations) from `scipy.optimize.linprog`, for a scipy without the
    HiGHS bindings `_highs_solve` drives."""
    from scipy.optimize import linprog
    from scipy.sparse import csc_array

    res = linprog(
        -c,
        A_ub=csc_array((A.value, A.index, A.start), shape=A.shape),
        b_ub=b,
        bounds=np.column_stack((np.zeros(c.size), upper)),
        method="highs-ds",
        options={"presolve": False, "maxiter": max_iterations},
    )
    if res.status == 3:  # unbounded
        raise UnboundedProblemError("objective is unbounded above")
    if res.status != 0:
        raise _stopped(max_iterations, res.message)
    return res.x, int(res.nit)


def solve_lp_detailed(instance: LPInstance) -> tuple[Placement, SimplexResult]:
    """Solve the placement LP to optimality with `simplex_solve` (HiGHS).

    The rows come equilibrated from `build_lp`; the objective is scaled here,
    because the savings weights are about 1e-7 s/bit, below the solver's
    absolute tolerances.  The result's objective is `instance.c` times its x:
    the expected savings in seconds per file bit, unscaled.
    """
    c = instance.c
    m, H = instance.file_units.size, len(instance.capacities)
    if c.size == 0:
        rho = np.zeros((m, H))
        placement = Placement(rho, instance.capacities)
        return placement, SimplexResult(x=np.zeros(0), objective=0.0, iterations=0)
    obj_scale = max(float(np.abs(c).max()), 1e-300)
    result = simplex_solve(c / obj_scale, instance.A, instance.b, upper=np.ones(c.size))
    x = result.x
    rho = x[: m * H].reshape(m, H).copy()
    rho = np.clip(rho, 0.0, 1.0)
    # Undo any capacity drift from the solver's feasibility tolerance.
    used = instance.file_units @ rho
    for h, cap in enumerate(instance.capacities):
        if used[h] > cap:
            rho[:, h] *= cap / used[h]
    placement = Placement(rho, instance.capacities)
    return placement, replace(result, objective=float(c @ x))


def group_files(pop: PopularityModel, group_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Split ranks 1..m into `group_count` contiguous near-equal buckets:
    (files per bucket, request probability of each bucket).

    Larger buckets come first (sizes differ by at most one), which keeps the
    bucket probabilities non-increasing.
    """
    if not 1 <= group_count <= pop.m:
        raise InvalidParameterError("group_count must be in [1, m]")
    base, rem = divmod(pop.m, group_count)
    sizes = np.array([base + 1] * rem + [base] * (group_count - rem), dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    masses = np.add.reduceat(pop.pmf, starts)
    return sizes, masses / masses.sum()


def solve_grouped(
    graph: ConnectivityGraph,
    pop: PopularityModel,
    specs: HelperSpecs,
    groups: int,
) -> tuple[Placement, SimplexResult]:
    """Bucket the catalog, solve the bucket LP, and give every file of a
    bucket the bucket's fractions.

    The bucket LP charges each bucket its size in file units, so expanded
    placements respect the original capacities exactly.
    """
    sizes, pmf = group_files(pop, groups)
    buckets, result = solve_lp_detailed(build_lp(graph, pmf, specs, sizes))
    rho = np.repeat(buckets.rho, sizes, axis=0)
    return Placement(rho, buckets.capacities), result
