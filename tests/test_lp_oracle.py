"""The shipped LP solver (HiGHS) against the dense tableau it replaced.

`tableau_solve` below is the former in-package `simplex_solve`, kept
unchanged as the reference: a dense primal simplex for
max c.x over {A x <= b, 0 <= x <= upper} with b >= 0, which makes the
all-slack basis feasible (no phase one).  Upper bounds are handled implicitly
(nonbasic variables may sit at either bound).  Pivoting is Dantzig's rule
with a permanent switch to Bland's rule after a run of degenerate steps;
among tied leaving rows Dantzig mode prefers the largest pivot magnitude,
Bland mode the lowest variable index.

Both solvers run behind `solve_lp_detailed`, so both see the same
equilibrated LP.  Where the LP has several optimal vertices the two may
return different placements; only the optimum and feasibility are compared.
"""

import numpy as np
import pytest
from graph_oracles import graph_from_rates

from helpercache import placement_coded
from helpercache import rng as hrng
from helpercache.cli import main
from helpercache.errors import (
    InvalidParameterError,
    IterationLimitError,
    UnboundedProblemError,
)
from helpercache.placement_coded import SimplexResult, build_lp, solve_lp_detailed
from helpercache.placement_uncoded import HelperSpecs
from helpercache.popularity import zipf_model
from helpercache.topology import (
    build_connectivity,
    place_helpers,
    place_uniform,
)

OBJECTIVE_REL_TOL = 1e-9
CAPACITY_TOL = 1e-9

ENTER_TOL = 1e-9
PIVOT_TOL = 1e-10
RATIO_TIE_TOL = 1e-9
REFRESH_EVERY = 512


def tableau_solve(
    c,
    A,
    b,
    upper=None,
    max_iterations: int | None = None,
) -> SimplexResult:
    """Maximize c.x over {A x <= b, 0 <= x <= upper}.

    `upper` may contain np.inf; omitted means all-unbounded above.  Requires
    b >= 0.  Raises UnboundedProblemError or IterationLimitError (the default
    limit is 50x the variable count, slacks included).
    """
    c = np.asarray(c, dtype=float).ravel()
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    nstruct = c.size
    if A.size == 0:
        A = A.reshape(0, nstruct)
    nrows = A.shape[0]
    if A.shape[1] != nstruct or b.size != nrows:
        raise InvalidParameterError("inconsistent LP dimensions")
    if np.any(b < 0):
        raise InvalidParameterError("this solver requires b >= 0")
    if upper is None:
        upper = np.full(nstruct, np.inf)
    else:
        upper = np.asarray(upper, dtype=float).ravel()
        if upper.size != nstruct or np.any(upper < 0):
            raise InvalidParameterError("upper bounds must be >= 0, one per variable")

    total = nstruct + nrows
    if max_iterations is None:
        max_iterations = 50 * max(total, 1)

    T = np.hstack([A, np.eye(nrows)])
    cfull = np.concatenate([c, np.zeros(nrows)])
    ubfull = np.concatenate([upper, np.full(nrows, np.inf)])
    zrow = cfull.copy()
    basis = np.arange(nstruct, total)
    in_basis = np.zeros(total, dtype=bool)
    in_basis[basis] = True
    at_upper = np.zeros(total, dtype=bool)
    xB = b.astype(float).copy()

    bland = False
    degenerate_run = 0
    iterations = 0

    def refresh():
        # Re-derive reduced costs and basic values from the tableau to cap
        # accumulated pivot round-off.  T[:, nstruct:] is the basis inverse.
        nonlocal zrow, xB
        zrow = cfull - cfull[basis] @ T
        zrow[basis] = 0.0
        up_idx = np.flatnonzero(at_upper & ~in_basis)
        xB = T[:, nstruct:] @ b
        if up_idx.size:
            xB = xB - T[:, up_idx] @ ubfull[up_idx]

    while True:
        if iterations >= max_iterations:
            raise IterationLimitError(
                f"simplex hit the iteration limit of {max_iterations}"
            )
        if iterations and iterations % REFRESH_EVERY == 0:
            refresh()

        lower_cand = ~in_basis & ~at_upper & (zrow > ENTER_TOL)
        upper_cand = ~in_basis & at_upper & (zrow < -ENTER_TOL)
        eligible = np.flatnonzero(lower_cand | upper_cand)
        if eligible.size == 0:
            break
        if bland:
            j = int(eligible[0])
        else:
            j = int(eligible[np.argmax(np.abs(zrow[eligible]))])
        delta = -1.0 if at_upper[j] else 1.0

        col = T[:, j]
        g = delta * col
        limits = np.full(nrows, np.inf)
        pos = g > PIVOT_TOL
        limits[pos] = np.maximum(xB[pos], 0.0) / g[pos]
        neg = g < -PIVOT_TOL
        if np.any(neg):
            ub_basic = ubfull[basis[neg]]
            finite = np.isfinite(ub_basic)
            idx = np.flatnonzero(neg)[finite]
            limits[idx] = (ubfull[basis[idx]] - xB[idx]) / (-g[idx])
        row_min = float(limits.min()) if nrows else np.inf
        span = ubfull[j]
        tstar = min(row_min, span)
        if not np.isfinite(tstar):
            raise UnboundedProblemError("objective is unbounded above")
        iterations += 1
        degenerate_run = degenerate_run + 1 if tstar <= 1e-11 else 0
        if not bland and degenerate_run > nrows + 50:
            bland = True

        if span <= row_min + RATIO_TIE_TOL and np.isfinite(span):
            # The entering variable traverses to its other bound: no pivot.
            xB -= g * span
            at_upper[j] = not at_upper[j]
            continue

        ties = np.flatnonzero(limits <= tstar + RATIO_TIE_TOL)
        if bland:
            r = int(ties[np.argmin(basis[ties])])
        else:
            r = int(ties[np.argmax(np.abs(col[ties]))])
        piv = T[r, j]
        leaving = int(basis[r])

        xB -= g * tstar
        enter_value = (ubfull[j] - tstar) if at_upper[j] else tstar
        at_upper[leaving] = g[r] < 0
        at_upper[j] = False
        in_basis[leaving] = False
        in_basis[j] = True
        basis[r] = j

        T[r] /= piv
        factor = T[:, j].copy()
        factor[r] = 0.0
        T -= np.outer(factor, T[r])
        zrow = zrow - zrow[j] * T[r]
        zrow[j] = 0.0
        xB[r] = enter_value

    x = np.zeros(total)
    nb_up = at_upper & ~in_basis
    x[nb_up] = ubfull[nb_up]
    x[basis] = np.maximum(xB, 0.0)
    xs = x[:nstruct]
    return SimplexResult(x=xs, objective=float(c @ xs), iterations=iterations)


def solve_both(instance, monkeypatch):
    """(placement, report) from the shipped solver, then from the tableau."""
    shipped = solve_lp_detailed(instance)
    with monkeypatch.context() as patch:
        patch.setattr(placement_coded, "simplex_solve", tableau_solve)
        oracle = solve_lp_detailed(instance)
    return shipped, oracle


def assert_feasible(placement, instance):
    rho = placement.rho
    assert np.all((rho >= 0.0) & (rho <= 1.0))
    used = instance.file_units @ rho
    assert np.all(used <= np.array(instance.capacities) + CAPACITY_TOL)


def random_instance(rng, bucketed: bool):
    n_users = int(rng.integers(1, 9))
    n_helpers = int(rng.integers(2, 7))
    m = int(rng.choice([2, 3, 4]))
    rates = np.where(
        rng.random((n_users, n_helpers)) < 0.6,
        rng.uniform(5e5, 3e7, (n_users, n_helpers)),
        0.0,
    )
    graph = graph_from_rates(rates, rng.uniform(1e6, 4e6, n_users))
    pop = zipf_model(float(rng.uniform(0.0, 1.8)), m)
    units = rng.integers(1, 6, m) if bucketed else np.ones(m)
    specs = HelperSpecs(tuple(int(c) for c in rng.integers(0, m + 1, n_helpers)))
    return build_lp(graph, pop.pmf, specs, units)


@pytest.mark.parametrize("bucketed", [False, True], ids=["unit", "bucketed"])
def test_shipped_solver_matches_tableau_on_random_placement_lps(
    monkeypatch, bucketed
):
    rng = hrng.stream(4242, "lp-backends", int(bucketed))
    for _ in range(60):
        instance = random_instance(rng, bucketed)
        (placement, report), (oracle_placement, oracle) = solve_both(
            instance, monkeypatch
        )
        assert report.objective == pytest.approx(
            oracle.objective, rel=OBJECTIVE_REL_TOL
        )
        assert_feasible(placement, instance)
        assert_feasible(oracle_placement, instance)


def tiny_cost_instance():
    # 32 helpers and 32 users in a 400 m cell: savings weights are ~1e-7 s/bit,
    # below the solver's absolute tolerances unless the LP is equilibrated.
    users = place_uniform(32, 400.0, hrng.stream(3, "c4-users"))
    graph = build_connectivity(place_helpers(32, 400.0), users, 150.0)
    return build_lp(graph, zipf_model(0.8, 4).pmf, HelperSpecs.uniform(32, 2), np.ones(4))


def test_shipped_solver_matches_tableau_on_tiny_costs(monkeypatch):
    instance = tiny_cost_instance()
    assert 0.0 < np.abs(instance.c).max() < 1e-6
    (placement, report), (_, oracle) = solve_both(instance, monkeypatch)
    assert report.objective == pytest.approx(oracle.objective, rel=OBJECTIVE_REL_TOL)
    assert_feasible(placement, instance)


def recorded_solves(monkeypatch, run):
    """The (args, kwargs) of every `simplex_solve` call that `run()` makes."""
    calls = []
    solve = placement_coded.simplex_solve

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return solve(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(placement_coded, "simplex_solve", record)
        run()
    return calls


def test_direct_highs_matches_the_linprog_fallback(monkeypatch, tmp_path):
    # The direct path hands HiGHS the LP and options that linprog does, so
    # both must return the same x, bit for bit, after the same iterations.
    if placement_coded._highs_core() is None:
        pytest.skip("this scipy ships no HiGHS bindings to call directly")
    instances = [tiny_cost_instance()]
    for bucketed in (False, True):
        rng = hrng.stream(4242, "lp-backends", int(bucketed))
        instances += [random_instance(rng, bucketed) for _ in range(60)]
    calls = recorded_solves(
        monkeypatch, lambda: [solve_lp_detailed(i) for i in instances]
    )
    # One pass of the coded benchmark workload: three growing LPs.
    calls += recorded_solves(monkeypatch, lambda: main([
        "sweep-helpers", "--policy", "coded", "--counts", "8,16,32",
        "--coded-groups", "6", "--reps", "40", "--seed", "0",
        "--out", str(tmp_path / "sweep.csv"),
    ]))
    assert len(calls) == 124
    for args, kwargs in calls:
        direct = placement_coded.simplex_solve(*args, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(placement_coded, "_highs_core", lambda: None)
            fallback = placement_coded.simplex_solve(*args, **kwargs)
        assert direct.x.tobytes() == fallback.x.tobytes()
        assert direct.iterations == fallback.iterations
