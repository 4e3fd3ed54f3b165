import itertools

import numpy as np
import pytest
from lp_matrices import to_csc

from helpercache import placement_coded
from helpercache import rng as hrng
from helpercache.errors import (
    InvalidParameterError,
    IterationLimitError,
    UnboundedProblemError,
)
from helpercache.placement_coded import simplex_solve

FEAS_TOL = 1e-8


def enumerate_vertices(c, A, b, upper):
    """Best objective over all basic feasible points of {Ax<=b, 0<=x<=upper}.

    Stacks the row constraints with the box faces and tries every choice of n
    active constraints; singular combinations are filtered by determinant and
    the rest are solved in one stacked call.
    """
    n = c.size
    rows = np.vstack([A, np.eye(n), -np.eye(n)])
    rhs = np.concatenate([b, upper, np.zeros(n)])
    combos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(rows.shape[0]), n)),
        dtype=np.intp,
    ).reshape(-1, n)
    mats = rows[combos]
    basic = np.abs(np.linalg.det(mats)) >= 1e-10
    x = np.linalg.solve(mats[basic], rhs[combos[basic], None])[..., 0]
    feasible = (
        np.all(x @ A.T <= b + FEAS_TOL, axis=1)
        & np.all(x >= -FEAS_TOL, axis=1)
        & np.all(x <= upper + FEAS_TOL, axis=1)
    )
    if not feasible.any():
        return None
    return float((x[feasible] @ c).max())


def random_lp(rng):
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, 6))
    c = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    b = rng.uniform(0.5, 2.0, size=m)
    upper = rng.uniform(0.5, 2.0, size=n)
    return c, A, b, upper


def check_solution(c, A, b, upper, result):
    assert np.all(A @ result.x <= b + FEAS_TOL)
    assert np.all(result.x >= -FEAS_TOL)
    assert np.all(result.x <= upper + FEAS_TOL)
    assert result.objective == pytest.approx(float(c @ result.x), abs=1e-9)


def test_matches_vertex_enumeration_on_random_lps():
    rng = hrng.stream(2024, "lp-oracle")
    for _ in range(60):
        c, A, b, upper = random_lp(rng)
        result = simplex_solve(c, to_csc(A), b, upper)
        check_solution(c, A, b, upper, result)
        assert result.objective == pytest.approx(
            enumerate_vertices(c, A, b, upper), abs=1e-7
        )


def test_degenerate_right_hand_sides():
    # zero entries in b stack several hyperplanes on the origin; the
    # anti-cycling switch has to cope.
    rng = hrng.stream(77, "degenerate")
    for _ in range(25):
        c, A, b, upper = random_lp(rng)
        b[: b.size // 2 + 1] = 0.0
        result = simplex_solve(c, to_csc(A), b, upper)
        check_solution(c, A, b, upper, result)
        assert result.objective == pytest.approx(
            enumerate_vertices(c, A, b, upper), abs=1e-7
        )


def test_known_small_problems():
    # max 3x+2y st x+y<=4, x+3y<=6 -> (4,0), objective 12
    r = simplex_solve([3, 2], to_csc([[1, 1], [1, 3]]), [4, 6])
    assert r.objective == pytest.approx(12.0, abs=1e-9)
    np.testing.assert_allclose(r.x, [4.0, 0.0], atol=1e-9)
    # box bound binds before the row constraint
    r = simplex_solve([1, 1], to_csc([[1, 1]]), [1.5], upper=[1, 1])
    assert r.objective == pytest.approx(1.5, abs=1e-9)
    # negative costs: optimum stays home
    r = simplex_solve([-1, -2], to_csc([[1, 1]]), [3], upper=[1, 1])
    assert r.objective == pytest.approx(0.0, abs=0)
    np.testing.assert_allclose(r.x, [0.0, 0.0])


def test_upper_bound_flips():
    # optimum needs x1 at its upper bound while x2 enters the basis
    r = simplex_solve([2, 1], to_csc([[1, 1]]), [3], upper=[2, 5])
    assert r.objective == pytest.approx(5.0, abs=1e-9)
    np.testing.assert_allclose(r.x, [2.0, 1.0], atol=1e-9)


def test_unbounded_detection():
    with pytest.raises(UnboundedProblemError):
        simplex_solve([1.0], to_csc(np.zeros((0, 1))), np.zeros(0))
    with pytest.raises(UnboundedProblemError):
        simplex_solve([1.0, 1.0], to_csc([[1.0, -1.0]]), [1.0])


def test_iteration_limit_surfaces():
    with pytest.raises(IterationLimitError):
        simplex_solve([3, 2], to_csc([[1, 1], [1, 3]]), [4, 6], max_iterations=1)


def test_dimension_validation():
    with pytest.raises(InvalidParameterError):
        simplex_solve([1, 2], to_csc([[1, 1, 1]]), [1])
    with pytest.raises(InvalidParameterError):
        simplex_solve([1, 2], to_csc([[1, 1]]), [-1])


def test_linprog_fallback_surfaces_the_same_errors(monkeypatch):
    # Where scipy ships no HiGHS bindings, linprog solves; its statuses map
    # to the same exceptions.
    monkeypatch.setattr(placement_coded, "_highs_core", lambda: None)
    with pytest.raises(UnboundedProblemError):
        simplex_solve([1.0, 1.0], to_csc([[1.0, -1.0]]), [1.0])
    with pytest.raises(IterationLimitError):
        simplex_solve([3, 2], to_csc([[1, 1], [1, 3]]), [4, 6], max_iterations=1)
    r = simplex_solve([2, 1], to_csc([[1, 1]]), [3], upper=[2, 5])
    np.testing.assert_allclose(r.x, [2.0, 1.0], atol=1e-9)
