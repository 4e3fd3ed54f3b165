"""Box-bounded LP maximization through the HiGHS dual simplex.

Solves   max c.x   subject to   A x <= b,   0 <= x <= upper
with b >= 0 (so x = 0 is feasible) by `scipy.optimize.linprog` with
`method="highs-ds"`: Huangfu & Hall, "Parallelizing the dual revised simplex
method", Math. Prog. Comp. 2018.  Presolve is off, so the iteration limit
counts simplex iterations on the problem as given.  HiGHS tolerances are
absolute: callers whose coefficients are far from 1 should equilibrate first
(see `placement_coded.solve_lp_detailed`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameterError,
    IterationLimitError,
    UnboundedProblemError,
)

_UNBOUNDED = 3  # linprog status code


@dataclass(frozen=True)
class SimplexResult:
    x: np.ndarray
    objective: float
    iterations: int


def simplex_solve(
    c,
    A,
    b,
    upper=None,
    max_iterations: int | None = None,
) -> SimplexResult:
    """Maximize c.x over {A x <= b, 0 <= x <= upper}.

    `upper` may contain np.inf; omitted means all-unbounded above.  Requires
    b >= 0.  Raises UnboundedProblemError, or IterationLimitError on the
    iteration limit (default 50x the variable count, slacks included) and on
    any other non-optimal HiGHS status.
    """
    # Imported here so that `import helpercache` does not pay for scipy.
    from scipy.optimize import linprog
    from scipy.sparse import csc_array

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
    if max_iterations is None:
        max_iterations = 50 * max(nstruct + nrows, 1)

    res = linprog(
        -c,
        A_ub=csc_array(A),  # dense input would be copied twice more
        b_ub=b,
        bounds=np.column_stack((np.zeros(nstruct), upper)),
        method="highs-ds",
        options={"presolve": False, "maxiter": max_iterations},
    )
    if res.status == _UNBOUNDED:
        raise UnboundedProblemError("objective is unbounded above")
    if res.status != 0:
        raise IterationLimitError(
            f"LP solve stopped before an optimum (limit {max_iterations} "
            f"iterations): {res.message}"
        )
    return SimplexResult(x=res.x, objective=float(c @ res.x), iterations=int(res.nit))
