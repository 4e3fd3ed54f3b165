"""Dense LP matrices in the CSC form that `simplex_solve` takes.

Tests write small LPs as dense rows; the library builds its own matrices in
CSC form and never needs this conversion.
"""

import numpy as np

from helpercache.placement_coded import CSCMatrix


def to_csc(dense) -> CSCMatrix:
    """The CSC form of a dense matrix, given as an array or a list of rows."""
    A = np.atleast_2d(np.asarray(dense, dtype=float))
    cols, rows = np.nonzero(A.T)
    counts = np.bincount(cols, minlength=A.shape[1])
    return CSCMatrix(
        start=np.concatenate(([0], np.cumsum(counts))).astype(np.int32),
        index=rows.astype(np.int32),
        value=A[rows, cols],
        shape=A.shape,
    )
