"""Test helper: the rows of a ``czest.lp.LinearProgram`` as HiGHS holds them."""

import numpy as np
from scipy import sparse
from scipy.optimize._highspy._core import MatrixFormat


def model_rows(prog):
    """(A as a scipy.sparse matrix, row lower bounds, row upper bounds) of
    ``prog``'s HiGHS model."""
    model = prog._highs.getLp()
    mat = model.a_matrix_
    fmt = sparse.csc_matrix if mat.format_ == MatrixFormat.kColwise else sparse.csr_matrix
    A = fmt((mat.value_, mat.index_, mat.start_), shape=(prog.m, prog.n))
    return A, np.asarray(model.row_lower_), np.asarray(model.row_upper_)
