"""Test helper: the rows and columns of a ``czest.lp.LinearProgram`` as its
blocks' HiGHS models hold them."""

import numpy as np
from scipy import sparse
from scipy.optimize._highspy._core import MatrixFormat


def model_rows(prog):
    """(A as a scipy.sparse matrix, row lower bounds, row upper bounds) of
    ``prog``, read from every block's HiGHS model; a row that no model
    holds (it has no entry) reads NaN bounds."""
    rows, cols, values = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)], [np.zeros(0)]
    lower, upper = np.full(prog.m, np.nan), np.full(prog.m, np.nan)
    if prog._flushed < len(prog._rows):  # rows that wait for the next solve enter the models
        prog._flush()
    for blk in prog._blocks:
        model = blk.highs.getLp()
        mat = model.a_matrix_
        fmt = sparse.csc_matrix if mat.format_ == MatrixFormat.kColwise else sparse.csr_matrix
        A = fmt((mat.value_, mat.index_, mat.start_), shape=(blk.rows.size, blk.cols.size)).tocoo()
        rows.append(blk.rows[A.row])
        cols.append(blk.cols[A.col])
        values.append(A.data)
        lower[blk.rows], upper[blk.rows] = model.row_lower_, model.row_upper_
    A = sparse.csr_matrix(
        (np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))), shape=(prog.m, prog.n)
    )
    return A, lower, upper


def model_cols(prog):
    """(column lower bounds, column upper bounds) of ``prog``, read from
    every block's HiGHS model; a column that no model holds (it is in no
    row) reads the region's bounds."""
    lower, upper = prog.lo.copy(), prog.hi.copy()
    if prog._flushed < len(prog._rows):
        prog._flush()
    for blk in prog._blocks:
        model = blk.highs.getLp()
        lower[blk.cols], upper[blk.cols] = model.col_lower_, model.col_upper_
    return lower, upper


def wrap_models(prog, wrapper):
    """Replace every block's HiGHS model of ``prog`` by ``wrapper(model)``;
    returns the wrappers, in block order."""
    for blk in prog._blocks:
        blk.highs = wrapper(blk.highs)
    return [blk.highs for blk in prog._blocks]
