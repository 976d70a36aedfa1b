"""Test helpers: a ``czest.lp.LinearProgram`` as its HiGHS model holds it,
and its bounds solved row by row."""

import numpy as np
from scipy import sparse
from scipy.optimize._highspy._core import MatrixFormat

from czest.lp import INFEASIBLE, UNBOUNDED, EmptySetError, NumericalError


def _model(prog):
    """``prog``'s HiGHS model (``getLp``)."""
    return prog._highs.getLp()


def model_rows(prog):
    """(A as a scipy.sparse matrix, row lower bounds, row upper bounds) of
    ``prog``'s HiGHS model, of the model's shape.  The bounds are those of
    its ``num_row_`` rows: an ``addRows`` that HiGHS refuses for a large
    coefficient leaves the new rows' bounds behind them, outside the
    model."""
    model = _model(prog)
    mat, m = model.a_matrix_, model.num_row_
    fmt = sparse.csc_matrix if mat.format_ == MatrixFormat.kColwise else sparse.csr_matrix
    A = fmt((mat.value_, mat.index_, mat.start_), shape=(m, model.num_col_))
    return A, np.asarray(model.row_lower_)[:m], np.asarray(model.row_upper_)[:m]


def model_cols(prog):
    """(column lower bounds, column upper bounds) of ``prog``'s HiGHS
    model."""
    model = _model(prog)
    return np.asarray(model.col_lower_), np.asarray(model.col_upper_)


def wrap_models(prog, wrapper):
    """Replace ``prog``'s HiGHS model by ``wrapper(model)``; returns the
    wrappers (one)."""
    prog._highs = wrapper(prog._highs)
    return [prog._highs]


def bounds_row_by_row(prog, C):
    """The oracle of ``prog.bounds(C)``: one ``prog.solve`` per row and
    sense, all minima first, with the same errors and the same midpoint
    for crossed bounds within 1e-7 relative."""
    lo, hi = np.empty(len(C)), np.empty(len(C))
    for sense, out, inf in (("min", lo, -np.inf), ("max", hi, np.inf)):
        for t, c in enumerate(np.asarray(C, dtype=float)):
            res = prog.solve(c, sense)
            if res.status == INFEASIBLE:
                raise EmptySetError("LP region infeasible") if sense == "min" else NumericalError("minima only")
            out[t] = inf if res.status == UNBOUNDED else res.value
    crossed = np.isfinite(lo) & np.isfinite(hi) & (lo > hi)
    if np.any(lo[crossed] - hi[crossed] > 1e-7 * np.maximum(1.0, np.abs(lo[crossed]))):
        raise NumericalError("hull bounds crossed beyond tolerance")
    lo[crossed] = hi[crossed] = 0.5 * (lo[crossed] + hi[crossed])
    return lo, hi
