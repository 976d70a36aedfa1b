"""Linear programming kernel on persistent HiGHS models, one per block.

Solves  min/max  c^T x  subject to  b_lo <= A x <= b_hi,  lo <= x <= hi,
where individual bounds may be infinite; an equality row has b_lo = b_hi.
Each ``LinearProgram`` holds its feasible region as HiGHS models (the
solver bundled with scipy, reached through its compiled binding, see
below), one per *block*: a connected component of the graph whose nodes
are the region's columns and rows and whose edges are its nonzero
entries.  Blocks share no column, so the region is their product and
every bound of it splits into bounds over blocks.  A region whose
dynamics act on independent axes, such as uav5's x and y axes, is two
LPs side by side, and a HiGHS run costs about linearly in its model's
size, so each model is solved apart.  A region that is one block, with
every column and row in it, keeps a single model queried directly
(``_whole``): no routing, no extra binding call.  Routing such a region
through its one block costs a few numpy passes per query, a fifth of a
small membership probe (``feasible_at``) or reload (``replace``).

The region is written through two calls, and the models keep their
bases across both, so the next solve starts from the last basis.
``extend`` appends columns and rows: a block that new rows touch grows
its model (``addCols``, ``addRows``; new rows basic, new columns at a
bound), new rows that touch no block make a new model, and rows that
join blocks merge them, with one ``passModel`` of their union and
``setBasis`` from the merged models' statuses.  Blocks only ever merge.
The first rows of a region build its models at once; rows appended later
wait until the next solve or reload and then enter in one step, so a
trajectory grown step by step and only checked in between changes no
model.  ``replace`` loads new numbers into every column bound,
coefficient and row bound at once: each model gets one ``passModel``
and then its former basis back with ``setBasis``, so a region whose
structure is fixed and whose numbers move, such as one filter step after
another, keeps its models for its whole life.  Its pattern is checked
against the blocks with one comparison (an entry joining blocks merges
them first, and the merged model is loaded with the new numbers) and
split over them once per pattern.  A ranged row costs
HiGHS no column: a model keeps a slack for every row anyway, so a
bounded slack variable of a row (a noise term) is better written as the
row's two bounds.

Every query of a region goes through its ``LinearProgram`` and is routed
to the blocks: ``bounds`` (interval hulls) solves each objective row on
the blocks that hold its support, and a block that no row touches once
with a zero objective, so that it too can make the region empty;
``solve`` and ``feasible_at`` (pinned membership) solve every block; and
``satisfied_by`` checks a given point against the rows as they were
last written, without a solve.  A column in no row needs no model: the
end of its bounds that the objective favours is its part of the answer.
A row without an entry reads b_lo <= 0 <= b_hi to within ``EPS_LP``, or
the region is empty.  A solve whose objective is zero, as every
membership probe's is, skips the objective write when the model's
objective already is zero.

Each solve picks its simplex variant from what changed in its model
since the last one.  After a change of the model (a new one, an
extension, ``replace``, the pinned bounds of ``feasible_at``) the last
basis is still dual feasible, so the solve runs dual simplex; when only
the objective changed the basis is still primal feasible, so it runs
primal simplex (Bertsimas & Tsitsiklis, *Introduction to Linear
Optimization*, 1997, ch. 5).  Primal simplex after an objective swap can
stop at model status "Unknown" with a dual infeasibility left; such a
run is repeated once with dual simplex from a cleared solver, which also
covers the re-run without presolve when HiGHS cannot tell infeasible
from unbounded.  A status that is still not definite raises
``NumericalError``.

HiGHS runs single-threaded with a fixed random seed, so identical inputs
give identical answers.  Its primal and dual feasibility tolerances are
both ``EPS_LP``, the kernel's one documented tolerance.  A model change
that HiGHS refuses (status kError) raises ``NumericalError`` naming the
call, where it is made.

The binding is scipy's compiled extension ``optimize/_highspy/_core``,
loaded from scipy's package directory as a file.  Importing it the usual
way runs the package init of ``scipy.optimize``, which with its
``scipy.sparse`` import costs about 0.6 s, most of a fresh interpreter's
time to the first filter step, and this module needs nothing of it.  The
extension is registered in ``sys.modules`` under its usual name
``scipy.optimize._highspy._core``, and an entry already there is reused,
so scipy's own ``linprog`` and this module share one ``_Highs`` class
whichever of the two is imported first.  (When this module comes first,
scipy's ``_highspy`` package never gets the attribute ``_core``: reach the
module by ``from``-import or through ``sys.modules``.)  A scipy whose
package directory holds no such file raises ``ImportError`` naming the
directory searched and the scipy version.  Rows arrive as dense arrays,
and ``extend`` and ``replace`` build HiGHS's compressed sparse row arrays
from them with numpy, so nothing here imports ``scipy.sparse``.
"""

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np


def _load_highs():
    """scipy's compiled HiGHS binding, without scipy.optimize's package init."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        raise ImportError("czest.lp needs scipy's HiGHS binding, and scipy is not installed")
    folder = os.path.join(scipy_spec.submodule_search_locations[0], "optimize", "_highspy")
    paths = [os.path.join(folder, "_core" + suffix) for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        version = getattr(importlib.import_module("scipy"), "__version__", "unknown")
        raise ImportError(f"no HiGHS binding _core<extension suffix> in {folder} (scipy {version})")
    spec = importlib.util.spec_from_file_location(
        name, path, loader=importlib.machinery.ExtensionFileLoader(name, path)
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_highs = _load_highs()

EPS_LP = 1e-9

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ERROR = _highs.HighsStatus.kError.value

_DUAL = 1  # HiGHS simplex_strategy values
_PRIMAL = 4

_ROWWISE = _highs.MatrixFormat.kRowwise.value  # passModel's matrix format and sense
_MINIMIZE = _highs.ObjSense.kMinimize.value

_AT_LOWER, _BASIC, _AT_UPPER, _AT_ZERO = (  # basis statuses
    s.value for s in (_highs.HighsBasisStatus.kLower, _highs.HighsBasisStatus.kBasic,
                      _highs.HighsBasisStatus.kUpper, _highs.HighsBasisStatus.kZero)
)

_HIGHS_OPTIONS = {
    "output_flag": False,
    "threads": 1,
    "random_seed": 0,
    "primal_feasibility_tolerance": EPS_LP,
    "dual_feasibility_tolerance": EPS_LP,
}

_STATUS = {
    _highs.HighsModelStatus.kOptimal: OPTIMAL,
    _highs.HighsModelStatus.kInfeasible: INFEASIBLE,
    _highs.HighsModelStatus.kUnbounded: UNBOUNDED,
}


class NumericalError(RuntimeError):
    """The solver ended without a definite optimal/infeasible/unbounded status."""


class EmptySetError(ValueError):
    """Raised by queries that are undefined on an empty region or set."""


class LpResult:
    """Outcome of one solve.

    Attributes:
        status: "optimal", "infeasible" or "unbounded".
        value: optimal objective (None unless optimal).
        x: optimizer, length n (None unless optimal).
    """

    __slots__ = ("status", "value", "x")

    def __init__(self, status, value=None, x=None):
        self.status = status
        self.value = value
        self.x = x

    def __repr__(self):
        return f"LpResult(status={self.status!r}, value={self.value!r})"


class LinearProgram:
    """A feasible region ``{x : b_lo <= A x <= b_hi, lo <= x <= hi}``.

    The constructor loads the equality rows ``A x = b``; ``extend`` adds
    rows with both bounds, optionally on listed columns only.  ``A`` is a
    dense 2-d array (a nested list will do); a ``scipy.sparse`` matrix
    raises ``ValueError``.  ``solve`` may be called repeatedly with
    different objectives, and between solves the region may be extended
    or all of its numbers replaced; after the first call the previous
    basis warm-starts the next one.  The region is held as one HiGHS
    model per block (``_Block``, see the module docstring); ``m`` and
    ``n`` count the whole region's rows and columns.
    """

    def __init__(self, A, b, lo, hi):
        self.m = self.n = 0
        self.lo, self.hi = np.zeros(0), np.zeros(0)
        self.reloads = 0  # replace calls so far
        self.last_x = None  # optimizer of the last solve, None unless it was optimal
        self._blocks = []
        self._col_block = np.zeros(0, dtype=np.intp)  # block of each column, -1 in no row
        self._row_block = np.zeros(0, dtype=np.intp)  # block of each row, -2 without an entry
        self._col_at = np.zeros(0, dtype=np.int32)  # position of each column in its block's model
        self._row_at = np.zeros(0, dtype=np.int32)  # position of each row in its block's model
        self._zero_ok = np.zeros(0, dtype=bool)  # 0 lies in each row's bounds within EPS_LP
        self._free = self._empty = np.zeros(0, dtype=np.intp)  # columns in no row, rows without an entry
        self._whole = None  # the one block, when it holds every column and row in region order
        self._layout = None  # the last reloaded pattern, split over the blocks (``_split``)
        self._rows = []  # (first row, rows as _region_rows gives them, b_lo, b_hi) per extend or reload
        self._flushed = 0  # how many of _rows the models hold (``_flush``)
        self.extend(lo, hi, A, b, b)

    def extend(self, lo, hi, A, b_lo, b_hi, cols=None):
        """Append columns with bounds [lo, hi] and the rows
        ``b_lo <= A x <= b_hi``.

        ``A`` is a dense 2-d array whose column j is column ``cols[j]`` of
        the grown region; by default it spans all columns, old then new.
        The new columns enter no existing row.

        The first rows of a region build its models at once.  Rows
        appended to a region that has models wait until its next solve or
        reload, which adds them all in one step (``_flush``), so a region
        grown step by step and only checked (``satisfied_by``) in between
        changes no model until it is solved.  Either way a block that the
        new rows touch keeps its HiGHS model and grows it, so the next
        solve starts from the current basis (new rows basic, new columns
        at a bound), and rows that join blocks merge them (``_join``).
        """
        lo, hi = _bound_vectors(lo, hi, np.size(lo))
        added = lo.size
        start, index, value = _region_rows(A, cols, self.n + added)
        r = start.size
        b_lo, b_hi = _bound_vectors(b_lo, b_hi, r, "row")
        self._rows.append((self.m, start, index, value, b_lo, b_hi))
        self.lo = np.concatenate([self.lo, lo])
        self.hi = np.concatenate([self.hi, hi])
        self.m, self.n = self.m + r, self.n + added
        self._zero_ok = np.concatenate([self._zero_ok, (b_lo <= EPS_LP) & (b_hi >= -EPS_LP)])
        if not self._blocks:
            self._flush()

    def _flush(self):
        """Add the rows and columns that ``extend`` appended since the
        models last grew to the models (``_join``)."""
        pending, self._flushed = self._rows[self._flushed :], len(self._rows)
        first = pending[0][0]
        rows = np.concatenate([at + _row_of(start, index.size) for at, start, index, *_ in pending])
        index, value, b_lo, b_hi = (np.concatenate(parts) for parts in list(zip(*pending))[2:])
        n, m = self._col_block.size, self._row_block.size
        self._col_block = np.concatenate([self._col_block, np.full(self.n - n, -1)])
        self._row_block = np.concatenate([self._row_block, np.full(self.m - m, -2)])
        self._col_at = np.concatenate([self._col_at, np.zeros(self.n - n, dtype=np.int32)])
        self._row_at = np.concatenate([self._row_at, np.zeros(self.m - m, dtype=np.int32)])
        self._join(rows, index, (value, b_lo, b_hi, first))

    def replace(self, lo, hi, A, b_lo, b_hi):
        """Load new numbers into the whole region in place: the column
        bounds [lo, hi] and the rows ``b_lo <= A x <= b_hi``, with A a
        dense m x n array.

        The arguments are validated as ``extend``'s are, and the sizes
        stay.  One ``passModel`` call per block loads them, with a zero
        objective; ``setBasis`` then restores the basis the model held
        before, if it had one, so the next solve starts from it.  An entry
        that joins blocks first merges them (``_join``), and the merged
        model is loaded then.
        """
        lo, hi = _bound_vectors(lo, hi, self.n)
        start, index, value = _region_rows(A, None, self.n)
        if start.size != self.m:
            raise ValueError(f"A has {start.size} rows, expected {self.m}")
        b_lo, b_hi = _bound_vectors(b_lo, b_hi, self.m, "row")
        if self._flushed < len(self._rows):
            self._flush()
        self.reloads += 1
        self._rows, self._flushed = [(0, start, index, value, b_lo, b_hi)], 1
        self.lo, self.hi = lo, hi
        if self._empty.size:  # only rows without an entry read it
            self._zero_ok = (b_lo <= EPS_LP) & (b_hi >= -EPS_LP)
        blk = self._whole
        if blk is not None:
            blk.load(start, index, value, lo, hi, b_lo, b_hi, blk.highs.getBasis())
            return
        layout, merged = self._layout, 0
        if layout is None or not (np.array_equal(index, layout[1]) and np.array_equal(start, layout[0])):
            rows = _row_of(start, index.size)
            if not np.array_equal(self._row_block[rows], self._col_block[index]):  # an entry joins blocks
                merged = self._join(rows, index)
            layout = self._layout = self._split(start, index, rows)
        _, _, order, col_order, row_order, pieces = layout
        value, lo, hi, b_lo, b_hi = value[order], lo[col_order], hi[col_order], b_lo[row_order], b_hi[row_order]
        kept = len(self._blocks) - merged  # the merged blocks come last and are loaded already
        for blk, (e, cs, rs, local_start, local_index) in zip(self._blocks[:kept], pieces):
            blk.load(local_start, local_index, value[e], lo[cs], hi[cs], b_lo[rs], b_hi[rs], blk.highs.getBasis())

    def _split(self, start, index, rows):
        """The layout of the rows' pattern (``start``, ``index``, as
        ``_region_rows`` gives it, and each entry's row ``rows``) over the
        blocks, each entry in the block of its row and column: (start,
        index, the entries in block order, the columns and the rows in
        block order, and per block the slices of its entries, columns and
        rows in those orders with its entries' row starts and model
        columns)."""
        at = self._row_block[rows]
        order = np.argsort(at, kind="stable")
        ends = np.cumsum(np.bincount(at, minlength=len(self._blocks))).tolist()
        rows, cols = rows[order], self._col_at[index[order]]
        pieces, e, c, r = [], 0, 0, 0
        for blk, e_end in zip(self._blocks, ends):
            c_end, r_end = c + blk.cols.size, r + blk.rows.size
            local_start = np.searchsorted(rows[e:e_end], blk.rows).astype(np.int32)
            pieces.append((slice(e, e_end), slice(c, c_end), slice(r, r_end), local_start, cols[e:e_end]))
            e, c, r = e_end, c_end, r_end
        col_order = np.concatenate([np.zeros(0, dtype=np.intp)] + [blk.cols for blk in self._blocks])
        row_order = np.concatenate([np.zeros(0, dtype=np.intp)] + [blk.rows for blk in self._blocks])
        return start, index, order, col_order, row_order, pieces

    def solve(self, c, sense="min"):
        """Optimize c^T x over the region.  Returns LpResult.

        Every block's model is solved, unless one is infeasible: the
        region is then empty.  A column in no row takes the end of its
        bounds that c favours, or the point of them nearest 0 if c is 0
        there; a row without an entry admits 0 within ``EPS_LP`` or makes
        the region empty.
        """
        c = np.asarray(c, dtype=float).ravel()
        if c.shape[0] != self.n:
            raise ValueError(f"objective has length {c.shape[0]}, expected {self.n}")
        if sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        if self._flushed < len(self._rows):
            self._flush()
        self.last_x = None
        blk = self._whole
        res = blk.solve(c, sense) if blk is not None else self._solve_blocks(c, sense)
        self.last_x = res.x
        return res

    def _solve_blocks(self, c, sense):
        """``solve`` on a region of several blocks, or with columns in no
        row or rows without an entry."""
        if self._empty.size and not self._zero_ok[self._empty].all():
            return LpResult(INFEASIBLE)
        x = np.empty(self.n)
        status = OPTIMAL
        for blk in self._blocks:
            res = blk.solve(c[blk.cols], sense)
            if res.status == INFEASIBLE:
                return res
            if res.status == UNBOUNDED:
                status = UNBOUNDED
            else:
                x[blk.cols] = res.x
        free = self._free
        if free.size:
            x[free] = _box_point(c[free] if sense == "min" else -c[free], self.lo[free], self.hi[free])
            if not np.all(np.isfinite(x[free])):
                status = UNBOUNDED
        if status == UNBOUNDED:
            return LpResult(UNBOUNDED)
        return LpResult(OPTIMAL, float(c @ x), x)

    def bounds(self, C):
        """(minima, maxima) of each row c of the 2-d array C, as c^T x over
        the region; ±inf where a bound is unbounded.

        Each row is split over the blocks that hold its support, and each
        block's part is bounded on that block's model (``_Block.bounds``):
        all minima first, then all maxima, each from the previous basis.
        A column in no row adds the end of its bounds that the row
        favours.  An infeasible minimum raises ``EmptySetError``, also
        that of a block which no row touches (solved once, with a zero
        objective, when C has rows); an infeasible maximum after feasible
        minima is a ``NumericalError``.  Round-off can leave a minimum a
        hair above its maximum on a zero-width row: within 1e-7 relative
        both move to their midpoint, beyond that the bounds are a
        ``NumericalError``.
        """
        C = np.asarray(C, dtype=float)
        if C.ndim != 2 or C.shape[1] != self.n:
            raise ValueError(f"objectives must be the rows of a 2-d array {self.n} wide")
        if self._flushed < len(self._rows):
            self._flush()
        blk = self._whole
        lo, hi = blk.bounds(C) if blk is not None else self._bounds_blocks(C)
        crossed = np.isfinite(lo) & np.isfinite(hi) & (lo > hi)
        if np.any(crossed):
            slack = lo[crossed] - hi[crossed]
            if np.any(slack > 1e-7 * np.maximum(1.0, np.abs(lo[crossed]))):
                raise NumericalError("hull bounds crossed beyond tolerance")
            lo[crossed] = hi[crossed] = 0.5 * (lo[crossed] + hi[crossed])
        return lo, hi

    def _bounds_blocks(self, C):
        """``bounds`` before the clamp, on a region of several blocks, or
        with columns in no row or rows without an entry."""
        if len(C) and self._empty.size and not self._zero_ok[self._empty].all():
            raise EmptySetError("LP region infeasible")
        lo, hi = np.zeros(len(C)), np.zeros(len(C))
        free = self._free
        if free.size:
            F, f_lo, f_hi = C[:, free], self.lo[free], self.hi[free]
            lo += (F * _box_point(F, f_lo, f_hi)).sum(axis=1)
            hi += (F * _box_point(-F, f_lo, f_hi)).sum(axis=1)
        for blk in self._blocks:
            part = C[:, blk.cols]
            t = np.flatnonzero(part.any(axis=1))
            if t.size:
                part_lo, part_hi = blk.bounds(part[t])
                lo[t] += part_lo
                hi[t] += part_hi
            elif len(C) and blk.solve(np.zeros(blk.cols.size), "min").status == INFEASIBLE:
                raise EmptySetError("LP region infeasible")
        return lo, hi

    def feasible_at(self, cols, x):
        """True iff some point of the region equals x on the listed columns
        (``last_x`` is then one); a column listed twice is a ``ValueError``.
        An x beyond the columns' bounds by more than ``EPS_LP`` (as in
        ``satisfied_by``) is False without a solve; otherwise the columns
        are pinned through their bounds in their blocks' models, every
        block is solved, and the bounds are restored after the solve, also
        when it raises (``lo`` and ``hi`` keep the bounds to restore).  A
        pinned column in no row takes x in ``last_x``."""
        cols = _indices(cols, self.n, "column")
        x = np.asarray(x, dtype=float).ravel()
        if x.shape[0] != cols.size or np.isnan(x).any():
            raise ValueError(f"pinned point must be {cols.size} numbers, none NaN")
        if len(set(cols.tolist())) != cols.size:
            raise ValueError("a pinned column is listed twice")
        if np.any(x < self.lo[cols] - EPS_LP) or np.any(x > self.hi[cols] + EPS_LP):
            return False
        if self._flushed < len(self._rows):
            self._flush()
        blk = self._whole
        if blk is not None:
            pins = [(blk, cols, cols, x)]  # (block, region columns, model columns, values)
        else:
            at = self._col_block[cols]
            pins = []
            for i, b in enumerate(self._blocks):
                sel = at == i
                if sel.any():
                    pins.append((b, cols[sel], self._col_at[cols[sel]], x[sel]))
        for b, _, local, v in pins:
            b.changed = True
            _check(b.highs.changeColsBounds(local.size, local, v, v), "changeColsBounds")
        try:
            res = self.solve(np.zeros(self.n))
            if blk is None and res.status == OPTIMAL and self._free.size:
                res.x[cols[at < 0]] = x[at < 0]
            return res.status != INFEASIBLE
        finally:
            for b, c, local, _ in pins:
                b.changed = True
                _check(b.highs.changeColsBounds(local.size, local, self.lo[c], self.hi[c]), "changeColsBounds")

    def satisfied_by(self, x, first_row=0):
        """True iff x is a feasible point of the region to within ``EPS_LP``.

        x must have length n and lie within ``EPS_LP`` of every column
        bound, and every row from ``first_row`` on, as the last ``extend``
        or ``replace`` that wrote it gave it (and so as its block's HiGHS
        model holds it, or will), must give b_lo - ``EPS_LP`` <= A x <=
        b_hi + ``EPS_LP`` (a row without an entry: 0 in its bounds); the
        column bounds are the region's, ``lo``/``hi``.  The check is
        absolute and read-only: it calls no model and adds no waiting
        row to one.
        """
        x = np.asarray(x, dtype=float).ravel()
        if x.shape[0] != self.n or not np.all(np.isfinite(x)):
            return False
        if np.any(x < self.lo - EPS_LP) or np.any(x > self.hi + EPS_LP):
            return False
        for at, start, index, value, b_lo, b_hi in self._rows:
            if at + start.size <= first_row:
                continue
            Ax = np.bincount(_row_of(start, index.size), weights=value * x[index], minlength=start.size)
            k = max(first_row - at, 0)
            if not (np.all(Ax[k:] >= b_lo[k:] - EPS_LP) and np.all(Ax[k:] <= b_hi[k:] + EPS_LP)):
                return False
        return True

    def _join(self, rows, cols, pending=None):
        """Regroup the blocks so that every entry (rows[e], cols[e]) lies
        in one, and index them anew (``_index``).

        The blocks, the columns in no block and the rows in no block are
        the nodes of a graph whose edges are the entries (``_labels``).
        Each of its components that holds an entry becomes one block.
        With ``pending`` = (values, b_lo, b_hi, first) the entries are the
        rows that ``extend`` appended, row r with the bounds b_lo[r -
        first] and b_hi[r - first]: a component that holds no block makes
        a new model, one that holds one block grows it (``_grow``), and
        one that holds more merges them (``_merge``).  Without, every
        component that joins blocks or takes in columns or rows of no block
        is merged, so that a block's rows stay in region order, and a block
        that takes in nothing stays as it is.  Returns how many blocks it
        made; they come last in ``_blocks``.
        """
        nb, n = len(self._blocks), self.n
        rb, cb = self._row_block[rows], self._col_block[cols]
        # node ids: blocks 0 .. nb - 1, then the columns, then the rows
        row_node = np.where(rb >= 0, rb, nb + n + rows)
        size = nb + n + self.m
        label = _labels(row_node, np.where(cb >= 0, cb, nb + cols), size)
        entry_label = label[row_node]
        blocks, new = self._blocks, []
        merged = np.zeros(nb, dtype=bool)
        for comp in np.flatnonzero(np.bincount(entry_label, minlength=size)):
            olds = np.flatnonzero(label[:nb] == comp)
            add_cols = np.flatnonzero(label[nb : nb + n] == comp)
            add_rows = np.flatnonzero(label[nb + n :] == comp)
            if pending is None and olds.size == 1 and not (add_cols.size or add_rows.size):
                continue
            if olds.size > 1 or pending is None:
                merged[olds] = True
                new.append(self._merge([blocks[i] for i in olds], add_cols, add_rows))
                continue
            if olds.size:
                blk = blocks[olds[0]]
            else:
                blk = _Block()
                new.append(blk)
            values, b_lo, b_hi, first = pending
            e, at = entry_label == comp, add_rows - first
            self._grow(blk, add_cols, add_rows, (rows[e], cols[e], values[e]), (b_lo[at], b_hi[at]))
        self._blocks = [blk for blk, gone in zip(blocks, merged) if not gone] + new
        self._index()
        return len(new)

    def _grow(self, blk, cols, rows, entries, bounds):
        """Append the columns ``cols`` and the rows ``rows`` (region
        indices, each ascending) to the model of ``blk``: ``addCols`` with
        the columns' bounds, then ``addRows`` with the rows' ``bounds`` and
        ``entries`` (region rows in row order, region columns, values)."""
        h = blk.highs
        k, j = blk.cols.size, blk.rows.size
        self._col_at[cols] = np.arange(k, k + cols.size)
        self._row_at[rows] = np.arange(j, j + rows.size)
        blk.cols, blk.rows = np.concatenate([blk.cols, cols]), np.concatenate([blk.rows, rows])
        blk.changed = True
        if cols.size:
            _check(h.addCols(cols.size, np.zeros(cols.size), self.lo[cols], self.hi[cols], 0,
                             np.zeros(cols.size, dtype=np.int32), np.zeros(0, dtype=np.int32), np.zeros(0)), "addCols")
        if rows.size:
            r, c, v = entries
            start = np.searchsorted(r, rows).astype(np.int32)
            _check(h.addRows(rows.size, *bounds, v.size, start, self._col_at[c], v), "addRows")

    def _merge(self, parts, cols, rows):
        """One block of the blocks ``parts``, the columns ``cols`` and the
        rows ``rows``, columns and rows in region order: one ``passModel``
        of the union, its rows as they were last written (``_rows``), then
        ``setBasis`` from the parts' bases (``_joined_basis``)."""
        blk = _Block()
        blk.cols = np.sort(np.concatenate([p.cols for p in parts] + [cols]))
        blk.rows = np.sort(np.concatenate([p.rows for p in parts] + [rows]))
        self._col_at[blk.cols] = np.arange(blk.cols.size)
        self._row_at[blk.rows] = np.arange(blk.rows.size)
        at, start, index, value, b_lo, b_hi = zip(*self._rows)  # every row, in region order
        r = np.concatenate([f + _row_of(s, i.size) for f, s, i in zip(at, start, index)])
        held = np.zeros(self.m, dtype=bool)
        held[blk.rows] = True
        e = held[r]
        r, c, v = r[e], np.concatenate(index)[e], np.concatenate(value)[e]
        b_lo, b_hi = np.concatenate(b_lo)[blk.rows], np.concatenate(b_hi)[blk.rows]
        basis = self._joined_basis(blk, parts)
        blk.load(np.searchsorted(r, blk.rows).astype(np.int32), self._col_at[c], v,
                 self.lo[blk.cols], self.hi[blk.cols], b_lo, b_hi, basis)
        return blk

    def _joined_basis(self, blk, parts):
        """The basis of ``blk``, merged from ``parts``: the statuses of
        each part that has a valid basis, every other row basic and every
        other column at a bound (lower, else upper, else zero); a basis
        that is not valid if no part has one."""
        bases = [p.highs.getBasis() for p in parts]
        basis = _highs.HighsBasis()
        if not any(b.valid for b in bases):
            return basis
        lo, hi = self.lo[blk.cols], self.hi[blk.cols]
        col = np.where(np.isfinite(lo), _AT_LOWER, np.where(np.isfinite(hi), _AT_UPPER, _AT_ZERO))
        row = np.full(blk.rows.size, _BASIC)
        for p, b in zip(parts, bases):
            if b.valid:
                col[self._col_at[p.cols]] = [s.value for s in b.col_status]
                row[self._row_at[p.rows]] = [s.value for s in b.row_status]
        basis.col_status = [_highs.HighsBasisStatus(s) for s in col.tolist()]
        basis.row_status = [_highs.HighsBasisStatus(s) for s in row.tolist()]
        basis.valid = True
        return basis

    def _index(self):
        """The block of each column and row, the columns in no row, the
        rows without an entry and ``_whole``, from the blocks."""
        self._col_block = np.full(self.n, -1)
        self._row_block = np.full(self.m, -2)
        for i, blk in enumerate(self._blocks):
            self._col_block[blk.cols] = i
            self._row_block[blk.rows] = i
        self._free = np.flatnonzero(self._col_block < 0)
        self._empty = np.flatnonzero(self._row_block < 0)
        self._layout = None
        blk = self._blocks[0] if len(self._blocks) == 1 else None
        whole = (
            blk is not None
            and blk.cols.size == self.n
            and blk.rows.size == self.m
            and np.array_equal(blk.cols, np.arange(self.n))
            and np.array_equal(blk.rows, np.arange(self.m))
        )
        self._whole = blk if whole else None


class _Block:
    """One HiGHS model of a region: its rows ``rows`` over its columns
    ``cols`` (region indices, in the model's order), and how the model
    was left by the last change and solve."""

    def __init__(self):
        self.highs = _new_model()
        self.cols = np.zeros(0, dtype=np.intp)
        self.rows = np.zeros(0, dtype=np.intp)
        self.strategy = _DUAL  # the model's simplex_strategy, HiGHS's default
        self.zero_cost = True  # the model's objective is zero
        self.changed = True  # the model changed since its last solve

    def load(self, start, index, value, lo, hi, b_lo, b_hi, basis):
        """Load the model whole with one ``passModel`` (rows in compressed
        sparse row form over the model's columns, a zero objective), then
        hand it ``basis`` (``setBasis``) if that is valid."""
        h = self.highs
        n, m = self.cols.size, self.rows.size
        _check(h.passModel(n, m, value.size, _ROWWISE, _MINIMIZE, 0.0, np.zeros(n), lo, hi,
                           b_lo, b_hi, start, index, value, np.zeros(n, dtype=np.int32)), "passModel")
        self.changed = self.zero_cost = True
        if basis.valid:
            _check(h.setBasis(basis), "setBasis")

    def solve(self, c, sense):
        """Optimize c^T x over the model, c on its columns.  Returns
        LpResult.  A zero objective is written only over a nonzero one;
        dual simplex runs after a change of the model, primal simplex
        after one of the objective alone."""
        h = self.highs
        zero = not c.any()
        if not (zero and self.zero_cost):
            h.changeColsCost(c.size, np.arange(c.size, dtype=np.int32), c if sense == "min" else -c)
            self.zero_cost = zero
        self._use(_DUAL if self.changed else _PRIMAL)
        self.changed = False
        status = self._run()
        if status != OPTIMAL:
            return LpResult(status)
        x = np.array(h.getSolution().col_value)
        return LpResult(OPTIMAL, float(c @ x), x)

    def bounds(self, C):
        """(minima, maxima) of each row of C, on the model's columns: all
        minima first, then all maxima, each from the previous basis (a
        minimum and a maximum lie at opposite ends of the region, so
        alternating them would move the basis across it at every solve).
        An infeasible minimum raises ``EmptySetError``; an infeasible
        maximum after feasible minima is a ``NumericalError``."""
        lo = np.empty(len(C))
        hi = np.empty(len(C))
        for t, c in enumerate(C):
            res = self.solve(c, "min")
            if res.status == INFEASIBLE:
                raise EmptySetError("LP region infeasible")
            lo[t] = -np.inf if res.status == UNBOUNDED else res.value
        for t, c in enumerate(C):
            res = self.solve(c, "max")
            if res.status == INFEASIBLE:
                raise NumericalError("LP region feasible for the minima only")
            hi[t] = np.inf if res.status == UNBOUNDED else res.value
        return lo, hi

    def _use(self, strategy):
        """Set the model's simplex_strategy, unless it already is that."""
        if strategy != self.strategy:
            self.highs.setOptionValue("simplex_strategy", strategy)
            self.strategy = strategy

    def _run(self):
        """Run HiGHS; re-run once with dual simplex from a cleared solver
        if a primal run ends without a definite status or HiGHS cannot
        tell infeasible from unbounded (then also without presolve)."""
        h = self.highs
        if h.run() == _highs.HighsStatus.kError and (
            h.getModelStatus() == _highs.HighsModelStatus.kNotset
        ):
            # HiGHS refuses threads=1 once another caller in this process
            # (scipy.optimize's HiGHS front end with its default thread
            # count) has started its global scheduler with more; a fresh
            # scheduler takes this model's setting.
            _highs._Highs.resetGlobalScheduler(True)
            h.run()
        model_status = h.getModelStatus()
        unsure = model_status == _highs.HighsModelStatus.kUnboundedOrInfeasible
        if unsure or (model_status not in _STATUS and self.strategy == _PRIMAL):
            self._use(_DUAL)
            if unsure:
                h.setOptionValue("presolve", "off")
            h.clearSolver()
            h.run()
            if unsure:
                h.setOptionValue("presolve", "choose")
            model_status = h.getModelStatus()
        if model_status not in _STATUS:
            raise NumericalError("HiGHS model status: " + h.modelStatusToString(model_status))
        return _STATUS[model_status]


def _labels(u, v, size):
    """The smallest node of each node's connected component, for the
    nodes 0 .. size - 1 and the edges (u[e], v[e]): each round lowers
    every node's label to the smallest label across its edges and then
    to its label's label, until a round moves none."""
    ends, across = np.concatenate([u, v]), np.concatenate([v, u])
    label = np.arange(size)
    while True:
        low = label.copy()
        np.minimum.at(low, ends, label[across])
        low = low[low]
        if np.array_equal(low, label):
            return label
        label = low


def _row_of(start, nnz):
    """The row of each of the nnz entries of compressed sparse rows that
    start at ``start``."""
    return np.repeat(np.arange(start.size), np.diff(np.append(start, nnz)))


def _box_point(c, lo, hi):
    """The point of the box [lo, hi] that minimizes c^T x entry by entry
    (rows of a 2-d c, each): lo where c > 0, hi where c < 0, and the point
    nearest 0 where c is 0; -inf or inf where the minimum is unbounded."""
    return np.where(c > 0, lo, np.where(c < 0, hi, np.clip(0.0, lo, hi)))


def _bound_vectors(lo, hi, n, what="variable"):
    """Validated float bound vectors of length n, of columns ("variable")
    or of rows ("row"), copies of the arguments."""
    lo = np.array(lo, dtype=float).ravel()
    hi = np.array(hi, dtype=float).ravel()
    if lo.shape[0] != n or hi.shape[0] != n:
        raise ValueError(f"{what} bound vectors must have length {n}")
    if not np.all(lo <= hi):  # also False at a NaN
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ValueError(f"NaN bound for some {what}")
        raise ValueError(f"lo > hi for some {what}")
    return lo, hi


def _indices(idx, size, what):
    """Validated int32 index vector into range(size)."""
    idx = np.asarray(idx, dtype=np.int64).ravel()
    if idx.size and (idx.min() < 0 or idx.max() >= size):
        raise ValueError(f"{what} index out of range 0..{size - 1}")
    return idx.astype(np.int32)


def _region_rows(A, cols, n):
    """The dense 2-d rows A, whose column j is column ``cols[j]`` of n
    (default: all n in order), validated and as the compressed sparse row
    arrays of ``addRows``: (row starts, column indices, values), the
    nonzeros row by row in A's column order."""
    A = np.asarray(A)  # a scipy.sparse matrix reads as a 0-d object array
    if A.ndim != 2:
        raise ValueError("A must be a 2-d array")
    A = A.astype(float, copy=False)
    width = n if cols is None else np.size(cols)
    if A.shape[1] != width:
        raise ValueError(f"A has {A.shape[1]} columns, expected {width}")
    r, c = np.nonzero(A)  # row-major, so already CSR order
    value = A[r, c]
    if not np.all(np.isfinite(value)):  # NaN and ±inf are nonzeros
        raise ValueError("non-finite coefficient")
    index = c.astype(np.int32) if cols is None else _indices(cols, n, "column")[c]
    return np.searchsorted(r, np.arange(A.shape[0])).astype(np.int32), index, value


def _new_model():
    """An empty HiGHS instance with the kernel's options."""
    h = _highs._Highs()
    for key, val in _HIGHS_OPTIONS.items():
        h.setOptionValue(key, val)
    return h


def _check(status, call):
    """Raise NumericalError if HiGHS refused the model change ``call``."""
    # compare ints: pybind's enum == is several times slower
    if status.value == _ERROR:
        raise NumericalError(f"HiGHS {call} returned an error")
