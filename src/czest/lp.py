"""Linear programming kernel on a persistent HiGHS model.

Solves  min/max  c^T x  subject to  b_lo <= A x <= b_hi,  lo <= x <= hi,
where individual bounds may be infinite; an equality row has b_lo = b_hi.
Each ``LinearProgram`` holds one HiGHS model of its feasible region (the
solver bundled with scipy, reached through its compiled binding, see
below).  Every model starts empty and is loaded through ``extend``;
``solve`` only swaps the objective, so after the first call HiGHS starts
from the previous optimal basis and an interval hull's bounds over one
region pay for the initial basis only once.

The region is written through two calls, both on the same model, so the
next solve also starts from the last basis, and both write the model at
once, so it holds the region at every moment.  ``extend`` appends
columns and rows (``addCols``, ``addRows``; new rows basic, new columns
at a bound).  ``replace`` loads new numbers into every column bound,
coefficient and row bound at once: one ``passModel`` call, then the
basis the model held before back with ``setBasis``, so a region whose
structure is fixed and whose numbers move, such as one filter step after
another, is one model for its whole life.  Its row pattern stays too:
when the nonzeros of a reload's dense A are exactly the entries the last
``replace`` wrote, the reload reads only their values, gathered at the
entries' kept places in A, and keeps the pattern's compressed rows,
blocks and plan (below); any other A is read in full.  A ranged row costs
HiGHS no column: the model keeps a slack for every row anyway, so a
bounded slack variable of a row (a noise term) is better written as the
row's two bounds.

Every query of a region goes through its ``LinearProgram``: ``solve``
(one objective), ``bounds`` (interval hulls), ``feasible_at`` (pinned
membership) and ``satisfied_by`` (a given point, checked against the
rows as they were last written, without a solve).  Each of the first
three validates its arguments once, where it is called: a shape that
does not fit, or a NaN or infinite objective entry or pinned value (which
HiGHS would take as a cost without complaint, or refuse only at the
model change), is a ``ValueError`` raised before the model is touched.
Below that they share one private solve (``_solve``), which checks
nothing again: it writes the cost through a column index kept with the
region, picks the simplex variant, runs HiGHS and reads the optimizer.
A solve whose objective is zero, as every membership probe's is, skips
the objective write when the model's objective already is zero.

``bounds`` bounds several objective rows per HiGHS run where the region
allows it.  The region's *blocks* are the connected components of the
graph whose nodes are its columns and rows and whose edges are its
nonzero entries; blocks share no column, so the region is their product.
On a product, a minimizer of a sum of objectives that read different
blocks minimizes each of them, so one run bounds every row of such a
batch, each as c_t^T x*.  A region whose dynamics act on independent
axes, such as uav5's x and y axes, bounds two rows per run.  On models
this small a run costs mostly a fixed amount, not one in proportion to
the model's size, so halving the runs about halves a hull's time.  The
batches of a C are the region's plan for C's nonzero pattern, kept for
the next ``bounds`` with that pattern (a filter's hull of every step),
each batch an index array, and dropped with the blocks: on ``extend``,
or on a ``replace`` with another row pattern.  Each batch's rows are
summed once per call.

Each solve picks its simplex variant from what changed since the last
one.  After a change of the region (a new model, ``extend``,
``replace``, the pinned bounds of ``feasible_at``) the last basis is
still dual feasible, so the solve runs dual simplex; when only the
objective changed the basis is still primal feasible, so it runs primal
simplex (Bertsimas & Tsitsiklis, *Introduction to Linear Optimization*,
1997, ch. 5).  Either variant can stop at model status "Unknown" (primal
simplex after an objective swap with a dual infeasibility left, dual
simplex after a reload on an unbounded region); such a run is repeated
once with dual simplex from a cleared solver, without presolve when
HiGHS could not tell infeasible from unbounded.  A status that is still
not definite raises ``NumericalError``.

HiGHS runs single-threaded with a fixed random seed, so identical inputs
give identical answers.  Its primal and dual feasibility tolerances are
both ``EPS_LP``, the kernel's one documented tolerance.  It refactors the
basis at every simplex rebuild (``no_unnecessary_rebuild_refactor``
off).  By default HiGHS keeps its updated factorization at a rebuild
unless a test solve shows an error above 1e-8; on models this small that
probe and the longer update chain cost more than a fresh factorization,
the more accurate of the two paths.  On uav5 the runs make as many
simplex iterations either way (within 0.3%), and a primal run costs
13-30% less: 194 against 136 us on the fixed-lag window LP (124 x 70),
177 against 130 us on the agents' LP (2-vCPU Xeon VM, one CPU, medians
of 8 alternating runs).  Every region is a
HiGHS model from construction on, also one without rows or without
columns (such as the empty program a region is grown from); HiGHS
reports a region without columns as "Empty", whose rows read
b_lo <= 0 <= b_hi, so it is optimal if every row admits 0 to within
``EPS_LP`` and infeasible otherwise.  A model change that HiGHS refuses
(status kError) raises ``NumericalError`` naming the call, where it is
made.

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
directory searched and the scipy version.  The binding is scipy's
private extension, so a ``_Highs`` that lacks a method this module calls
(``_HIGHS_METHODS``) raises ``ImportError`` too, naming the method and
the scipy version; only the versions in ``.github/constraints.txt`` are
tested.  Rows arrive as dense arrays, and ``extend`` and ``replace``
build HiGHS's compressed sparse row arrays from them with numpy, so
nothing here imports ``scipy.sparse``.  Each region keeps one such set of
its rows, with the row of each entry: the rows its model holds.
"""

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np


# every method of the binding's ``_Highs`` that this module calls
_HIGHS_METHODS = (
    "passModel", "addCols", "addRows", "deleteCols", "changeColsBounds", "changeColsCost", "getBasis",
    "setBasis", "getSolution", "getModelStatus", "run", "clearSolver", "setOptionValue", "modelStatusToString",
    "resetGlobalScheduler",
)


def _scipy_version():
    return getattr(importlib.import_module("scipy"), "__version__", "unknown")


def _load_highs():
    """scipy's compiled HiGHS binding, without scipy.optimize's package init;
    a binding whose ``_Highs`` lacks a method this module calls
    (``_HIGHS_METHODS``) is an ``ImportError`` naming it."""
    name = "scipy.optimize._highspy._core"
    module = sys.modules.get(name)
    if module is None:
        scipy_spec = importlib.util.find_spec("scipy")
        if scipy_spec is None or not scipy_spec.submodule_search_locations:
            raise ImportError("czest.lp needs scipy's HiGHS binding, and scipy is not installed")
        folder = os.path.join(scipy_spec.submodule_search_locations[0], "optimize", "_highspy")
        paths = [os.path.join(folder, "_core" + suffix) for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is None:
            raise ImportError(f"no HiGHS binding _core<extension suffix> in {folder} (scipy {_scipy_version()})")
        spec = importlib.util.spec_from_file_location(
            name, path, loader=importlib.machinery.ExtensionFileLoader(name, path)
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    highs = getattr(module, "_Highs", None)
    for method in _HIGHS_METHODS:
        if not hasattr(highs, method):
            raise ImportError(
                f"scipy's HiGHS binding has no _Highs.{method}, which czest.lp calls (scipy {_scipy_version()})"
            )
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

_HIGHS_OPTIONS = {
    "output_flag": False,
    "threads": 1,
    "random_seed": 0,
    "primal_feasibility_tolerance": EPS_LP,
    "dual_feasibility_tolerance": EPS_LP,
    "no_unnecessary_rebuild_refactor": False,  # refactor the basis at every rebuild (module docstring)
}

_STATUS = {  # HiGHS model statuses as ints: pybind's enum == is several times slower
    _highs.HighsModelStatus.kOptimal.value: OPTIMAL,
    _highs.HighsModelStatus.kInfeasible.value: INFEASIBLE,
    _highs.HighsModelStatus.kUnbounded.value: UNBOUNDED,
}
_NOTSET = _highs.HighsModelStatus.kNotset.value
_EMPTY = _highs.HighsModelStatus.kModelEmpty.value
_UNSURE = _highs.HighsModelStatus.kUnboundedOrInfeasible.value


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
    basis warm-starts the next one.
    """

    def __init__(self, A, b, lo, hi):
        self.m = self.n = 0
        self.lo, self.hi = np.zeros(0), np.zeros(0)
        self.reloads = 0  # replace calls so far
        self.last_x = None  # optimizer of the last solve, None unless it was optimal
        self._highs = _new_model()
        self._strategy = _DUAL  # the model's simplex_strategy, HiGHS's default
        self._zero_cost = True  # the model's objective is zero
        self._changed = True  # the region changed since the last solve
        # the rows as compressed sparse rows: each row's first entry, the
        # entries' columns, rows and values, and the row bounds
        self._start, self._index = np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int32)
        self._row = np.zeros(0, dtype=np.intp)
        self._value, self._b_lo, self._b_hi = np.zeros(0), np.zeros(0), np.zeros(0)
        self._flat = None  # the entries' places in a dense m x n A, row-major (``replace``), None after ``extend``
        self._block = None  # the block of each column (``_blocks``), None until it is asked for
        self._plan = None  # (C's nonzero pattern, its batches) of the last multi-row ``bounds`` (``_batches``)
        self.extend(lo, hi, A, b, b)

    def extend(self, lo, hi, A, b_lo, b_hi, cols=None):
        """Append columns with bounds [lo, hi] and the rows
        ``b_lo <= A x <= b_hi``.

        ``A`` is a dense 2-d array whose column j is column ``cols[j]`` of
        the grown region; by default it spans all columns, old then new.
        The new columns enter no existing row.  One ``addCols`` and one
        ``addRows`` call write them to the model, which keeps its basis, so
        the next solve starts from it (new rows basic, new columns at a
        bound).  The region takes them only once the model has: a refused
        call raises ``NumericalError`` and leaves both as they were (the
        new columns are deleted again if ``addRows`` is refused).
        """
        lo, hi = _bound_vectors(lo, hi, np.size(lo))
        added = lo.size
        start, index, value = _region_rows(A, cols, self.n + added)
        r = start.size
        b_lo, b_hi = _bound_vectors(b_lo, b_hi, r, "row")
        h = self._highs
        if added:
            _check(h.addCols(added, np.zeros(added), lo, hi, 0,
                             np.zeros(added, dtype=np.int32), np.zeros(0, dtype=np.int32), np.zeros(0)), "addCols")
        if r:
            try:
                _check(h.addRows(r, b_lo, b_hi, index.size, start, index, value), "addRows")
            except NumericalError:
                if added:
                    _check(h.deleteCols(added, np.arange(self.n, self.n + added, dtype=np.int32)), "deleteCols")
                raise
        self._start = np.concatenate([self._start, start + np.int32(self._index.size)])
        self._row = np.concatenate([self._row, _row_of(start, index.size) + self.m])
        self._index = np.concatenate([self._index, index])
        self._value = np.concatenate([self._value, value])
        self._b_lo, self._b_hi = np.concatenate([self._b_lo, b_lo]), np.concatenate([self._b_hi, b_hi])
        self.lo = np.concatenate([self.lo, lo])
        self.hi = np.concatenate([self.hi, hi])
        self.m, self.n = self.m + r, self.n + added
        self._all = np.arange(self.n, dtype=np.int32)  # every column, as changeColsCost takes them
        self._block = self._plan = self._flat = None
        self._changed = True

    def replace(self, lo, hi, A, b_lo, b_hi):
        """Load new numbers into the whole region in place: the column
        bounds [lo, hi] and the rows ``b_lo <= A x <= b_hi``, with A a
        dense m x n array.

        The arguments are validated as ``extend``'s are, and the sizes
        stay.  When A's nonzeros are exactly the entries the last
        ``replace`` wrote (``_held_values``), their values are all that is
        read of it, and the row pattern, blocks and plan stay; otherwise
        the rows are rebuilt (``_region_rows``), and the blocks and plan go
        if the pattern changed.  One ``passModel`` call loads them, with a
        zero objective; ``setBasis`` then restores the basis the model held
        before, if it had one, so the next solve starts from it.
        """
        lo, hi = _bound_vectors(lo, hi, self.n)
        value, start = self._held_values(A), None
        if value is None:  # another pattern, or one not known since ``extend``
            start, index, value = _region_rows(A, None, self.n)
            if start.size != self.m:
                raise ValueError(f"A has {start.size} rows, expected {self.m}")
        b_lo, b_hi = _bound_vectors(b_lo, b_hi, self.m, "row")
        if start is not None:
            if self._block is not None and not (np.array_equal(index, self._index) and np.array_equal(start, self._start)):
                self._block = self._plan = None  # the row pattern changed
            self._start, self._index, self._row = start, index, _row_of(start, index.size)
            self._flat = self._row * self.n + index
        self.reloads += 1
        self._value, self._b_lo, self._b_hi = value, b_lo, b_hi
        self.lo, self.hi = lo, hi
        self._changed = self._zero_cost = True
        h = self._highs
        basis = h.getBasis()
        _check(h.passModel(self.n, self.m, value.size, _ROWWISE, _MINIMIZE, 0.0, np.zeros(self.n), lo, hi,
                           b_lo, b_hi, self._start, self._index, value, np.zeros(self.n, dtype=np.int32)), "passModel")
        if basis.valid:
            _check(h.setBasis(basis), "setBasis")

    def _held_values(self, A):
        """The values of A at the entries the last ``replace`` wrote
        (``_flat``), in their order, if A is m x n and its nonzeros are
        exactly those entries; None otherwise, also after an ``extend``.
        A NaN or infinite value among them raises ``ValueError``, as
        ``_region_rows`` does (elsewhere in A it is a nonzero off the
        pattern, so None)."""
        A = np.asarray(A)
        if self._flat is None or A.shape != (self.m, self.n):
            return None
        A = A.astype(float, copy=False)
        value = A.take(self._flat)
        if not value.all() or np.count_nonzero(A) != value.size:  # NaN is a nonzero
            return None
        if not np.isfinite(value).all():
            raise ValueError("non-finite coefficient")
        return value

    def solve(self, c, sense="min"):
        """Optimize c^T x over the region.  Returns LpResult.  An objective
        of another length or with a NaN or infinite entry is a
        ``ValueError``, raised before the model is touched."""
        c = np.asarray(c, dtype=float).ravel()
        if c.shape[0] != self.n:
            raise ValueError(f"objective has length {c.shape[0]}, expected {self.n}")
        if sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        if not np.isfinite(c).all():
            raise ValueError("objective has a non-finite entry")
        status = self._solve(c, sense)
        if status != OPTIMAL:
            return LpResult(status)
        x = self.last_x
        return LpResult(OPTIMAL, float(c @ x), x)

    def bounds(self, C):
        """(minima, maxima) of each row c of the 2-d array C, as c^T x over
        the region; ±inf where a bound is unbounded.  A C of another width
        or with a NaN or infinite entry is a ``ValueError``.

        The rows go into batches (``_batches``), each of rows that read
        pairwise different blocks, and each batch is bounded by one solve
        of its rows' sum, every row of it as c^T x at that solve's
        optimizer.  All minima are solved first, then all maxima, each
        from the previous basis: a minimum and a maximum lie at opposite
        ends of the region, so alternating them would move the basis
        across it at every solve.  A batch whose sum is unbounded is
        bounded again row by row.  An infeasible minimum raises
        ``EmptySetError``; an infeasible maximum after feasible minima is a
        ``NumericalError``.  Round-off can leave a minimum a hair above its
        maximum on a zero-width row: within 1e-7 relative both move to
        their midpoint, beyond that the bounds are a ``NumericalError``.
        """
        C = np.asarray(C, dtype=float)
        if C.ndim != 2 or C.shape[1] != self.n:
            raise ValueError(f"objectives must be the rows of a 2-d array {self.n} wide")
        if not np.isfinite(C).all():
            raise ValueError("objectives have a non-finite entry")
        plan = [(batch, C[batch[0]] if batch.size == 1 else C[batch].sum(axis=0)) for batch in self._batches(C)]
        lo = np.empty(len(C))
        hi = np.empty(len(C))
        for sense, out, inf in (("min", lo, -np.inf), ("max", hi, np.inf)):
            todo = plan[::-1]
            while todo:
                batch, c = todo.pop()
                status = self._solve(c, sense)
                if status == INFEASIBLE:
                    if sense == "min":
                        raise EmptySetError("LP region infeasible")
                    raise NumericalError("LP region feasible for the minima only")
                if status == UNBOUNDED and batch.size > 1:  # some row of it is: one at a time
                    todo.extend((np.array([t]), C[t]) for t in batch[::-1])
                elif status == UNBOUNDED:
                    out[batch] = inf
                elif batch.size == 1:
                    out[batch[0]] = float(c @ self.last_x)
                else:
                    out[batch] = C[batch] @ self.last_x
        crossed = lo > hi  # only finite bounds cross: a minimum is never +inf, a maximum never -inf
        if crossed.any():
            slack = lo[crossed] - hi[crossed]
            if np.any(slack > 1e-7 * np.maximum(1.0, np.abs(lo[crossed]))):
                raise NumericalError("hull bounds crossed beyond tolerance")
            lo[crossed] = hi[crossed] = 0.5 * (lo[crossed] + hi[crossed])
        return lo, hi

    def _batches(self, C):
        """The rows of C in batches, each an index array, first-fit in row
        order: a row joins the first batch whose rows read none of the
        blocks it reads (``_blocks``), or starts a new one.  The batches of
        two or more rows are the region's plan for C's nonzero pattern,
        kept until another pattern comes or the blocks are dropped."""
        if len(C) < 2:
            return [np.arange(len(C))] if len(C) else []
        key = (C != 0).tobytes()
        if self._plan is not None and self._plan[0] == key:
            return self._plan[1]
        block = self._blocks()
        batches, taken = [], []
        for t, c in enumerate(C):
            reads = set(block[c != 0].tolist())
            for batch, seen in zip(batches, taken):
                if seen.isdisjoint(reads):
                    batch.append(t)
                    seen |= reads
                    break
            else:
                batches.append([t])
                taken.append(reads)
        self._plan = key, [np.array(batch) for batch in batches]
        return self._plan[1]

    def _blocks(self):
        """The block of each column: its label (``_labels``) in the graph
        whose nodes are the region's columns, then its rows, and whose
        edges are the nonzero entries.  Kept, with the plan of
        ``_batches``, until the row pattern changes: ``extend``, or a
        ``replace`` with another pattern."""
        if self._block is None:
            self._block = _labels(self._index, self.n + self._row, self.n + self.m)[: self.n]
        return self._block

    def feasible_at(self, cols, x):
        """True iff some point of the region equals x on the listed columns
        (``last_x`` is then one); a column listed twice, or an x of another
        length or with a NaN or infinite entry, is a ``ValueError``.  An x
        beyond the columns' bounds by more than ``EPS_LP`` (as in
        ``satisfied_by``) is False without a solve; otherwise the columns
        are pinned through their bounds, restored after the solve, also
        when it raises (``lo`` and ``hi`` keep the bounds to restore)."""
        cols = _indices(cols, self.n, "column")
        x = np.asarray(x, dtype=float).ravel()
        if x.shape[0] != cols.size or not np.isfinite(x).all():
            raise ValueError(f"pinned point must be {cols.size} finite numbers")
        if len(set(cols.tolist())) != cols.size:
            raise ValueError("a pinned column is listed twice")
        lo, hi = self.lo[cols], self.hi[cols]
        if (x < lo - EPS_LP).any() or (x > hi + EPS_LP).any():
            return False
        h = self._highs
        self._changed = True
        _check(h.changeColsBounds(cols.size, cols, x, x), "changeColsBounds")
        try:
            return self._solve(None) != INFEASIBLE
        finally:
            self._changed = True
            _check(h.changeColsBounds(cols.size, cols, lo, hi), "changeColsBounds")

    def satisfied_by(self, x):
        """True iff x is a feasible point of the region to within ``EPS_LP``.

        x must have length n and lie within ``EPS_LP`` of every column
        bound, and every row, as the last ``extend`` or ``replace`` that
        wrote it gave it (and so as the HiGHS model holds it), must give
        b_lo - ``EPS_LP`` <= A x <= b_hi + ``EPS_LP``; the column bounds
        are the region's, ``lo``/``hi``.  The check is absolute and
        read-only: it calls no model.
        """
        x = np.asarray(x, dtype=float).ravel()
        if x.shape[0] != self.n or not np.isfinite(x).all():
            return False
        if (x < self.lo - EPS_LP).any() or (x > self.hi + EPS_LP).any():
            return False
        Ax = np.bincount(self._row, weights=self._value * x[self._index], minlength=self.m)
        return bool((Ax >= self._b_lo - EPS_LP).all() and (Ax <= self._b_hi + EPS_LP).all())

    def _solve(self, c, sense="min"):
        """The one solve of every query, on arguments the query validated:
        the objective c (a float vector of length n; None is zero) and the
        sense.  Writes the cost over every column, unless both it and the
        model's are zero, picks the simplex variant from what changed
        since the last solve, runs HiGHS (``_run``) and reads the
        optimizer into ``last_x`` (None unless optimal).  Returns the
        status."""
        h = self._highs
        zero = c is None or not c.any()
        if not (zero and self._zero_cost):  # a zero objective is written only over a nonzero one
            cost = np.zeros(self.n) if c is None else c if sense == "min" else -c
            _check(h.changeColsCost(self.n, self._all, cost), "changeColsCost")
            self._zero_cost = zero
        self._use(_DUAL if self._changed else _PRIMAL)
        self._changed = False
        self.last_x = None
        status = self._run()
        if status == OPTIMAL:
            self.last_x = np.array(h.getSolution().col_value)
        return status

    def _use(self, strategy):
        """Set the model's simplex_strategy, unless it already is that."""
        if strategy != self._strategy:
            self._highs.setOptionValue("simplex_strategy", strategy)
            self._strategy = strategy

    def _run(self):
        """Run HiGHS; re-run once with dual simplex from a cleared solver
        if the run ends without a definite status (without presolve if
        HiGHS could not tell infeasible from unbounded).  A model without
        columns is "Empty" to HiGHS: its rows read b_lo <= 0 <= b_hi, as
        ``satisfied_by`` checks them.  Statuses are compared as ints."""
        h = self._highs
        if h.run().value == _ERROR and h.getModelStatus().value == _NOTSET:
            # HiGHS refuses threads=1 once another caller in this process
            # (scipy.optimize's HiGHS front end with its default thread
            # count) has started its global scheduler with more; a fresh
            # scheduler takes this model's setting.
            _highs._Highs.resetGlobalScheduler(True)
            h.run()
        model_status = h.getModelStatus().value
        if model_status == _EMPTY:
            return OPTIMAL if self.satisfied_by(np.zeros(0)) else INFEASIBLE
        if model_status not in _STATUS:
            unsure = model_status == _UNSURE
            self._use(_DUAL)
            if unsure:
                h.setOptionValue("presolve", "off")
            h.clearSolver()
            h.run()
            if unsure:
                h.setOptionValue("presolve", "choose")
            model_status = h.getModelStatus().value
        if model_status not in _STATUS:
            raise NumericalError("HiGHS model status: " + h.modelStatusToString(h.getModelStatus()))
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


def _bound_vectors(lo, hi, n, what="variable"):
    """Validated float bound vectors of length n, of columns ("variable")
    or of rows ("row"), copies of the arguments."""
    lo = np.array(lo, dtype=float).ravel()
    hi = np.array(hi, dtype=float).ravel()
    if lo.shape[0] != n or hi.shape[0] != n:
        raise ValueError(f"{what} bound vectors must have length {n}")
    if not (lo <= hi).all():  # also False at a NaN
        if np.isnan(lo).any() or np.isnan(hi).any():
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
    if not np.isfinite(value).all():  # NaN and ±inf are nonzeros
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
