"""LP kernel property (ROADMAP item 6(b)): random sequences of operations on
one ``LinearProgram``, every answer checked against a fresh build of the
same data and against scipy's ``linprog``.

The data are small integers around an integer reference point, so the
oracles' optima are exact rationals and a disagreement beyond 1e-9 is the
kernel's.  The sequences are drawn from a seeded generator, a fixed number
of them, and they must reach every cache the kernel keeps between calls.
"""

import numpy as np
from scipy.optimize import linprog
from scipy.sparse.csgraph import connected_components

from czest import lp
from lp_rows import model_cols

SEQUENCES = 120
MAX_COLS = 16


def _close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


class _Region:
    """The test's own copy of the data: dense rows b_lo <= A x <= b_hi,
    column bounds [lo, hi], and a reference point x_ref the rows are drawn
    around (feasible unless a row was drawn to miss it)."""

    def __init__(self, rng):
        self.rng = rng
        self.A = np.zeros((0, 0))
        self.b_lo = self.b_hi = self.lo = self.hi = self.x_ref = np.zeros(0)

    def columns(self, count):
        """Bounds of ``count`` new columns around new reference entries:
        boxes, one-sided and free."""
        rng = self.rng
        x = rng.integers(-3, 4, count).astype(float)
        lo, hi = x - rng.integers(0, 3, count), x + rng.integers(0, 3, count)
        kind = rng.integers(0, 4, count)
        lo[kind == 1] = -np.inf
        hi[kind == 2] = np.inf
        lo[kind == 3], hi[kind == 3] = -np.inf, np.inf
        return x, lo, hi

    def rows(self, count, width, x_ref):
        """``count`` rows over ``width`` columns, each with one to three
        nonzeros, bounded around their value at ``x_ref``."""
        rng = self.rng
        A = np.zeros((count, width))
        for row in A:
            at = rng.choice(width, size=min(width, rng.integers(1, 4)), replace=False)
            row[at] = rng.choice([-3, -2, -1, 1, 2, 3], size=at.size)
        v = A @ x_ref
        b_lo, b_hi = v - rng.integers(0, 3, count), v + rng.integers(0, 3, count)
        kind = rng.integers(0, 6, count)
        b_lo[kind == 1] = -np.inf
        b_hi[kind == 2] = np.inf
        b_hi[kind == 3] = b_lo[kind == 3] = v[kind == 3]  # equality
        b_lo[kind == 4] = b_hi[kind == 4] = v[kind == 4] + 1  # may miss the region
        return A, b_lo, b_hi

    def blocks(self):
        """The number of connected components of the columns, over the
        nonzeros of the rows, among columns that some row reads."""
        n = self.A.shape[1]
        read = np.flatnonzero((self.A != 0).any(axis=0))
        graph = np.zeros((n + len(self.A),) * 2)
        r, c = np.nonzero(self.A)
        graph[c, n + r] = 1
        _, label = connected_components(graph, directed=False)
        return len(set(label[read].tolist()))

    def fresh(self):
        """A new LinearProgram of the same data."""
        region = lp.LinearProgram(np.zeros((0, self.lo.size)), np.zeros(0), self.lo, self.hi)
        region.extend([], [], self.A, self.b_lo, self.b_hi)
        return region

    def linprog(self, c, sense, lo=None, hi=None):
        """(status, value) of scipy's linprog over the data, with the
        column bounds lo, hi if given; rerun without presolve on status 2,
        which is also HiGHS's "unbounded or infeasible"."""
        lo, hi = (self.lo, self.hi) if lo is None else (lo, hi)
        sign = 1.0 if sense == "min" else -1.0
        eq = self.b_lo == self.b_hi
        up, down = ~eq & np.isfinite(self.b_hi), ~eq & np.isfinite(self.b_lo)
        n = self.lo.size
        kw = {
            "A_ub": np.vstack([self.A[up], -self.A[down], np.zeros((0, n))]),
            "b_ub": np.concatenate([self.b_hi[up], -self.b_lo[down]]),
            "A_eq": self.A[eq] if eq.any() else None,
            "b_eq": self.b_lo[eq] if eq.any() else None,
            "bounds": [(None if np.isinf(a) else a, None if np.isinf(b) else b) for a, b in zip(lo, hi)],
            "method": "highs",
        }
        if not kw["b_ub"].size:
            kw["A_ub"] = kw["b_ub"] = None
        res = linprog(sign * np.asarray(c, dtype=float), **kw)
        if res.status == 2:
            res = linprog(sign * np.asarray(c, dtype=float), options={"presolve": False}, **kw)
        status = {0: lp.OPTIMAL, 2: lp.INFEASIBLE, 3: lp.UNBOUNDED}[res.status]
        return status, sign * res.fun if status == lp.OPTIMAL else None

    def holds(self, x, first_row=0):
        """x within ``EPS_LP`` of the column bounds and of the rows from
        ``first_row`` on."""
        eps = lp.EPS_LP
        if np.any(x < self.lo - eps) or np.any(x > self.hi + eps):
            return False
        Ax = self.A[first_row:] @ x
        return bool(np.all(Ax >= self.b_lo[first_row:] - eps) and np.all(Ax <= self.b_hi[first_row:] + eps))


def _check_solve(prog, data, c, sense, reached):
    if not c.any():
        reached.add("zero cost kept" if prog._zero_cost else "zero cost written")
    reached.add("dual" if prog._changed else "primal")
    before = prog._strategy
    got = prog.solve(c, sense)
    if prog._strategy != before:
        reached.add("strategy switched")
    fresh = data.fresh().solve(c, sense)
    for status, value in (data.linprog(c, sense), (fresh.status, fresh.value)):
        assert got.status == status
        if status == lp.OPTIMAL:
            assert _close(got.value, value), (got.value, value)
    if got.status == lp.OPTIMAL:
        assert data.holds(prog.last_x) and _close(float(c @ prog.last_x), got.value)


def _check_bounds(prog, data, C, reached):
    if len(C) > 1 and prog._plan is not None and prog._plan[0] == (C != 0).tobytes():
        reached.add("plan kept")
    want = []
    for sense in ("min", "max"):
        want.append([data.linprog(c, sense) for c in C])
    if any(status == lp.INFEASIBLE for status, _ in want[0]):
        for region in (prog, data.fresh()):
            try:
                region.bounds(C)
            except lp.EmptySetError:
                continue
            raise AssertionError("bounds of an empty region")
        return
    inf = {"min": -np.inf, "max": np.inf}
    for got in (prog.bounds(C), data.fresh().bounds(C)):
        for side, sense in enumerate(("min", "max")):
            for t, (status, value) in enumerate(want[side]):
                if status == lp.UNBOUNDED:
                    assert got[side][t] == inf[sense]
                else:
                    assert _close(got[side][t], value), (got[side][t], value)
    if prog.last_x is not None:
        assert data.holds(prog.last_x)


def _check_feasible_at(prog, data, cols, x):
    lo, hi = prog.lo.copy(), prog.hi.copy()
    got = prog.feasible_at(cols, x)
    beyond = np.any(x < data.lo[cols] - lp.EPS_LP) or np.any(x > data.hi[cols] + lp.EPS_LP)
    pinned_lo, pinned_hi = data.lo.copy(), data.hi.copy()
    pinned_lo[cols] = pinned_hi[cols] = x
    want = False if beyond else data.linprog(np.zeros(data.lo.size), "min", pinned_lo, pinned_hi)[0] == lp.OPTIMAL
    assert got == want == data.fresh().feasible_at(cols, x)
    # the pinned bounds are restored, in the wrapper and in the model
    assert np.array_equal(prog.lo, lo) and np.array_equal(prog.hi, hi)
    if prog._held == (prog.n, prog.m):  # reading the model must not enter waiting rows
        for a, b in zip(model_cols(prog), (lo, hi)):
            assert np.array_equal(np.asarray(a), b)
    if got:
        assert data.holds(prog.last_x) and np.allclose(prog.last_x[cols], x, rtol=0, atol=lp.EPS_LP)


def _run_sequence(rng, reached):
    data = _Region(rng)
    n0 = int(rng.integers(1, 6))
    data.x_ref, data.lo, data.hi = data.columns(n0)
    A = data.rows(int(rng.integers(0, 3)), n0, data.x_ref)[0]
    b = A @ data.x_ref  # the constructor's rows are equalities
    data.A, data.b_lo, data.b_hi = A, b, b
    prog = lp.LinearProgram(A, b, data.lo, data.hi)
    last_C = None
    for _ in range(int(rng.integers(3, 10))):
        op = rng.choice(["extend", "replace", "solve", "bounds", "feasible_at", "satisfied_by"],
                        p=[0.25, 0.1, 0.2, 0.2, 0.15, 0.1])
        n, m = data.lo.size, len(data.A)
        if op != "extend" and prog._held != (n, m):
            reached.add("waiting rows read" if op == "satisfied_by" else "waiting rows entered")
        if op == "extend":
            added = int(rng.integers(0, 4)) if n < MAX_COLS else 0
            x_new, lo, hi = data.columns(added)
            x_ref = np.concatenate([data.x_ref, x_new])
            r = int(rng.integers(0, 4))
            if rng.random() < 0.5:
                cols = rng.choice(n + added, size=int(rng.integers(1, n + added + 1)), replace=False)
                A_cols, b_lo, b_hi = data.rows(r, cols.size, x_ref[cols])
                A = np.zeros((r, n + added))
                A[:, cols] = A_cols
                prog.extend(lo, hi, A_cols, b_lo, b_hi, cols=cols)
                reached.add("cols")
            else:
                A, b_lo, b_hi = data.rows(r, n + added, x_ref)
                prog.extend(lo, hi, A, b_lo, b_hi)
            before = data.blocks()
            data.A = np.vstack([np.hstack([data.A, np.zeros((m, added))]), A])
            data.b_lo, data.b_hi = np.concatenate([data.b_lo, b_lo]), np.concatenate([data.b_hi, b_hi])
            data.lo, data.hi, data.x_ref = np.concatenate([data.lo, lo]), np.concatenate([data.hi, hi]), x_ref
            if data.blocks() < before:
                reached.add("blocks joined")
        elif op == "replace":
            same = rng.random() < 0.5
            if same:  # new numbers in the same places
                A = data.A.copy()
                A[A != 0] = rng.choice([-3, -2, -1, 1, 2, 3], size=int((A != 0).sum()))
                v = A @ data.x_ref
                b_lo, b_hi = v - rng.integers(0, 3, m), v + rng.integers(0, 3, m)
            else:
                A, b_lo, b_hi = data.rows(m, n, data.x_ref)
            _, lo, hi = data.columns(n)
            lo, hi = np.minimum(lo, data.x_ref), np.maximum(hi, data.x_ref)
            kept_block = prog._block is not None
            valid = prog._highs.getBasis().valid
            known, rows = prog._flat is not None, (prog._start, prog._index)
            prog.replace(lo, hi, A, b_lo, b_hi)
            same_pattern = np.array_equal(A != 0, data.A != 0)
            reused = prog._start is rows[0] and prog._index is rows[1]
            # the held rows are reused exactly when the last replace wrote them in this pattern
            assert reused == (known and same_pattern)
            if known:
                reached.add("held pattern reused" if reused else "held pattern rebuilt")
            if kept_block:  # kept only for the same pattern (rows written in another entry order drop it)
                assert prog._block is None or same_pattern
                reached.add("blocks dropped" if prog._block is None else "blocks kept")
            if valid:
                assert prog._highs.getBasis().valid
                reached.add("basis kept")
            data.A, data.b_lo, data.b_hi, data.lo, data.hi = A, b_lo, b_hi, lo, hi
        elif op == "solve":
            c = rng.integers(-2, 3, n).astype(float) if rng.random() < 0.8 else np.zeros(n)
            _check_solve(prog, data, c, rng.choice(["min", "max"]), reached)
        elif op == "bounds":
            if last_C is not None and last_C.shape[1] == n and rng.random() < 0.5:
                C = last_C
            else:
                C = np.zeros((int(rng.integers(1, 4)), n))
                for row in C:
                    row[rng.choice(n, size=min(n, int(rng.integers(1, 3))), replace=False)] = 1.0
            last_C = C
            _check_bounds(prog, data, C, reached)
        elif op == "feasible_at":
            cols = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            x = data.x_ref[cols] + (rng.integers(-1, 2, cols.size) if rng.random() < 0.5 else 0)
            _check_feasible_at(prog, data, cols, x.astype(float))
        else:  # the reference point, the last optimizer and points near the first, from every row
            near = [data.x_ref + rng.integers(-1, 2, n) for _ in range(3)]
            for x in [data.x_ref, prog.last_x] + near:
                if x is not None and x.size == n:
                    for first in range(m + 1):
                        assert prog.satisfied_by(x, first) == data.holds(x, first)


def test_random_operation_sequences_agree_with_the_oracles():
    rng = np.random.default_rng(20261020)
    reached = set()
    for _ in range(SEQUENCES):
        _run_sequence(rng, reached)
    every = {
        "cols", "blocks joined", "blocks kept", "blocks dropped", "basis kept", "plan kept",
        "held pattern reused", "held pattern rebuilt",
        "waiting rows read", "waiting rows entered", "zero cost kept", "zero cost written",
        "dual", "primal", "strategy switched",
    }
    assert every <= reached, every - reached
