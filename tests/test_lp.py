"""LP kernel tests: pinned examples, statuses and a scipy cross-check."""

import pathlib

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import OptimizeWarning, linprog
from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, _Highs

import czest
from czest import czono, lp
from czest.lp import (
    EPS_LP,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    EmptySetError,
    LinearProgram,
    NumericalError,
)
from lp_rows import bounds_row_by_row, model_cols, model_rows, wrap_models


def _no_rows(lo, hi):
    """The box [lo, hi] as a region without rows."""
    return LinearProgram(np.zeros((0, len(lo))), [], lo, hi)


def test_box_only_minimum():
    res = _no_rows([-1, -1], [1, 1]).solve([1.0, 0.0])
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(-1.0, abs=1e-9)
    assert res.x[0] == pytest.approx(-1.0, abs=1e-9)


def test_box_only_maximum():
    res = _no_rows([-1, -1], [1, 1]).solve([1.0, 0.0], sense="max")
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_fixed_variable_infeasible():
    res = LinearProgram([[1.0]], [5.0], [-1], [1]).solve([1.0])
    assert res.status == INFEASIBLE


def test_free_variable_unbounded():
    res = _no_rows([-np.inf], [np.inf]).solve([-1.0])
    assert res.status == UNBOUNDED


def test_equality_pins_value():
    # x1 + x2 = 1 over [-1,1]^2, minimize x1 -> x1 = 0 at x2 = 1
    res = LinearProgram([[1.0, 1.0]], [1.0], [-1, -1], [1, 1]).solve([1.0, 0.0])
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(0.0, abs=1e-9)
    assert res.x.sum() == pytest.approx(1.0, abs=1e-9)


def test_feasibility_probe():
    assert LinearProgram([[1.0, 1.0]], [2.0], [-1, -1], [1, 1]).solve([0.0, 0.0]).status == OPTIMAL
    assert LinearProgram([[1.0, 1.0]], [2.5], [-1, -1], [1, 1]).solve([0.0, 0.0]).status == INFEASIBLE


def test_degenerate_zero_width_bounds():
    res = LinearProgram([[1.0, 0.0]], [0.0], [0, 0], [0, 0]).solve([1.0, 1.0])
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_no_constraints_no_variables():
    res = _no_rows(np.zeros(0), np.zeros(0)).solve(np.zeros(0))
    assert res.status == OPTIMAL
    assert res.value == 0.0


def test_rows_without_variables():
    # the rows read 0 = b
    assert LinearProgram(np.zeros((2, 0)), [0.0, 0.0], [], []).solve(np.zeros(0)).status == OPTIMAL
    assert LinearProgram(np.zeros((2, 0)), [0.0, 1.0], [], []).solve(np.zeros(0)).status == INFEASIBLE


def test_free_variable_enters_both_directions():
    # the minimum needs the free variable to move negative
    res = LinearProgram([[1.0, 1.0]], [0.0], [-np.inf, -2.0], [np.inf, 2.0]).solve([1.0, 0.0])
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(-2.0, abs=1e-9)


def test_warm_start_matches_cold_start():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 7))
    xi = rng.uniform(-1, 1, 7)
    b = A @ xi
    lo, hi = -np.ones(7), np.ones(7)
    prob = LinearProgram(A, b, lo, hi)
    for trial in range(10):
        c = rng.standard_normal(7)
        warm = prob.solve(c)
        cold = LinearProgram(A, b, lo, hi).solve(c)
        assert warm.status == cold.status == OPTIMAL
        assert warm.value == pytest.approx(cold.value, abs=1e-8)


def _random_instance(rng):
    n = int(rng.integers(1, 9))
    m = int(rng.integers(0, min(n, 4) + 1))
    A = rng.standard_normal((m, n)) if m else None
    lo = np.where(rng.random(n) < 0.15, -np.inf, rng.uniform(-2, 0, n))
    hi = np.where(rng.random(n) < 0.15, np.inf, rng.uniform(0, 2, n))
    # anchor b at a point inside the box most of the time
    with np.errstate(invalid="ignore"):
        mid = np.where(
            np.isfinite(lo) & np.isfinite(hi), (lo + hi) / 2, 0.0
        ) + rng.uniform(-0.3, 0.3, n)
    if m:
        b = A @ mid if rng.random() < 0.8 else rng.standard_normal(m) * 3
    else:
        b = None
    c = rng.standard_normal(n)
    return c, A, b, lo, hi


def _program(A, b, lo, hi):
    """The region of a ``_random_instance``; A None means no rows."""
    return _no_rows(lo, hi) if A is None else LinearProgram(A, b, lo, hi)


def test_cross_check_against_scipy():
    rng = np.random.default_rng(17)
    statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for _ in range(400):
        c, A, b, lo, hi = _random_instance(rng)
        mine = _program(A, b, lo, hi).solve(c)
        ref = linprog(
            c,
            A_eq=A,
            b_eq=b,
            bounds=list(zip(lo, hi)),
            method="highs",
        )
        if ref.status == 0:
            assert mine.status == OPTIMAL, (c, A, b, lo, hi)
            assert mine.value == pytest.approx(ref.fun, abs=1e-6, rel=1e-7)
        elif ref.status == 2:
            assert mine.status == INFEASIBLE
        elif ref.status == 3:
            assert mine.status == UNBOUNDED
        statuses[mine.status] += 1
    # the generator must actually exercise all three outcomes
    assert all(v > 0 for v in statuses.values()), statuses


def test_determinism_identical_outputs():
    rng = np.random.default_rng(23)
    c, A, b, lo, hi = _random_instance(rng)
    r1 = _program(A, b, lo, hi).solve(c)
    r2 = _program(A, b, lo, hi).solve(c)
    assert r1.status == r2.status
    if r1.status == OPTIMAL:
        assert r1.value == r2.value
        assert np.array_equal(r1.x, r2.x)


def test_solves_after_highs_scheduler_started_with_more_threads():
    # HiGHS keeps one thread scheduler per process; a linprog call that
    # starts it with 2 threads must not make the threads=1 model fail
    _Highs.resetGlobalScheduler(True)  # drop the one earlier tests started
    with pytest.warns(OptimizeWarning):
        ref = linprog([1.0], A_eq=[[1.0]], b_eq=[0.5], bounds=[(0, 1)],
                      method="highs", options={"threads": 2})
    assert ref.status == 0
    res = LinearProgram([[1.0, 1.0]], [1.0], [0, 0], [2, 2]).solve([1.0, 0.0])
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(0.0, abs=1e-9)


def _block_region(rng, m1, m2, n1, n2):
    """A region whose last n2 columns enter only its last m2 rows."""
    A = np.zeros((m1 + m2, n1 + n2))
    A[:m1, :n1] = rng.standard_normal((m1, n1))
    A[m1:] = rng.standard_normal((m2, n1 + n2))
    n = n1 + n2
    lo = np.where(rng.random(n) < 0.2, -np.inf, rng.uniform(-2, 0, n))
    hi = np.where(rng.random(n) < 0.2, np.inf, rng.uniform(0, 2, n))
    with np.errstate(invalid="ignore"):
        mid = np.where(np.isfinite(lo) & np.isfinite(hi), (lo + hi) / 2, 0.0)
    b = A @ (mid + rng.uniform(-0.3, 0.3, n))
    if rng.random() < 0.2:
        b[m1:] += rng.standard_normal(m2) * 5
    return A, b, lo, hi


def test_grown_region_matches_fresh():
    rng = np.random.default_rng(31)
    statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for _ in range(60):
        m1, m2 = int(rng.integers(0, 3)), int(rng.integers(0, 4))
        n1, n2 = int(rng.integers(1, 5)), int(rng.integers(0, 4))
        A, b, lo, hi = _block_region(rng, m1, m2, n1, n2)
        grown = LinearProgram(A[:m1, :n1], b[:m1], lo[:n1], hi[:n1])
        grown.solve(rng.standard_normal(n1))  # the extension starts from a basis
        grown.extend(lo[n1:], hi[n1:], A[m1:], b[m1:], b[m1:])
        fresh = LinearProgram(A, b, lo, hi)
        assert (grown.m, grown.n) == (fresh.m, fresh.n) == A.shape
        for _ in range(4):
            c = rng.standard_normal(n1 + n2)
            g, f = grown.solve(c), fresh.solve(c)
            assert g.status == f.status
            if f.status == OPTIMAL:
                assert g.value == pytest.approx(f.value, abs=1e-9, rel=1e-9)
            statuses[g.status] += 1
    assert all(v > 0 for v in statuses.values()), statuses


def test_extension_that_empties_the_region():
    # x1 + x2 = 1 over [0, 1]^2; then x3 in [0, 2] with x1 + x3 = 4
    prog = LinearProgram(np.array([[1.0, 1.0]]), [1.0], [0, 0], [1, 1])
    assert prog.solve([1.0, 0.0]).status == OPTIMAL
    prog.extend([0.0], [2.0], np.array([[1.0, 0.0, 1.0]]), [4.0], [4.0])
    fresh = LinearProgram(np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]]), [1.0, 4.0],
                          [0, 0, 0], [1, 1, 2])
    for c in ([1.0, 0.0, 0.0], [0.0, 0.0, 0.0]):
        assert prog.solve(c).status == fresh.solve(c).status == INFEASIBLE


def test_extension_of_closed_form_programs():
    # no rows yet, then rows: the model is built at the extension
    prog = LinearProgram(np.zeros((0, 2)), [], [-1, -1], [1, 1])
    assert prog.solve([1.0, 1.0]).value == pytest.approx(-2.0)
    prog.extend([], [], [[1.0, -1.0]], [0.5], [0.5])
    assert prog.solve([1.0, 1.0]).value == pytest.approx(-1.5, abs=1e-9)
    # rows over no variables (0 = 1) stay infeasible once columns arrive
    empty = LinearProgram(np.zeros((1, 0)), [1.0], [], [])
    empty.extend([0.0], [1.0], [[1.0]], [0.5], [0.5])
    assert empty.solve([1.0]).status == INFEASIBLE


def _changed_instance(rng):
    """A region (A, b, lo, hi) and a change of some of its coefficients and
    right-hand sides (A2, b2); a fifth of the regions have no rows or no
    columns."""
    shape = rng.random()
    if shape < 0.1:
        m, n = int(rng.integers(1, 3)), 0  # rows over no variables
    elif shape < 0.2:
        m, n = 0, int(rng.integers(1, 5))  # no rows
    else:
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 7))
    A = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.7)
    lo = np.where(rng.random(n) < 0.15, -np.inf, rng.uniform(-2, 0, n))
    hi = np.where(rng.random(n) < 0.15, np.inf, rng.uniform(0, 2, n))
    with np.errstate(invalid="ignore"):
        mid = np.where(np.isfinite(lo) & np.isfinite(hi), (lo + hi) / 2, 0.0)
    b = A @ (mid + rng.uniform(-0.3, 0.3, n))
    A2 = A.copy()
    if m and n:
        for _ in range(int(rng.integers(1, m * n + 1))):
            r, c = int(rng.integers(0, m)), int(rng.integers(0, n))
            A2[r, c] = 0.0 if rng.random() < 0.3 else rng.standard_normal()
    b2 = b.copy()
    rows = np.flatnonzero(rng.random(m) < 0.6)
    if n == 0:
        b2[rows] = rng.choice([0.0, 1.0], rows.size)
    elif rng.random() < 0.8:
        b2[rows] = (A2 @ (mid + rng.uniform(-0.3, 0.3, n)))[rows]
    else:
        b2[rows] = rng.standard_normal(rows.size) * 3
    return A, b, lo, hi, A2, b2


def test_changed_region_matches_fresh():
    # a region reloaded with new coefficients, right-hand sides and column
    # bounds answers as one built afresh from them
    rng = np.random.default_rng(53)
    statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    degenerate = 0  # regions without rows or without columns
    for _ in range(60):
        A, b, lo, hi, A2, b2 = _changed_instance(rng)
        m, n = A.shape
        changed = LinearProgram(A, b, lo, hi)
        changed.solve(rng.standard_normal(n))  # the change starts from a basis
        lo2, hi2 = np.where(rng.random(n) < 0.3, lo - 0.5, lo), hi
        changed.replace(lo2, hi2, A2, b2, b2)
        assert changed.reloads == 1
        assert np.array_equal(changed.lo, lo2) and np.array_equal(changed.hi, hi2)
        fresh = LinearProgram(A2, b2, lo2, hi2)
        degenerate += m == 0 or n == 0
        for _ in range(4):
            c = rng.standard_normal(n)
            got, want = changed.solve(c), fresh.solve(c)
            assert got.status == want.status
            if want.status == OPTIMAL:
                assert got.value == pytest.approx(want.value, abs=1e-9, rel=1e-9)
            statuses[got.status] += 1
    assert all(v > 0 for v in statuses.values()), statuses
    assert degenerate > 0


class _Counting:
    """A HiGHS model that counts the calls of each method listed in
    ``calls`` (a dict, which several models may share)."""

    def __init__(self, model, calls):
        self._model = model
        self.calls = calls

    def __getattr__(self, name):
        attr = getattr(self._model, name)
        if name not in self.calls:
            return attr

        def counted(*args):
            self.calls[name] += 1
            return attr(*args)

        return counted


def _count(prog, *names):
    """Count the calls of each listed method on every block's HiGHS model
    of ``prog``: one dict, kept up to date."""
    calls = dict.fromkeys(names, 0)
    wrap_models(prog, lambda model: _Counting(model, calls))
    return calls


def test_replace_is_one_load_that_keeps_the_basis():
    rng = np.random.default_rng(59)
    A = rng.standard_normal((4, 7))
    lo, hi = -np.ones(7), np.ones(7)
    b = A @ rng.uniform(-0.5, 0.5, 7)
    prog = LinearProgram(np.zeros((0, 7)), [], lo, hi)
    prog.extend([], [], A, b - 0.1, b + 0.1)
    calls = _count(prog, "passModel", "setBasis", "addRows", "addCols", "changeColsBounds")
    # no basis yet: the model is loaded, and no basis is handed back
    prog.replace(lo, hi, A, b - 0.1, b + 0.1)
    assert calls == {"passModel": 1, "setBasis": 0, "addRows": 0, "addCols": 0, "changeColsBounds": 0}
    c = rng.standard_normal(7)
    first = prog.solve(c)
    assert first.status == OPTIMAL
    # the same numbers again: the next solve starts from the optimal basis
    prog.replace(lo, hi, A, b - 0.1, b + 0.1)
    assert calls == {"passModel": 2, "setBasis": 1, "addRows": 0, "addCols": 0, "changeColsBounds": 0}
    again = prog.solve(c)
    assert again.value == pytest.approx(first.value, abs=1e-9)
    assert prog._highs.getInfo().simplex_iteration_count == 0
    assert prog.reloads == 2


def _held_pattern_region():
    """A region of 4 rows over 7 columns with zeros among its entries,
    reloaded once, so that it holds its row pattern: (region, A, b)."""
    rng = np.random.default_rng(61)
    A = rng.standard_normal((4, 7)) * (rng.random((4, 7)) < 0.6)
    A[:, 0] = 1.0  # every row reads x0
    b = A @ rng.uniform(-0.5, 0.5, 7)
    prog = LinearProgram(np.zeros((0, 7)), [], -np.ones(7), np.ones(7))
    prog.extend([], [], A, b - 0.1, b + 0.1)
    prog.replace(-np.ones(7), np.ones(7), A, b - 0.1, b + 0.1)
    return prog, A, b


def _same_model(prog, A, b_lo, b_hi, lo, hi):
    """``prog``'s HiGHS model is that of a region built afresh from the
    data: rows, row bounds and column bounds."""
    fresh = LinearProgram(np.zeros((0, A.shape[1])), [], lo, hi)
    fresh.extend([], [], A, b_lo, b_hi)
    (rows, row_lo, row_hi), cols = model_rows(prog), model_cols(prog)
    (want, want_lo, want_hi), want_cols = model_rows(fresh), model_cols(fresh)
    assert np.array_equal(rows.toarray(), want.toarray()) and rows.nnz == want.nnz
    assert np.array_equal(row_lo, want_lo) and np.array_equal(row_hi, want_hi)
    assert all(np.array_equal(a, b) for a, b in zip(cols, want_cols))


class TestHeldPattern:
    """``replace`` with A's nonzeros exactly where the last ``replace``
    wrote them reuses the held row pattern; any other A takes the full
    path; bad input changes nothing."""

    def test_new_numbers_in_the_held_pattern_reuse_its_rows(self):
        prog, A, b = _held_pattern_region()
        C = np.eye(7)[:3]
        prog.bounds(C)
        rows, blocks, plan = (prog._start, prog._index), prog._blocks(), prog._plan
        lo, hi = -2 * np.ones(7), np.ones(7)
        for scale in (2.0, -0.5):
            prog.replace(lo, hi, scale * A, scale * b - 1, scale * b + 1)
            assert prog._start is rows[0] and prog._index is rows[1]
            assert prog._block is blocks and prog._plan is plan
            # what HiGHS holds is what a fresh build of the same data holds
            _same_model(prog, scale * A, scale * b - 1, scale * b + 1, lo, hi)
            assert prog.solve(np.ones(7)).status == OPTIMAL
        assert prog.reloads == 3

    @pytest.mark.parametrize("change", ["zeroed", "added", "moved"])
    def test_another_pattern_takes_the_full_path(self, change):
        # an entry zeroed, one added, or one moved (as many nonzeros)
        prog, A, b = _held_pattern_region()
        prog.bounds(np.eye(7)[:3])
        A2 = A.copy()
        if change != "added":
            A2[tuple(np.argwhere(A != 0)[-1])] = 0.0
        if change != "zeroed":
            A2[tuple(np.argwhere(A == 0)[0])] = 1.5
        rows = prog._start, prog._index
        prog.replace(-np.ones(7), np.ones(7), A2, b - 0.1, b + 0.1)
        assert prog._block is None and prog._plan is None
        assert prog._index is not rows[1] and prog._index.size == np.count_nonzero(A2)
        _same_model(prog, A2, b - 0.1, b + 0.1, -np.ones(7), np.ones(7))
        # the new pattern is held in turn
        rows = prog._start, prog._index
        prog.replace(-np.ones(7), np.ones(7), 3 * A2, 3 * b - 0.1, 3 * b + 0.1)
        assert prog._start is rows[0] and prog._index is rows[1]
        _same_model(prog, 3 * A2, 3 * b - 0.1, 3 * b + 0.1, -np.ones(7), np.ones(7))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("held", [True, False], ids=["held", "new"])
    def test_a_non_finite_entry_changes_nothing(self, value, held):
        prog, A, b = _held_pattern_region()
        before = model_rows(prog), prog._value.copy(), (prog._start, prog._index)
        bad = A.copy()
        bad[tuple(np.argwhere(A != 0 if held else A == 0)[0])] = value
        with pytest.raises(ValueError, match="non-finite coefficient"):
            prog.replace(-np.ones(7), np.ones(7), bad, b - 0.1, b + 0.1)
        assert prog.reloads == 1 and np.array_equal(prog._value, before[1])
        assert prog._start is before[2][0] and prog._index is before[2][1]
        after = model_rows(prog)
        assert np.array_equal(after[0].toarray(), before[0][0].toarray())

    @pytest.mark.parametrize(
        "shape, match",
        [((5, 7), "A has 5 rows, expected 4"), ((4, 8), "A has 8 columns, expected 7"), ((28,), "2-d array")],
    )
    def test_a_wrong_shape_changes_nothing(self, shape, match):
        prog, A, b = _held_pattern_region()
        rows = prog._start, prog._index
        value = prog._value
        bad = np.resize(A, shape)
        with pytest.raises(ValueError, match=match):
            prog.replace(-np.ones(7), np.ones(7), bad, b - 0.1, b + 0.1)
        assert prog.reloads == 1 and prog._value is value
        assert prog._start is rows[0] and prog._index is rows[1]
        _same_model(prog, A, b - 0.1, b + 0.1, -np.ones(7), np.ones(7))


def test_zero_objective_is_written_once():
    # a zero objective is written only when the model's is not zero
    prog = LinearProgram([[1.0, 1.0, 1.0]], [1.0], np.zeros(3), np.ones(3))
    calls = _count(prog, "changeColsCost")
    assert prog.feasible_at([0], [0.5]) and prog.solve(np.zeros(3)).status == OPTIMAL
    assert calls["changeColsCost"] == 0
    assert prog.solve([1.0, 0.0, 0.0]).value == pytest.approx(0.0, abs=1e-9)
    assert prog.feasible_at([0], [0.5]) and prog.feasible_at([1], [0.5])
    assert not prog.feasible_at([0, 1], [0.75, 0.5])
    assert calls["changeColsCost"] == 2
    assert prog.solve([1.0, 0.0, 0.0], sense="max").value == pytest.approx(1.0, abs=1e-9)
    prog.replace(prog.lo, prog.hi, [[1.0, 1.0, 1.0]], [1.0], [1.0])  # loads a zero objective
    assert prog.feasible_at([2], [1.0])
    assert calls["changeColsCost"] == 3


def test_changes_are_validated():
    prog = LinearProgram([[1.0, 1.0]], [1.0], [0, 0], [1, 1])
    box = [0, 0], [1, 1]
    for A, b_lo, b_hi, match in (
        ([[1.0, 1.0], [1.0, 0.0]], [1.0, 1.0], [1.0, 1.0], "A has 2 rows, expected 1"),
        ([[1.0, 1.0, 1.0]], [1.0], [1.0], "A has 3 columns, expected 2"),
        ([1.0, 1.0], [1.0], [1.0], "2-d array"),
        ([[1.0, 1.0]], [np.nan], [1.0], "NaN bound for some row"),
        ([[1.0, 1.0]], [0.0], [np.nan], "NaN bound for some row"),
        ([[1.0, 1.0]], [1.0], [0.5], "lo > hi for some row"),
        ([[1.0, 1.0]], [1.0, 1.0], [1.0, 1.0], "row bound vectors must have length 1"),
    ):
        with pytest.raises(ValueError, match=match):
            prog.replace(*box, A, b_lo, b_hi)
    for lo, hi, match in (([0.0], [1.0], "length 2"), ([0.0, np.nan], [1, 1], "NaN bound"), ([0, 2], [1, 1], "lo > hi")):
        with pytest.raises(ValueError, match=match):
            prog.replace(lo, hi, [[1.0, 1.0]], [1.0], [1.0])
    with pytest.raises(ValueError, match="lo > hi for some row"):
        prog.extend([], [], [[1.0, -1.0]], [1.0], [0.0])
    assert prog.reloads == 0
    assert model_rows(prog)[0].toarray().tolist() == [[1.0, 1.0]]
    assert model_rows(prog)[1].tolist() == model_rows(prog)[2].tolist() == [1.0]
    assert prog.lo.tolist() == [0.0, 0.0] and prog.hi.tolist() == [1.0, 1.0]
    with pytest.raises(ValueError, match="NaN bound"):
        LinearProgram([[1.0, 1.0]], [1.0], [np.nan, 0], [1, 1])
    with pytest.raises(ValueError, match="NaN bound"):
        prog.extend([0.0], [np.nan], [[1.0, 0.0, 1.0]], [0.0], [0.0])
    assert (prog.m, prog.n) == (1, 2)
    prog.replace(*box, [[0.0, 1.0]], [0.5], [0.5])  # x2 = 0.5 alone
    res = prog.solve([1.0, -1.0])
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(-0.5, abs=1e-9)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_coefficients_are_rejected(value):
    # HiGHS refuses infinite entries; they must fail here, not at a solve
    with pytest.raises(ValueError, match="non-finite coefficient"):
        LinearProgram([[value, 1.0]], [0.0], [0.0, 0.0], [1.0, 1.0])
    prog = LinearProgram([[1.0, 1.0]], [1.0], [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="non-finite coefficient"):
        prog.extend([0.0], [1.0], [[1.0, 0.0, value]], [0.5], [0.5])
    with pytest.raises(ValueError, match="non-finite coefficient"):
        prog.replace([0.0, 0.0], [1.0, 1.0], [[1.0, value]], [1.0], [1.0])
    res = prog.solve([1.0, 0.0])
    assert (prog.m, prog.n) == (1, 2)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize(
    "query",
    [
        lambda p: p.solve([np.nan, 1.0, 0.0]),
        lambda p: p.solve([np.inf, 0.0, 0.0]),
        lambda p: p.solve([0.0, 0.0, -np.inf], sense="max"),
        lambda p: p.bounds([[np.nan, 1.0, 0.0]]),
        lambda p: p.bounds([[1.0, 0.0, 0.0], [0.0, 0.0, np.inf]]),
        lambda p: p.feasible_at([2], [np.inf]),
        lambda p: p.feasible_at([0, 2], [0.5, -np.inf]),
    ],
    ids=["solve-nan", "solve-inf", "solve-minus-inf", "bounds-nan", "bounds-inf", "pinned-inf", "pinned-minus-inf"],
)
def test_non_finite_query_fails_before_highs(query):
    # HiGHS takes NaN and infinite costs without complaint (a nan or -inf
    # "optimum"), and an infinite pinned value is refused at the model
    # change: each is a ValueError before any call, which leaves the
    # model as it was
    prog = LinearProgram([[1.0, 1.0, 0.0]], [1.0], [0.0, 0.0, -np.inf], [1.0, 1.0, np.inf])  # column 2 free
    c = [1.0, -1.0, 0.0]
    before = prog.solve(c)
    model = prog._highs.getLp()
    cost, cols = list(model.col_cost_), model_cols(prog)
    calls = _count(prog, "run", "changeColsCost", "changeColsBounds")
    with pytest.raises(ValueError, match="non-finite|finite numbers"):
        query(prog)
    assert calls == {"run": 0, "changeColsCost": 0, "changeColsBounds": 0}
    assert list(prog._highs.getLp().col_cost_) == cost
    for got, want in zip(model_cols(prog), cols):
        assert np.array_equal(got, want)
    assert prog.lo.tolist() == [0.0, 0.0, -np.inf] and prog.hi.tolist() == [1.0, 1.0, np.inf]
    after = prog.solve(c)
    assert before.status == after.status == OPTIMAL and after.value == pytest.approx(before.value, abs=1e-12)


def test_rows_read_back_from_the_model():
    prog = LinearProgram(np.zeros((0, 2)), [], [-1, -1], [1, 1])
    A, b_lo, b_hi = model_rows(prog)
    assert A.shape == (0, 2) and b_lo.size == b_hi.size == 0
    prog.extend([0.0], [1.0], [[1.0, 0.0, 2.0]], [0.5], [0.5])
    prog.extend([], [], [[0.0, 1.0, 1.0]], [-np.inf], [2.0])
    prog.replace(prog.lo, prog.hi, [[1.0, -3.0, 2.0], [0.0, 1.0, 1.0]], [0.25, -np.inf], [0.75, 2.0])
    A, b_lo, b_hi = model_rows(prog)
    assert A.toarray().tolist() == [[1.0, -3.0, 2.0], [0.0, 1.0, 1.0]]
    assert b_lo.tolist() == [0.25, -np.inf] and b_hi.tolist() == [0.75, 2.0]
    assert prog.reloads == 1


def test_last_x_is_the_last_optimizer():
    prog = LinearProgram([[1.0, 1.0]], [1.0], [0, 0], [1, 1])
    assert prog.last_x is None
    res = prog.solve([1.0, 0.0])
    assert res.x is prog.last_x and prog.last_x.tolist() == pytest.approx([0.0, 1.0], abs=1e-9)
    prog.replace([0, 0], [1, 1], [[1.0, 1.0]], [3.0], [3.0])
    assert prog.solve([1.0, 0.0]).status == INFEASIBLE
    assert prog.last_x is None


def _two_rows():
    # x1 + x2 = 1 and x2 - x3 = 0 over [-3, 3] x [-1, 1]^2
    return LinearProgram([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]], [1.0, 0.0], [-3, -1, -1], [3, 1, 1])


@pytest.mark.parametrize("side", [1.0, -1.0], ids=["above", "below"])
def test_satisfied_by_rows_within_eps(side):
    prog = _two_rows()
    assert prog.satisfied_by([0.5, 0.5, 0.5])
    # row 1 off by half the tolerance, then by twice it
    assert prog.satisfied_by([0.5, 0.5, 0.5 - side * 0.5 * EPS_LP])
    assert not prog.satisfied_by([0.5, 0.5, 0.5 - side * 2 * EPS_LP])
    # row 0 off by twice the tolerance
    assert not prog.satisfied_by([0.5 + side * 2 * EPS_LP, 0.5, 0.5])


@pytest.mark.parametrize("side", [1.0, -1.0], ids=["upper", "lower"])
def test_satisfied_by_bounds_within_eps(side):
    prog = _two_rows()
    # x2 = x3 at a bound, x1 = 1 - x2 keeps row 0 exact
    for off, ok in ((0.5 * EPS_LP, True), (2 * EPS_LP, False)):
        t = side * (1.0 + off)
        assert prog.satisfied_by([1.0 - t, t, t]) is ok


def test_satisfied_by_first_row_and_length():
    prog = _two_rows()
    x = [0.5 + 1e-6, 0.5, 0.5]  # only row 0 fails
    assert not prog.satisfied_by(x)
    assert prog.satisfied_by(x, first_row=1)
    assert prog.satisfied_by(x, first_row=2)  # no row left, bounds hold
    assert not prog.satisfied_by([0.5, 1.5, 1.5], first_row=2)  # bounds always checked
    assert not prog.satisfied_by([0.5, 0.5])
    assert not prog.satisfied_by([0.5, 0.5, 0.5, 0.0])
    assert not prog.satisfied_by([0.5, 0.5, np.nan])


def test_satisfied_by_reads_the_model():
    # reloaded rows are checked as the model now holds them, and the check
    # leaves the region and its solves as they were
    prog = _two_rows()
    x = [0.5, 0.5, 0.5]
    box = prog.lo, prog.hi
    prog.replace(*box, [[1.0, 1.0, 0.0], [0.0, 1.0, -2.0]], [1.0, 0.0], [1.0, 0.0])
    assert not prog.satisfied_by(x)
    assert prog.satisfied_by([0.75, 0.25, 0.125])
    prog.replace(*box, [[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]], [1.5, 0.0], [1.5, 0.0])
    assert not prog.satisfied_by(x)
    assert prog.satisfied_by([0.75, 0.75, 0.75])
    assert prog.solve([1.0, 0.0, 0.0]).value == pytest.approx(0.5, abs=1e-9)
    assert (prog.m, prog.n) == (2, 3)
    # rows without columns read 0 = b
    empty = LinearProgram(np.zeros((1, 0)), [0.5 * EPS_LP], [], [])
    assert empty.satisfied_by([])
    empty.replace([], [], np.zeros((1, 0)), [1.0], [1.0])
    assert not empty.satisfied_by([])


@pytest.mark.parametrize("side", [1.0, -1.0], ids=["upper", "lower"])
def test_satisfied_by_ranged_rows(side):
    # 0.5 <= x1 + x2 <= 1.5 and x2 - x3 <= 0 (no lower bound) over
    # [-3, 3] x [-1, 1]^2: inside the range, within EPS_LP past its ends,
    # and beyond
    prog = LinearProgram(np.zeros((0, 3)), [], [-3, -1, -1], [3, 1, 1])
    prog.extend([], [], [[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]], [0.5, -np.inf], [1.5, 0.0])
    end = 1.5 if side > 0 else 0.5
    assert prog.satisfied_by([1.0, 0.0, 0.0])
    assert prog.satisfied_by([end, 0.0, 0.0])
    assert prog.satisfied_by([end + side * 0.5 * EPS_LP, 0.0, 0.0])
    assert not prog.satisfied_by([end + side * 2 * EPS_LP, 0.0, 0.0])
    # the one-sided row: any x2 - x3 below 0, none above EPS_LP
    assert prog.satisfied_by([2.0, -1.0, 1.0])
    assert not prog.satisfied_by([1.0, 0.0, -2 * EPS_LP])
    # a reloaded row is checked with its new range
    prog.replace(prog.lo, prog.hi, [[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]], [0.5, -np.inf], [1.5, -1.0])
    assert not prog.satisfied_by([1.0, 0.0, 0.0])
    assert prog.satisfied_by([1.0, -0.5, 0.5])


@pytest.mark.parametrize(
    "lo, hi, feasible",
    [
        (-1.0, 1.0, True),
        (0.5 * EPS_LP, 1.0, True),
        (2 * EPS_LP, 1.0, False),
        (-1.0, -0.5 * EPS_LP, True),
        (-1.0, -2 * EPS_LP, False),
        (-np.inf, np.inf, True),
        (1.0, np.inf, False),
    ],
    ids=["around-0", "lo-within-eps", "lo-beyond-eps", "hi-within-eps", "hi-beyond-eps", "free", "one-sided"],
)
def test_rows_without_columns_admit_zero(lo, hi, feasible):
    # HiGHS reports a region without columns as "Empty"; its ranged rows
    # read lo <= 0 <= hi, to within EPS_LP
    region = LinearProgram(np.zeros((0, 0)), [], [], [])
    region.extend([], [], np.zeros((2, 0)), [-1.0, lo], [1.0, hi])
    assert region.solve([]).status == (OPTIMAL if feasible else INFEASIBLE)


class _Spy:
    """A HiGHS model that records its simplex_strategy settings and can be
    told to report a fixed model status after every run."""

    def __init__(self, model):
        self._model = model
        self.strategies = []
        self.status = None

    def __getattr__(self, name):
        return getattr(self._model, name)

    def setOptionValue(self, key, value):
        if key == "simplex_strategy":
            self.strategies.append(value)
        return self._model.setOptionValue(key, value)

    def getModelStatus(self):
        return self.status if self.status is not None else self._model.getModelStatus()


def _strategy(prog):
    return prog._highs.getOptionValue("simplex_strategy")[1]


DUAL, PRIMAL = 1, 4


def test_simplex_follows_the_change():
    rng = np.random.default_rng(61)
    A = rng.standard_normal((2, 5))
    prog = LinearProgram(A, A @ rng.uniform(-0.5, 0.5, 5), -np.ones(5), np.ones(5))
    [spy] = wrap_models(prog, _Spy)
    prog.solve(rng.standard_normal(5))
    assert _strategy(prog) == DUAL  # a new model
    prog.solve(rng.standard_normal(5))
    assert _strategy(prog) == PRIMAL  # the objective alone changed
    prog.solve(rng.standard_normal(5))
    assert _strategy(prog) == PRIMAL
    changes = [
        lambda: prog.extend([-1.0], [1.0], np.append(rng.standard_normal(prog.n), 1.0)[None], [0.0], [0.0]),
        lambda: prog.feasible_at([0], [0.5]),  # pins a column's bounds and restores them
        lambda: prog.replace(prog.lo, prog.hi, model_rows(prog)[0].toarray(), *model_rows(prog)[1:]),
    ]
    for change in changes:
        change()
        prog.solve(rng.standard_normal(prog.n))
        assert _strategy(prog) == DUAL
        prog.solve(rng.standard_normal(prog.n))
        assert _strategy(prog) == PRIMAL
    # the option is set only when the choice differs from the last one
    assert spy.strategies == [PRIMAL] + [DUAL, PRIMAL] * len(changes)


# A hull LP captured from the geometry suite (rng_seed=2026,
# cases_per_op=200): the interval hull of a dense 3-d constrained
# zonotope.  With HiGHS 1.12, primal simplex for the second maximum
# after three minima and one maximum stops at model status "Unknown".
_STALL_A = [
    [-1.2742790217020765, -2.091134123672434, -1.5450271914902303, 0.6534190758669239,
     0.49410978438157355, -0.1898858038057915] + [0.0] * 7,
    [0.0] * 6 + [1.140707099660775, -0.060668712753084914, 1.5251412389762562,
                 -0.9096266056743865, 1.3586522139888326, -0.17802325445229134,
                 -0.06832102861079557],
]
_STALL_B = [-0.49853180832266764, -0.39164114755546126]
_STALL_H = np.array([1.0] * 6 + [1.0781438751961845] + [1.0] * 6)
_STALL_G = [
    [-1.7732344784551954, -1.0392667640976667, 0.3168404545421191, -0.7789471423431452,
     -2.858734691757421, -0.08944639094238692, -1.1010430450492317, 0.3298190571873815,
     -0.15774768634550063, -0.9303117864159599, -1.5930054157953284, 0.3197907166549479,
     1.2094186701668068],
    [0.9283211328565054, 0.21116768557466634, -0.5923448819280664, 1.4981442824906188,
     0.5412029601529561, 0.733551814101979, 1.0356890522066515, 0.2607179326874473,
     -1.319165214330373, -0.8892421443178232, 1.437815183602267, -0.23222864701922546,
     0.10045061430102308],
    [-0.019616036761354528, 0.18278233824657047, 0.16776156038080745, 0.33202063596244774,
     -0.04070830342563273, -0.6156100969768019, -1.119651999676198, 0.8808738958922694,
     0.21676588882061604, 0.0455772220428962, 1.3271294100936986, 0.09820423195300042,
     -0.6720333314100959],
]


def test_primal_stall_falls_back_to_dual():
    prog = LinearProgram(_STALL_A, _STALL_B, -_STALL_H, _STALL_H)
    for g in _STALL_G:
        assert prog.solve(g).status == OPTIMAL
    assert prog.solve(_STALL_G[0], sense="max").status == OPTIMAL
    assert _strategy(prog) == PRIMAL
    res = prog.solve(_STALL_G[1], sense="max")
    # the primal run stopped early and the dual re-run finished the solve
    assert _strategy(prog) == DUAL
    want = LinearProgram(_STALL_A, _STALL_B, -_STALL_H, _STALL_H).solve(_STALL_G[1], sense="max")
    assert res.status == want.status == OPTIMAL
    assert res.value == pytest.approx(want.value, abs=1e-9, rel=1e-9)


def test_dual_unknown_after_a_reload_runs_again():
    # a replayed random operation sequence: 8 columns without rows, two
    # more columns and one row, the bounds of 3 rows, then a reload whose
    # row reads columns 0 and 6 alone while column 8 is unbounded above
    # with a negative cost.  Dual simplex from the kept basis stops at
    # model status "Unknown"; the cleared dual re-run reads "Unbounded".
    inf = np.inf
    prog = LinearProgram(np.zeros((0, 8)), [], [-1.0, -1.6, -0.5, -inf, -0.9, -0.4, -0.8, -1.1],
                         [1.5, 1.9, 1.9, inf, 1.5, inf, 1.1, inf])
    prog.extend([0.0, -0.3], [1.3, 1.7], [[0, 0.8, 0, 0, 0.5, 0.1, -0.8, 1.8, 0.9, 0]], [-1.0], [1.0])
    prog.bounds([
        [1.4, -0.7, -1.1, 0.6, 0, -1.5, 0, 0, -0.3, 0.2],
        [0.8, 0, -0.1, 0, 0, 0, 0, -0.8, 0.6, 0.8],
        [0, 0, 1.5, 0, 0, 0.3, 0.6, -2.0, 0, 0],
    ])
    lo = [-1.7, -1.7, -0.1, -0.5, -0.6, -0.8, -0.8, -0.8, -1.6, -0.9]
    hi = [1.7, 0.5, 1.9, inf, 1.0, 1.3, inf, 1.6, inf, 1.3]
    A = [[0.3, 0, 0, 0, 0, 0, -0.1, 0, 0, 0]]
    prog.replace(lo, hi, A, [-1.0], [1.0])
    calls = _count(prog, "run", "clearSolver")
    c = [-0.1, 1.6, 0.4, 0, -2.4, 0.5, -1.2, 0.5, -0.8, -2.7]  # column 8 is in no row
    assert prog.solve(c).status == UNBOUNDED
    assert calls == {"run": 2, "clearSolver": 1}


def test_status_left_unknown_after_fallback_raises():
    prog = LinearProgram(_STALL_A, _STALL_B, -_STALL_H, _STALL_H)
    assert prog.solve(_STALL_G[0]).status == OPTIMAL
    [spy] = wrap_models(prog, _Spy)
    spy.status = HighsModelStatus.kUnknown
    with pytest.raises(NumericalError, match="Unknown"):
        prog.solve(_STALL_G[1])
    # the primal run and the one dual re-run
    assert spy.strategies == [PRIMAL, DUAL]


def _options_held(prog):
    """Assert that ``prog``'s HiGHS model holds every kernel option."""
    for key, want in lp._HIGHS_OPTIONS.items():
        status, got = prog._highs.getOptionValue(key)
        assert status == HighsStatus.kOk and got == want and type(got) is type(want), key


@pytest.mark.parametrize("status", [HighsModelStatus.kUnknown, HighsModelStatus.kUnboundedOrInfeasible])
def test_no_model_change_drops_the_options(status):
    # the kernel's options (among them the basis refactored at every
    # rebuild) hold on a new model, after ``extend``, after ``replace``'s
    # ``passModel`` and after ``_run``'s cleared re-run
    prog = LinearProgram(_STALL_A, _STALL_B, -_STALL_H, _STALL_H)
    _options_held(prog)
    assert prog.solve(_STALL_G[0]).status == OPTIMAL
    prog.extend([-1.0], [1.0], [[0.5] * 13 + [1.0]], [0.0], [0.0])
    assert prog.solve(np.append(_STALL_G[1], 1.0)).status == OPTIMAL
    _options_held(prog)
    prog.replace(prog.lo, prog.hi, model_rows(prog)[0].toarray(), *model_rows(prog)[1:])
    assert prog.solve(np.append(_STALL_G[2], 1.0)).status == OPTIMAL
    _options_held(prog)
    [spy] = wrap_models(prog, _Spy)
    spy.status = status
    calls = _count(prog, "run", "clearSolver")
    with pytest.raises(NumericalError):
        prog.solve(np.append(_STALL_G[0], -1.0))
    assert calls == {"run": 2, "clearSolver": 1}  # the run and its cleared re-run
    _options_held(prog)


class _Refusing:
    """A HiGHS model whose method ``name`` reports kError and changes nothing."""

    def __init__(self, model, name):
        self._model = model
        self._name = name

    def __getattr__(self, name):
        if name == self._name:
            return lambda *args: HighsStatus.kError
        return getattr(self._model, name)


@pytest.mark.parametrize(
    "call, change",
    [
        # rows appended to a region with models enter them at its next solve
        ("addCols", lambda p: (p.extend([0.0], [1.0], [[0.0, 1.0, 1.0]], [0.5], [0.5]), p.solve(np.zeros(3)))),
        ("addRows", lambda p: (p.extend([], [], [[1.0, -1.0]], [0.0], [0.0]), p.solve(np.zeros(2)))),
        ("changeColsBounds", lambda p: p.feasible_at([0], [0.5])),
        ("passModel", lambda p: p.replace([0, 0], [1, 1], [[1.0, 2.0]], [0.5], [0.5])),
        ("setBasis", lambda p: p.replace([0, 0], [1, 1], [[1.0, 2.0]], [0.5], [0.5])),
        ("changeColsCost", lambda p: p.solve([0.0, 1.0])),
    ],
    ids=["addCols", "addRows", "changeColsBounds", "passModel", "setBasis", "changeColsCost"],
)
def test_refused_model_change_raises(monkeypatch, call, change):
    resets = []
    monkeypatch.setattr(_Highs, "resetGlobalScheduler", lambda *args: resets.append(args))
    prog = LinearProgram([[1.0, 1.0]], [1.0], [0, 0], [1, 1])
    assert prog.solve([1.0, 0.0]).status == OPTIMAL
    wrap_models(prog, lambda model: _Refusing(model, call))
    with pytest.raises(NumericalError, match=call):
        change(prog)
    assert resets == []


def test_refused_model_raises(monkeypatch):
    # a region is loaded through extend, so a refused row load fails its
    # construction
    monkeypatch.setattr(_Highs, "addRows", lambda *args: HighsStatus.kError)
    with pytest.raises(NumericalError, match="addRows"):
        LinearProgram([[1.0, 1.0]], [1.0], [0, 0], [1, 1])


def test_rows_reach_highs_in_one_entry_order(monkeypatch):
    # a dense block reaches HiGHS in scipy's CSR order: row by row, columns
    # ascending
    rng = np.random.default_rng(71)
    A = rng.standard_normal((6, 9)) * (rng.random((6, 9)) < 0.4)
    calls = []
    add_rows = _Highs.addRows

    def spy(self, *args):
        calls.append([np.array(a) for a in args[3:]])
        return add_rows(self, *args)

    monkeypatch.setattr(_Highs, "addRows", spy)
    LinearProgram(A, np.zeros(6), -np.ones(9), np.ones(9))
    want = sparse.csr_matrix(A)
    [(nnz, start, index, value)] = calls
    assert nnz == want.nnz
    assert start.tolist() == want.indptr[:-1].tolist()
    assert index.tolist() == want.indices.tolist()
    assert value.tolist() == want.data.tolist()


def test_csr_rows_from_dense_maps_columns(monkeypatch):
    # column j of the block is column cols[j] of the grown region; entries
    # reach HiGHS row by row in the block's column order
    calls = []
    add_rows = _Highs.addRows

    def spy(self, *args):
        calls.append([np.array(a).tolist() for a in args[3:]])
        return add_rows(self, *args)

    prog = LinearProgram(np.zeros((0, 6)), [], np.zeros(6), np.ones(6))
    D = np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 3.0]])
    monkeypatch.setattr(_Highs, "addRows", spy)
    prog.extend([0.0, 0.0], [1.0, 1.0], D, [1.0, 2.0], [1.0, 2.0], cols=[5, 1, 7])
    assert calls == [[3, [0, 1], [1, 5, 7], [2.0, 1.0, 3.0]]]
    want = np.zeros((2, 8))
    want[0, 1], want[1, 5], want[1, 7] = 2.0, 1.0, 3.0
    assert (prog.m, prog.n) == (2, 8)
    assert np.array_equal(model_rows(prog)[0].toarray(), want)
    # a block whose width is not that of cols or, without cols, of the
    # grown region, and a column past the grown region, change nothing
    for cols, width, match in (
        ([5, 1], 3, "columns"),
        (None, 8, "columns"),
        ([5, 1, 9], 3, "column index"),
    ):
        with pytest.raises(ValueError, match=match):
            prog.extend([0.0], [1.0], np.ones((1, width)), [0.0], [9.0], cols=cols)
    with pytest.raises(ValueError, match="column index"):
        prog.extend([], [], [[1.0]], [0.0], [1.0], cols=[-1])
    assert (prog.m, prog.n, len(calls)) == (2, 8, 1)


def test_sparse_input_is_rejected():
    # a scipy.sparse matrix is not a dense block: it fails, it is not read
    A = sparse.csr_matrix(np.eye(2))
    with pytest.raises(ValueError, match="2-d array"):
        LinearProgram(A, [1.0, 1.0], [0, 0], [5, 5])
    prog = LinearProgram(np.eye(2), [1.0, 1.0], [0, 0], [5, 5])
    with pytest.raises(ValueError, match="2-d array"):
        prog.extend([], [], A, [1.0, 1.0], [1.0, 1.0])
    assert (prog.m, prog.n) == (2, 2)


def test_only_lp_reaches_highs():
    # the HiGHS binding is an implementation detail of lp.LinearProgram
    for path in sorted(pathlib.Path(czest.__file__).parent.glob("*.py")):
        if path.name != "lp.py":
            assert "_highs" not in path.read_text(), path.name


class TestBounds:
    """``bounds`` solves all minima, then all maxima, on one model; each
    bound must equal the one a fresh model finds."""

    @staticmethod
    def _region(rng):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, min(n, 4) + 1))
        A = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.6)
        lo = np.where(rng.random(n) < 0.2, -np.inf, rng.uniform(-2, 0, n))
        hi = np.where(rng.random(n) < 0.2, np.inf, rng.uniform(0, 2, n))
        with np.errstate(invalid="ignore"):
            mid = np.where(np.isfinite(lo) & np.isfinite(hi), (lo + hi) / 2, 0.0)
        b = A @ (mid + rng.uniform(-0.3, 0.3, n))
        if rng.random() < 0.15:
            b += rng.standard_normal(m) * 5  # mostly infeasible
        return A, b, lo, hi

    def test_matches_fresh_bounds(self):
        rng = np.random.default_rng(67)
        seen = {"finite": 0, "inf": 0, "empty": 0}
        for _ in range(60):
            A, b, lo, hi = self._region(rng)
            n = A.shape[1]
            cols = rng.permutation(n)[: int(rng.integers(1, n + 1))]
            want = []
            for sense in ("min", "max"):
                for j in cols:
                    want.append(LinearProgram(A, b, lo, hi).solve(np.eye(n)[j], sense=sense))
            region = LinearProgram(A, b, lo, hi)
            C = np.eye(n)[cols]
            if want[0].status == INFEASIBLE:
                with pytest.raises(EmptySetError):
                    region.bounds(C)
                seen["empty"] += 1
                continue
            got = np.concatenate(region.bounds(C))
            for g, w in zip(got, want):
                if w.status == UNBOUNDED:
                    assert np.isinf(g)
                    seen["inf"] += 1
                else:
                    assert w.status == OPTIMAL
                    assert abs(g - w.value) <= 1e-9 * max(1.0, abs(w.value))
                    seen["finite"] += 1
        assert all(v > 0 for v in seen.values()), seen

    def test_minima_before_maxima_each_through_solve(self, monkeypatch):
        calls = []
        solve = LinearProgram._solve

        def recording(self, c, sense="min"):
            calls.append((np.flatnonzero(c).tolist(), sense))
            return solve(self, c, sense)

        monkeypatch.setattr(LinearProgram, "_solve", recording)
        region = LinearProgram([[1.0, 1.0, 1.0]], [1.0], [0, 0, 0], [1, 1, 1])
        lo, hi = region.bounds(np.eye(3)[[2, 0]])
        assert calls == [([2], "min"), ([0], "min"), ([2], "max"), ([0], "max")]
        assert lo == pytest.approx([0.0, 0.0], abs=1e-9) and hi == pytest.approx([1.0, 1.0], abs=1e-9)
        assert region.bounds(np.zeros((0, 3)))[0].shape == (0,)

    @staticmethod
    def _answering(n, minima, maxima):
        """A region of one block over n columns in [-5, 5], so that
        ``bounds`` solves one unit row at a time, whose solves return the
        given optimal values (None: infeasible), minima for sense "min" and
        maxima for "max", in order: an optimizer that is the value on the
        row's column and 0 elsewhere."""
        region = LinearProgram(np.ones((1, n)), [0.0], np.full(n, -5.0), np.full(n, 5.0))
        queue = {"min": list(minima), "max": list(maxima)}

        def solve(c, sense="min"):
            value = queue[sense].pop(0)
            if value is None:
                return INFEASIBLE
            region.last_x = np.where(c != 0, value, 0.0)
            return OPTIMAL

        region._solve = solve
        return region

    @pytest.mark.parametrize(
        "lo, hi",
        [(1.0 + 5e-8, 1.0), (-1.0, -1.0 - 9.9e-8), (2e3 + 1.5e-4, 2e3), (-1e-3, -1e-3 - 9e-8)],
        ids=["unit", "near-the-bound", "relative", "below-unit"],
    )
    def test_crossed_within_tolerance_meet_at_their_midpoint(self, lo, hi):
        region = self._answering(2, [lo, -np.inf, 0.0], [hi, 3.0, 0.0])
        got_lo, got_hi = region.bounds(np.eye(2)[[0, 1, 0]])
        mid = 0.5 * (lo + hi)
        assert got_lo.tolist() == [mid, -np.inf, 0.0]
        assert got_hi.tolist() == [mid, 3.0, 0.0]

    @pytest.mark.parametrize(
        "lo, hi",
        [(1.0 + 2e-7, 1.0), (-1e-3, -1e-3 - 1.1e-7), (2e3 + 2.1e-4, 2e3)],
        ids=["unit", "below-unit", "relative"],
    )
    def test_crossed_beyond_tolerance_raise(self, lo, hi):
        region = self._answering(1, [lo], [hi])
        with pytest.raises(NumericalError, match="crossed"):
            region.bounds(np.eye(1))

    def test_infeasible_maximum_after_feasible_minima_raises(self):
        region = self._answering(1, [0.0, 0.0], [1.0, None])
        with pytest.raises(NumericalError, match="minima only"):
            region.bounds(np.eye(1)[[0, 0]])

    def test_one_empty_set_error_class(self):
        assert czono.EmptySetError is EmptySetError is czest.EmptySetError
        assert issubclass(EmptySetError, ValueError)


class TestFeasibleAt:
    def test_answers_and_leaves_a_point(self):
        region = LinearProgram([[1.0, 1.0, 1.0]], [1.0], np.zeros(3), np.ones(3))
        assert region.feasible_at([0, 1], [0.2, 0.3])
        assert region.last_x[:2].tolist() == [0.2, 0.3]
        assert region.last_x[2] == pytest.approx(0.5, abs=1e-9)
        assert not region.feasible_at([0, 1], [0.8, 0.9])
        assert region.last_x is None
        assert region.feasible_at(range(2, 3), [1.0])
        assert region.lo.tolist() == [0.0, 0.0, 0.0] and region.hi.tolist() == [1.0, 1.0, 1.0]

    def test_bounds_restored_after_solver_error(self, monkeypatch):
        region = LinearProgram([[1.0, 1.0, 1.0]], [1.0], np.zeros(3), np.ones(3))

        def failing(self):
            raise NumericalError("HiGHS model status: Solve error")

        monkeypatch.setattr(LinearProgram, "_run", failing)
        with pytest.raises(NumericalError):
            region.feasible_at([0, 1], [0.2, 0.3])
        for lo, hi in ((region.lo, region.hi), model_cols(region)):
            assert list(lo) == [0.0, 0.0, 0.0] and list(hi) == [1.0, 1.0, 1.0]
        monkeypatch.undo()
        assert region.feasible_at([0, 1], [0.2, 0.3])
        assert not region.feasible_at([0, 1], [0.8, 0.9])

    @pytest.mark.parametrize("rows", [1, 0], ids=["model", "closed-form"])
    def test_optimum_returns_after_a_probe(self, rows):
        rng = np.random.default_rng(41)
        A = rng.standard_normal((rows, 5))
        lo, hi = -np.ones(5), np.ones(5)
        prog = LinearProgram(A, A @ rng.uniform(-0.5, 0.5, 5), lo, hi)
        c = rng.standard_normal(5)
        before = prog.solve(c)
        assert prog.feasible_at([1, 3], [0.25, -0.5])
        assert prog.last_x[[1, 3]].tolist() == [0.25, -0.5]
        after = prog.solve(c)
        assert after.status == before.status == OPTIMAL
        assert after.value == pytest.approx(before.value, abs=1e-9)
        for got_lo, got_hi in ((prog.lo, prog.hi), model_cols(prog)):
            assert np.array_equal(got_lo, lo) and np.array_equal(got_hi, hi)

    @pytest.mark.parametrize(
        "x, feasible",
        [([5.0], False), ([-1.0 - 2 * EPS_LP], False), ([1.0 + 0.5 * EPS_LP], True), ([-1.0], True)],
        ids=["far-above", "below-beyond-eps", "above-within-eps", "at-bound"],
    )
    @pytest.mark.parametrize("rows", [0, 1], ids=["no-rows", "model"])
    def test_point_outside_the_column_box(self, x, feasible, rows):
        # a pinned value is checked against the column's own bounds, which
        # the pin overwrites in the model; beyond EPS_LP it is False
        # without a solve
        region = LinearProgram(np.ones((rows, 2)), np.zeros(rows), [-1, -2], [1, 2])
        calls = _count(region, "run", "changeColsBounds")
        assert region.feasible_at([0], x) == feasible
        assert calls == ({"run": 1, "changeColsBounds": 2} if feasible else {"run": 0, "changeColsBounds": 0})

    def test_repeated_column_rejected_before_highs(self):
        region = LinearProgram([[1.0, 1.0, 1.0]], [1.0], np.zeros(3), np.ones(3))
        wrap_models(region, lambda model: _Refusing(model, "changeColsBounds"))
        with pytest.raises(ValueError, match="listed twice"):
            region.feasible_at([1, 1], [0.5, 0.5])

    @pytest.mark.parametrize("col", [-1, 3], ids=["negative", "past-end"])
    def test_columns_are_validated(self, col):
        region = LinearProgram([[1.0, 1.0, 1.0]], [1.0], np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match="column index"):
            region.feasible_at([col], [0.5])
        assert region.lo.tolist() == [0.0, 0.0, 0.0] and region.hi.tolist() == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("x", [[np.nan], [0.5, 0.5]], ids=["nan", "too-long"])
    def test_point_is_validated(self, x):
        region = LinearProgram([[1.0, 1.0, 1.0]], [1.0], np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match="pinned point"):
            region.feasible_at([1], x)
        for lo, hi in ((region.lo, region.hi), model_cols(region)):
            assert list(lo) == [0.0, 0.0, 0.0] and list(hi) == [1.0, 1.0, 1.0]


def _linprog_bound(c, A, b_lo, b_hi, lo, hi, sense):
    """The oracle: min (or max) c^T x over b_lo <= A x <= b_hi, lo <= x <=
    hi by scipy's linprog; None if infeasible, ±inf if unbounded."""
    sign = 1.0 if sense == "min" else -1.0
    eq = b_lo == b_hi
    ub = ~eq
    A_ub = np.vstack([A[ub & np.isfinite(b_hi)], -A[ub & np.isfinite(b_lo)]])
    b_ub = np.concatenate([b_hi[ub & np.isfinite(b_hi)], -b_lo[ub & np.isfinite(b_lo)]])
    rows = dict(A_ub=A_ub if len(b_ub) else None, b_ub=b_ub if len(b_ub) else None,
                A_eq=A[eq] if eq.any() else None, b_eq=b_lo[eq] if eq.any() else None)
    ref = linprog(sign * c, **rows, bounds=list(zip(lo, hi)), method="highs")
    if ref.status == 2:
        # presolve may not tell infeasible from unbounded: ask without objective
        if linprog(np.zeros_like(c), **rows, bounds=list(zip(lo, hi)), method="highs").status == 0:
            return -sign * np.inf
        return None
    if ref.status == 3:
        return -sign * np.inf
    assert ref.status == 0
    return sign * ref.fun


def _solves(region):
    """Record every solve of ``region`` (``_solve``, which ``bounds``
    runs) as (its objective's nonzero columns, sense); returns the list."""
    calls = []
    solve = region._solve

    def recording(c, sense="min"):
        calls.append((np.flatnonzero(c).tolist(), sense))
        return solve(c, sense)

    region._solve = recording
    return calls


def _batch_lists(region, C):
    """``region._batches(C)``, each batch's index array as a list."""
    return [batch.tolist() for batch in region._batches(C)]


class TestBlocks:
    """``bounds`` bounds the rows of C that read different blocks of the
    region's nonzero pattern in one solve, and answers as scipy's linprog
    does row by row on the whole region."""

    @staticmethod
    def _blocks(rng, sizes):
        """A region of independent blocks of (rows, columns) ``sizes``,
        columns shuffled and rows interleaved: (A, b_lo, b_hi, lo, hi)."""
        m, n = (sum(s) for s in zip(*sizes))
        A = np.zeros((m, n))
        r = c = 0
        for mi, ni in sizes:
            A[r : r + mi, c : c + ni] = rng.standard_normal((mi, ni)) * (rng.random((mi, ni)) < 0.7)
            A[r : r + mi, c] = rng.uniform(0.5, 1.5, mi)  # every row of a block reads its first column
            A[r, c : c + ni] += rng.uniform(0.5, 1.5, ni)  # and its first row every column
            r, c = r + mi, c + ni
        A = A[rng.permutation(m)][:, rng.permutation(n)]
        lo = np.where(rng.random(n) < 0.15, -np.inf, rng.uniform(-2, 0, n))
        hi = np.where(rng.random(n) < 0.15, np.inf, rng.uniform(0, 2, n))
        with np.errstate(invalid="ignore"):
            mid = np.where(np.isfinite(lo) & np.isfinite(hi), (lo + hi) / 2, 0.0)
        y = A @ (mid + rng.uniform(-0.2, 0.2, n))
        width = np.where(rng.random(m) < 0.5, 0.0, rng.uniform(0, 0.5, m))
        return A, y - width, y + width, lo, hi

    def test_block_diagonal_bounds_match_linprog(self):
        rng = np.random.default_rng(83)
        seen = {"finite": 0, "inf": 0, "empty": 0, "batched": 0}
        for _ in range(30):
            sizes = [(int(rng.integers(1, 4)), int(rng.integers(2, 5))) for _ in range(int(rng.integers(2, 4)))]
            A, b_lo, b_hi, lo, hi = self._blocks(rng, sizes)
            region = LinearProgram(np.zeros((0, A.shape[1])), [], lo, hi)
            region.extend([], [], A, b_lo, b_hi)
            n = A.shape[1]
            # unit rows, two rows that span every block, and a zero row
            C = np.vstack([np.eye(n), rng.standard_normal((2, n)), np.zeros((1, n))])
            if _linprog_bound(np.zeros(n), A, b_lo, b_hi, lo, hi, "min") is None:
                with pytest.raises(EmptySetError):
                    region.bounds(C)
                assert region.solve(C[-2]).status == INFEASIBLE
                seen["empty"] += 1
                continue
            calls = _solves(region)
            got = region.bounds(C)
            assert len(np.unique(region._blocks())) == len(sizes)
            batched = len(calls) < 2 * len(C)
            seen["batched"] += batched
            for t, c in enumerate(C):
                for sense, g in (("min", got[0][t]), ("max", got[1][t])):
                    want = _linprog_bound(c, A, b_lo, b_hi, lo, hi, sense)
                    if np.isinf(want):
                        assert g == want
                        seen["inf"] += 1
                    else:
                        assert abs(g - want) <= 1e-7 * max(1.0, abs(want)), (t, sense, g, want)
                        seen["finite"] += 1
            res = region.solve(C[-2])
            if res.status == OPTIMAL:
                assert res.x.size == n and region.satisfied_by(res.x)
        assert all(v > 0 for v in seen.values()), seen

    def test_batches_are_first_fit_in_row_order(self):
        # columns 0-1, 2-3 and 4 are three blocks; each row joins the first
        # batch that reads none of its blocks
        A = np.array([[1.0, 1.0, 0, 0, 0], [0, 0, 1.0, 1.0, 0], [0, 0, 0, 0, 1.0]])
        region = LinearProgram(A, [1.0, 1.0, 0.5], np.zeros(5), np.ones(5))
        C = np.array([
            [1.0, 0, 0, 0, 0],  # block 0
            [0, 1.0, 1.0, 0, 0],  # blocks 0 and 1
            [0, 0, 1.0, 0, 0],  # block 1
            [0, 0, 0, 0, 1.0],  # block 2
            [0, 1.0, 0, 0, 0],  # block 0
            [0, 0, 0, 0, 0],  # none
        ])
        assert _batch_lists(region, C) == [[0, 2, 3, 5], [1], [4]]
        calls = _solves(region)
        lo, hi = region.bounds(C)
        assert [sense for _, sense in calls] == ["min"] * 3 + ["max"] * 3
        assert lo == pytest.approx([0, 0, 0, 0.5, 0, 0], abs=1e-9)
        assert hi == pytest.approx([1, 2, 1, 0.5, 1, 0], abs=1e-9)

    def test_unbounded_batch_falls_back_row_by_row(self):
        # x0 + x1 = 1 over [0, 1]^2, and x2 - x3 = 0 with x2, x3 >= 0
        # unbounded above: the batch of rows 0 and 1 is unbounded above,
        # so its maxima are solved one row at a time
        A = np.array([[1.0, 1.0, 0, 0], [0, 0, 1.0, -1.0]])
        region = LinearProgram(A, [1.0, 0.0], np.zeros(4), [1.0, 1.0, np.inf, np.inf])
        C = np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0]])
        calls = _solves(region)
        lo, hi = region.bounds(C)
        assert calls == [([0, 2], "min"), ([0, 2], "max"), ([0], "max"), ([2], "max")]
        assert lo == pytest.approx([0.0, 0.0], abs=1e-9)
        assert hi.tolist() == pytest.approx([1.0, np.inf], abs=1e-9)

    def test_empty_block_that_no_objective_touches(self):
        # x0 + x1 = 1 over [0, 1]^2, and x2 + x3 = 5 over [0, 1]^2: the
        # second block is empty, so the region is
        A = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        region = LinearProgram(A, [1.0, 5.0], np.zeros(4), np.ones(4))
        assert len(np.unique(region._blocks())) == 2
        assert _linprog_bound(np.eye(4)[0], A, np.array([1.0, 5.0]), np.array([1.0, 5.0]),
                              np.zeros(4), np.ones(4), "min") is None
        assert region.solve(np.eye(4)[0]).status == INFEASIBLE
        assert region.solve(np.zeros(4)).status == INFEASIBLE
        with pytest.raises(EmptySetError):
            region.bounds(np.eye(4)[[0, 1]])
        assert not region.feasible_at([0], [0.5])
        assert region.last_x is None

    def test_columns_in_no_row(self):
        # a row over columns 0 and 1; column 2 free, 3 pinned, 4 bounded
        # below only, 5 in [-1, 2]: each of 2..5 is in no row, a block of
        # its own
        lo = np.array([0.0, 0.0, -np.inf, 3.0, -1.0, -1.0])
        hi = np.array([1.0, 1.0, np.inf, 3.0, np.inf, 2.0])
        A = np.array([[1.0, 1.0, 0, 0, 0, 0]])
        region = LinearProgram(A, [1.0], lo, hi)
        for c, sense in ((np.eye(6)[2], "min"), (np.eye(6)[2], "max"), (np.eye(6)[4], "max"), (-np.eye(6)[4], "min")):
            assert region.solve(c, sense=sense).status == UNBOUNDED
        C = np.vstack([np.eye(6), [1.0, 0, 0, 2.0, -1.0, 3.0]])
        got_lo, got_hi = region.bounds(C)
        assert _batch_lists(region, C) == [[0, 2, 3, 4, 5], [1], [6]]
        for t, c in enumerate(C):
            for sense, g in (("min", got_lo[t]), ("max", got_hi[t])):
                assert g == pytest.approx(_linprog_bound(c, A, np.ones(1), np.ones(1), lo, hi, sense), abs=1e-9)
        res = region.solve([1.0, 0, 0, 1.0, 1.0, -1.0])
        assert res.status == OPTIMAL
        assert res.x.tolist() == pytest.approx([0.0, 1.0, 0.0, 3.0, -1.0, 2.0], abs=1e-9)
        assert res.value == pytest.approx(0.0, abs=1e-9)
        assert region.satisfied_by(res.x)
        # a pinned column in no row takes its value; beyond its bounds, no
        assert region.feasible_at([2, 5], [7.0, 0.5]) and region.last_x[[2, 5]].tolist() == [7.0, 0.5]
        assert not region.feasible_at([3], [2.0])

    @staticmethod
    def _two_blocks():
        # x0 + x1 = 1 and x2 - x3 = 0.5 over [0, 1]^4, rows interleaved
        # with a row x1 - x0 <= 0.5
        A = np.array([[1.0, 1.0, 0, 0], [0, 0, 1.0, -1.0], [-1.0, 1.0, 0, 0]])
        return A, np.array([1.0, 0.5, -np.inf]), np.array([1.0, 0.5, 0.5])

    def test_merge_through_extend(self):
        # a row that joins the two blocks: their rows are batched no more
        A, b_lo, b_hi = self._two_blocks()
        region = LinearProgram(np.zeros((0, 4)), [], np.zeros(4), np.ones(4))
        region.extend([], [], A, b_lo, b_hi)
        C = np.eye(4)
        assert _batch_lists(region, C) == [[0, 2], [1, 3]]
        region.bounds(C)
        join = np.array([[1.0, 0, 1.0, 0]])  # x0 + x2 <= 1.2
        region.extend([], [], join, [-np.inf], [1.2])
        fresh = LinearProgram(np.zeros((0, 4)), [], np.zeros(4), np.ones(4))
        fresh.extend([], [], np.vstack([A, join]), np.append(b_lo, -np.inf), np.append(b_hi, 1.2))
        calls = _solves(region)
        got, want = region.bounds(C), bounds_row_by_row(fresh, C)
        assert len(calls) == 8
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-9)
        assert got[1][0] == pytest.approx(0.7, abs=1e-9)  # the joining row binds: x2 >= 0.5

    def test_merge_through_replace(self):
        A, b_lo, b_hi = self._two_blocks()
        region = LinearProgram(np.zeros((0, 4)), [], np.zeros(4), np.ones(4))
        region.extend([], [], A, b_lo, b_hi)
        C = np.eye(4)
        region.bounds(C)
        A2 = A.copy()
        A2[2, 3] = 1.0  # the third row now reads x3 too
        region.replace(np.zeros(4), np.ones(4), A2, b_lo, b_hi)
        fresh = LinearProgram(np.zeros((0, 4)), [], np.zeros(4), np.ones(4))
        fresh.extend([], [], A2, b_lo, b_hi)
        calls = _solves(region)
        got, want = region.bounds(C), bounds_row_by_row(fresh, C)
        assert len(calls) == 8
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-9)
        assert region.reloads == 1
        A, b_lo, b_hi = model_rows(region)
        assert np.array_equal(A.toarray(), A2)

    def test_replace_keeps_the_blocks_of_its_pattern(self):
        # the blocks are found once per row pattern: a replace with the
        # pattern of the last one and new numbers keeps them, one with
        # another pattern finds them again
        A, b_lo, b_hi = self._two_blocks()
        region = LinearProgram(np.zeros((0, 4)), [], np.zeros(4), np.ones(4))
        region.extend([], [], A, b_lo, b_hi)
        C = np.eye(4)
        region.replace(np.zeros(4), np.ones(4), A, b_lo, b_hi)
        region.bounds(C)
        blocks = region._blocks()
        region.replace(np.zeros(4), np.ones(4), 2 * A, 2 * b_lo, 2 * b_hi)
        assert region._blocks() is blocks
        region.bounds(C)
        A2 = A.copy()
        A2[2, 3] = 1.0
        region.replace(np.zeros(4), np.ones(4), A2, b_lo, b_hi)
        assert len(np.unique(region._blocks())) == 1
        assert _batch_lists(region, C) == [[0], [1], [2], [3]]

    def test_plan_follows_the_nonzero_pattern(self):
        # two objective matrices of one shape whose nonzero patterns
        # batch differently, bounded alternately on one region: each call
        # takes the plan of its own pattern and equals the row-by-row
        # oracle
        A, b_lo, b_hi = self._two_blocks()
        region = LinearProgram(np.zeros((0, 4)), [], np.zeros(4), np.ones(4))
        region.extend([], [], A, b_lo, b_hi)
        fresh = LinearProgram(np.zeros((0, 4)), [], np.zeros(4), np.ones(4))
        fresh.extend([], [], A, b_lo, b_hi)
        units = np.eye(4)
        mixed = np.array([[1.0, 0, 0.5, 0], [0, 2.0, 0, 0], [0, 0, -1.0, 0], [0, 0, 0, 3.0]])  # row 0 reads both blocks
        plans = {0: [[0, 2], [1, 3]], 1: [[0], [1, 2], [3]]}
        calls = _solves(region)
        for t, C in enumerate([units, mixed, units, mixed]):
            assert _batch_lists(region, C) == plans[t % 2]
            before = len(calls)
            got, want = region.bounds(C), bounds_row_by_row(fresh, C)
            assert len(calls) - before == 2 * len(plans[t % 2])
            for g, w in zip(got, want):
                assert g == pytest.approx(w, abs=1e-9)

    def test_plan_dropped_by_a_replace_with_another_pattern(self):
        # a replace that joins the blocks between two hulls: the second
        # is planned again, row by row, and a replace back to the first
        # pattern batches again; each hull equals the oracle's
        A, b_lo, b_hi = self._two_blocks()
        A2 = A.copy()
        A2[2, 3] = 1.0  # the third row now reads x3 too
        region = LinearProgram(np.zeros((0, 4)), [], np.zeros(4), np.ones(4))
        region.extend([], [], A, b_lo, b_hi)
        C = np.eye(4)
        calls = _solves(region)
        for rows, solves in ((A, 4), (A2, 8), (A, 4)):
            region.replace(np.zeros(4), np.ones(4), rows, b_lo, b_hi)
            fresh = LinearProgram(np.zeros((0, 4)), [], np.zeros(4), np.ones(4))
            fresh.extend([], [], rows, b_lo, b_hi)
            before = len(calls)
            got, want = region.bounds(C), bounds_row_by_row(fresh, C)
            assert len(calls) - before == solves
            for g, w in zip(got, want):
                assert g == pytest.approx(w, abs=1e-9)

    def test_satisfied_by_first_row_inside_a_block(self):
        A, b_lo, b_hi = self._two_blocks()
        region = LinearProgram(np.zeros((0, 4)), [], np.zeros(4), np.ones(4))
        region.extend([], [], A, b_lo, b_hi)
        x = np.array([0.5, 0.5, 0.75, 0.25])
        assert region.satisfied_by(x)
        bad0 = x + [0.0, 1e-6, 0.0, 0.0]  # fails row 0 of the first block only
        assert not region.satisfied_by(bad0) and region.satisfied_by(bad0, first_row=1)
        bad1 = x + [0.0, 0.0, 1e-6, 0.0]  # fails row 1, of the second block
        assert not region.satisfied_by(bad1, first_row=1) and region.satisfied_by(bad1, first_row=2)
        bad2 = np.array([0.2, 0.8, 0.75, 0.25])  # fails row 2, of the first block
        assert not region.satisfied_by(bad2, first_row=2) and region.satisfied_by(bad2, first_row=3)

    def test_last_x_is_full_length_and_feasible(self):
        A, b_lo, b_hi = self._two_blocks()
        region = LinearProgram(np.zeros((0, 5)), [], np.append(np.zeros(4), -1.0), np.append(np.ones(4), 1.0))
        region.extend([], [], np.hstack([A, np.zeros((3, 1))]), b_lo, b_hi)  # column 4 in no row
        for c in ([1.0, 0, 0, 0, 0], [0, 1.0, -1.0, 0, 1.0], np.zeros(5)):
            res = region.solve(c, sense="max")
            assert res.status == OPTIMAL and res.x is region.last_x
            assert region.last_x.shape == (5,) and region.satisfied_by(region.last_x)
        assert region.feasible_at([0, 2], [0.25, 0.6])
        assert region.last_x.shape == (5,) and region.satisfied_by(region.last_x)
        assert region.last_x[[0, 2]].tolist() == pytest.approx([0.25, 0.6], abs=1e-12)
