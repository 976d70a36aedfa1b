"""Constrained zonotope algebra: pinned example oracles."""

import numpy as np
import pytest

from czest import czono, lp
from czest.czono import Box, ConstrainedZonotope


def unit_box(n=2):
    return czono.from_box(Box(-np.ones(n), np.ones(n)))


def sliced_unit_box():
    # unit box cut by xi1 + xi2 = 1; projects to [0,1] per coordinate
    return ConstrainedZonotope(
        np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([1.0]), np.ones(2)
    )


def hull_pair(Z):
    h = czono.interval_hull(Z)
    return h.lo.tolist(), h.hi.tolist()


class TestConstruction:
    def test_from_box_unit(self):
        Z = unit_box()
        assert np.array_equal(Z.G, np.eye(2))
        assert np.array_equal(Z.c, np.zeros(2))
        assert Z.n_constraints == 0
        assert np.array_equal(Z.h, np.ones(2))

    def test_from_box_singleton(self):
        Z = czono.from_box(Box([0.0, 0.0], [0.0, 0.0]))
        assert Z.dim == 2
        assert Z.n_generators == 0
        lo, hi = hull_pair(Z)
        assert lo == [0.0, 0.0] and hi == [0.0, 0.0]

    def test_from_box_whole_line(self):
        Z = czono.from_box(Box([-np.inf], [np.inf]))
        assert np.array_equal(Z.G, [[1.0]])
        assert Z.c[0] == 0.0
        assert np.isinf(Z.h[0])

    def test_from_box_one_sided_rejected(self):
        with pytest.raises(ValueError):
            czono.from_box(Box([0.0], [np.inf]))

    def test_validation_negative_halfwidth(self):
        with pytest.raises(ValueError):
            ConstrainedZonotope(
                np.eye(2), np.zeros(2), np.zeros((0, 2)), np.zeros(0), [-1.0, 1.0]
            )

    def test_validation_shape_mismatch(self):
        with pytest.raises(ValueError):
            ConstrainedZonotope(
                np.eye(2), np.zeros(3), np.zeros((0, 2)), np.zeros(0), np.ones(2)
            )

    def test_arrays_frozen(self):
        Z = unit_box()
        with pytest.raises(ValueError):
            Z.G[0, 0] = 5.0


class TestLinearMap:
    def test_identity_unchanged(self):
        Z = sliced_unit_box()
        M = czono.linear_map(np.eye(2), Z)
        assert np.array_equal(M.G, Z.G)
        assert np.array_equal(M.c, Z.c)
        assert np.array_equal(M.A, Z.A)

    def test_scaling_box(self):
        lo, hi = hull_pair(czono.linear_map(2 * np.eye(2), unit_box()))
        assert lo == [-2.0, -2.0] and hi == [2.0, 2.0]

    def test_row_sum_interval(self):
        lo, hi = hull_pair(czono.linear_map(np.array([[1.0, 1.0]]), unit_box()))
        assert lo == [-2.0] and hi == [2.0]

    def test_offset(self):
        Z = czono.linear_map(np.eye(2), unit_box(), offset=np.array([5.0, -5.0]))
        lo, hi = hull_pair(Z)
        assert lo == [4.0, -6.0] and hi == [6.0, -4.0]


class TestMinkowskiSum:
    def test_additive_identity(self):
        zero = czono.from_box(Box([0.0, 0.0], [0.0, 0.0]))
        S = czono.minkowski_sum(unit_box(), zero)
        lo, hi = hull_pair(S)
        assert lo == [-1.0, -1.0] and hi == [1.0, 1.0]

    def test_intervals_add(self):
        one = czono.from_box(Box([-1.0], [1.0]))
        lo, hi = hull_pair(czono.minkowski_sum(one, one))
        assert lo == [-2.0] and hi == [2.0]

    def test_constrained_plus_box(self):
        S = czono.minkowski_sum(sliced_unit_box(), unit_box())
        lo, hi = hull_pair(S)
        assert lo == pytest.approx([-1.0, -1.0], abs=1e-9)
        assert hi == pytest.approx([2.0, 2.0], abs=1e-9)


class TestCartesianProduct:
    def test_single_element(self):
        Z = sliced_unit_box()
        P = czono.cartesian_product([Z])
        assert np.array_equal(P.G, Z.G) and np.array_equal(P.h, Z.h)

    def test_two_intervals(self):
        a = czono.from_box(Box([-1.0], [1.0]))
        b = czono.from_box(Box([-2.0], [2.0]))
        lo, hi = hull_pair(czono.cartesian_product([a, b]))
        assert lo == [-1.0, -2.0] and hi == [1.0, 2.0]

    def test_unit_cube(self):
        one = czono.from_box(Box([-1.0], [1.0]))
        cube = czono.cartesian_product([one, one, one])
        widths = czono.interval_hull(cube).widths()
        assert widths.tolist() == [2.0, 2.0, 2.0]

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            czono.cartesian_product([])


class TestIntersect:
    def test_self_intersection_membership(self):
        Z = sliced_unit_box()
        I = czono.intersect(Z, Z)
        for x in ([0.5, 0.5], [1.0, 0.0], [0.0, 1.0]):
            assert czono.contains(I, x) == czono.contains(Z, x)
        assert not czono.contains(I, [0.8, 0.8])

    def test_interval_overlap(self):
        a = czono.from_box(Box([-1.0], [1.0]))
        b = czono.from_box(Box([0.0], [2.0]))
        lo, hi = hull_pair(czono.intersect(a, b))
        assert lo == pytest.approx([0.0], abs=1e-9)
        assert hi == pytest.approx([1.0], abs=1e-9)

    def test_box_with_slice(self):
        I = czono.intersect(unit_box(), sliced_unit_box())
        lo, hi = hull_pair(I)
        assert lo == pytest.approx([0.0, 0.0], abs=1e-9)
        assert hi == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_disjoint_is_empty(self):
        a = czono.from_box(Box([-1.0], [1.0]))
        b = czono.from_box(Box([3.0], [4.0]))
        assert czono.is_empty(czono.intersect(a, b))


class TestIntersectUnderMap:
    def test_exact_full_state_measurement(self):
        Zx = unit_box()
        x0 = np.array([0.25, -0.5])
        point = czono.from_box(Box([0.0, 0.0], [0.0, 0.0]))
        U = czono.intersect_under_map(Zx, np.eye(2), x0, point)
        lo, hi = hull_pair(U)
        assert lo == pytest.approx(x0.tolist(), abs=1e-9)
        assert hi == pytest.approx(x0.tolist(), abs=1e-9)

    def test_box_intersection_via_identity(self):
        Zx = czono.from_box(Box([-3.0, -3.0], [3.0, 3.0]))
        V = unit_box()
        U = czono.intersect_under_map(Zx, np.eye(2), np.zeros(2), V)
        lo, hi = hull_pair(U)
        assert lo == pytest.approx([-1.0, -1.0], abs=1e-9)
        assert hi == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_partial_row_measurement(self):
        Zx = czono.from_box(Box([-2.0, -2.0], [2.0, 2.0]))
        V = czono.from_box(Box([-0.5], [0.5]))
        U = czono.intersect_under_map(Zx, np.array([[1.0, 0.0]]), [1.0], V)
        lo, hi = hull_pair(U)
        assert lo == pytest.approx([0.5, -2.0], abs=1e-9)
        assert hi == pytest.approx([1.5, 2.0], abs=1e-9)

    def test_scalar_update_example(self):
        prior = czono.from_box(Box([-3.0], [3.0]))
        V = czono.from_box(Box([-1.0], [1.0]))
        U = czono.intersect_under_map(prior, np.array([[1.0]]), [1.0], V)
        lo, hi = hull_pair(U)
        assert lo == pytest.approx([0.0], abs=1e-9)
        assert hi == pytest.approx([2.0], abs=1e-9)


class TestProjectAndContains:
    def test_identity_projection(self):
        Z = sliced_unit_box()
        P = czono.project(Z, [0, 1])
        assert np.array_equal(P.G, Z.G) and np.array_equal(P.c, Z.c)

    def test_unit_box_4d_to_2d(self):
        Z = unit_box(4)
        lo, hi = hull_pair(czono.project(Z, [0, 1]))
        assert lo == [-1.0, -1.0] and hi == [1.0, 1.0]

    def test_sliced_box_projection(self):
        lo, hi = hull_pair(czono.project(sliced_unit_box(), [0]))
        assert lo == pytest.approx([0.0], abs=1e-9)
        assert hi == pytest.approx([1.0], abs=1e-9)

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            czono.project(unit_box(), [0, 5])
        with pytest.raises(ValueError):
            czono.project(unit_box(), [0, 0])

    def test_contains_center(self):
        assert czono.contains(unit_box(), [0.0, 0.0])

    def test_contains_outside(self):
        assert not czono.contains(unit_box(), [3.0, 0.0])

    def test_contains_on_slice(self):
        assert czono.contains(sliced_unit_box(), [0.5, 0.5])
        assert not czono.contains(sliced_unit_box(), [0.2, 0.2])


class TestEmptinessAndHull:
    def test_unconstrained_never_empty(self):
        assert not czono.is_empty(unit_box())

    def test_constraint_outside_box_empty(self):
        Z = ConstrainedZonotope(
            np.array([[1.0]]), [0.0], np.array([[1.0]]), [5.0], [1.0]
        )
        assert czono.is_empty(Z)

    def test_boundary_feasible_not_empty(self):
        Z = ConstrainedZonotope(
            np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), [2.0], np.ones(2)
        )
        assert not czono.is_empty(Z)

    def test_hull_unit_box(self):
        lo, hi = hull_pair(unit_box())
        assert lo == [-1.0, -1.0] and hi == [1.0, 1.0]

    def test_hull_sliced_box(self):
        lo, hi = hull_pair(sliced_unit_box())
        assert lo == pytest.approx([0.0, 0.0], abs=1e-9)
        assert hi == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_hull_unbounded_generator(self):
        Z = ConstrainedZonotope(
            np.array([[1.0, 0.5]]), [0.0], np.zeros((0, 2)), np.zeros(0), [1.0, np.inf]
        )
        h = czono.interval_hull(Z)
        assert np.isinf(h.lo[0]) and np.isinf(h.hi[0])

    def test_hull_of_empty_raises(self):
        Z = ConstrainedZonotope(
            np.array([[1.0]]), [0.0], np.array([[1.0]]), [5.0], [1.0]
        )
        with pytest.raises(czono.EmptySetError):
            czono.interval_hull(Z)

    def test_hull_with_infeasible_maximum_is_a_numerical_error(self, monkeypatch):
        # a region feasible for the minima but not for a maximum is a
        # solver failure, not an empty set
        solve = lp.LinearProgram._solve

        def infeasible_max(self, c, sense="min"):
            return lp.INFEASIBLE if sense == "max" else solve(self, c, sense)

        monkeypatch.setattr(lp.LinearProgram, "_solve", infeasible_max)
        with pytest.raises(lp.NumericalError):
            czono.interval_hull(sliced_unit_box())

    def test_diameter_unit_box(self):
        assert czono.diameter_inf(unit_box()) == 2.0

    def test_diameter_sliced_box(self):
        assert czono.diameter_inf(sliced_unit_box()) == pytest.approx(1.0, abs=1e-9)

    def test_diameter_singleton(self):
        Z = czono.from_box(Box([1.0, 2.0], [1.0, 2.0]))
        assert czono.diameter_inf(Z) == 0.0

    def test_whole_space(self):
        Z = czono.whole_space(3)
        h = czono.interval_hull(Z)
        assert np.all(np.isinf(h.lo)) and np.all(np.isinf(h.hi))


class TestCompactAndSerialization:
    def test_box_helpers(self):
        box = Box([-1.0, 0.0], [1.0, 4.0])
        assert box.center.tolist() == [0.0, 2.0]
        assert box.radius.tolist() == [1.0, 2.0]
        assert box.widths().tolist() == [2.0, 4.0]
        assert box.contains_point([0.5, 3.0])
        assert not box.contains_point([0.5, 5.0])

    @pytest.mark.parametrize("x", [[0.5], [0.5, 0.5, 0.5]], ids=["short", "long"])
    def test_box_point_of_another_dimension_rejected(self, x):
        # a shorter point would broadcast against the box's ends
        with pytest.raises(ValueError, match="dimension"):
            Box([0.0, 0.0], [1.0, 1.0]).contains_point(x)
