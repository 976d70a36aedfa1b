"""Filter recursions: hand-checked updates, window behavior, refinement."""

import json
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from czest import czono, filters, lp, simharness, sysmodel, verify
from czest.czono import Box
from czest.filters import (
    CentralizedFilter,
    DistributedFilter,
    EmptyPosteriorError,
    OitFilter,
    WindowTooShortError,
)
from lp_rows import bounds_row_by_row, model_cols, model_rows, wrap_models


def interval(lo, hi):
    return czono.from_box(Box([lo], [hi]))


def pair_x0():
    """The pair1d initial box used throughout: x1 in [-2, 2], x2 in [-1, 3]."""
    return Box([-2.0, -1.0], [2.0, 3.0])


def pair_ranges():
    """``pair_x0`` per agent."""
    return {1: Box([-2.0], [2.0]), 2: Box([-1.0], [3.0])}


def assert_same_lp(a, b):
    """Two LinearPrograms hold the same region: sizes, column bounds and
    rows with their bounds as the HiGHS models hold them."""
    assert (a.n, a.m) == (b.n, b.m)
    assert np.array_equal(a.lo, b.lo) and np.array_equal(a.hi, b.hi)
    (A, lo_a, hi_a), (B, lo_b, hi_b) = model_rows(a), model_rows(b)
    assert np.array_equal(A.toarray(), B.toarray())
    assert np.array_equal(lo_a, lo_b) and np.array_equal(hi_a, hi_b)


def pair_system():
    doc = simharness.build_pair1d_scenario()
    return sysmodel.system_from_dict(doc)


def batch_for(system, k, x):
    """The noiseless measurements at x."""
    rows = sysmodel.build_centralized(system).H.shape[0]
    return sysmodel.measure(system, k, np.asarray(x, dtype=float), np.zeros(rows))


class TestPrimitives:
    def test_predict_unit_interval(self):
        Z = interval(-1.0, 1.0)
        P = verify._dense_predict(
            Z, np.array([[2.0]]), np.array([[1.0]]), interval(-0.5, 0.5)
        )
        hull = czono.interval_hull(P)
        assert hull.lo[0] == pytest.approx(-2.5)
        assert hull.hi[0] == pytest.approx(2.5)

    def test_update_shrinks(self):
        Z = interval(-3.0, 3.0)
        U = verify._dense_update(Z, np.array([[1.0]]), np.array([1.0]), interval(-1.0, 1.0))
        hull = czono.interval_hull(U)
        assert hull.lo[0] == pytest.approx(0.0, abs=1e-9)
        assert hull.hi[0] == pytest.approx(2.0, abs=1e-9)


def split_per_agent(system, Z):
    """Per-agent initial ranges: the projections of a stacked set."""
    return {
        i: czono.project(Z, range(sl.start, sl.stop)) for i, sl in system.state_slices().items()
    }


class TestInputCheck:
    @pytest.mark.parametrize(
        "make",
        [
            CentralizedFilter,
            lambda system, Z: OitFilter(system, Z, delta_bar=2),
            lambda system, Z: DistributedFilter(system, split_per_agent(system, Z)),
        ],
        ids=["centralized", "oit", "distributed"],
    )
    def test_non_box_sets_rejected(self, make):
        # a rotation inside each agent's (px, vx) and (py, vy) pairs: its
        # per-agent projections are rotated too (a scalar agent's would be
        # intervals, which are boxes)
        uav = sysmodel.system_from_dict(simharness.build_uav_scenario())
        dim = uav.state_dim()
        unit = czono.from_box(Box(-np.ones(dim), np.ones(dim)))
        turn = np.kron(np.eye(dim // 2), np.array([[1.0, 1.0], [-1.0, 1.0]]))
        with pytest.raises(ValueError, match="initial set"):
            make(uav, czono.linear_map(turn, unit))
        # a CZ is rejected even when it equals a box
        with pytest.raises(ValueError, match="initial set is not a Box"):
            make(uav, unit)
        a = uav.agents[1]
        rotated = czono.linear_map(np.array([[1.0, 1.0], [-1.0, 1.0]]), czono.from_box(a.Wset))
        with pytest.raises(ValueError, match="process noise"):
            sysmodel.AgentModel(a.id, a.A_of_k, a.B, a.C, a.D, rotated, a.Vset, a.Rset_of)


class TestCentralized:
    def test_steps_must_be_sequential(self):
        system = pair_system()
        flt = CentralizedFilter(system, pair_x0())
        with pytest.raises(ValueError):
            flt.step(2, batch_for(system, 2, [0.0, 1.0]))

    def test_truth_always_contained(self):
        system = pair_system()
        flt = CentralizedFilter(system, pair_x0())
        rng = np.random.default_rng(0)
        x = np.array([0.5, 1.0])
        for k in range(1, 6):
            w = rng.uniform(-1, 1, 2)
            x = sysmodel.step_truth(system, k - 1, x, w)
            flt.step(k, sysmodel.measure(system, k, x, rng.uniform(-1, 1, 4)))
            assert flt.contains(x)
            hull = flt.hull()
            assert hull.lo[0] - 1e-9 <= x[0] <= hull.hi[0] + 1e-9

    def test_declared_noise_boxes_bound_the_lp(self):
        # endpoints whose center/radius round trip drifts by an ulp
        doc = simharness.build_pair1d_scenario()
        w = [(-0.3, 0.7), (-0.7, 0.1)]
        v = [(-0.9, 0.3), (-0.2, 0.9)]
        r = [(-0.6, 0.7), (0.1, 0.7)]
        for ad, wi, vi, ri in zip(doc["agents"], w, v, r):
            ad["process_noise"] = {"lo": [wi[0]], "hi": [wi[1]]}
            ad["measurement_noise"] = {"lo": [vi[0]], "hi": [vi[1]]}
            (j,) = ad["relative_noise"]
            ad["relative_noise"][j] = {"lo": [ri[0]], "hi": [ri[1]]}
        assert any((lo + hi) / 2 - (hi - lo) / 2 != lo for lo, hi in w + v + r)
        system = sysmodel.system_from_dict(doc)
        flt = CentralizedFilter(system, Box([-2.0, -1.0], [2.0, 3.0]))
        batch = batch_for(system, 1, [0.0, 1.0])
        flt.step(1, batch)
        region = flt._posterior()
        # columns x_0, w, x_1: w in its declared box
        assert (region.n, region.m) == (6, 6)
        assert region.lo[2:4].tolist() == [lo for lo, _ in w]
        assert region.hi[2:4].tolist() == [hi for _, hi in w]
        # rows: dynamics, then the measurements in layout order y_1, y_2,
        # z_12, z_21, ranged by the declared noise ends, one ulp outward
        Y = sysmodel.stack_measurements(flt._stack, batch)
        _, b_lo, b_hi = model_rows(region)
        assert b_lo[:2].tolist() == b_hi[:2].tolist() == [0.0, 0.0]
        assert b_lo[2:].tolist() == np.nextafter(Y - [hi for _, hi in v + r], -np.inf).tolist()
        assert b_hi[2:].tolist() == np.nextafter(Y - [lo for lo, _ in v + r], np.inf).tolist()

    @pytest.mark.parametrize(
        "make", [CentralizedFilter, lambda system, x0: OitFilter(system, x0, delta_bar=2)], ids=["centralized", "oit"]
    )
    def test_initial_posterior_is_its_box(self, make):
        # at k = 0 the final state is x_0, whose columns the initial box
        # bounds: a pinned point outside it is no member
        flt = make(pair_system(), pair_x0())
        assert flt.contains([2.0, -1.0]) and flt.contains([3.0], [1])
        assert not flt.contains([100.0, 100.0]) and not flt.contains([2.5], [0])

    @pytest.mark.parametrize(
        "make", [CentralizedFilter, lambda system, x0: OitFilter(system, x0, delta_bar=2)], ids=["centralized", "oit"]
    )
    def test_coordinates_must_be_integers(self, make):
        # pair1d: coordinate 0.9 is no coordinate, not coordinate 0, which
        # holds 0.0; so is 1.0, and a bool
        flt = make(pair_system(), pair_x0())
        assert flt.contains([0.0], [0]) and flt.contains([0.0], np.array([1], dtype=np.int32))
        for coords in ([0.9], [1.0], np.array([0.5, 1.0]), [True]):
            with pytest.raises(ValueError, match="must be integers"):
                flt.contains([0.0] * len(coords), coords)
        with pytest.raises(ValueError, match="out of range"):
            flt.contains([0.0], [2])

    def test_inconsistent_measurement_empties(self):
        system = pair_system()
        flt = CentralizedFilter(system, pair_x0())
        batch = batch_for(system, 1, [50.0, 50.0])
        flt.step(1, batch)
        with pytest.raises(lp.EmptySetError):
            flt.hull()


def test_measurement_bounds_round_outward():
    # Y - v_hi and Y - v_lo rounded to nearest can land inside the exact
    # range of H x; one ulp outward always holds it
    rng = np.random.default_rng(8)
    Y = rng.uniform(-10, 10, 2000)
    v_lo, v_hi = -rng.uniform(0, 1, 2000), rng.uniform(0, 1, 2000)
    Y[0], v_hi[0], v_lo[0] = 1.1, 0.2, -0.2  # fl(1.1 - 0.2) rounds up
    lo, hi = filters._measurement_bounds(Y, Box(v_lo, v_hi))
    exact_lo = [Fraction(y) - Fraction(v) for y, v in zip(Y, v_hi)]
    exact_hi = [Fraction(y) - Fraction(v) for y, v in zip(Y, v_lo)]
    assert Fraction(1.1 - 0.2) > exact_lo[0]
    inside = sum(Fraction(a) > e for a, e in zip(Y - v_hi, exact_lo))
    inside += sum(Fraction(b) < e for b, e in zip(Y - v_lo, exact_hi))
    assert inside > 0
    assert all(Fraction(a) <= e for a, e in zip(lo, exact_lo))
    assert all(Fraction(b) >= e for b, e in zip(hi, exact_hi))
    # exactly one ulp: one step inward is the rounded difference again
    assert np.all(np.nextafter(lo, np.inf) == Y - v_hi)
    assert np.all(np.nextafter(hi, -np.inf) == Y - v_lo)


def signed_magnitudes(rng, shape):
    """Floats of random sign whose magnitudes spread over 1e-300 to 1e15,
    log-uniformly."""
    return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-300, 15, shape)


def exact_dot(a, lo, hi):
    """The exact range of a row of ``a`` dotted with z over the box [lo,
    hi], one row, as Fractions."""
    ends = [sorted((Fraction(x) * Fraction(l), Fraction(x) * Fraction(h))) for x, l, h in zip(a, lo, hi)]
    return sum(e[0] for e in ends), sum(e[1] for e in ends)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_form_ranges_and_folded_rows_round_outward(seed):
    # the agents' LP reduction (``filters._AgentLP``): each form's range
    # over its box (``_interval_dot``), then each folded row's bounds less
    # its forms' terms (``_fold``), on random forms and boxes of mixed
    # signs and magnitudes, several terms wide, some coefficients zero;
    # each computed interval holds the exact one, computed in Fractions
    # from the exact ranges of the forms, and rounding to nearest alone
    # would have cut into some of them
    rng = np.random.default_rng(seed)
    forms, width, rows, folds = 60, 5, 40, 3
    a = signed_magnitudes(rng, (forms, width))
    a[rng.random((forms, width)) < 0.1] = 0.0
    lo, hi = np.sort(signed_magnitudes(rng, (2, forms, width)), axis=0)
    f_lo, f_hi = filters._interval_dot(a, lo, hi)
    exact = [exact_dot(*z) for z in zip(a, lo, hi)]
    assert all(Fraction(l) <= e_lo and e_hi <= Fraction(u) for l, u, (e_lo, e_hi) in zip(f_lo, f_hi, exact))
    p, q = a * lo, a * hi
    nearest = zip(np.minimum(p, q).sum(axis=1), np.maximum(p, q).sum(axis=1))
    assert any(Fraction(l) > e_lo or Fraction(u) < e_hi for (l, u), (e_lo, e_hi) in zip(nearest, exact))
    # rows b_lo <= y + sum_j h_j u_j <= b_hi, each u_j a form in its range
    h = signed_magnitudes(rng, (rows, folds))
    which = rng.integers(0, forms, (rows, folds))
    b_lo, b_hi = np.sort(signed_magnitudes(rng, (2, rows)), axis=0)
    t_lo, t_hi = filters._interval_dot(h, f_lo[which], f_hi[which])
    r_lo, r_hi = filters._fold(b_lo, b_hi, t_lo, t_hi)
    for r in range(rows):
        e_lo, e_hi = exact_dot(h[r], *zip(*(exact[f] for f in which[r])))
        assert Fraction(r_lo[r]) <= Fraction(b_lo[r]) - e_hi, r
        assert Fraction(r_hi[r]) >= Fraction(b_hi[r]) - e_lo, r
    assert any(Fraction(l) > Fraction(b) - e for l, b, e in zip(b_lo - t_hi, b_lo, (
        exact_dot(h[r], *zip(*(exact[f] for f in which[r])))[1] for r in range(rows))))



def union_find_components(S):
    """Test-only oracle of ``filters._components``: a union-find over the
    rows (nodes 0 .. R - 1) and columns (R ..) of the boolean matrix S,
    joined by its True entries; the components that hold a row, as (rows,
    columns) lists in ascending order, in the order of their first rows."""
    R, C = S.shape
    parent = list(range(R + C))

    def find(u):
        while parent[u] != u:
            u = parent[u]
        return u

    for r, c in zip(*np.nonzero(S)):
        parent[find(R + c)] = find(r)
    comps = {}
    for r in range(R):
        comps.setdefault(find(r), []).append(r)
    return [(rows, [c for c in range(C) if find(R + c) == root]) for root, rows in comps.items()]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_components_match_a_union_find(seed):
    # ``filters._components`` groups the forms of the agents' LP: on seeded
    # random boolean matrices, each with an all-False row and a column
    # without an entry, and on pinned small ones, it gives the union-find's
    # components, in the same order and with the same rows and columns
    pinned = [
        (np.array([[True]]), [([0], [0])]),
        (np.zeros((0, 3), dtype=bool), []),
        (np.zeros((2, 1), dtype=bool), [([0], []), ([1], [])]),
        (np.array([[1, 0, 0], [0, 0, 0], [0, 0, 1], [1, 0, 1]], dtype=bool), [([0, 2, 3], [0, 2]), ([1], [])]),
        (np.array([[0, 1], [1, 0], [0, 1]], dtype=bool), [([0, 2], [1]), ([1], [0])]),
    ]
    for S, want in pinned:
        assert union_find_components(S) == want
        assert [(r.tolist(), c.tolist()) for r, c in filters._components(S)] == want
    rng = np.random.default_rng(seed)
    for _ in range(300):
        R, C = rng.integers(1, 10, 2)
        S = rng.random((R, C)) < rng.uniform(0.05, 0.6)
        S[rng.integers(R)] = False
        S[:, rng.integers(C)] = False
        got = [(r.tolist(), c.tolist()) for r, c in filters._components(S)]
        assert got == union_find_components(S), S.astype(int).tolist()


class TestOit:
    def test_window_too_short_rejected(self):
        system = pair_system()
        with pytest.raises(WindowTooShortError):
            OitFilter(system, pair_x0(), delta_bar=-1)

    def test_matches_centralized_inside_window(self):
        system = pair_system()
        x0 = pair_x0()
        cent = CentralizedFilter(system, x0)
        oit = OitFilter(system, x0, delta_bar=10)
        rng = np.random.default_rng(1)
        x = np.array([0.0, 1.0])
        for k in range(1, 6):
            x = sysmodel.step_truth(system, k - 1, x, rng.uniform(-1, 1, 2))
            batch = sysmodel.measure(system, k, x, rng.uniform(-1, 1, 4))
            cent.step(k, batch)
            oit.step(k, batch)
            assert_same_lp(oit._post, cent._post)

    def test_window_of_one_state_carries_the_witness(self):
        # pair1d's observability index is 1, so delta_bar = 0 is valid: the
        # window is (x_a, x_k) with x_a = x_k.  The first window, at k = 1,
        # is a new LP that no witness enters, so k = 1 probes and keeps the
        # solver's point; from k = 2 the probe's point carried a step, (A x_a
        # + B w, x), passes its check
        system = pair_system()
        oit = OitFilter(system, pair_x0(), delta_bar=0)
        x = np.array([0.5, 1.0])
        assert oit.contains(x)
        built = oit._posterior()
        for k in (1, 2, 3):
            x = sysmodel.step_truth(system, k - 1, x, np.zeros(2))
            oit.step(k, batch_for(system, k, x))
            region = oit._posterior()
            assert region is not built and region.n == 2 * x.size
            got = oit.contains(x)
            assert oit._witness[0] == k
            assert (oit._witness[2] is region.last_x) == (k == 1)  # the probe's point, else a carried one
            assert got == region.feasible_at(final_cols(region, x.size), x)

    def test_window_far_past_the_horizon_is_never_built(self):
        # the window LP is built at the first step past delta_bar, so a
        # delta_bar far above the horizon costs nothing at construction
        system = pair_system()
        oit = OitFilter(system, pair_x0(), delta_bar=2**40)
        x = np.array([0.5, 1.0])
        for k in range(1, 4):
            x = sysmodel.step_truth(system, k - 1, x, np.zeros(2))
            oit.step(k, batch_for(system, k, x))
            assert oit.contains(x)
        region = oit._posterior()  # still the trajectory LP, one step block per step
        assert oit.lifted_size == (region.n, region.m) == (2 + 3 * (2 + 2), 3 * (2 + 4))

    def test_bounded_representation_past_window(self):
        system = pair_system()
        oit = OitFilter(system, pair_x0(), delta_bar=2)
        rng = np.random.default_rng(2)
        sizes = []
        x = np.array([0.0, 1.0])
        for k in range(1, 12):
            x = sysmodel.step_truth(system, k - 1, x, rng.uniform(-1, 1, 2))
            oit.step(k, sysmodel.measure(system, k, x, rng.uniform(-1, 1, 4)))
            sizes.append(oit.lifted_size)
            assert oit.contains(x)
        past = sizes[2:]
        assert len(set(past)) == 1, past

    @pytest.mark.parametrize(
        "scenario, horizon",
        [(simharness.build_uav_scenario, 9), (simharness.build_pair1d_scenario, 8)],
        ids=["uav5", "pair1d"],
    )
    def test_in_place_window_matches_fresh_build(self, monkeypatch, scenario, horizon):
        # a logged trial replayed: past delta_bar the window LP, reloaded
        # in place, against one built afresh from the same window
        cfg = simharness.ScenarioConfig.from_doc(scenario(horizon=horizon), algorithms=["oit"])
        log = simharness.run_trial(cfg, 0, metrics="containment")
        system, db = cfg.system, cfg.delta_bar
        assert log.aborted is None and len(log.steps) == horizon >= db + 3
        initial = [log.header["initial"][str(i)] for i in system.agent_ids]
        x0_box = Box(np.concatenate([lo for lo, _ in initial]), np.concatenate([hi for _, hi in initial]))
        built, reloaded = [], []
        init, replace = lp.LinearProgram.__init__, lp.LinearProgram.replace

        def counting(self, *args):
            built.append(self)
            init(self, *args)

        def recording(self, *args):
            reloaded.append(self)
            replace(self, *args)

        monkeypatch.setattr(lp.LinearProgram, "__init__", counting)
        monkeypatch.setattr(lp.LinearProgram, "replace", recording)
        flt = OitFilter(system, x0_box, db)
        # only the grown LP is built with the filter
        assert len(built) == 1
        stack = sysmodel.build_centralized(system)
        entries, window = [], None
        for k, rec in enumerate(log.steps, 1):
            batch = sysmodel.MeasurementBatch.from_dict(rec)
            entries.append(filters._step_entry(stack, k, batch))
            built.clear()
            flt.step(k, batch)
            flt._posterior()  # the window is built or reloaded when it is read
            if k <= db:
                assert built == [] and reloaded == []
                continue
            if k == db + 1:  # the first step past delta_bar builds the window
                [window] = built
            else:
                assert built == []
            # then one reload of the window per step
            assert reloaded == [window] * (k - db - 1)
            fresh = filters._region(*filters._window_block(stack, entries[-(db + 1):]))
            assert_same_lp(window, fresh)
            got, want = flt.hull(), final_hull(fresh, system.state_dim())
            for a, b in ((got.lo, want.lo), (got.hi, want.hi)):
                assert np.all(np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.abs(b)))
            truth = np.array(rec["truth"])
            assert flt.contains(truth) and fresh.feasible_at(final_cols(fresh, truth.size), truth)

    @pytest.mark.parametrize(
        "doc",
        [
            simharness.build_uav_scenario(horizon=14, seed=1),
            simharness.build_uav_scenario(horizon=14, seed=9173),
            simharness.build_pair1d_scenario(horizon=12, seed=1),
        ],
        ids=["uav5-s1", "uav5-s9173", "pair1d"],
    )
    def test_window_matches_trajectory_oracle(self, doc):
        # past delta_bar the observability-matrix window holds the set the
        # trajectory form of the same window holds: equal hulls, and the
        # same answer for the truth and for points just outside the hull
        cfg = simharness.ScenarioConfig(dict(doc, algorithms=["oit"]))
        x0, steps = replay(cfg)
        db = cfg.delta_bar
        assert len(steps) == cfg.K > db + 3
        stack = sysmodel.build_centralized(cfg.system)
        flt = OitFilter(cfg.system, x0, db)
        entries = []
        for k, batch, truth in steps:
            entries.append(filters._step_entry(stack, k, batch))
            flt.step(k, batch)
            if k <= db:
                continue
            region, cols = trajectory_window(stack, entries[-(db + 1):])
            got, want = flt.hull(), Box(*region.bounds(np.eye(region.n)[list(cols)]))
            for a, b in ((got.lo, want.lo), (got.hi, want.hi)):
                assert np.all(np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.abs(b))), k
            assert flt.contains(truth) and region.feasible_at(cols, truth)
            outside = got.hi + 1e-6 * np.maximum(1.0, np.abs(got.hi))
            assert not flt.contains(outside) and not region.feasible_at(cols, outside)

    def test_oit_never_tighter_than_centralized(self):
        system = pair_system()
        x0 = pair_x0()
        cent = CentralizedFilter(system, x0)
        oit = OitFilter(system, x0, delta_bar=2)
        rng = np.random.default_rng(3)
        x = np.array([0.0, 1.0])
        for k in range(1, 10):
            x = sysmodel.step_truth(system, k - 1, x, rng.uniform(-1, 1, 2))
            batch = sysmodel.measure(system, k, x, rng.uniform(-1, 1, 4))
            cent.step(k, batch)
            oit.step(k, batch)
            hc = cent.hull()
            ho = oit.hull()
            assert np.all(hc.lo >= ho.lo - 1e-9)
            assert np.all(hc.hi <= ho.hi + 1e-9)


def replay(cfg, trial=0):
    """The initial box and the (k, batch, truth) of a logged trial."""
    log = simharness.run_trial(cfg, trial, metrics="containment")
    initial = [log.header["initial"][str(i)] for i in cfg.system.agent_ids]
    x0 = Box(np.concatenate([lo for lo, _ in initial]), np.concatenate([hi for _, hi in initial]))
    steps = [
        (k, sysmodel.MeasurementBatch.from_dict(rec), np.array(rec["truth"]))
        for k, rec in enumerate(log.steps, 1)
    ]
    return x0, steps


def final_cols(region, n):
    """The final state's columns of a filter LP: its last n."""
    return range(region.n - n, region.n)


def final_hull(region, n):
    """The interval hull of a filter LP's final state."""
    return Box(*region.bounds(np.eye(region.n)[list(final_cols(region, n))]))


def trajectory_window(stack, entries):
    """Test-only oracle: the fixed-lag window of ``entries`` ((A, Y) per
    step, oldest first) as a trajectory LP over every state and process
    noise of the window, its first state free.  Returns the LP and its
    final state's columns."""
    n = stack.B.shape[0]
    (_, Y0), *rest = entries
    region = lp.LinearProgram(np.zeros((0, n)), np.zeros(0), np.full(n, -np.inf), np.full(n, np.inf))
    region.extend([], [], stack.H, *filters._measurement_bounds(Y0, stack.Vset))
    x_at = 0
    for A, Y in rest:
        w_at = region.n
        cols = np.concatenate([np.arange(x_at, x_at + n), np.arange(w_at, w_at + stack.B.shape[1] + n)])
        region.extend(*filters._step_block(stack, A, Y), cols=cols)
        x_at = w_at + stack.B.shape[1]
    return region, range(x_at, x_at + n)


class TestWitness:
    @pytest.mark.parametrize(
        "doc, trial, nominal",
        [
            (simharness.build_uav_scenario(horizon=30, seed=1), 0, True),
            (simharness.build_uav_scenario(horizon=30, seed=9173), 0, True),
            (dict(simharness.build_uav_scenario(horizon=30, seed=1), injected_noise_scale=1.05), 0, False),
            (dict(simharness.build_uav_scenario(horizon=30, seed=1), injected_noise_scale=1.3), 1, False),
            # noise on a unit grid: every draw is -1, 0 or 1, mostly on the
            # boundary of its box
            (dict(simharness.build_pair1d_scenario(horizon=20, seed=3), noise_grid=1.0), 0, True),
        ],
        ids=["uav5-s1", "uav5-s9173", "uav5-noise1.05", "uav5-noise1.3", "pair1d-boundary"],
    )
    def test_answers_equal_the_lp_probe(self, doc, trial, nominal):
        # every whole-state answer equals the pinned probe of the same LP,
        # and on nominal noise every step after the first is the witness's,
        # but oit's first window, a new LP that no witness enters
        cfg = simharness.ScenarioConfig(dict(doc, algorithms=["centralized", "oit"]))
        x0, steps = replay(cfg, trial)
        assert len(steps) == cfg.K if nominal else len(steps) > 0
        flts = [CentralizedFilter(cfg.system, x0), OitFilter(cfg.system, x0, cfg.delta_bar)]
        state = range(cfg.system.state_dim())
        witnessed = falses = 0
        for k, batch, truth in steps:
            for flt in flts:
                flt.step(k, batch)
                got = flt.contains(truth)
                witness = flt._witness  # a carried point, not the point of a probe (``last_x``)
                witnessed += witness is not None and witness[0] == k and witness[2] is not flt._post.last_x
                falses += not got
                # listing every coordinate asks the pinned probe alone
                assert got == flt.contains(truth, state), (k, flt)
        if nominal:
            assert falses == 0
            assert witnessed == len(flts) * (cfg.K - 1) - 1
        else:
            assert falses > 0

    @pytest.mark.parametrize("where", ["first-block", "last-block"])
    def test_corrupted_row_rejects_the_witness(self, monkeypatch, where):
        # a dynamics coefficient changed by 1e-6 at k = delta_bar + 3, in
        # the window's stored entries, which the witness check reads: in
        # the window's first step of dynamics, which the carried point was
        # already checked against, or in the step just appended.  The check
        # fails, and the LP, built from the same entries, decides
        cfg = simharness.ScenarioConfig(simharness.build_uav_scenario(horizon=8, seed=1))
        x0, steps = replay(cfg)
        db = cfg.delta_bar
        flt = OitFilter(cfg.system, x0, db)
        checks, probes = [], []
        satisfied_by, feasible_at = lp.LinearProgram.satisfied_by, lp.LinearProgram.feasible_at
        admits = filters._LiftedFilter._admits

        def checking(self, x):
            checks.append(satisfied_by(self, x))
            return checks[-1]

        def checking_entries(self, y):
            checks.append(admits(self, y))
            return checks[-1]

        def probing(self, cols, x):
            probes.append(cols)
            return feasible_at(self, cols, x)

        monkeypatch.setattr(lp.LinearProgram, "satisfied_by", checking)
        monkeypatch.setattr(filters._LiftedFilter, "_admits", checking_entries)
        monkeypatch.setattr(lp.LinearProgram, "feasible_at", probing)
        corrupt = db + 3
        assert len(steps) > corrupt
        for k, batch, truth in steps:
            flt.step(k, batch)
            if k == corrupt:
                # the first dynamics row of the window's first step, or of its last
                A = flt._window[1 if where == "first-block" else -1].A
                A[0, np.flatnonzero(A[0])[0]] += 1e-6
            checks.clear()
            probes.clear()
            got = flt.contains(truth)
            checked, probed = list(checks), len(probes)
            region = flt._posterior()
            assert got == feasible_at(region, final_cols(region, truth.size), truth)
            if k == 1:  # no witness; the solver's point on the trajectory is checked before it is kept
                assert checked == [True] and probed == 1
            elif k == db + 1:  # a new window that no witness enters, and whose point needs no check
                assert checked == [] and probed == 1
            elif k == corrupt:
                assert checked == [False] and probed == 1
            else:
                assert checked == [True] and probed == 0

    def test_three_trials_probe_once_per_chain(self, monkeypatch):
        # 3 uav5 containment trials: one LP probe per chain start, k = 1 for
        # centralized and delta_bar + 1 for oit (whose records inside the
        # window are centralized's)
        probes = []
        feasible_at = lp.LinearProgram.feasible_at

        def probing(self, cols, x):
            probes.append(cols)
            return feasible_at(self, cols, x)

        monkeypatch.setattr(lp.LinearProgram, "feasible_at", probing)
        cfg = simharness.ScenarioConfig(simharness.build_uav_scenario(horizon=30, seed=1))
        mc = simharness.run_monte_carlo(cfg, 3, metrics="containment", workers=1)
        assert mc.violations == 0 and mc.aborts == []
        assert len(probes) <= 6


def hetero3_doc():
    """The scenario of ``hetero3.json``: three agents whose noise inputs
    differ in number, agent 2 without an absolute measurement."""
    return json.loads((pathlib.Path(__file__).parent / "hetero3.json").read_text())


def fresh_posterior(flt, x0, pairs):
    """Test-only oracle: the step-k posterior of a lifted filter built
    afresh from the step entries ``pairs`` ((A, Y) of steps 1..k): the
    window of the last delta_bar + 1 past delta_bar, else the trajectory
    from the initial box x0."""
    stack = flt._stack
    if flt._windowed():
        return filters._region(*filters._window_block(stack, pairs[-(flt.delta_bar + 1):]))
    region = lp.LinearProgram(np.zeros((0, x0.dim)), np.zeros(0), x0.lo, x0.hi)
    for A, Y in pairs:
        filters._extend_trajectory(region, stack, A, Y)
    return region


def corruptions(flt, y, before):
    """The step entries of a lifted filter with one entry corrupted, so that
    the carried point y leaves its rows, as (name, entries): a measurement
    bound moved by more than its noise range, or the dynamics coefficient
    on the largest state coordinate it multiplies moved by 1e-3; in the
    step's entry on the trajectory, in the window's first and last batches
    on a window (the first batch's A is not read, so its first step of
    dynamics stands for it).  ``before`` is the previous true state, which
    the window's last dynamics multiply."""
    stack, n = flt._stack, flt._dims[0]
    entries = list(flt._window) if flt._windowed() else [flt._entry]
    V = stack.Vset

    def bound(entry):
        A, Y = entry.A, entry.Y.copy()
        Y[0] += 2 * (V.hi[0] - V.lo[0]) + 1
        return filters._Entry(stack, A, Y)

    def dynamics(entry, x_prev):
        A, Y = entry.A.copy(), entry.Y
        A[0, np.argmax(np.abs(x_prev))] += 1e-3
        return filters._Entry(stack, A, Y)

    if flt._windowed():
        cases = [("bound-first", 0, bound(entries[0])), ("dynamics-first", 1, dynamics(entries[1], y[:n])),
                 ("bound-last", -1, bound(entries[-1])), ("dynamics-last", -1, dynamics(entries[-1], before))]
    else:
        p = flt._dims[1]
        x_prev = y[-2 * n - p : -n - p]
        cases = [("bound-last", -1, bound(entries[-1])), ("dynamics-last", -1, dynamics(entries[-1], x_prev))]
    for name, at, bad in cases:
        changed = list(entries)
        changed[at] = bad
        yield name, changed


class TestWitnessOracle:
    """The witness check on the step entries (``_LiftedFilter._admits``)
    against its test-only oracle: ``satisfied_by`` on the LP built afresh
    from the same entries (``fresh_posterior``)."""

    @pytest.mark.parametrize("metrics", ["full", "containment"])
    @pytest.mark.parametrize(
        "doc",
        [
            simharness.build_uav_scenario(horizon=30, seed=1),
            simharness.build_uav_scenario(horizon=30, seed=9173),
            simharness.build_pair1d_scenario(horizon=30, seed=1),
            dict(hetero3_doc(), horizon=30),
        ],
        ids=["uav5-s1", "uav5-s9173", "pair1d", "hetero3"],
    )
    def test_entry_verdicts_equal_a_fresh_lp(self, monkeypatch, doc, metrics):
        # at every step, each carried point the entry check judges is
        # judged by the oracle too, and the verdicts agree; then each
        # corrupted entry (``corruptions``) is rejected by both
        cfg = simharness.ScenarioConfig(dict(doc, algorithms=["centralized", "oit"]))
        x0, steps = replay(cfg)
        assert len(steps) == cfg.K
        system = cfg.system
        ids, slices = system.agent_ids, system.state_slices()
        flts = {"centralized": CentralizedFilter(system, x0), "oit": OitFilter(system, x0, cfg.delta_bar)}
        pairs = {id(flt): [] for flt in flts.values()}
        before = [None]  # the previous true state
        admits = filters._LiftedFilter._admits
        compared, disagreements, rejected = 0, [], []

        def checking(self, y):
            nonlocal compared
            got = admits(self, y)
            want = fresh_posterior(self, x0, pairs[id(self)]).satisfied_by(y)
            compared += 1
            if got != want:
                disagreements.append((type(self).__name__, self.k, got, want))
            if got:
                window, entry = self._window, self._entry
                try:
                    for name, changed in corruptions(self, y, before[0]):
                        if self._windowed():
                            self._window = changed
                        else:
                            (self._entry,) = changed
                        bad_pairs = pairs[id(self)][: -len(changed)] + [(e.A, e.Y) for e in changed]
                        verdicts = admits(self, y), fresh_posterior(self, x0, bad_pairs).satisfied_by(y)
                        rejected.append((self._windowed(), name, verdicts))
                finally:
                    self._window, self._entry = window, entry
            return got

        monkeypatch.setattr(filters._LiftedFilter, "_admits", checking)
        for k, batch, truth in steps:
            for alg, flt in flts.items():
                flt.step(k, batch)
                pairs[id(flt)].append((flt._entry.A, flt._entry.Y))
                simharness._step_metrics(alg, flt, ids, truth, slices, metrics)
            before[0] = truth
        assert disagreements == []
        # nominal noise: every step but the trajectories' first and the
        # window's first (a new LP that no witness enters) is the entry
        # check's
        db = cfg.delta_bar
        assert compared == (cfg.K - 1) + (db - 1) + (cfg.K - db - 1)
        assert {(windowed, name) for windowed, name, _ in rejected} == {
            (False, "bound-last"), (False, "dynamics-last"), (True, "bound-first"), (True, "dynamics-first"),
            (True, "bound-last"), (True, "dynamics-last"),
        }
        assert all(verdicts == (False, False) for _, _, verdicts in rejected), rejected


def coupling_rows(n_cols, own_cols, peer_cols):
    """The rows y_own - filters._COUPLING_SIGN * y_peer = 0 over ``n_cols``
    columns, one per own column: they tie a peer's copy of a state to the
    own one, which is the refinement's intersection."""
    rows = np.arange(len(own_cols))
    D = np.zeros((rows.size, n_cols))
    D[rows, own_cols] = 1.0
    D[rows, peer_cols] = -filters._COUPLING_SIGN
    return D


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["nominal", "injected-fault"])
def test_coupling_rows(monkeypatch, sign):
    # x_own - sign * x_peer = 0, one dense row per own column
    monkeypatch.setattr(filters, "_COUPLING_SIGN", sign)
    want = np.zeros((2, 7))
    want[[0, 1], [1, 2]] = 1.0
    want[[0, 1], [5, 0]] = -sign
    assert np.array_equal(coupling_rows(7, [1, 2], [5, 0]), want)


def agent_slot(system, i, stack):
    """Agent i's (x_prev, w) positions among the columns of a message
    block over ``stack``'s neighborhood."""
    agents = system.agents
    a, nx = agents[i], stack.B.shape[0]
    before = stack.state_order[: stack.state_order.index(i)]
    x_at, w_at = sum(agents[l].n for l in before), nx + sum(agents[l].p for l in before)
    return np.r_[x_at : x_at + a.n, w_at : w_at + a.p]


def coupled_refinement(system, i, stacks, messages):
    """Test-only oracle: agent i's refinement of one step in the coupled
    form, from the same ``messages`` as its block of ``filters._AgentLP``: every owner's
    block on its own columns, with its own copy of agent i's (x_prev, w),
    and rows (``coupling_rows``) that tie each peer's copy to agent i's own
    through the state A_i x_prev + B_i w.  Returns (its hull, the LP)."""
    n = system.agents[i].n
    M = np.hstack([messages[0][0][:n, :n], system.agents[i].B])  # [A_i(k) B_i]; i leads N̄_i
    lo, hi, D, b_lo, b_hi = zip(*(block for _, block in messages))
    own, col = [], 0
    for o, block_lo in zip([i] + system.topology.peers(i), lo, strict=True):
        own.append(col + agent_slot(system, i, stacks[o]))
        col += block_lo.size
    region = filters._region(
        np.concatenate(lo), np.concatenate(hi), czono._blockdiag(*D), np.concatenate(b_lo), np.concatenate(b_hi)
    )
    for copy in own[1:]:
        region.extend([], [], M @ coupling_rows(col, own[0], copy), np.zeros(n), np.zeros(n))
    C = np.zeros((n, col))
    C[:, own[0]] = M
    return Box(*region.bounds(C)), region


def agent_alone(system, i, stacks, messages):
    """Test-only oracle: agent i's refinement of one step as an LP of its
    own, built afresh, from the same ``messages`` as its block of
    ``filters._AgentLP``: its owners' unreduced blocks on agent i's shared
    columns (``verify._SharedColumns``).  Returns (the LP, its hull rows
    [A_i(k) B_i] on agent i's columns)."""
    owners = [i] + system.topology.peers(i)
    group = [(block[2].shape, agent_slot(system, i, stacks[o])) for o, (_, block) in zip(owners, messages, strict=True)]
    layout = verify._SharedColumns(group)
    region = filters._region(*layout([block for _, block in messages]))
    a = system.agents[i]
    C = np.zeros((a.n, region.n))
    C[:, layout.own] = np.hstack([messages[0][0][: a.n, : a.n], a.B])  # i leads N̄_i
    return region, C


def agent_columns(flt):
    """{agent: columns of its block} of a distributed filter's one LP."""
    return {i: cols.stop - cols.start for i, (_, cols) in zip(flt._lp.ids, flt._lp.spans)}


def refined_contains(refinement, x):
    """Membership in a lifted refinement, pinned through its own columns."""
    region, cols = refinement
    return region.feasible_at(cols, x)


class TestUpdateIntersection:
    """The lifted refinement (``verify.lifted_refinement``): the own block of
    a joint, intersected with this agent's block of each received joint."""

    def _random_joint(self, rng, q):
        Z, _ = verify._random_cz(rng, dim=q, allow_inf=False)
        return Z

    def test_matches_primitive_composition(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            own = self._random_joint(rng, 2)
            peer = self._random_joint(rng, 3)
            alpha = int(rng.integers(2, 4))
            stacked = verify.lifted_refinement(own, [1, 1], [(peer, alpha, [1, 1, 1])])
            comp = czono.intersect(
                czono.project(own, [0]), czono.project(peer, [alpha - 1])
            )
            for _ in range(30):
                x = rng.uniform(-4, 4, 1)
                assert refined_contains(stacked, x) == czono.contains(comp, x)

    def test_received_order_does_not_change_set(self):
        rng = np.random.default_rng(5)
        own = self._random_joint(rng, 2)
        p1 = self._random_joint(rng, 2)
        p2 = self._random_joint(rng, 3)
        a = verify.lifted_refinement(own, [1, 1], [(p1, 2, [1, 1]), (p2, 3, [1, 1, 1])])
        b = verify.lifted_refinement(own, [1, 1], [(p2, 3, [1, 1, 1]), (p1, 2, [1, 1])])
        for _ in range(50):
            x = rng.uniform(-4, 4, 1)
            assert refined_contains(a, x) == refined_contains(b, x)

    def test_no_received_projects_own_block(self):
        own = czono.cartesian_product([interval(1, 2), interval(-5, 5)])
        region, cols = verify.lifted_refinement(own, [1, 1], [])
        lo, hi = region.bounds(np.eye(region.n)[cols])
        assert lo[0] == pytest.approx(1.0)
        assert hi[0] == pytest.approx(2.0)
        assert len(cols) == 1


class TestDistributed:
    def test_posteriors_contain_truth(self):
        system = pair_system()
        flt = DistributedFilter(system, pair_ranges())
        rng = np.random.default_rng(6)
        x = np.array([0.5, 1.5])
        for k in range(1, 6):
            x = sysmodel.step_truth(system, k - 1, x, rng.uniform(-1, 1, 2))
            flt.step(k, sysmodel.measure(system, k, x, rng.uniform(-1, 1, 4)))
            for i in (1, 2):
                hull = flt.hulls[i]
                assert hull.lo[0] - 1e-9 <= x[i - 1] <= hull.hi[0] + 1e-9

    def test_posterior_is_box_reencoding(self):
        system = pair_system()
        flt = DistributedFilter(system, pair_ranges())
        flt.step(1, batch_for(system, 1, [0.0, 1.0]))
        for i in (1, 2):
            post = flt.hulls[i]
            assert isinstance(post, Box) and post.dim == 1
            assert np.all(np.isfinite(post.lo)) and np.all(post.lo <= post.hi)

    def test_distributed_contains_centralized(self):
        system = pair_system()
        cent = CentralizedFilter(system, pair_x0())
        dist = DistributedFilter(system, pair_ranges())
        rng = np.random.default_rng(7)
        x = np.array([0.0, 1.0])
        for k in range(1, 6):
            x = sysmodel.step_truth(system, k - 1, x, rng.uniform(-1, 1, 2))
            batch = sysmodel.measure(system, k, x, rng.uniform(-1, 1, 4))
            cent.step(k, batch)
            dist.step(k, batch)
            hc = cent.hull()
            for i in (1, 2):
                hd = dist.hulls[i]
                assert hc.lo[i - 1] >= hd.lo[0] - 1e-9
                assert hc.hi[i - 1] <= hd.hi[0] + 1e-9

    def test_in_place_update_matches_fresh_build(self, monkeypatch):
        # a logged uav5 trial replayed: at each k the agents' one LP,
        # reloaded in place, against one built afresh from step k's
        # messages and the same hulls
        reloaded = []
        replace = lp.LinearProgram.replace

        def recording(self, *args):
            reloaded.append(self)
            replace(self, *args)

        monkeypatch.setattr(lp.LinearProgram, "replace", recording)
        cfg = simharness.ScenarioConfig.from_doc(
            simharness.build_uav_scenario(horizon=6), algorithms=["distributed"]
        )
        log = simharness.run_trial(cfg, 0, metrics="containment")
        assert log.aborted is None and len(log.steps) == 6
        system = cfg.system
        ids = system.agent_ids
        flt = DistributedFilter(system, {i: Box(*log.header["initial"][str(i)]) for i in ids})
        stacks = {o: sysmodel.build_neighborhood(system, o) for o in ids}
        program = flt._lp.program
        for k, rec in enumerate(log.steps, 1):
            batch = sysmodel.MeasurementBatch.from_dict(rec)
            prev = flt.hulls
            reloaded.clear()
            flt.step(k, batch)
            # one reload of the one model per step
            assert len(reloaded) == 1 and reloaded[0] is program and flt._lp.program is program
            fresh = filters._AgentLP(system, stacks, {
                o: filters._Owner(st).message(*filters._step_entry(st, k, batch), prev) for o, st in stacks.items()
            })
            # every reload after the first (which follows the build's
            # ``extend``) keeps the row pattern it wrote: the same arrays
            if k > 1:
                assert program._start is held[0] and program._index is held[1], k
            held = program._start, program._index
            assert_same_lp(program, fresh.program)
            for a, b in zip(model_cols(program), model_cols(fresh.program)):
                assert np.array_equal(a, b)
            want = fresh.hulls()
            for i in ids:
                got = flt.hulls[i]
                for a, b in ((got.lo, want[i].lo), (got.hi, want[i].hi)):
                    assert np.all(np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.abs(b))), (k, i)

    def test_each_owner_message_is_built_once_and_sent_to_its_holders(self, monkeypatch):
        # uav5: every step builds one message per owner and assembles the
        # agents' one LP once from them, where agent i's block holds the
        # messages of [i] + peers(i), in that order, and reads nothing
        # else: a message changed in every number moves exactly its
        # holders' blocks, and leaves every other block bit-identical
        built, assembled = [], []
        message, assemble = filters._Owner.message, filters._AgentLP._assemble

        def building(self, A, Y, hulls):
            built.append((self.stack.state_order[0], message(self, A, Y, hulls)))
            return built[-1][1]

        def assembling(self, messages):
            assembled.append(messages)
            return assemble(self, messages)

        monkeypatch.setattr(filters._Owner, "message", building)
        monkeypatch.setattr(filters._AgentLP, "_assemble", assembling)
        cfg = simharness.ScenarioConfig.from_doc(
            simharness.build_uav_scenario(horizon=4), algorithms=["distributed"]
        )
        x0, steps = replay(cfg)
        system = cfg.system
        ids = system.agent_ids
        flt = DistributedFilter(system, {i: Box(x0.lo[sl], x0.hi[sl]) for i, sl in system.state_slices().items()})
        layout = flt._lp
        holders = [(i, o) for i in ids for o in [i] + system.topology.peers(i)]
        assert len(layout.spans) == len(ids)

        def agent_blocks(lp_):
            lo, hi, D, b_lo, b_hi = lp_
            return [(lo[cols], hi[cols], D[rows, cols], b_lo[rows], b_hi[rows]) for rows, cols in layout.spans]

        for k, batch, _ in steps:
            built.clear()
            assembled.clear()
            flt.step(k, batch)
            assert [o for o, _ in built] == ids
            [messages] = assembled
            assert len(messages) == len(ids) and all(got is sent for got, (_, sent) in zip(messages, built))
            base = agent_blocks(assemble(layout, messages))
            for at, o in enumerate(ids):
                A, (lo, hi, D, b_lo, b_hi) = messages[at]
                changed = list(messages)
                changed[at] = (1.5 * A, (lo - 1.0, hi + 1.0, 2.0 * D, b_lo - 1.0, b_hi + 1.0))
                moved = {i for i, a, b in zip(ids, base, agent_blocks(assemble(layout, changed)))
                         if not all(np.array_equal(x, y) for x, y in zip(a, b))}
                assert moved == {i for i, owner in holders if owner == o}, (k, o)

    @pytest.mark.parametrize(
        "doc, columns",
        [
            (simharness.build_uav_scenario(horizon=30, seed=1), {1: 8, 2: 12, 3: 8, 4: 8, 5: 6}),
            (simharness.build_uav_scenario(horizon=30, seed=9173), {1: 8, 2: 12, 3: 8, 4: 8, 5: 6}),
            (simharness.build_pair1d_scenario(horizon=20, seed=1), {1: 3, 2: 3}),
            (hetero3_doc(), {1: 3, 2: 5, 3: 3}),
        ],
        ids=["uav5-s1", "uav5-s9173", "pair1d", "hetero3"],
    )
    def test_shared_columns_match_the_coupled_oracle(self, doc, columns):
        # every block of an agent LP reads the agent's one set of
        # columns; the coupled form of the same messages, with a copy of
        # them per peer and the rows that tie it, holds the same hull
        cfg = simharness.ScenarioConfig(dict(doc, algorithms=["distributed"]))
        x0, steps = replay(cfg)
        assert len(steps) == cfg.K
        system = cfg.system
        stacks = {o: sysmodel.build_neighborhood(system, o) for o in system.agent_ids}
        flt = DistributedFilter(system, {i: Box(x0.lo[sl], x0.hi[sl]) for i, sl in system.state_slices().items()})
        assert agent_columns(flt) == columns
        for k, batch, _ in steps:
            prev = flt.hulls
            flt.step(k, batch)
            sent = {o: filters._Owner(st).message(*filters._step_entry(st, k, batch), prev) for o, st in stacks.items()}
            for i in system.agent_ids:
                owners = [i] + system.topology.peers(i)
                want, coupled = coupled_refinement(system, i, stacks, [sent[o] for o in owners])
                got = flt.hulls[i]
                for a, b in ((got.lo, want.lo), (got.hi, want.hi)):
                    assert np.all(np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.abs(b))), (k, i)
                # the coupled form's extra columns and rows: a copy of
                # (x_prev, w) and n coupling rows per peer
                a = system.agents[i]
                peers = len(owners) - 1
                cols, rows = flt.lifted_sizes[i]
                assert (coupled.n, coupled.m) == (cols + peers * (a.n + a.p), rows + peers * a.n)

    @pytest.mark.parametrize(
        "doc, columns, custom",
        [
            (simharness.build_uav_scenario(horizon=30, seed=1), {1: 8, 2: 12, 3: 8, 4: 8, 5: 6}, False),
            (simharness.build_uav_scenario(horizon=30, seed=9173), {1: 8, 2: 12, 3: 8, 4: 8, 5: 6}, False),
            (simharness.build_pair1d_scenario(horizon=20, seed=1), {1: 3, 2: 3}, False),
            (hetero3_doc(), {1: 3, 2: 5, 3: 3}, False),
            # agent 3's A(k) from a custom A_of_k that declares no support
            # and couples its axes at odd k only: its two forms meet, so
            # every other block keeps its six columns
            (simharness.build_uav_scenario(horizon=12, seed=1), {1: 14, 2: 28, 3: 8, 4: 20, 5: 6}, True),
        ],
        ids=["uav5-s1", "uav5-s9173", "pair1d", "hetero3", "uav5-custom-A"],
    )
    def test_one_model_matches_a_fresh_model_per_agent(self, doc, columns, custom):
        # the agents' blocks share one HiGHS model, each with its peers
        # reduced to their measured coordinates; each agent's unreduced
        # block, solved as an LP of its own, built afresh from the same
        # messages, holds the same hull to within 1e-9 relative
        cfg = simharness.ScenarioConfig(dict(doc, algorithms=["distributed"]))
        system = cfg.system
        if custom:
            turn = system.agents[3].A_of_k

            def A_of_k(k):
                A = turn(k).copy()
                if k % 2:
                    A[0, 2], A[2, 1] = 0.05, -0.03
                return A

            system.agents[3].A_of_k = A_of_k
        x0, steps = replay(cfg)
        assert len(steps) == cfg.K
        stacks = {o: sysmodel.build_neighborhood(system, o) for o in system.agent_ids}
        flt = DistributedFilter(system, {i: Box(x0.lo[sl], x0.hi[sl]) for i, sl in system.state_slices().items()})
        assert agent_columns(flt) == columns
        for k, batch, _ in steps:
            prev = flt.hulls
            flt.step(k, batch)
            sent = {o: filters._Owner(st).message(*filters._step_entry(st, k, batch), prev) for o, st in stacks.items()}
            for i in system.agent_ids:
                region, C = agent_alone(system, i, stacks, [sent[o] for o in [i] + system.topology.peers(i)])
                assert flt.lifted_sizes[i] == (region.n, region.m)
                want, got = Box(*region.bounds(C)), flt.hulls[i]
                for a, b in ((got.lo, want.lo), (got.hi, want.hi)):
                    assert np.all(np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.abs(b))), (k, i)

    def test_a_support_declared_too_small_is_an_error(self):
        # the custom coupled A(k) above, declared with the coordinated
        # turn's support: the peers' columns would be merged by the wrong
        # support and narrow the distributed set, so the trial raises at
        # the first A(k) that leaves it
        cfg = simharness.ScenarioConfig(simharness.build_uav_scenario(horizon=12, seed=1))
        agent = cfg.system.agents[3]
        turn = agent.A_of_k

        def A_of_k(k):
            A = turn(k).copy()
            if k % 2:
                A[0, 2], A[2, 1] = 0.05, -0.03
            return A

        A_of_k.support = turn.support
        agent.A_of_k = A_of_k
        with pytest.raises(ValueError, match=r"agent 3: A\(1\)\[0, 2\] = 0.05 lies outside the support"):
            simharness.run_trial(cfg, 0, metrics="full")

    @pytest.mark.parametrize(
        "doc", [simharness.build_uav_scenario(horizon=30, seed=1), hetero3_doc()], ids=["uav5", "hetero3"]
    )
    def test_each_agent_lp_holds_its_owners_blocks_and_nothing_else(self, doc):
        # the locality audit in miniature: read back from the one HiGHS
        # model at every step, agent i's block is its owners' messages, in
        # ``owners`` order, their rows in turn: each reads agent i's one set
        # of (x_prev, w) columns as the message does, and each other agent
        # l of the message through its measured coordinates t, the
        # predicted (A_l(k) x_prev + B_l w)_t over l's box in the message:
        # a column of the message's coefficients H_l[:, t], bounded by that
        # range, read by no other message, or, where one row reads it,
        # that row's bounds less its range.  No row of agent i's block
        # reads another agent's column
        cfg = simharness.ScenarioConfig(dict(doc, algorithms=["distributed"]))
        x0, steps = replay(cfg)
        assert len(steps) == cfg.K
        system = cfg.system
        agents = system.agents
        stacks = {o: sysmodel.build_neighborhood(system, o) for o in system.agent_ids}
        flt = DistributedFilter(system, {i: Box(x0.lo[sl], x0.hi[sl]) for i, sl in system.state_slices().items()})

        def near(got, want, outward):  # got holds want, within 1e-12 relative
            slack = outward * (got - want)
            return bool(np.all((slack >= 0) & (slack <= 1e-12 * np.maximum(1.0, np.abs(want)))))

        for k, batch, _ in steps:
            prev = flt.hulls
            flt.step(k, batch)
            sent = {o: filters._Owner(st).message(*filters._step_entry(st, k, batch), prev) for o, st in stacks.items()}
            program, layout = flt._lp.program, flt._lp
            A, b_lo, b_hi = model_rows(program)
            A = A.toarray()
            lo, hi = model_cols(program)
            assert len(layout.spans) == len(system.agent_ids)
            row = col = 0  # the agents' blocks tile the model
            for i, own, (rows_i, cols_i) in zip(system.agent_ids, layout.own, layout.spans, strict=True):
                assert flt._lp.owners[i] == [i] + system.topology.peers(i)
                assert (rows_i.start, cols_i.start) == (row, col), (k, i)
                col = cols_i.stop
                # no row of agent i's block reads another agent's column
                assert not np.any(np.delete(A[rows_i], np.arange(cols_i.start, col), axis=1)), (k, i)
                # agent i's slot first, bounded by its message's last hull and W box
                a = agents[i]
                assert np.array_equal(own, np.arange(cols_i.start, cols_i.start + a.n + a.p))
                slot = agent_slot(system, i, stacks[i])
                assert np.array_equal(lo[own], sent[i][1][0][slot]) and np.array_equal(hi[own], sent[i][1][1][slot])
                peer_cols = []  # per message, the columns it reads besides the slot
                for o in flt._lp.owners[i]:
                    st, (A_o, (col_lo, col_hi, D, y_lo, y_hi)) = stacks[o], sent[o]
                    rows = A[row : row + D.shape[0], cols_i]
                    assert np.array_equal(rows[:, own - cols_i.start], D[:, agent_slot(system, i, st)]), (k, i, o)
                    reads = set((cols_i.start + np.flatnonzero(rows.any(axis=0))).tolist()) - set(own.tolist())
                    peer_cols.append(set(reads))
                    want_lo, want_hi = y_lo.copy(), y_hi.copy()
                    x_at, w_at = 0, st.B.shape[0]
                    for l in st.state_order:
                        xs = np.arange(x_at, x_at + agents[l].n)
                        zs = np.r_[xs, w_at : w_at + agents[l].p]
                        x_at, w_at = x_at + agents[l].n, w_at + agents[l].p
                        if l == i:
                            continue
                        M = np.hstack([A_o[xs][:, xs], st.B[xs][:, zs[agents[l].n :] - st.B.shape[0]]])  # [A_l(k) B_l]
                        p, q = M * col_lo[zs], M * col_hi[zs]
                        s_lo, s_hi = np.minimum(p, q).sum(axis=1), np.maximum(p, q).sum(axis=1)
                        for t in np.flatnonzero((st.H[:, xs] != 0).any(axis=0)):
                            h = st.H[:, xs[t]]
                            if np.count_nonzero(h) == 1:  # folded into its row
                                r = np.flatnonzero(h)[0]
                                want_lo[r] -= max(h[r] * s_lo[t], h[r] * s_hi[t])
                                want_hi[r] -= min(h[r] * s_lo[t], h[r] * s_hi[t])
                                continue
                            [c] = [c for c in reads if np.array_equal(A[row : row + D.shape[0], c], h)]
                            assert near(lo[c], s_lo[t], -1) and near(hi[c], s_hi[t], 1), (k, i, o, l, t)
                            reads.remove(c)
                    assert not reads, (k, i, o)  # every column it reads is a measured coordinate's
                    assert near(b_lo[row : row + D.shape[0]], want_lo, -1), (k, i, o)
                    assert near(b_hi[row : row + D.shape[0]], want_hi, 1), (k, i, o)
                    row += D.shape[0]
                assert row == rows_i.stop
                # the messages share agent i's columns and no other, and
                # every column of agent i's block is the slot's or one
                # message's
                held = sorted(own.tolist() + [c for cols in peer_cols for c in cols])
                assert held == list(range(cols_i.start, col)), (k, i)
            assert (row, col) == (program.m, program.n)

    def test_heterogeneous_agents_run_clean(self):
        # hetero3: agents of one and of two noise inputs, one without an
        # absolute measurement, each agent LP of its own size
        cfg = simharness.ScenarioConfig(hetero3_doc())
        for metrics in ("containment", "full"):
            mc = simharness.run_monte_carlo(cfg, 3, metrics=metrics, workers=1)
            assert mc.violations == 0 and mc.aborts == []
        for log in mc.logs:
            assert all(rec["sizes"]["distributed"] == {"1": [11, 3], "2": [10, 3], "3": [7, 2]} for rec in log.steps)
            assert max(d for *_, d in verify._replay_distributed_deviations(cfg, log)) <= verify._REPLAY_TOL
            assert max(d for *_, d in verify._replay_hull_deviations(cfg, log)) <= verify._REPLAY_TOL

    def test_every_agent_lp_column_is_bounded(self):
        # x_prev in the last hulls and w in its box: the states are
        # substituted out, so the agents' LP has no free column
        cfg = simharness.ScenarioConfig.from_doc(
            simharness.build_uav_scenario(horizon=4), algorithms=["distributed"]
        )
        x0, steps = replay(cfg)
        system = cfg.system
        flt = DistributedFilter(system, {i: Box(x0.lo[sl], x0.hi[sl]) for i, sl in system.state_slices().items()})
        for k, batch, _ in steps:
            region = flt._lp.program
            assert region.n > 0
            assert np.all(np.isfinite(region.lo)) and np.all(np.isfinite(region.hi))
            flt.step(k, batch)

    def test_data_outside_an_inbox_leaves_its_hull_bit_identical(self):
        # no uav5 agent measures agent 5 and 5 is no agent's peer, so y_5
        # reaches agent 5's LP only: perturbed at one step, it moves agent
        # 5's hull and leaves agents 1-4 bit-identical at every step
        cfg = simharness.ScenarioConfig.from_doc(
            simharness.build_uav_scenario(horizon=8), algorithms=["distributed"]
        )
        x0, steps = replay(cfg)
        system = cfg.system
        assert all(5 not in system.topology.nbar(i) for i in system.agent_ids if i != 5)
        ranges = {i: Box(x0.lo[sl], x0.hi[sl]) for i, sl in system.state_slices().items()}
        plain, perturbed = DistributedFilter(system, ranges), DistributedFilter(system, ranges)
        moved = 0
        for k, batch, _ in steps:
            plain.step(k, batch)
            if k == 3:
                y = dict(batch.y)
                y[5] = y[5] + 1e-3
                batch = sysmodel.MeasurementBatch(k, y, batch.z)
            perturbed.step(k, batch)
            for i in (1, 2, 3, 4):
                a, b = plain.hulls[i], perturbed.hulls[i]
                assert a.lo.tolist() == b.lo.tolist() and a.hi.tolist() == b.hi.tolist(), (k, i)
            a, b = plain.hulls[5], perturbed.hulls[5]
            moved += a.lo.tolist() != b.lo.tolist() or a.hi.tolist() != b.hi.tolist()
            if k < 3:
                assert moved == 0
        assert moved > 0

    def test_run_trial_starts_from_the_declared_boxes(self, monkeypatch):
        # sampled uav5 initial boxes, compared bit for bit: a center/radius
        # round trip through from_box would move some endpoints by one ulp
        initial = []
        init = DistributedFilter.__init__

        def recording(self, system, initial_ranges):
            init(self, system, initial_ranges)
            initial.append(dict(self.hulls))

        monkeypatch.setattr(DistributedFilter, "__init__", recording)
        cfg = simharness.ScenarioConfig.from_doc(
            simharness.build_uav_scenario(horizon=1), algorithms=["distributed"]
        )
        for trial in range(40):
            log = simharness.run_trial(cfg, trial, metrics="containment")
            for i, (lo, hi) in log.header["initial"].items():
                hull = initial[-1][int(i)]
                assert hull.lo.tolist() == lo and hull.hi.tolist() == hi

    def test_empty_posterior_reports_agent_and_step(self):
        system = pair_system()
        flt = DistributedFilter(system, pair_ranges())
        with pytest.raises(EmptyPosteriorError) as info:
            flt.step(1, batch_for(system, 1, [40.0, 40.0]))
        assert info.value.k == 1

    def test_empty_model_names_the_first_empty_agent(self):
        # uav5 with noise four times its boxes: at k = 1 the agents' one
        # model is empty, and each abort names the first agent, in id
        # order, whose block alone is empty, as one LP per agent did
        doc = dict(simharness.build_uav_scenario(horizon=12), injected_noise_scale=4.0, noise_grid=None)
        cfg = simharness.ScenarioConfig(dict(doc, algorithms=["distributed"]))
        aborts = [simharness.run_trial(cfg, trial, metrics="containment").aborted for trial in range(3)]
        assert aborts == [{"k": 1, "agent": agent, "reason": "empty posterior"} for agent in (1, 2, 1)]

    def test_lifted_sizes_are_fixed_at_construction(self):
        cfg = simharness.ScenarioConfig.from_doc(
            simharness.build_uav_scenario(horizon=6), algorithms=["distributed"]
        )
        log = simharness.run_trial(cfg, 0, metrics="containment")
        assert log.aborted is None and len(log.steps) == 6
        ids = cfg.system.agent_ids
        flt = DistributedFilter(cfg.system, {i: Box(*log.header["initial"][str(i)]) for i in ids})
        sizes = {str(i): list(size) for i, size in flt.lifted_sizes.items()}
        assert all(rec["sizes"]["distributed"] == sizes for rec in log.steps)


class TestLpLifecycle:
    def test_no_filter_step_constructs_a_linear_program(self, monkeypatch):
        # every LP a filter steps is built with the filter, but for the
        # fixed-lag window, built at the first step past delta_bar; any
        # other step only appends a block or writes numbers in place.  A
        # lifted filter's step only stores its entry, so each step here
        # also brings its LP up (``_posterior``)
        built = {}  # LPs built per phase: "construction", or (filter, step)
        phase = ["construction"]
        init = lp.LinearProgram.__init__

        def counting(self, *args):
            built[phase[0]] = built.get(phase[0], 0) + 1
            init(self, *args)

        monkeypatch.setattr(lp.LinearProgram, "__init__", counting)
        for cls in (CentralizedFilter, OitFilter, DistributedFilter):
            def stepping(self, k, batch, step=cls.step):
                phase[0] = (type(self).__name__, k)
                try:
                    step(self, k, batch)
                    if not isinstance(self, DistributedFilter):
                        self._posterior()
                finally:
                    phase[0] = "construction"

            monkeypatch.setattr(cls, "step", stepping)
        cfg = simharness.ScenarioConfig(simharness.build_uav_scenario(horizon=8))
        assert cfg.delta_bar < 8
        log = simharness.run_trial(cfg, 0, metrics="full")
        assert log.aborted is None and len(log.steps) == 8
        # centralized 1, oit 1 (grown) and then its window, distributed 1
        # for all agents
        assert built == {"construction": 3, ("OitFilter", cfg.delta_bar + 1): 1}


    def test_lifted_lps_are_built_only_when_read(self, monkeypatch):
        # a uav5 horizon-30 containment trial with all filters: a step only
        # stores its entry, and the trajectory is extended and the window
        # built only where a probe reads the LP: at the trajectory's first
        # step and at the window's first
        reading, events = [None], []  # the lifted filter in a call now; (call, filter, step) per call
        for name in ("contains", "hull", "step"):
            def entering(self, *args, method=getattr(filters._LiftedFilter, name), **kwargs):
                outer, reading[0] = reading[0], self
                try:
                    return method(self, *args, **kwargs)
                finally:
                    reading[0] = outer

            monkeypatch.setattr(filters._LiftedFilter, name, entering)
        for owner, name in ((filters, "_window_block"), (filters, "_extend_trajectory"),
                            (lp.LinearProgram, "feasible_at"), (lp.LinearProgram, "satisfied_by")):
            def recording(*args, fn=getattr(owner, name), name=name):
                if reading[0] is not None:
                    events.append((name, type(reading[0]).__name__, reading[0].k))
                return fn(*args)

            monkeypatch.setattr(owner, name, recording)
        cfg = simharness.ScenarioConfig(simharness.build_uav_scenario(horizon=30, seed=1))
        log = simharness.run_trial(cfg, 0, metrics="containment")
        assert log.aborted is None and log.violations == 0 and len(log.steps) == 30
        db = cfg.delta_bar
        built = [event for event in events if event[0] in ("_window_block", "_extend_trajectory")]
        read = {event[1:] for event in events if event[0] in ("feasible_at", "satisfied_by")}
        assert built == [
            ("_extend_trajectory", "CentralizedFilter", 1),
            ("_window_block", "OitFilter", db + 1),
        ]
        assert all(event[1:] in read for event in built)

    def test_a_window_checks_the_solvers_point_on_its_entries(self, monkeypatch):
        # uav5 at horizon 30, containment, seed 1, trials 0-2: the point of
        # the first window's probe, carried a step, is checked by
        # ``_admits`` on the window's entries, so each trial builds the
        # window once and never reloads it; the only reloads left are the
        # agents' LP's, one per step.  The trajectory's probe point is
        # checked on the LP it came from, so the trajectory is extended
        # once, for that probe
        calls = []
        for owner, name in ((filters, "_window_block"), (filters, "_extend_trajectory"),
                            (lp.LinearProgram, "replace")):
            def recording(*args, fn=getattr(owner, name), name=name):
                calls.append(name)
                return fn(*args)

            monkeypatch.setattr(owner, name, recording)
        cfg = simharness.ScenarioConfig(simharness.build_uav_scenario(horizon=30, seed=1))
        for trial in range(3):
            calls.clear()
            log = simharness.run_trial(cfg, trial, metrics="containment")
            assert log.aborted is None and log.violations == 0 and len(log.steps) == 30
            counts = {name: calls.count(name) for name in ("_window_block", "_extend_trajectory", "replace")}
            assert counts == {"_window_block": 1, "_extend_trajectory": 1, "replace": 30}, trial

    @pytest.mark.parametrize("metrics", ["full", "containment"])
    def test_oit_beside_centralized_builds_no_trajectory_block(self, monkeypatch, metrics):
        # inside the window oit's records are centralized's, so its own
        # trajectory LP is never read, and never grown
        extended = []
        extend = filters._extend_trajectory

        def recording(region, *args):
            extended.append(region)
            return extend(region, *args)

        monkeypatch.setattr(filters, "_extend_trajectory", recording)
        created = []
        init = OitFilter.__init__

        def keeping(self, *args):
            init(self, *args)
            created.append(self)

        monkeypatch.setattr(OitFilter, "__init__", keeping)
        cfg = simharness.ScenarioConfig(simharness.build_uav_scenario(horizon=8, seed=1))
        log = simharness.run_trial(cfg, 0, metrics=metrics)
        assert log.aborted is None and len(log.steps) == 8 > cfg.delta_bar
        [oit] = created
        assert extended and all(region is not oit._post for region in extended)
        assert oit._post.n == oit.lifted_size[0]  # the window, whose grown LP had no step block


def filter_lps(flt):
    """The LinearPrograms of a filter."""
    if isinstance(flt, DistributedFilter):
        return [flt._lp.program]
    return [flt._posterior()]  # brought up to the last step; past delta_bar the grown LP is dropped


def each_lp(filters_, visit):
    """Call ``visit`` once on every LP of the filters: on those built with
    them now, and on each that a step brings up anew (the fixed-lag window,
    at the first step past delta_bar) right after that step."""
    seen = set()

    def visit_new(flt):
        for region in filter_lps(flt):
            if id(region) not in seen:
                seen.add(id(region))
                visit(region)

    for flt in filters_.values():
        visit_new(flt)

        def stepping(k, batch, flt=flt, step=flt.step):
            step(k, batch)
            visit_new(flt)

        flt.step = stepping


def three_filters(cfg, x0, row_by_row=False):
    """The three filters of ``cfg`` from the initial box x0, each LP's
    ``bounds`` the row-by-row oracle (``bounds_row_by_row``) when
    ``row_by_row``."""
    system = cfg.system
    ranges = {i: Box(x0.lo[sl], x0.hi[sl]) for i, sl in system.state_slices().items()}
    filters_ = {
        "centralized": CentralizedFilter(system, x0),
        "oit": OitFilter(system, x0, cfg.delta_bar),
        "distributed": DistributedFilter(system, ranges),
    }
    if row_by_row:
        def oracle(region):
            region.bounds = lambda C: bounds_row_by_row(region, C)

        each_lp(filters_, oracle)
    return filters_


class _Runs:
    """A HiGHS model that counts its runs."""

    def __init__(self, model):
        self._model = model
        self.runs = 0

    def __getattr__(self, name):
        return getattr(self._model, name)

    def run(self):
        self.runs += 1
        return self._model.run()


class TestBlocks:
    """Each filter LP bounds the rows of a hull that read different blocks
    of it in one solve: uav5's x and y axes are two blocks, pair1d and
    hetero3 one."""

    @pytest.mark.parametrize(
        "doc, blocks",
        [
            (simharness.build_uav_scenario(horizon=6, seed=1), 2),
            (simharness.build_pair1d_scenario(horizon=6, seed=1), 1),
            (hetero3_doc(), 1),
        ],
        ids=["uav5", "pair1d", "hetero3"],
    )
    def test_blocks_per_filter_lp(self, doc, blocks):
        # each hull makes 2 x rows / blocks HiGHS runs: a minimum and a
        # maximum per batch, every batch one row of each block.  The
        # agents' blocks of the distributed LP are independent, so its
        # hull, every agent's n rows at once, makes 2 x n / blocks runs,
        # as one agent's hull alone
        cfg = simharness.ScenarioConfig(dict(doc, K=6))
        x0, steps = replay(cfg)
        filters_ = three_filters(cfg, x0)
        agents = cfg.system.agents
        [n] = {agents[i].n for i in cfg.system.agent_ids}
        distributed = filters_["distributed"]._lp.program
        hulls = []  # (rows, runs) per bounds call, rows n for the distributed LP

        def count(region):
            [model] = wrap_models(region, _Runs)

            def counting(C, bounds=region.bounds):
                before = model.runs
                lo_hi = bounds(C)
                hulls.append((n if region is distributed else len(C), model.runs - before))
                return lo_hi

            region.bounds = counting

        each_lp(filters_, count)
        assert cfg.delta_bar < len(steps)
        for k, batch, _ in steps:
            for flt in filters_.values():
                flt.step(k, batch)
                if not isinstance(flt, DistributedFilter):
                    flt.hull()
        assert len(hulls) == len(steps) * 3
        assert all(runs == 2 * rows // blocks for rows, runs in hulls), hulls

    def test_each_agent_lp_plans_its_batches_once(self, monkeypatch):
        # a 10-step uav5 distributed trial: the agents' LP's hull rows keep
        # their nonzero pattern and its reloads their row pattern, so its
        # batches are planned (its blocks read) at its first hull only
        plans, hulls = {}, {}
        blocks, bounds = lp.LinearProgram._blocks, lp.LinearProgram.bounds

        def planning(self):
            plans[id(self)] = plans.get(id(self), 0) + 1
            return blocks(self)

        def bounding(self, C):
            hulls[id(self)] = hulls.get(id(self), 0) + 1
            return bounds(self, C)

        monkeypatch.setattr(lp.LinearProgram, "_blocks", planning)
        monkeypatch.setattr(lp.LinearProgram, "bounds", bounding)
        cfg = simharness.ScenarioConfig.from_doc(simharness.build_uav_scenario(horizon=10), algorithms=["distributed"])
        log = simharness.run_trial(cfg, 0, metrics="containment")
        assert log.aborted is None and len(log.steps) == 10
        assert list(hulls.values()) == [10]  # one LP, one hull per step
        assert plans == dict.fromkeys(hulls, 1)

    @pytest.mark.parametrize("seed", [1, 9173])
    def test_batched_matches_row_by_row(self, seed):
        # every hull endpoint within 1e-9 relative and every contained
        # flag as the row-by-row oracle finds them, horizon 30, full
        cfg = simharness.ScenarioConfig(simharness.build_uav_scenario(horizon=30, seed=seed))
        x0, steps = replay(cfg)
        assert len(steps) == cfg.K == 30
        system = cfg.system
        ids, slices = system.agent_ids, system.state_slices()
        batched, oracle = three_filters(cfg, x0), three_filters(cfg, x0, row_by_row=True)
        for k, batch, truth in steps:
            for alg in batched:
                recs = []
                for filters_ in (batched, oracle):
                    filters_[alg].step(k, batch)
                    recs.append(simharness._step_metrics(alg, filters_[alg], ids, truth, slices, "full"))
                got, want = recs
                for i in map(str, ids):
                    assert got[i]["contained"] == want[i]["contained"], (k, alg, i)
                    for a, b in zip(got[i]["hull"], want[i]["hull"]):
                        a, b = np.array(a), np.array(b)
                        assert np.all(np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.abs(b))), (k, alg, i)
        assert oracle["oit"]._post.n < oracle["centralized"]._post.n  # the window was compared too
        assert "bounds" in vars(oracle["oit"]._post)
