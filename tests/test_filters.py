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
from lp_rows import bounds_row_by_row, model_rows, wrap_models


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

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["nominal", "injected-fault"])
    def test_coupling_rows(self, monkeypatch, sign):
        # x_own - sign * x_peer = 0, one dense row per own column
        monkeypatch.setattr(filters, "_COUPLING_SIGN", sign)
        want = np.zeros((2, 7))
        want[[0, 1], [1, 2]] = 1.0
        want[[0, 1], [5, 0]] = -sign
        assert np.array_equal(verify.coupling_rows(7, [1, 2], [5, 0]), want)


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
        region = flt._traj
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
            assert_same_lp(oit._traj, cent._traj)

    def test_window_of_one_state_carries_the_witness(self):
        # pair1d's observability index is 1, so delta_bar = 0 is valid: the
        # window is (x_a, x_k) with x_a = x_k, and the k = 0 probe's point
        # carried to k = 1 is (x, x)
        system = pair_system()
        oit = OitFilter(system, pair_x0(), delta_bar=0)
        x = np.array([0.5, 1.0])
        assert oit.contains(x)
        x = sysmodel.step_truth(system, 0, x, np.zeros(2))
        oit.step(1, batch_for(system, 1, x))
        region = oit._post
        assert region is oit._window_lp
        assert oit.contains(x) == region.feasible_at(final_cols(region, x.size), x)
        assert oit._witness[0] == 1 and oit._witness[3] is not None  # the carried point passed its check

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
        assert oit._window_lp is None and oit.lifted_size == (oit._traj.n, oit._traj.m)

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
        # and on nominal noise every step after the first is the witness's
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
                witness = flt._witness
                witnessed += witness is not None and witness[0] == k and witness[3] is not None
                falses += not got
                # listing every coordinate asks the pinned probe alone
                assert got == flt.contains(truth, state), (k, flt)
        if nominal:
            assert falses == 0
            assert witnessed == len(flts) * (cfg.K - 1)
        else:
            assert falses > 0

    @pytest.mark.parametrize("where", ["first-block", "last-block"])
    def test_corrupted_row_rejects_the_witness(self, monkeypatch, where):
        # a dynamics coefficient changed by 1e-6 at k = 5 by reloading the
        # LP, in rows the witness was already checked against or in the
        # ones just appended: the check reads it from the model, fails, and
        # the LP decides
        cfg = simharness.ScenarioConfig(simharness.build_uav_scenario(horizon=8, seed=1))
        x0, steps = replay(cfg)
        flt = CentralizedFilter(cfg.system, x0)
        checks, probes = [], []
        satisfied_by, feasible_at = lp.LinearProgram.satisfied_by, lp.LinearProgram.feasible_at

        def checking(self, x, first_row=0):
            checks.append(satisfied_by(self, x, first_row))
            return checks[-1]

        def probing(self, cols, x):
            probes.append(cols)
            return feasible_at(self, cols, x)

        monkeypatch.setattr(lp.LinearProgram, "satisfied_by", checking)
        monkeypatch.setattr(lp.LinearProgram, "feasible_at", probing)
        for k, batch, truth in steps:
            flt.step(k, batch)
            region = flt._traj
            if k == 5:
                # the first dynamics row of step 1 or of step 5
                row = 0 if where == "first-block" else region.m - truth.size - flt._stack.H.shape[0]
                A, b_lo, b_hi = model_rows(region)
                A = A.toarray()
                A[row, np.flatnonzero(A[row])[0]] += 1e-6
                region.replace(region.lo, region.hi, A, b_lo, b_hi)
            checks.clear()
            probes.clear()
            got = flt.contains(truth)
            checked, probed = list(checks), len(probes)
            assert got == feasible_at(region, final_cols(region, truth.size), truth)
            if k == 1:
                assert checked == [] and probed == 1
            elif k == 5:
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


def coupled_refinement(system, i, stacks, messages):
    """Test-only oracle: agent i's refinement of one step in the coupled
    form, from the same ``messages`` as ``filters._AgentLP``: every owner's
    block has its own copy of agent i's (x_prev, w) columns, and rows tie
    each peer's copy to agent i's own through the state A_i x_prev + B_i w.
    Returns (its hull, the LP)."""
    agents = system.agents
    n, p = agents[i].n, agents[i].p
    M = np.hstack([messages[0][0][:n, :n], agents[i].B])  # [A_i(k) B_i]; i leads N̄_i
    lo, hi, rows, b_lo, b_hi, own = [], [], [], [], [], []
    col = 0
    for o, (_, HA, (y_lo, y_hi), (x_lo, x_hi)) in zip([i] + system.topology.peers(i), messages, strict=True):
        st = stacks[o]
        nx = st.B.shape[0]
        before = st.state_order[: st.state_order.index(i)]
        x_at, w_at = col + sum(agents[l].n for l in before), col + nx + sum(agents[l].p for l in before)
        own.append(np.r_[x_at : x_at + n, w_at : w_at + p])
        rows.append(np.hstack([HA, st.H @ st.B]))
        lo += [x_lo, st.Wset.lo]
        hi += [x_hi, st.Wset.hi]
        b_lo.append(y_lo)
        b_hi.append(y_hi)
        col += nx + st.B.shape[1]
    region = filters._region(
        np.concatenate(lo), np.concatenate(hi), czono._blockdiag(*rows), np.concatenate(b_lo), np.concatenate(b_hi)
    )
    for copy in own[1:]:
        region.extend([], [], M @ verify.coupling_rows(col, own[0], copy), np.zeros(n), np.zeros(n))
    C = np.zeros((n, col))
    C[:, own[0]] = M
    return Box(*region.bounds(C)), region


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
        # a logged uav5 trial replayed: at each k every agent's LP,
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
        for k, rec in enumerate(log.steps, 1):
            batch = sysmodel.MeasurementBatch.from_dict(rec)
            prev = flt.hulls
            reloaded.clear()
            flt.step(k, batch)
            # one reload of each agent LP per step
            assert sorted(map(id, reloaded)) == sorted(id(flt._lps[i].program) for i in ids)
            for i in ids:
                owners = [i] + system.topology.peers(i)
                fresh = filters._AgentLP(system, i, stacks, [
                    filters._message(stacks[o], *filters._step_entry(stacks[o], k, batch), prev) for o in owners
                ])
                assert_same_lp(flt._lps[i].program, fresh.program)
                got, want = flt.hulls[i], fresh.hull()
                for a, b in ((got.lo, want.lo), (got.hi, want.hi)):
                    assert np.all(np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.abs(b)))

    def test_each_owner_message_is_built_once_and_sent_to_its_holders(self, monkeypatch):
        # uav5: every step builds one message per owner, and each agent
        # LP's update receives exactly the messages of [i] + peers(i), in
        # that order
        built, received = [], []
        message, update = filters._message, filters._AgentLP.update

        def building(stack, A, Y, hulls):
            built.append((stack.state_order[0], message(stack, A, Y, hulls)))
            return built[-1][1]

        def receiving(self, messages):
            received.append((self.owners[0], messages))
            update(self, messages)

        monkeypatch.setattr(filters, "_message", building)
        monkeypatch.setattr(filters._AgentLP, "update", receiving)
        cfg = simharness.ScenarioConfig.from_doc(
            simharness.build_uav_scenario(horizon=4), algorithms=["distributed"]
        )
        x0, steps = replay(cfg)
        system = cfg.system
        ids = system.agent_ids
        flt = DistributedFilter(system, {i: Box(x0.lo[sl], x0.hi[sl]) for i, sl in system.state_slices().items()})
        for k, batch, _ in steps:
            built.clear()
            received.clear()
            flt.step(k, batch)
            assert [o for o, _ in built] == ids
            sent = dict(built)
            assert [i for i, _ in received] == ids
            for i, messages in received:
                owners = [i] + system.topology.peers(i)
                assert len(messages) == len(owners)
                assert all(m is sent[o] for m, o in zip(messages, owners))

    @pytest.mark.parametrize(
        "doc",
        [
            simharness.build_uav_scenario(horizon=30, seed=1),
            simharness.build_uav_scenario(horizon=30, seed=9173),
            simharness.build_pair1d_scenario(horizon=20, seed=1),
            hetero3_doc(),
        ],
        ids=["uav5-s1", "uav5-s9173", "pair1d", "hetero3"],
    )
    def test_shared_columns_match_the_coupled_oracle(self, doc):
        # every block of an agent LP reads the agent's one set of
        # columns; the coupled form of the same messages, with a copy of
        # them per peer and the rows that tie it, holds the same hull
        cfg = simharness.ScenarioConfig(dict(doc, algorithms=["distributed"]))
        x0, steps = replay(cfg)
        assert len(steps) == cfg.K
        system = cfg.system
        stacks = {o: sysmodel.build_neighborhood(system, o) for o in system.agent_ids}
        flt = DistributedFilter(system, {i: Box(x0.lo[sl], x0.hi[sl]) for i, sl in system.state_slices().items()})
        for k, batch, _ in steps:
            prev = flt.hulls
            flt.step(k, batch)
            sent = {o: filters._message(st, *filters._step_entry(st, k, batch), prev) for o, st in stacks.items()}
            for i, m in flt._lps.items():
                want, coupled = coupled_refinement(system, i, stacks, [sent[o] for o in m.owners])
                got = flt.hulls[i]
                for a, b in ((got.lo, want.lo), (got.hi, want.hi)):
                    assert np.all(np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.abs(b))), (k, i)
                # the coupled form's extra columns and rows: a copy of
                # (x_prev, w) and n coupling rows per peer
                a = system.agents[i]
                peers = len(m.owners) - 1
                assert (coupled.n, coupled.m) == (m.program.n + peers * (a.n + a.p), m.program.m + peers * a.n)

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
        # substituted out, so no agent LP has a free column
        cfg = simharness.ScenarioConfig.from_doc(
            simharness.build_uav_scenario(horizon=4), algorithms=["distributed"]
        )
        x0, steps = replay(cfg)
        system = cfg.system
        flt = DistributedFilter(system, {i: Box(x0.lo[sl], x0.hi[sl]) for i, sl in system.state_slices().items()})
        for k, batch, _ in steps:
            for m in flt._lps.values():
                region = m.program
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
        # other step only appends a block or writes numbers in place
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
                finally:
                    phase[0] = "construction"

            monkeypatch.setattr(cls, "step", stepping)
        cfg = simharness.ScenarioConfig(simharness.build_uav_scenario(horizon=8))
        assert cfg.delta_bar < 8
        log = simharness.run_trial(cfg, 0, metrics="full")
        assert log.aborted is None and len(log.steps) == 8
        # centralized 1, oit 1 (grown) and then its window, distributed 1 per agent
        n = len(cfg.system.agent_ids)
        assert built == {"construction": 2 + n, ("OitFilter", cfg.delta_bar + 1): 1}


def filter_lps(flt):
    """The LinearPrograms of a filter."""
    if isinstance(flt, DistributedFilter):
        return [m.program for m in flt._lps.values()]
    if isinstance(flt, OitFilter):  # past delta_bar the grown LP is dropped
        return [region for region in (flt._traj, flt._window_lp) if region is not None]
    return [flt._traj]


def each_lp(filters_, visit):
    """Call ``visit`` once on every LP of the filters: on those built with
    them now, and on each built by a step (the fixed-lag window, at the
    first step past delta_bar) right after that step."""
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
        # maximum per batch, every batch one row of each block
        cfg = simharness.ScenarioConfig(dict(doc, K=6))
        x0, steps = replay(cfg)
        filters_ = three_filters(cfg, x0)
        hulls = []  # (rows, runs) per bounds call

        def count(region):
            [model] = wrap_models(region, _Runs)

            def counting(C, bounds=region.bounds):
                before = model.runs
                lo_hi = bounds(C)
                hulls.append((len(C), model.runs - before))
                return lo_hi

            region.bounds = counting

        each_lp(filters_, count)
        assert cfg.delta_bar < len(steps)
        for k, batch, _ in steps:
            for flt in filters_.values():
                flt.step(k, batch)
                if not isinstance(flt, DistributedFilter):
                    flt.hull()
        assert len(hulls) == len(steps) * (2 + len(cfg.system.agent_ids))
        assert all(runs == 2 * rows // blocks for rows, runs in hulls), hulls

    def test_each_agent_lp_plans_its_batches_once(self, monkeypatch):
        # a 10-step uav5 distributed trial: each agent LP's hull rows keep
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
        assert sorted(hulls.values()) == [10] * len(cfg.system.agent_ids)
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
        assert "bounds" in vars(oracle["oit"]._window_lp)  # the window was compared too
