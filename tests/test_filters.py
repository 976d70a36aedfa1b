"""Filter recursions: hand-checked updates, window behavior, refinement."""

import numpy as np
import pytest
from scipy import sparse

from czest import czono, filters, lp, simharness, sysmodel, verify
from czest.czono import Box
from czest.filters import (
    CentralizedFilter,
    DistributedFilter,
    EmptyPosteriorError,
    OitFilter,
    WindowTooShortError,
)


def interval(lo, hi):
    return czono.from_box(Box([lo], [hi]))


def pair_x0():
    """The pair1d initial box used throughout: x1 in [-2, 2], x2 in [-1, 3]."""
    return Box([-2.0, -1.0], [2.0, 3.0])


def pair_ranges():
    """``pair_x0`` per agent."""
    return {1: Box([-2.0], [2.0]), 2: Box([-1.0], [3.0])}


def assert_same_cz(a, b):
    for name in ("G", "c", "A", "b", "h"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def pair_system():
    doc = simharness.build_pair1d_scenario()
    return sysmodel.system_from_dict(doc)


def batch_for(system, k, x, v_val=0.0, r_val=0.0):
    v = {i: np.array([v_val]) for i in system.agent_ids}
    r = {
        (i, j): np.array([r_val])
        for i in system.agent_ids
        for j in system.topology.in_neighbors(i)
    }
    return sysmodel.measure(system, k, np.asarray(x, dtype=float), v, r)


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
            lambda system, Z: OitFilter(system, Z, delta_bar=2, mu0=1),
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
            v = {i: rng.uniform(-1, 1, 1) for i in (1, 2)}
            r = {(1, 2): rng.uniform(-1, 1, 1), (2, 1): rng.uniform(-1, 1, 1)}
            flt.step(k, sysmodel.measure(system, k, x, v, r))
            assert czono.contains(flt.posterior, x)
            hull = czono.interval_hull(flt.agent_set(1))
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
        flt.step(1, batch_for(system, 1, [0.0, 1.0]))
        region = flt._traj.program
        # columns x_0, w, x_1, v; v rows in layout order y_1, y_2, z_12, z_21
        for cols, boxes in ((slice(2, 4), w), (slice(6, 10), v + r)):
            assert region.lo[cols].tolist() == [lo for lo, _ in boxes]
            assert region.hi[cols].tolist() == [hi for _, hi in boxes]

    def test_inconsistent_measurement_empties(self):
        system = pair_system()
        flt = CentralizedFilter(system, pair_x0())
        batch = batch_for(system, 1, [50.0, 50.0])
        with pytest.raises((EmptyPosteriorError, czono.EmptySetError)):
            flt.step(1, batch)
            czono.interval_hull(flt.posterior)


class TestOit:
    def test_window_too_short_rejected(self):
        system = pair_system()
        with pytest.raises(WindowTooShortError):
            OitFilter(system, pair_x0(), delta_bar=-1, mu0=1)

    def test_matches_centralized_inside_window(self):
        system = pair_system()
        x0 = pair_x0()
        cent = CentralizedFilter(system, x0)
        oit = OitFilter(system, x0, delta_bar=10, mu0=1)
        rng = np.random.default_rng(1)
        x = np.array([0.0, 1.0])
        for k in range(1, 6):
            x = sysmodel.step_truth(system, k - 1, x, rng.uniform(-1, 1, 2))
            v = {i: rng.uniform(-1, 1, 1) for i in (1, 2)}
            r = {(1, 2): rng.uniform(-1, 1, 1), (2, 1): rng.uniform(-1, 1, 1)}
            batch = sysmodel.measure(system, k, x, v, r)
            cent.step(k, batch)
            oit.step(k, batch)
            assert_same_cz(oit.posterior, cent.posterior)

    def test_bounded_representation_past_window(self):
        system = pair_system()
        oit = OitFilter(system, pair_x0(), delta_bar=2, mu0=1)
        rng = np.random.default_rng(2)
        sizes = []
        x = np.array([0.0, 1.0])
        for k in range(1, 12):
            x = sysmodel.step_truth(system, k - 1, x, rng.uniform(-1, 1, 2))
            v = {i: rng.uniform(-1, 1, 1) for i in (1, 2)}
            r = {(1, 2): rng.uniform(-1, 1, 1), (2, 1): rng.uniform(-1, 1, 1)}
            oit.step(k, sysmodel.measure(system, k, x, v, r))
            sizes.append((oit.posterior.n_generators, oit.posterior.n_constraints))
            assert czono.contains(oit.posterior, x)
        past = sizes[2:]
        assert len(set(past)) == 1, past

    @pytest.mark.parametrize(
        "scenario, horizon",
        [(simharness.build_uav_scenario, 9), (simharness.build_pair1d_scenario, 8)],
        ids=["uav5", "pair1d"],
    )
    def test_in_place_window_matches_fresh_build(self, monkeypatch, scenario, horizon):
        # a logged trial replayed: past delta_bar + 1 the window LP,
        # rewritten in place, against one built afresh from the same window
        cfg = simharness.ScenarioConfig.from_doc(scenario(horizon=horizon), algorithms=["oit"])
        log = simharness.run_trial(cfg, 0, metrics="containment")
        system, db = cfg.system, cfg.delta_bar
        assert log.aborted is None and len(log.steps) == horizon >= db + 3
        initial = [log.header["initial"][str(i)] for i in system.agent_ids]
        x0_box = Box(np.concatenate([lo for lo, _ in initial]), np.concatenate([hi for _, hi in initial]))
        built, written = [], []
        init, set_coefficients = lp.LinearProgram.__init__, lp.LinearProgram.set_coefficients

        def counting(self, *args):
            built.append(self)
            init(self, *args)

        def recording(self, rows, cols, values):
            written.append(len(values))
            set_coefficients(self, rows, cols, values)

        monkeypatch.setattr(lp.LinearProgram, "__init__", counting)
        monkeypatch.setattr(lp.LinearProgram, "set_coefficients", recording)
        flt = OitFilter(system, x0_box, db, mu0=cfg.mu0)
        stack = sysmodel.build_centralized(system)
        entries, window_builds = [], 0
        for k, rec in enumerate(log.steps, 1):
            batch = sysmodel.MeasurementBatch.from_dict(rec)
            entries.append(filters._step_entry(stack, k, batch))
            built.clear()
            flt.step(k, batch)
            if k <= db:
                continue
            window_builds += len(built)
            if k == db + 1:
                written.clear()
                continue
            (_, Y0), *rest = entries[-(db + 1):]
            fresh = filters._TrajectoryLP(stack, None, Y0)
            for e in rest:
                fresh.extend(*e)
            region = flt._traj.program
            assert (region.n, region.m) == (fresh.program.n, fresh.program.m)
            assert np.array_equal(region.lo, fresh.program.lo)
            assert np.array_equal(region.hi, fresh.program.hi)
            assert_same_cz(flt.posterior, fresh.lifted())
            got, want = flt.hull(), fresh.hull()
            for a, b in ((got.lo, want.lo), (got.hi, want.hi)):
                assert np.all(np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.abs(b)))
            truth = np.array(rec["truth"])
            assert flt.contains(truth) and fresh.contains_final(truth)
        assert window_builds == 1
        if scenario is simharness.build_uav_scenario:
            # the coordinated turn's A changes with k, so coefficients were rewritten
            assert sum(written) > 0
        else:
            # pair1d's A is constant: the rewrite writes measurements only
            assert written and sum(written) == 0

    def test_oit_never_tighter_than_centralized(self):
        system = pair_system()
        x0 = pair_x0()
        cent = CentralizedFilter(system, x0)
        oit = OitFilter(system, x0, delta_bar=2, mu0=1)
        rng = np.random.default_rng(3)
        x = np.array([0.0, 1.0])
        for k in range(1, 10):
            x = sysmodel.step_truth(system, k - 1, x, rng.uniform(-1, 1, 2))
            v = {i: rng.uniform(-1, 1, 1) for i in (1, 2)}
            r = {(1, 2): rng.uniform(-1, 1, 1), (2, 1): rng.uniform(-1, 1, 1)}
            batch = sysmodel.measure(system, k, x, v, r)
            cent.step(k, batch)
            oit.step(k, batch)
            hc = czono.interval_hull(cent.posterior)
            ho = czono.interval_hull(oit.posterior)
            assert np.all(hc.lo >= ho.lo - 1e-9)
            assert np.all(hc.hi <= ho.hi + 1e-9)


class TestPinnedFeasible:
    def test_bounds_restored_after_solver_error(self, monkeypatch):
        region = lp.LinearProgram([[1.0, 1.0, 1.0]], [1.0], np.zeros(3), np.ones(3))

        def failing(self):
            raise lp.NumericalError("HiGHS model status: Solve error")

        monkeypatch.setattr(lp.LinearProgram, "_run", failing)
        with pytest.raises(lp.NumericalError):
            filters._pinned_feasible(region, [0, 1], [0.2, 0.3])
        model = region._highs.getLp()
        for lo, hi in ((region.lo, region.hi), (model.col_lower_, model.col_upper_)):
            assert list(lo) == [0.0, 0.0, 0.0] and list(hi) == [1.0, 1.0, 1.0]
        monkeypatch.undo()
        assert filters._pinned_feasible(region, [0, 1], [0.2, 0.3])
        assert not filters._pinned_feasible(region, [0, 1], [0.8, 0.9])


def refined_contains(refinement, x):
    """Membership in a lifted refinement, pinned through its own columns."""
    region, cols = refinement
    return filters._pinned_feasible(region, cols, x)


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
        hull = filters._lp_hull(region, cols)
        assert hull.lo[0] == pytest.approx(1.0)
        assert hull.hi[0] == pytest.approx(2.0)
        assert len(cols) == 1


class TestLpHull:
    """``_lp_hull`` solves all minima, then all maxima, on one model; each
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

    @pytest.mark.parametrize("fmt", [np.asarray, sparse.csr_matrix], ids=["dense", "sparse"])
    def test_matches_fresh_bounds(self, fmt):
        rng = np.random.default_rng(67)
        seen = {"finite": 0, "inf": 0, "empty": 0}
        for _ in range(60):
            A, b, lo, hi = self._region(rng)
            n = A.shape[1]
            cols = rng.permutation(n)[: int(rng.integers(1, n + 1))]
            want = []
            for sense in ("min", "max"):
                for j in cols:
                    res = lp.lp_solve(np.eye(n)[j], A, b, lo, hi, sense=sense)
                    want.append(res)
            region = lp.LinearProgram(fmt(A), b, lo, hi)
            if want[0].status == lp.INFEASIBLE:
                with pytest.raises(czono.EmptySetError):
                    filters._lp_hull(region, cols)
                seen["empty"] += 1
                continue
            hull = filters._lp_hull(region, cols)
            got = np.concatenate([hull.lo, hull.hi])
            for g, w in zip(got, want):
                if w.status == lp.UNBOUNDED:
                    assert np.isinf(g)
                    seen["inf"] += 1
                else:
                    assert w.status == lp.OPTIMAL
                    assert abs(g - w.value) <= 1e-9 * max(1.0, abs(w.value))
                    seen["finite"] += 1
        assert all(v > 0 for v in seen.values()), seen


class TestDistributed:
    def test_posteriors_contain_truth(self):
        system = pair_system()
        flt = DistributedFilter(system, pair_ranges())
        rng = np.random.default_rng(6)
        x = np.array([0.5, 1.5])
        for k in range(1, 6):
            x = sysmodel.step_truth(system, k - 1, x, rng.uniform(-1, 1, 2))
            v = {i: rng.uniform(-1, 1, 1) for i in (1, 2)}
            r = {(1, 2): rng.uniform(-1, 1, 1), (2, 1): rng.uniform(-1, 1, 1)}
            flt.step(k, sysmodel.measure(system, k, x, v, r))
            for i in (1, 2):
                hull = flt.hulls[i]
                assert hull.lo[0] - 1e-9 <= x[i - 1] <= hull.hi[0] + 1e-9

    def test_posterior_is_box_reencoding(self):
        system = pair_system()
        flt = DistributedFilter(system, pair_ranges())
        flt.step(1, batch_for(system, 1, [0.0, 1.0]))
        for i in (1, 2):
            post = flt.agent_set(i)
            assert post.n_constraints == 0
            assert post.n_generators <= 1

    def test_distributed_contains_centralized(self):
        system = pair_system()
        cent = CentralizedFilter(system, pair_x0())
        dist = DistributedFilter(system, pair_ranges())
        rng = np.random.default_rng(7)
        x = np.array([0.0, 1.0])
        for k in range(1, 6):
            x = sysmodel.step_truth(system, k - 1, x, rng.uniform(-1, 1, 2))
            v = {i: rng.uniform(-1, 1, 1) for i in (1, 2)}
            r = {(1, 2): rng.uniform(-1, 1, 1), (2, 1): rng.uniform(-1, 1, 1)}
            batch = sysmodel.measure(system, k, x, v, r)
            cent.step(k, batch)
            dist.step(k, batch)
            for i in (1, 2):
                hc = czono.interval_hull(cent.agent_set(i))
                hd = dist.hulls[i]
                assert hc.lo[0] >= hd.lo[0] - 1e-9
                assert hc.hi[0] <= hd.hi[0] + 1e-9

    def test_in_place_update_matches_fresh_build(self, monkeypatch):
        # a logged uav5 trial replayed: at each k >= 2 every agent's LP,
        # changed in place, against one built afresh from the same hulls
        written = []
        set_coefficients = lp.LinearProgram.set_coefficients

        def recording(self, rows, cols, values):
            written.append(len(values))
            set_coefficients(self, rows, cols, values)

        monkeypatch.setattr(lp.LinearProgram, "set_coefficients", recording)
        cfg = simharness.ScenarioConfig.from_doc(
            simharness.build_uav_scenario(horizon=6), algorithms=["distributed"]
        )
        log = simharness.run_trial(cfg, 0, metrics="containment")
        assert log.aborted is None and len(log.steps) == 6
        system = cfg.system
        ids = system.agent_ids
        flt = DistributedFilter(system, {i: Box(*log.header["initial"][str(i)]) for i in ids})
        stacks = {o: sysmodel.build_neighborhood(system, o) for o in ids}
        written.clear()
        for k, rec in enumerate(log.steps, 1):
            batch = sysmodel.MeasurementBatch.from_dict(rec)
            prev = flt.hulls
            flt.step(k, batch)
            if k < 2:
                continue
            entries = {o: filters._step_entry(st, k, batch) for o, st in stacks.items()}
            for i in ids:
                grown = flt._lps[i].program
                fresh = filters._AgentLP(system, i, stacks, entries, prev)
                assert (grown.n, grown.m) == (fresh.program.n, fresh.program.m)
                assert np.array_equal(grown.lo, fresh.program.lo)
                assert np.array_equal(grown.hi, fresh.program.hi)
                got, want = flt.hulls[i], fresh.hull()
                for a, b in ((got.lo, want.lo), (got.hi, want.hi)):
                    assert np.all(np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.abs(b)))
        # the coordinated turn's A changes with k, so coefficients were rewritten
        assert sum(written) > 0

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
