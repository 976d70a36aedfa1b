"""Simulation harness: determinism, backends, persistence, noise handling."""

import json
import os

import numpy as np
import pytest
from scipy.optimize._highspy import _core as _highs

from czest import czono, filters, lp, simharness, sysmodel, verify
from czest.simharness import NoiseSampler, ScenarioConfig, TrialLog


def small_uav(h=4, seed=9, **extra):
    doc = simharness.build_uav_scenario(horizon=h, seed=seed)
    doc.update(extra)
    return ScenarioConfig(doc)


def small_pair(h=4, seed=9, **extra):
    doc = simharness.build_pair1d_scenario(horizon=h, seed=seed)
    doc.update(extra)
    return ScenarioConfig(doc)


class TestScenarioConfig:
    def test_builtin_names(self):
        assert simharness.builtin_scenario("uav5")["name"] == "uav5"
        assert simharness.builtin_scenario("pair1d")["name"] == "pair1d"
        with pytest.raises(Exception):
            simharness.builtin_scenario("zeppelin9")

    def test_delta_bar_defaults_to_mu0_plus_one(self):
        cfg = small_uav()
        assert cfg.mu0 == 2
        assert cfg.delta_bar == 3

    def test_overrides(self):
        doc = simharness.build_uav_scenario()
        cfg = ScenarioConfig.from_doc(doc, delta_bar=7, algorithms=["centralized"])
        assert cfg.delta_bar == 7
        assert cfg.algorithms == ("centralized",)

    def test_unknown_algorithm_rejected(self):
        doc = simharness.build_uav_scenario()
        doc["algorithms"] = ["centralized", "psychic"]
        with pytest.raises(Exception, match="psychic"):
            ScenarioConfig(doc)

    def test_bad_horizon(self):
        doc = simharness.build_uav_scenario()
        doc["horizon"] = 0
        with pytest.raises(Exception):
            ScenarioConfig(doc)


class TestNoiseSampler:
    def test_grid_snapping(self):
        rng = np.random.default_rng(0)
        s = NoiseSampler(rng, grid=0.05)
        box = czono.Box([-1.0, -1.0], [1.0, 1.0])
        for _ in range(50):
            x = s.from_box(box)
            snapped = np.round(x / 0.05) * 0.05
            assert np.allclose(x, snapped, atol=1e-12)
            assert np.all(x >= -1.0) and np.all(x <= 1.0)

    def test_scale_widens_draws(self):
        rng = np.random.default_rng(1)
        s = NoiseSampler(rng, scale=3.0)
        box = czono.Box([-1.0], [1.0])
        draws = np.array([s.from_box(box)[0] for _ in range(200)])
        assert draws.max() > 1.0 and draws.min() < -1.0


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        cfg = small_pair()
        a = simharness.run_trial(cfg, 0, metrics="full").dumps()
        b = simharness.run_trial(cfg, 0, metrics="full").dumps()
        assert a == b

    def test_different_trials_differ(self):
        cfg = small_pair()
        a = simharness.run_trial(cfg, 0, metrics="full").dumps()
        b = simharness.run_trial(cfg, 1, metrics="full").dumps()
        assert a != b

    def test_worker_pool_matches_inline(self):
        cfg = small_pair()
        inline = simharness.run_monte_carlo(cfg, 3, metrics="full", workers=1)
        pooled = simharness.run_monte_carlo(cfg, 3, metrics="full", workers=2)
        for la, lb in zip(inline.logs, pooled.logs):
            assert la.dumps() == lb.dumps()

    def test_thread_budget_env(self, monkeypatch):
        monkeypatch.setenv("CZEST_THREADS", "5")
        assert simharness.thread_budget() == 5
        monkeypatch.delenv("CZEST_THREADS")
        assert simharness.thread_budget() == 1


class TestBackends:
    def test_hull_backends_agree_uav(self):
        # logged trajectory-LP hulls vs hulls of the accumulated sets
        cfg = small_uav()
        log = simharness.run_trial(cfg, 0, metrics="full")
        devs = verify._replay_hull_deviations(cfg, log)
        assert len(devs) == 4 * 2 * 5
        assert max(d[3] for d in devs) < 1e-6

    def test_backend_check_detects_widened_hulls(self, monkeypatch):
        hull = filters._TrajectoryLP.hull

        def widened(self):
            box = hull(self)
            return czono.Box(box.lo - 1e-3, box.hi + 1e-3)

        monkeypatch.setattr(filters._TrajectoryLP, "hull", widened)
        results = verify.backend_check(horizon=3)
        assert [r.name for r in results] == ["backends.uav5", "backends.pair1d"]
        assert all(r.failures == r.cases > 0 for r in results)

    def test_distributed_check_detects_widened_hulls(self, monkeypatch):
        hull = filters._AgentLP.hull

        def widened(self):
            box = hull(self)
            return czono.Box(box.lo - 1e-3, box.hi + 1e-3)

        monkeypatch.setattr(filters._AgentLP, "hull", widened)
        results = verify.distributed_check(horizon=3)
        assert [r.name for r in results] == ["distributed.uav5", "distributed.pair1d"]
        assert all(r.failures == r.cases > 0 for r in results)

    def test_containment_flags_match_full_metrics(self):
        full = simharness.run_trial(small_uav(), 0, metrics="full")
        cont = simharness.run_trial(small_uav(), 0, metrics="containment")
        for sa, sb in zip(full.steps, cont.steps):
            for alg in sa["algs"]:
                for agent in sa["algs"][alg]:
                    assert (
                        sa["algs"][alg][agent]["contained"]
                        == sb["algs"][alg][agent]["contained"]
                    )
                    assert sb["algs"][alg][agent]["hull"] is None

    def test_distributed_sizes_constant(self):
        log = simharness.run_trial(small_uav(h=6), 0, metrics="containment")
        sizes = [s["sizes"]["distributed"] for s in log.steps]
        assert all(s == sizes[0] for s in sizes[1:])
        # each agent's lifted LP: [columns, rows]
        assert sizes[0] == {"1": [72, 40], "2": [132, 78], "3": [72, 40], "4": [84, 46], "5": [24, 12]}


class TestGrownTrajectory:
    @pytest.mark.parametrize(
        "make", [lambda: small_uav(h=6), lambda: small_pair(h=5)], ids=["uav5", "pair1d"]
    )
    def test_grown_lp_matches_fresh(self, make):
        cfg = make()
        system = cfg.system
        log = simharness.run_trial(cfg, 0, metrics="containment")
        assert log.aborted is None and len(log.steps) == cfg.K
        initial = [log.header["initial"][str(i)] for i in system.agent_ids]
        x0_box = czono.Box(np.concatenate([lo for lo, _ in initial]),
                           np.concatenate([hi for _, hi in initial]))
        sl = system.state_slices()[system.agent_ids[-1]]
        probed = filters.CentralizedFilter(system, x0_box)  # probes before each hull, as run_trial asks
        plain = filters.CentralizedFilter(system, x0_box)  # hulls only
        stack = sysmodel.build_centralized(system)
        entries = []
        for k, rec in enumerate(log.steps, 1):
            batch = sysmodel.MeasurementBatch.from_dict(rec)
            entries.append(filters._step_entry(stack, k, batch))
            probed.step(k, batch)
            plain.step(k, batch)
            grown = probed._traj
            fresh = filters._TrajectoryLP(stack, x0_box)
            for e in entries:
                fresh.extend(*e)
            region = grown.program
            assert (region.m, region.n) == (fresh.program.m, fresh.program.n)
            lo, hi = region.lo.copy(), region.hi.copy()
            truth = np.array(rec["truth"])
            for x, coords in ((truth, None), (truth[sl], range(sl.start, sl.stop))):
                assert grown.contains_final(x, coords)
                assert fresh.contains_final(x, coords)
            # the pinned bounds are restored, in the wrapper and in HiGHS
            model = region._highs.getLp()
            for got, want in ((region.lo, lo), (region.hi, hi),
                              (model.col_lower_, lo), (model.col_upper_, hi)):
                assert np.array_equal(np.asarray(got), want)
            hull = grown.hull()
            for ref in (fresh.hull(), plain.hull()):
                for a, b in ((hull.lo, ref.lo), (hull.hi, ref.hi)):
                    assert np.all(np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.abs(b)))
            outside = hull.hi + 1.0
            assert not grown.contains_final(outside)
            assert not fresh.contains_final(outside)


class TestPersistence:
    def test_jsonl_round_trip(self, tmp_path):
        cfg = small_pair()
        log = simharness.run_trial(cfg, 0, metrics="full")
        path = tmp_path / "trial.jsonl"
        log.write(path)
        back = TrialLog.read(path)
        assert back.dumps() == log.dumps()
        assert back.violations == 0

    def test_metrics_csv_schema(self, tmp_path):
        cfg = small_pair(h=2)
        logs = simharness.run_monte_carlo(cfg, 2, metrics="full", workers=1).logs
        path = tmp_path / "metrics.csv"
        simharness.write_metrics_csv(path, logs)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,k,algorithm,agent,d,contained"
        # 2 trials x 2 steps x 3 algorithms x 2 agents
        assert len(lines) == 1 + 24
        cells = lines[1].split(",")
        assert cells[0] == "0" and cells[1] == "1"
        assert cells[2] == "centralized"
        assert cells[5] in ("true", "false")

    def test_metrics_csv_golden_first_rows(self, tmp_path):
        # frozen on the pair1d scenario, seed 9: catches accidental changes
        # to draw order, serialization or the estimate pipeline
        cfg = small_pair(h=2)
        log = simharness.run_trial(cfg, 0, metrics="full")
        path = tmp_path / "metrics.csv"
        simharness.write_metrics_csv(path, [log])
        got = path.read_text().splitlines()[1:4]
        rows = [r.split(",") for r in got]
        assert [r[2] for r in rows] == ["centralized", "centralized", "oit"]
        step = log.steps[0]["algs"]
        for r in rows:
            assert r[5] == "true"
            lo, hi = step[r[2]][r[3]]["hull"]
            assert float(r[4]) == max(h - l for l, h in zip(lo, hi))

    def test_scenario_doc_round_trip(self):
        doc = simharness.build_uav_scenario()
        cfg = ScenarioConfig(doc)
        again = ScenarioConfig(json.loads(cfg.doc_json()))
        assert again.K == cfg.K
        assert again.delta_bar == cfg.delta_bar
        assert again.algorithms == cfg.algorithms


class TestSystemState:
    def test_trial_leaves_no_per_step_state_in_the_system(self):
        # the filters build their stacks once; the system keeps nothing per step
        cfg = small_uav(h=60, algorithms=["distributed"])
        system = cfg.system

        def sizes():
            return {name: len(v) for name, v in vars(system).items() if hasattr(v, "__len__")}

        before = sizes()
        log = simharness.run_trial(cfg, 0, metrics="containment")
        assert log.aborted is None and len(log.steps) == 60
        assert sizes() == before


class TestNoiseViolation:
    def test_oversized_noise_aborts_or_violates(self):
        cfg = small_pair(injected_noise_scale=4.0, noise_grid=None)
        mc = simharness.run_monte_carlo(cfg, 2, metrics="containment", workers=1)
        assert mc.violations > 0 or mc.aborts

    def test_trial_log_marks_abort(self):
        cfg = small_pair(injected_noise_scale=8.0, noise_grid=None)
        log = simharness.run_trial(cfg, 0, metrics="containment")
        assert log.aborted is not None or log.violations > 0

    @pytest.mark.parametrize(
        "algorithms",
        [["centralized"], ["oit"], ["centralized", "oit", "distributed"]],
        ids=["centralized", "oit", "all"],
    )
    def test_empty_posterior_aborts_in_both_modes(self, algorithms):
        # the posterior is empty at k = 1: a containment probe must report
        # that as the abort a hull reports, not as violations
        cfg = small_pair(h=12, seed=1, injected_noise_scale=4.0, noise_grid=None, algorithms=algorithms)
        full = simharness.run_trial(cfg, 0, metrics="full")
        cont = simharness.run_trial(cfg, 0, metrics="containment")
        assert full.aborted == {"k": 1, "agent": None, "reason": "empty posterior"}
        assert cont.aborted == full.aborted
        assert len(cont.steps) == len(full.steps) == 0
        assert cont.violations == full.violations == 0

    @pytest.mark.parametrize("metrics", ["full", "containment"])
    def test_one_emptiness_solve_per_filter_and_step(self, monkeypatch, metrics):
        # an unpinned solve tells an empty posterior from a violation; the
        # whole-state probe makes it, and the agents' probes that follow it
        # need none of their own
        whole_failed, unpinned, pinned_depth = [], [], []
        contains, pinned_feasible, solve = (
            filters._LiftedFilter.contains, filters._pinned_feasible, lp.LinearProgram.solve
        )

        def whole_probe(self, x, coords=None):
            ok = False
            try:
                ok = contains(self, x, coords)
                return ok
            finally:
                whole_failed.append(coords is None and not ok)

        def pinned(region, cols, x):
            pinned_depth.append(1)
            try:
                return pinned_feasible(region, cols, x)
            finally:
                pinned_depth.pop()

        def counting(self, c, sense="min"):
            if not pinned_depth and not np.any(c):
                unpinned.append(1)
            return solve(self, c, sense)

        monkeypatch.setattr(filters._LiftedFilter, "contains", whole_probe)
        monkeypatch.setattr(filters, "_pinned_feasible", pinned)
        monkeypatch.setattr(lp.LinearProgram, "solve", counting)
        log = simharness.run_trial(small_pair(h=12, seed=1, injected_noise_scale=2.0), 0, metrics=metrics)
        assert log.aborted == {"k": 3, "agent": None, "reason": "empty posterior"}
        assert log.violations == 5
        assert sum(whole_failed) == 3
        assert len(unpinned) == sum(whole_failed)


class _SolveErrorHighs:
    """A HiGHS model that reports "solve error" after every run."""

    def __init__(self, model):
        self._model = model

    def __getattr__(self, name):
        return getattr(self._model, name)

    def getModelStatus(self):
        return _highs.HighsModelStatus.kSolveError


class _SolveErrorOnceGrown(_SolveErrorHighs):
    """A HiGHS model that reports "solve error" once rows were added to it
    after its first run."""

    def __init__(self, model):
        super().__init__(model)
        self.ran = self.grown = False

    def run(self):
        self.ran = True
        return self._model.run()

    def addRows(self, *args):
        self.grown |= self.ran
        return self._model.addRows(*args)

    def getModelStatus(self):
        return super().getModelStatus() if self.grown else self._model.getModelStatus()


class _SolveErrorOnceUpdated(_SolveErrorHighs):
    """A HiGHS model that reports "solve error" once its bounds, coefficients
    or right-hand sides were changed in place."""

    def __init__(self, model):
        super().__init__(model)
        self.updated = False

    def changeColsBounds(self, *args):
        self.updated = True
        return self._model.changeColsBounds(*args)

    def changeCoeff(self, *args):
        self.updated = True
        return self._model.changeCoeff(*args)

    def changeRowBounds(self, *args):
        self.updated = True
        return self._model.changeRowBounds(*args)

    def getModelStatus(self):
        return super().getModelStatus() if self.updated else self._model.getModelStatus()


class _SolveErrorOnceRewritten(_SolveErrorHighs):
    """A HiGHS model that reports "solve error" once its right-hand sides
    were rewritten in place."""

    def __init__(self, model):
        super().__init__(model)
        self.rewritten = False

    def changeRowBounds(self, *args):
        self.rewritten = True
        return self._model.changeRowBounds(*args)

    def getModelStatus(self):
        return super().getModelStatus() if self.rewritten else self._model.getModelStatus()


class TestSolverFailure:
    def test_linprog_failure_aborts_instead_of_violating(self, monkeypatch):
        # "solve error" is neither optimal, infeasible nor unbounded
        build = lp._build_model
        monkeypatch.setattr(lp, "_build_model", lambda *args: _SolveErrorHighs(build(*args)))
        log = simharness.run_trial(small_uav(h=3), 0, metrics="containment")
        assert log.aborted == {"k": 1, "agent": None, "reason": "numerical error"}
        assert log.violations == 0

    def test_refused_first_model_aborts_the_trial(self, monkeypatch):
        # the centralized and window filters build their first LP when they
        # are constructed: a refusal there is that trial's abort, and the
        # Monte Carlo run goes on
        monkeypatch.setattr(_highs._Highs, "passModel", lambda *args: _highs.HighsStatus.kError)
        mc = simharness.run_monte_carlo(small_pair(), 2, metrics="containment", workers=1)
        assert mc.aborts == [{"k": 0, "agent": None, "reason": "numerical error"}] * 2
        assert all(log.steps == [] for log in mc.logs)

    @pytest.mark.parametrize("metrics", ["full", "containment"])
    def test_failure_after_growth_aborts(self, monkeypatch, metrics):
        # only models that grew after their first solve fail: the trajectory
        # LP from step 2 on
        build = lp._build_model
        monkeypatch.setattr(lp, "_build_model", lambda *args: _SolveErrorOnceGrown(build(*args)))
        log = simharness.run_trial(small_uav(h=4), 0, metrics=metrics)
        assert log.aborted == {"k": 2, "agent": None, "reason": "numerical error"}
        assert log.violations == 0
        assert len(log.steps) == 1

    @pytest.mark.parametrize("metrics", ["full", "containment"])
    def test_distributed_failure_after_update_aborts(self, monkeypatch, metrics):
        # the agents' lifted LPs are built at step 1 and changed in place
        # from step 2 on, where every solve then fails
        build = lp._build_model
        monkeypatch.setattr(lp, "_build_model", lambda *args: _SolveErrorOnceUpdated(build(*args)))
        log = simharness.run_trial(small_uav(h=4, algorithms=["distributed"]), 0, metrics=metrics)
        assert log.aborted == {"k": 2, "agent": None, "reason": "numerical error"}
        assert log.violations == 0
        assert len(log.steps) == 1

    @pytest.mark.parametrize("metrics", ["full", "containment"])
    def test_window_failure_after_rewrite_aborts(self, monkeypatch, metrics):
        # the fixed-lag window LP is built at k = delta_bar + 1 and rewritten
        # in place from the next step on, where every solve on it then
        # fails; the centralized LP only grows, so its solves never fail
        build = lp._build_model
        monkeypatch.setattr(lp, "_build_model", lambda *args: _SolveErrorOnceRewritten(build(*args)))
        cfg = small_uav(h=8, algorithms=["centralized", "oit"])
        log = simharness.run_trial(cfg, 0, metrics=metrics)
        k = cfg.delta_bar + 2
        end = json.loads(log.dumps().splitlines()[-1])
        assert end["aborted"] == {"k": k, "agent": None, "reason": "numerical error"}
        assert end["violations"] == 0
        assert len(log.steps) == k - 1

    @pytest.mark.parametrize(
        "algorithms", [["centralized", "oit"], ["distributed"]], ids=["trajectory", "distributed"]
    )
    def test_infeasible_maximum_aborts(self, monkeypatch, algorithms):
        # a hull whose minima are feasible but one maximum is not is a
        # solver failure: a recorded abort, never a crash or a violation
        solve = lp.LinearProgram.solve

        def infeasible_max(self, c, sense="min"):
            return lp.LpResult(lp.INFEASIBLE) if sense == "max" else solve(self, c, sense)

        monkeypatch.setattr(lp.LinearProgram, "solve", infeasible_max)
        log = simharness.run_trial(small_uav(h=3, algorithms=algorithms), 0, metrics="full")
        assert log.aborted == {"k": 1, "agent": None, "reason": "numerical error"}
        assert log.violations == 0

    def test_trajectory_lp_does_not_use_linprog(self, monkeypatch):
        def no_linprog(*args, **kwargs):
            raise AssertionError("linprog called")

        monkeypatch.setattr(simharness, "linprog", no_linprog)
        log = simharness.run_trial(small_uav(h=3), 0, metrics="full")
        assert log.aborted is None
        assert log.violations == 0

    @pytest.mark.parametrize(
        "metrics, algorithms, dense_ops",
        [
            # the centralized and fixed-lag filters step their trajectory
            # LPs only (their step entries stack noise ranges, a product)
            pytest.param(metrics, ["centralized", "oit"], ["minkowski_sum", "intersect_under_map"], id=metrics)
            for metrics in ("full", "containment")
        ] + [
            # the distributed filter steps its agents' lifted LPs only
            pytest.param(
                metrics, ["distributed"], ["cartesian_product", "minkowski_sum", "intersect_under_map"],
                id=f"distributed-{metrics}",
            )
            for metrics in ("full", "containment")
        ],
    )
    def test_run_path_has_no_dense_recursion(self, monkeypatch, metrics, algorithms, dense_ops):
        def dense(*args, **kwargs):
            raise AssertionError("dense recursion called")

        cfg = small_uav(h=6, algorithms=algorithms)
        for name in dense_ops:
            monkeypatch.setattr(czono, name, dense)
        log = simharness.run_trial(cfg, 0, metrics=metrics)
        assert log.aborted is None
        assert len(log.steps) == 6
        assert log.violations == 0
