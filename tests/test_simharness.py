"""Simulation harness: determinism, backends, persistence, noise handling."""

import copy
import json
import os
import pathlib
import re

import numpy as np
import pytest
from scipy.optimize._highspy import _core as _highs

from czest import czono, filters, lp, simharness, sysmodel, verify
from czest.simharness import ScenarioConfig, TrialLog
from lp_rows import model_cols
from test_sysmodel import observability_outcomes


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

    @pytest.mark.parametrize("algorithms", [[], ["oit", "oit"]], ids=["empty", "duplicate"])
    def test_algorithms_must_be_distinct_and_nonempty(self, algorithms):
        doc = simharness.build_uav_scenario()
        doc["algorithms"] = algorithms
        with pytest.raises(sysmodel.SchemaError, match="scenario.algorithms"):
            ScenarioConfig(doc)

    @pytest.mark.parametrize(
        "initial, key",
        [
            ({"half_width": -1.0}, "half_width"),
            ({"half_width": float("inf")}, "half_width"),
            ({"center_low": 1.0, "center_high": -1.0}, "center_low/center_high"),
            ({"center_high": float("inf")}, "center_high"),
            # finite numbers whose boxes, or the centers' range, overflow
            ({"half_width": 1e308}, "half_width"),
            ({"center_low": -1e308, "center_high": 1e308}, "center_low/center_high"),
        ],
        ids=[
            "negative-half-width", "infinite-half-width", "crossed-centers", "infinite-center",
            "overflowing-boxes", "overflowing-centers",
        ],
    )
    def test_sampled_initial_ranges_must_be_valid(self, initial, key):
        doc = simharness.build_uav_scenario()
        doc["initial"] = {"mode": "sampled", **initial}
        with pytest.raises(sysmodel.SchemaError, match=f"scenario.initial.{key}"):
            ScenarioConfig(doc)

    @pytest.mark.parametrize(
        "delta_bar, why",
        [(2.5, "integer"), ("3", "integer"), (True, "integer"), (0, "below"), (-3, "below")],
        ids=["fraction", "string", "bool", "zero", "negative"],
    )
    def test_delta_bar_must_be_an_integer_window(self, delta_bar, why):
        # uav5 has mu0 = 2, so its window needs delta_bar >= 1, whichever
        # algorithms run
        doc = simharness.build_uav_scenario()
        doc.update(delta_bar=delta_bar, algorithms=["centralized"])
        with pytest.raises(sysmodel.SchemaError, match=f"scenario.delta_bar: .*{why}"):
            ScenarioConfig(doc)
        assert ScenarioConfig(dict(doc, delta_bar=1)).delta_bar == 1

    @pytest.mark.parametrize("key", ["horizon", "seed"])
    @pytest.mark.parametrize("value", [2.5, 1.7, True, 3.0, "3", None], ids=repr)
    def test_horizon_and_seed_must_be_integers(self, key, value):
        # int() used to truncate these silently (2.5 -> K = 2, True -> seed 1)
        doc = simharness.build_pair1d_scenario()
        doc[key] = value
        with pytest.raises(sysmodel.SchemaError, match=f"scenario.{key}: must be an integer"):
            ScenarioConfig(doc)
        cfg = ScenarioConfig(dict(doc, **{key: np.int64(5)}))
        assert (cfg.K if key == "horizon" else cfg.seed) == 5

    @pytest.mark.parametrize(
        "scale", [-1.0, -1e-300, float("nan"), float("inf"), -float("inf"), True, "1.0", 1e308], ids=repr
    )
    def test_injected_noise_scale_must_be_finite_and_nonnegative(self, scale):
        doc = simharness.build_pair1d_scenario()
        doc["injected_noise_scale"] = scale
        with pytest.raises(sysmodel.SchemaError, match="scenario.injected_noise_scale"):
            ScenarioConfig(doc)
        for ok in (0, 0.0, 2, 1.3):
            assert ScenarioConfig(dict(doc, injected_noise_scale=ok)).noise_scale == ok

    def test_bad_horizon(self):
        doc = simharness.build_uav_scenario()
        doc["horizon"] = 0
        with pytest.raises(Exception):
            ScenarioConfig(doc)


_DELETED = object()

# what a key's value is replaced by: the pool of ROADMAP item 6(a), with
# the key deleted, an integer literal that no float holds, and the edges
# of the float range
MUTATION_POOL = [
    None, True, 0, -1, 0.5, np.nan, np.inf, -np.inf, 1e300, 2**40, "x",
    [1.0, 2.0], [[1.0], [2.0]], {}, _DELETED, 10**400, 1e308, -1e308, 1e-308,
]


def _key_paths(node, keys=()):
    """The keys leading to every dict key of ``node``, at any depth; a list
    is entered, and its entries are not mutated themselves."""
    if isinstance(node, dict):
        for key, val in node.items():
            yield keys + (key,)
            yield from _key_paths(val, keys + (key,))
    elif isinstance(node, list):
        for i, val in enumerate(node):
            yield from _key_paths(val, keys + (i,))


def _names(keys):
    """The paths a SchemaError may start with for the key at ``keys``: its
    own and its ancestors', as the schema writes them (``scenario.horizon``,
    ``agents[0].dynamics.T``, ``agents[1].relative_noise[2].lo``), and
    ``scenario`` for the document itself, the empty path."""
    if not keys:
        return ["scenario"]
    if keys[0] == "agents":  # the list is scenario.agents, and its entries agents[i]
        names, first = ["scenario.agents", "agents"] + [f"agents[{i}]" for i in keys[1:2]], 2
    else:
        names, first = [f"scenario.{keys[0]}"], 1
    for t in range(first, len(keys)):
        names.append(names[-1] + (f"[{keys[t]}]" if keys[t - 1] == "relative_noise" else f".{keys[t]}"))
    return names


def schema_mutations(name):
    """Every single-key mutation of the scenario ``name`` (a built-in or
    ``hetero3``) at horizon 3, as (keys, where, doc): the document itself,
    at the empty path, and every key at any depth, each replaced by every
    value of ``MUTATION_POOL`` or deleted."""
    if name == "hetero3":
        base = json.loads((pathlib.Path(__file__).parent / "hetero3.json").read_text())
    else:
        base = simharness.builtin_scenario(name)
    base["horizon"] = 3
    text = json.dumps(base)
    for keys in [()] + list(_key_paths(base)):
        for value in MUTATION_POOL:
            where = f"{'/'.join(map(str, keys)) or '(document)'} = {'deleted' if value is _DELETED else repr(value)[:20]}"
            if not keys:
                if value is not _DELETED:  # a document is replaced, never deleted
                    yield keys, where, copy.deepcopy(value)
                continue
            doc = json.loads(text)
            parent = doc
            for key in keys[:-1]:
                parent = parent[key]
            if value is _DELETED:
                del parent[keys[-1]]
            else:
                parent[keys[-1]] = copy.deepcopy(value)
            yield keys, where, doc


class TestSchemaProperty:
    """Every single-key mutation of a scenario (ROADMAP item 6(a)), the
    document itself included: the scenario parses, or ``ScenarioConfig``
    raises a SchemaError that starts with the path of the key or of one of
    its ancestors, or with ``scenario:`` for a property of the whole system;
    a parsed scenario of horizon 5 or less runs to a log at both metric
    levels, aborts allowed.  The enumeration is exhaustive, so it needs no
    random draws."""

    @pytest.mark.parametrize("name", ["uav5", "pair1d", "hetero3"])
    def test_every_single_key_mutation_parses_or_names_its_key(self, name):
        for keys, where, doc in schema_mutations(name):
            try:
                cfg = ScenarioConfig(doc)
            except sysmodel.SchemaError as e:
                msg = str(e)
                named = any(re.match(re.escape(path) + r"(?!\w)", msg) for path in _names(keys))
                assert named or msg.startswith("scenario:"), (where, msg)
                continue
            if cfg.K <= 5:
                for metrics in ("full", "containment"):
                    try:
                        simharness.run_trial(cfg, 0, metrics).dumps()
                    except Exception as e:  # noqa: BLE001 - name the mutation
                        pytest.fail(f"{where}, {metrics}: {e!r}")


    @pytest.mark.parametrize("name", ["uav5", "pair1d", "hetero3"])
    def test_observability_index_matches_the_restacked_oracle(self, name):
        # on every mutation whose system parses, each block stacked under
        # the last SVD's S Vᵀ gives the mu of the whole matrix re-stacked
        parsed = 0
        for _, where, doc in schema_mutations(name):
            try:
                system = sysmodel.system_from_dict(doc)
            except sysmodel.SchemaError:
                continue
            got, want = observability_outcomes(system)
            assert got == want, where
            parsed += 1
        assert parsed >= 300  # 321, 317 and 326 of them when this was written


class TestDraw:
    def test_grid_snapping(self):
        rng = np.random.default_rng(0)
        lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
        for _ in range(50):
            x = simharness._draw(rng, lo, hi, grid=0.05)
            snapped = np.round(x / 0.05) * 0.05
            assert np.allclose(x, snapped, atol=1e-12)
            assert np.all(x >= -1.0) and np.all(x <= 1.0)

    def test_a_grid_far_below_the_draws_keeps_them(self):
        # x / grid overflows: the draw is far above the grid's scale and
        # stays as drawn, without a warning
        lo, hi = np.array([-1e10, 2.0]), np.array([1e10, 3.0])
        x = simharness._draw(np.random.default_rng(0), lo, hi, grid=1e-308)
        assert np.array_equal(x, np.random.default_rng(0).uniform(lo, hi))

    def test_injected_noise_scale_sets_the_measurement_noise(self, monkeypatch):
        # pair1d measures y_i = x_i + v_i, v_i drawn from [-1, 1] scaled
        # about its center
        log = simharness.run_trial(small_pair(h=6, injected_noise_scale=0.0), 0, metrics="containment")
        assert len(log.steps) == 6
        assert all([s["y"]["1"][0], s["y"]["2"][0]] == s["truth"] for s in log.steps)
        # at scale 3 the first step's noise leaves the declared box, so the
        # posterior is empty and the trial aborts before it logs the step
        offsets = []
        measure = sysmodel.measure

        def spy(system, k, x, noise):
            batch = measure(system, k, x, noise)
            offsets.extend([batch.y[1][0] - x[0], batch.y[2][0] - x[1]])
            return batch

        monkeypatch.setattr(sysmodel, "measure", spy)
        simharness.run_trial(small_pair(h=6, injected_noise_scale=3.0), 0, metrics="containment")
        assert max(abs(d) for d in offsets) > 1.0


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

    @pytest.mark.parametrize("horizon, metrics", [(12, "full"), (30, "containment")])
    @pytest.mark.parametrize("name, seed", [("uav5", 1), ("uav5", 9173), ("pair1d", 1), ("pair1d", 9173)])
    def test_a_filter_alone_logs_as_with_the_others(self, name, seed, horizon, metrics):
        # each filter's records, and its sizes, are the same bytes whether
        # it runs alone or beside the other two
        doc = dict(simharness.builtin_scenario(name), horizon=horizon, seed=seed)
        together = simharness.run_trial(ScenarioConfig(doc), 0, metrics)
        assert together.aborted is None and len(together.steps) == horizon
        for alg in simharness.ALGORITHMS:
            alone = simharness.run_trial(ScenarioConfig(dict(doc, algorithms=[alg])), 0, metrics)
            assert alone.aborted is None and len(alone.steps) == horizon
            for k, (a, b) in enumerate(zip(alone.steps, together.steps), 1):
                for key in ("algs", "sizes"):
                    assert json.dumps(a[key][alg], sort_keys=True) == json.dumps(b[key][alg], sort_keys=True), (alg, k)

    @pytest.mark.parametrize("metrics", ["full", "containment"])
    def test_each_agent_evaluates_its_dynamics_once_per_step(self, metrics):
        # uav5 with all three filters: at step k the truth and the
        # centralized, window and neighborhood stacks all ask each agent
        # for A_i(k - 1), and share one evaluation; construction asks only
        # for A_i(0) (the window's observability index, the first
        # messages), which the first step shares
        cfg = small_uav(h=4)
        assert cfg.algorithms == simharness.ALGORITHMS and cfg.delta_bar < 4
        asked = {i: [] for i in cfg.system.agent_ids}
        for i, agent in cfg.system.agents.items():
            def counting(k, A_of_k=agent.A_of_k, i=i):
                asked[i].append(k)
                return A_of_k(k)

            agent.A_of_k = counting
        log = simharness.run_trial(cfg, 0, metrics)
        assert log.aborted is None and len(log.steps) == 4
        assert asked == {i: [0, 1, 2, 3] for i in cfg.system.agent_ids}
        A = cfg.system.agents[1]._A_at(3)  # the kept one: read-only
        with pytest.raises(ValueError):
            A[0, 0] = 0.0

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
        hull = filters._LiftedFilter.hull

        def widened(self):
            box = hull(self)
            return czono.Box(box.lo - 1e-3, box.hi + 1e-3)

        monkeypatch.setattr(filters._LiftedFilter, "hull", widened)
        results = verify.backend_check(horizon=3)
        assert [r.name for r in results] == ["backends.uav5", "backends.pair1d"]
        assert all(r.failures == r.cases > 0 for r in results)

    def test_distributed_check_detects_widened_hulls(self, monkeypatch):
        hulls = filters._AgentLP.hulls

        def widened(self):
            return {i: czono.Box(box.lo - 1e-3, box.hi + 1e-3) for i, box in hulls(self).items()}

        monkeypatch.setattr(filters._AgentLP, "hulls", widened)
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
        assert sizes[0] == {"1": [30, 12], "2": [48, 22], "3": [30, 12], "4": [36, 14], "5": [12, 4]}


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
            region = probed._posterior()
            fresh = lp.LinearProgram(np.zeros((0, x0_box.dim)), [], x0_box.lo, x0_box.hi)
            for e in entries:
                filters._extend_trajectory(fresh, stack, *e)
            final = np.arange(fresh.n - x0_box.dim, fresh.n)
            assert (region.m, region.n) == (fresh.m, fresh.n)
            lo, hi = region.lo.copy(), region.hi.copy()
            truth = np.array(rec["truth"])
            for x, coords in ((truth, None), (truth[sl], range(sl.start, sl.stop))):
                assert probed.contains(x, coords)
                assert fresh.feasible_at(final if coords is None else final[list(coords)], x)
            # the pinned bounds are restored, in the wrapper and in every
            # block's HiGHS model
            model_lo, model_hi = model_cols(region)
            for got, want in ((region.lo, lo), (region.hi, hi), (model_lo, lo), (model_hi, hi)):
                assert np.array_equal(np.asarray(got), want)
            hull = probed.hull()
            for ref in (czono.Box(*fresh.bounds(np.eye(fresh.n)[final])), plain.hull()):
                for a, b in ((hull.lo, ref.lo), (hull.hi, ref.hi)):
                    assert np.all(np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.abs(b)))
            outside = hull.hi + 1.0
            assert not probed.contains(outside)
            assert not fresh.feasible_at(final, outside)


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
        contains, feasible_at, solve = (
            filters._LiftedFilter.contains, lp.LinearProgram.feasible_at, lp.LinearProgram.solve
        )

        def whole_probe(self, x, coords=None):
            ok = False
            try:
                ok = contains(self, x, coords)
                return ok
            finally:
                if coords is None:
                    whole_failed.append(not ok)

        def pinned(self, cols, x):
            pinned_depth.append(1)
            try:
                return feasible_at(self, cols, x)
            finally:
                pinned_depth.pop()

        def counting(self, c, sense="min"):
            if not pinned_depth and not np.any(c):
                unpinned.append(1)
            return solve(self, c, sense)

        monkeypatch.setattr(filters._LiftedFilter, "contains", whole_probe)
        monkeypatch.setattr(lp.LinearProgram, "feasible_at", pinned)
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
    """A HiGHS model that reports "solve error" once its bounds were changed
    in place or it was reloaded."""

    def __init__(self, model):
        super().__init__(model)
        self.updated = False

    def changeColsBounds(self, *args):
        self.updated = True
        return self._model.changeColsBounds(*args)

    def passModel(self, *args):
        self.updated = True
        return self._model.passModel(*args)

    def getModelStatus(self):
        return super().getModelStatus() if self.updated else self._model.getModelStatus()


class _SolveErrorOnceRewritten(_SolveErrorHighs):
    """A HiGHS model that reports "solve error" once it was reloaded."""

    def __init__(self, model):
        super().__init__(model)
        self.rewritten = False

    def passModel(self, *args):
        self.rewritten = True
        return self._model.passModel(*args)

    def getModelStatus(self):
        return super().getModelStatus() if self.rewritten else self._model.getModelStatus()


def fail_witness_checks(monkeypatch):
    """Make every one-step witness fail its check, on the LP
    (``satisfied_by``) and on the step entries (``_admits``), so that each
    whole-state query probes the LP."""
    monkeypatch.setattr(lp.LinearProgram, "satisfied_by", lambda *args: False)
    monkeypatch.setattr(filters._LiftedFilter, "_admits", lambda *args: False)


def tenfold_pair1d():
    """pair1d at horizon 30 with A = 10 on both agents from x_0 = (1, 2),
    without noise: the states are 10^k (1, 2), exact in floating point."""
    doc = simharness.build_pair1d_scenario(horizon=30)
    zero = {"lo": [0.0], "hi": [0.0]}
    for ad, x in zip(doc["agents"], (1.0, 2.0)):
        ad.update(dynamics={"kind": "constant", "A": [[10.0]]}, process_noise=zero, measurement_noise=zero,
                  relative_noise={j: zero for j in ad["relative_noise"]}, initial_range={"lo": [x], "hi": [x]})
    return doc


class TestSolverFailure:
    def test_linprog_failure_aborts_instead_of_violating(self, monkeypatch):
        # "solve error" is neither optimal, infeasible nor unbounded
        new = lp._new_model
        monkeypatch.setattr(lp, "_new_model", lambda: _SolveErrorHighs(new()))
        log = simharness.run_trial(small_uav(h=3), 0, metrics="containment")
        assert log.aborted == {"k": 1, "agent": None, "reason": "numerical error"}
        assert log.violations == 0

    def test_refused_first_model_aborts_the_trial(self, monkeypatch):
        # every filter builds its first LP when it is constructed: a refusal
        # there is that trial's abort, and the Monte Carlo run goes on
        monkeypatch.setattr(_highs._Highs, "addCols", lambda *args: _highs.HighsStatus.kError)
        mc = simharness.run_monte_carlo(small_pair(), 2, metrics="containment", workers=1)
        assert mc.aborts == [{"k": 0, "agent": None, "reason": "numerical error"}] * 2
        assert all(log.steps == [] for log in mc.logs)

    @pytest.mark.parametrize("metrics", ["full", "containment"])
    @pytest.mark.parametrize(
        "call, algorithms, k",
        [
            # the agents' one LP, built with its filter, is reloaded from
            # k = 1 on, with its basis handed back from k = 2 on (there is
            # none before the first solve)
            ("passModel", ["centralized", "oit", "distributed"], 1),
            ("setBasis", ["centralized", "oit", "distributed"], 2),
            # the window LP, built at k = delta_bar + 1 = 4, from k = 5 on
            ("passModel", ["centralized", "oit"], 5),
            ("setBasis", ["centralized", "oit"], 5),
        ],
        ids=["passModel-all", "setBasis-all", "passModel-window", "setBasis-window"],
    )
    def test_refused_reload_aborts(self, monkeypatch, call, algorithms, k, metrics):
        # a reload that HiGHS refuses is a recorded abort, never a
        # violation; the centralized LP is never reloaded.  A containment
        # step past the window's first reads the window only when the
        # one-step witness fails its check, which is forced here
        monkeypatch.setattr(_highs._Highs, call, lambda *args: _highs.HighsStatus.kError)
        if metrics == "containment" and "distributed" not in algorithms:
            fail_witness_checks(monkeypatch)
        cfg = small_uav(h=8, algorithms=algorithms)
        assert cfg.delta_bar == 3
        log = simharness.run_trial(cfg, 0, metrics=metrics)
        assert log.aborted == {"k": k, "agent": None, "reason": "numerical error"}
        assert log.violations == 0
        assert len(log.steps) == k - 1

    @pytest.mark.parametrize("metrics", ["full", "containment"])
    def test_failure_after_growth_aborts(self, monkeypatch, metrics):
        # only models that grew after their first solve fail: the trajectory
        # LP from step 2 on.  A full-metrics step solves its hull there; a
        # containment step solves it only when the one-step witness fails
        # its check, which is forced here
        new = lp._new_model
        monkeypatch.setattr(lp, "_new_model", lambda: _SolveErrorOnceGrown(new()))
        if metrics == "containment":
            monkeypatch.setattr(lp.LinearProgram, "satisfied_by", lambda *args: False)
        log = simharness.run_trial(small_uav(h=4), 0, metrics=metrics)
        assert log.aborted == {"k": 2, "agent": None, "reason": "numerical error"}
        assert log.violations == 0
        assert len(log.steps) == 1

    def test_witness_spares_the_grown_lp(self, monkeypatch):
        # from step 2 on every containment answer of the trajectory LP comes
        # from the one-step witness, so its failing solves are never run
        new = lp._new_model
        monkeypatch.setattr(lp, "_new_model", lambda: _SolveErrorOnceGrown(new()))
        log = simharness.run_trial(small_uav(h=4), 0, metrics="containment")
        assert log.aborted is None
        assert log.violations == 0
        assert len(log.steps) == 4

    @pytest.mark.parametrize("metrics", ["full", "containment"])
    def test_distributed_failure_after_update_aborts(self, monkeypatch, metrics):
        # the agents' one lifted LP is built at construction and reloaded
        # by every step, so the first step's solves already fail
        new = lp._new_model
        monkeypatch.setattr(lp, "_new_model", lambda: _SolveErrorOnceUpdated(new()))
        log = simharness.run_trial(small_uav(h=4, algorithms=["distributed"]), 0, metrics=metrics)
        assert log.aborted == {"k": 1, "agent": None, "reason": "numerical error"}
        assert log.violations == 0
        assert log.steps == []

    @pytest.mark.parametrize("metrics", ["full", "containment"])
    def test_window_failure_after_rewrite_aborts(self, monkeypatch, metrics):
        # the fixed-lag window LP is built at k = delta_bar + 1 and reloaded
        # from k = delta_bar + 2 on, where every solve on it then fails;
        # the centralized LP only grows, so its solves never fail.  A
        # containment step past the window's first solves only when the
        # one-step witness fails its check, which is forced here
        new = lp._new_model
        monkeypatch.setattr(lp, "_new_model", lambda: _SolveErrorOnceRewritten(new()))
        if metrics == "containment":
            fail_witness_checks(monkeypatch)
        cfg = small_uav(h=8, algorithms=["centralized", "oit"])
        log = simharness.run_trial(cfg, 0, metrics=metrics)
        k = cfg.delta_bar + 2
        end = json.loads(log.dumps().splitlines()[-1])
        assert end["aborted"] == {"k": k, "agent": None, "reason": "numerical error"}
        assert end["violations"] == 0
        assert len(log.steps) == k - 1

    @pytest.mark.parametrize("metrics", ["full", "containment"])
    def test_overflowing_window_aborts(self, metrics):
        # A = 1e10 with no noise on the state: the trajectory LP stays
        # finite, but the window's dynamics A^31 overflow at its first
        # step, k = delta_bar + 1 = 32, a numerical abort
        doc = simharness.build_pair1d_scenario(horizon=33)
        zero = {"lo": [0.0], "hi": [0.0]}
        for ad in doc["agents"]:
            ad.update(dynamics={"kind": "constant", "A": [[1e10]]}, process_noise=zero, initial_range=zero)
        cfg = ScenarioConfig(dict(doc, delta_bar=31, algorithms=["oit"]))
        log = simharness.run_trial(cfg, 0, metrics=metrics)
        end = json.loads(log.dumps().splitlines()[-1])
        assert end["aborted"] == {"k": 32, "agent": None, "reason": "numerical error"}
        assert end["violations"] == 0
        assert len(log.steps) == 31

    @pytest.mark.parametrize("metrics", ["full", "containment"])
    def test_growing_window_aborts_on_its_step(self, monkeypatch, metrics):
        # ``tenfold_pair1d``: the states are exact in floating point, so the
        # one-step witness answers every containment step past delta_bar +
        # 2.  At k = 20 agent 2's measurement row has a lower bound of 2e20,
        # which HiGHS refuses (1e20 or more); the window is brought up at
        # that step, as it was when every step reloaded it, so the abort
        # falls on k = 20
        doc = tenfold_pair1d()
        probes = []
        feasible_at = lp.LinearProgram.feasible_at

        def probing(self, cols, x):
            probes.append(1)
            return feasible_at(self, cols, x)

        monkeypatch.setattr(lp.LinearProgram, "feasible_at", probing)
        cfg = ScenarioConfig(dict(doc, delta_bar=1, algorithms=["oit"], noise_grid=None))
        log = simharness.run_trial(cfg, 0, metrics=metrics)
        assert log.aborted == {"k": 20, "agent": None, "reason": "numerical error"}
        assert log.violations == 0 and len(log.steps) == 19
        assert log.steps[-1]["truth"] == [1e19, 2e19]
        if metrics == "containment":
            # k = 1, the first window at k = 2, and k = 7, where the solver's
            # point of k = 2, carried, has drifted past EPS_LP: the witness
            # answers every other step, k = 19 included
            assert len(probes) == 3

    @pytest.mark.parametrize("metrics", ["full", "containment"])
    @pytest.mark.parametrize("algorithms", [["centralized"], ["centralized", "oit"]], ids="+".join)
    def test_growing_trajectory_aborts_on_its_step(self, algorithms, metrics):
        # the scenario above with the centralized trajectory: at k = 20 it
        # is brought up, and HiGHS refuses its new row when it is appended,
        # at either metric level, although in containment mode the witness
        # would answer that step without a solve
        cfg = ScenarioConfig(dict(tenfold_pair1d(), delta_bar=1, algorithms=algorithms, noise_grid=None))
        log = simharness.run_trial(cfg, 0, metrics=metrics)
        assert log.aborted == {"k": 20, "agent": None, "reason": "numerical error"}
        assert log.violations == 0 and len(log.steps) == 19

    @pytest.mark.parametrize("algorithms", [["centralized"], ["oit"], ["distributed"]], ids=lambda a: a[0])
    def test_dynamics_past_the_float_range_abort(self, algorithms):
        # T = 1e307 on one uav5 agent: its turn angle k omega T passes the
        # float range at k = 18, where A(17), the dynamics of step 18, is
        # NaN: a numerical abort of every filter, never a crash
        doc = simharness.build_uav_scenario(horizon=30)
        doc["agents"][0]["dynamics"]["T"] = 1e307
        omega = doc["agents"][0]["dynamics"]["omega"]
        k = next(k for k in range(1, 31) if not np.isfinite(k * omega * 1e307))
        assert k == 18
        log = simharness.run_trial(ScenarioConfig(dict(doc, algorithms=algorithms)), 0, metrics="containment")
        assert log.aborted == {"k": k, "agent": None, "reason": "numerical error"}
        assert log.violations == 0 and len(log.steps) == k - 1

    @pytest.mark.parametrize(
        "algorithms", [["centralized", "oit"], ["distributed"]], ids=["trajectory", "distributed"]
    )
    def test_infeasible_maximum_aborts(self, monkeypatch, algorithms):
        # a hull whose minima are feasible but one maximum is not is a
        # solver failure: a recorded abort, never a crash or a violation
        solve = lp.LinearProgram._solve

        def infeasible_max(self, c, sense="min"):
            return lp.INFEASIBLE if sense == "max" else solve(self, c, sense)

        monkeypatch.setattr(lp.LinearProgram, "_solve", infeasible_max)
        log = simharness.run_trial(small_uav(h=3, algorithms=algorithms), 0, metrics="full")
        assert log.aborted == {"k": 1, "agent": None, "reason": "numerical error"}
        assert log.violations == 0

    def test_linprog_resolves_on_demand(self):
        # the name stays for the tracer; importing czest does not import it
        from scipy.optimize import linprog

        assert simharness.linprog is linprog
        with pytest.raises(AttributeError, match="no_such_name"):
            simharness.no_such_name  # noqa: B018

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
