"""End-to-end acceptance checks for the estimation stack.

Each test prints exactly one summary line (bypassing capture, so a
plain `pytest -v` run reads as a checklist) and then asserts. The
tolerances and runtime budgets are fixed on purpose: loosening them is
a behavior change, not a test fix.
"""

import contextlib
import json
import time

from czest import simharness, verify

ORDER_TOL = 1e-9
CONTAINMENT_BUDGET = 120.0
ORACLE_BUDGET = 30.0
GEOMETRY_BUDGET = 60.0


@contextlib.contextmanager
def criterion(capsys, num, label):
    """Emit one `criterion N (label): PASS/FAIL` line around the body."""
    info = {"detail": ""}
    try:
        yield info
    except BaseException:
        with capsys.disabled():
            print(f"\ncriterion {num}/8 ({label}): FAIL  [{info['detail']}]")
        raise
    with capsys.disabled():
        print(f"\ncriterion {num}/8 ({label}): PASS  [{info['detail']}]")


def test_truth_containment_all_algorithms(capsys):
    cfg = simharness.ScenarioConfig(simharness.build_uav_scenario(horizon=30))
    with criterion(capsys, 1, "truth containment") as info:
        t0 = time.perf_counter()
        mc = simharness.run_monte_carlo(cfg, 50, metrics="containment", workers=1)
        elapsed = time.perf_counter() - t0
        info["detail"] = (
            f"{mc.violations} violations, {len(mc.aborts)} aborts over "
            f"50 trials x 30 steps x 3 algorithms; {elapsed:.1f}s "
            f"(budget {CONTAINMENT_BUDGET:.0f}s)"
        )
        assert all(len(log.steps) == 30 for log in mc.logs)
        assert mc.violations == 0
        assert not mc.aborts
        assert elapsed < CONTAINMENT_BUDGET


def test_centralized_is_tightest(capsys):
    cfg = simharness.ScenarioConfig(simharness.build_uav_scenario(horizon=30))
    with criterion(capsys, 2, "conservativeness ordering") as info:
        mc = simharness.run_monte_carlo(cfg, 5, metrics="full", workers=1)
        assert not mc.aborts
        checked = 0
        worst_oit = 0.0
        worst_dist = 0.0
        for log in mc.logs:
            db = log.header["delta_bar"]
            for rec in log.steps:
                cent = rec["algs"]["centralized"]
                for agent, arec in cent.items():
                    dc = arec["d"]
                    worst_dist = max(
                        worst_dist, dc - rec["algs"]["distributed"][agent]["d"]
                    )
                    if rec["k"] > db:
                        worst_oit = max(
                            worst_oit, dc - rec["algs"]["oit"][agent]["d"]
                        )
                    checked += 1
        info["detail"] = (
            f"{checked} trial/step/agent cases; max excess vs window filter "
            f"{worst_oit:.2e}, vs distributed {worst_dist:.2e} (tol {ORDER_TOL:.0e})"
        )
        assert checked == 5 * 30 * 5
        assert worst_oit <= ORDER_TOL
        assert worst_dist <= ORDER_TOL


def test_window_filter_size_is_constant(capsys):
    cfg = simharness.ScenarioConfig.from_doc(
        simharness.build_uav_scenario(horizon=60), algorithms=["oit"]
    )
    with criterion(capsys, 3, "bounded window complexity") as info:
        log = simharness.run_trial(cfg, 0, metrics="containment")
        assert log.aborted is None
        assert len(log.steps) == 60
        db = cfg.delta_bar
        sizes = {rec["k"]: tuple(rec["sizes"]["oit"]) for rec in log.steps}
        tail = {sizes[k] for k in range(db + 1, 61)}
        info["detail"] = (
            f"(generators, constraints) past step {db}: "
            f"{sorted(tail)} over {60 - db} steps"
        )
        assert len(tail) == 1
        (ng, nc) = next(iter(tail))
        assert ng == sizes[60][0] and nc == sizes[60][1]


def test_centralized_matches_grid_oracle(capsys):
    with criterion(capsys, 4, "exactness vs lattice oracle") as info:
        t0 = time.perf_counter()
        (res,) = verify.grid_oracle_check(resolution=0.05, steps=5)
        elapsed = time.perf_counter() - t0
        info["detail"] = (
            f"{res.detail}; {elapsed:.1f}s (budget {ORACLE_BUDGET:.0f}s)"
        )
        assert res.failures == 0
        assert elapsed < ORACLE_BUDGET


def test_geometry_kernel_invariants(capsys):
    with criterion(capsys, 5, "geometry kernel invariants") as info:
        t0 = time.perf_counter()
        results = verify.geometry_checks(rng_seed=2026, cases_per_op=200)
        elapsed = time.perf_counter() - t0
        failed = [r.name for r in results if not r.passed]
        cases = sum(r.cases for r in results)
        info["detail"] = (
            f"{len(results)} invariants, {cases} cases, failing: "
            f"{failed or 'none'}; {elapsed:.1f}s (budget {GEOMETRY_BUDGET:.0f}s)"
        )
        assert failed == []
        assert elapsed < GEOMETRY_BUDGET


def test_stacked_refinement_equivalence(capsys):
    with criterion(capsys, 6, "stacked refinement equivalence") as info:
        (res,) = verify.stacking_checks(rng_seed=2026, instances=100, probes=1000)
        info["detail"] = f"{res.cases} instances x 1000 probes, {res.failures} disagreements"
        assert res.cases == 100
        assert res.failures == 0


def test_window_filter_equals_centralized_inside_window(capsys):
    # each filter runs in a trial of its own: in a trial with both,
    # run_trial copies the centralized records into oit inside the window
    doc = simharness.build_uav_scenario(horizon=10)
    with criterion(capsys, 7, "window filter matches centralized") as info:
        logs = {}
        for alg in ("centralized", "oit"):
            cfg = simharness.ScenarioConfig.from_doc(doc, delta_bar=10, algorithms=[alg])
            logs[alg] = log = simharness.run_trial(cfg, 0, metrics="full")
            assert log.aborted is None
            assert len(log.steps) == 10
        mismatches = 0
        for cent, oit in zip(logs["centralized"].steps, logs["oit"].steps):
            a = json.dumps(cent["algs"]["centralized"], sort_keys=True)
            b = json.dumps(oit["algs"]["oit"], sort_keys=True)
            if a != b:
                mismatches += 1
        info["detail"] = (
            f"10 steps with window length = horizon; "
            f"{mismatches} hull-record mismatches (byte comparison)"
        )
        assert mismatches == 0


def test_byte_identical_reruns(capsys, monkeypatch):
    cfg = simharness.ScenarioConfig(simharness.build_uav_scenario(horizon=6))
    with criterion(capsys, 8, "deterministic replay") as info:
        monkeypatch.setenv("CZEST_THREADS", "1")
        first = [log.dumps() for log in simharness.run_monte_carlo(cfg, 4).logs]
        second = [log.dumps() for log in simharness.run_monte_carlo(cfg, 4).logs]
        monkeypatch.setenv("CZEST_THREADS", "8")
        pooled = [log.dumps() for log in simharness.run_monte_carlo(cfg, 4).logs]
        nbytes = sum(len(d) for d in first)
        info["detail"] = (
            f"4 trials, {nbytes} bytes per run; rerun identical: "
            f"{first == second}, 1 vs 8 workers identical: {first == pooled}"
        )
        assert first == second
        assert first == pooled
