"""Arithmetic, output gate and tracer of the benchmark runner.

Run from the checkout root:  python3 -m pytest perfbench/tests -q
"""

import pytest

import run
import tracing

czest = run.load_czest()
from czest.simharness import TrialLog  # noqa: E402


# -- percentiles ------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, q, reported",
    [(20, 0.5, True), (19, 0.5, False), (100, 0.9, True), (99, 0.9, False), (1, 0.5, False)],
)
def test_percentile_needs_ten_samples_beyond(n, q, reported):
    samples = [float(i) for i in range(n, 0, -1)]
    value, count = tracing.percentile(samples, q)
    assert count == n
    if reported:
        assert value == sorted(samples)[int(q * n) - 1]
    else:
        assert value == tracing.NOT_REPORTED


def test_percentile_of_nothing():
    assert tracing.percentile([], 0.5) == (tracing.NOT_REPORTED, 0)


# -- span arithmetic ----------------------------------------------------------------


def _tree():
    # trial [0, 10] -> hull [1, 4] -> hull [1.5, 3.5] -> lp [2, 3]
    #               -> stack [5, 9] -> build [6, 8]
    return [
        ["simharness.trial", 0.0, 10.0, -1, 0],
        ["czono.hull", 1.0, 4.0, 0, 0],
        ["czono.hull", 1.5, 3.5, 1, 0],
        ["lp.solve", 2.0, 3.0, 2, 0],
        ["sysmodel.stack", 5.0, 9.0, 0, 0],
        ["czono.build", 6.0, 8.0, 4, 0],
    ]


def test_self_times_subtract_direct_children():
    assert tracing.self_times(_tree()) == [3.0, 1.0, 1.0, 1.0, 2.0, 2.0]


def test_self_times_add_up_to_root_duration():
    assert sum(tracing.self_times(_tree())) == 10.0


def test_group_stats_count_outermost_calls_only():
    stats = tracing.group_stats(_tree())
    hull = stats["czono.hull"]
    assert hull["calls"] == 1
    assert hull["busy_s"] == 3.0
    assert hull["self_s"] == 2.0
    assert hull["durations"] == [3.0, 2.0]
    layers = tracing.layer_self(stats)
    assert layers == {
        "lp": 1.0, "highs": 0.0, "czono": 4.0, "sysmodel": 2.0, "filters": 0.0, "simharness": 3.0,
    }


# -- output gate ----------------------------------------------------------------------


def _log(trial, d_central=1.0, d_oit=2.0, contained=True, aborted=None):
    def rec(d):
        return {"hull": [[0.0], [d]], "d": d, "gnorm": d / 2, "contained": contained}

    log = TrialLog({"trial": trial, "algorithms": ["centralized", "oit"], "metrics": "full"})
    log.steps.append({"k": 1, "algs": {"centralized": {"1": rec(d_central)}, "oit": {"1": rec(d_oit)}}})
    return log.finish(aborted)


def _run(index, log):
    return run.TrialRun(index, log, None, 1.0, 0)


def test_failed_frac_counts_every_failure_against_every_attempt():
    workload = run.WORKLOADS["uav5_full"]
    runs = [
        _run(0, _log(0)),
        _run(1, None),  # raised
        _run(2, _log(2, aborted={"k": 1, "agent": None, "reason": "empty posterior"})),
        _run(3, _log(3, contained=False)),
        _run(4, _log(4, d_central=2.5)),  # centralized looser than oit
        _run(5, _log(5)),
    ]
    assert run.gate(workload, runs, None) == (6, 4)


def test_centralized_may_equal_the_others_within_tolerance():
    assert run.tightness_problems(_log(0, d_central=2.0 + 5e-10, d_oit=2.0)) == []
    assert run.tightness_problems(_log(0, d_central=2.0 + 5e-9, d_oit=2.0)) != []


def test_reference_tolerance_is_relative_above_one():
    ref = {"centralized": {"1": [[[0.0, 1000.0], [2.0, 3.0]]]}}
    close = {"centralized": {"1": [[[1e-10, 1000.0 + 9e-7], [2.0, 3.0]]]}}
    far = {"centralized": {"1": [[[0.0, 1000.0 + 2e-6], [2.0, 3.0]]]}}
    assert run.reference_mismatches(ref, close) == []
    assert len(run.reference_mismatches(ref, far)) == 1
    assert run.reference_mismatches(ref, {"oit": ref["centralized"]}) == ["hulls: keys differ"]


def test_reference_gate_uses_the_trial_index():
    workload = run.WORKLOADS["uav5_full"]
    log = _log(0)
    reference = {"0": run.hulls_of(log)}
    assert run.gate(workload, [_run(0, log)], reference) == (1, 0)
    reference["0"]["oit"]["1"][0] = [[0.0], [2.5]]
    assert run.gate(workload, [_run(0, log)], reference) == (1, 1)


def test_a_repeat_whose_log_changed_fails_once():
    workload = run.WORKLOADS["uav5_full"]
    first, same, changed, raised = (run.TrialRun(0, _log(0), text, 1.0, 0) for text in ("a", "a", "b", None))
    raised.log = None
    passes = [[first], [same], [changed], [raised]]
    assert run.changed_repeats(passes) == [changed, raised]
    runs = [r for p in passes for r in p]
    assert run.gate(workload, runs, None, changed=run.changed_repeats(passes)) == (4, 2)


# -- machine-speed scaling ------------------------------------------------------------


def test_scaled_seconds_leave_kernel_runs_out(monkeypatch):
    monkeypatch.setattr(run, "CALIBRATION_REF_S", 0.01)
    # kernels of 0.01, 0.02 and 0.01 s around stretches of 1 s and 2 s
    kernels = [(0.0, 0.01), (1.01, 1.03), (3.03, 3.04)]
    scaled, raw = run.scaled_seconds(kernels)
    assert raw == pytest.approx(3.0)
    assert scaled == pytest.approx(1.0 * 0.01 / 0.015 + 2.0 * 0.01 / 0.015)


def test_scaled_seconds_at_reference_speed_are_wall_seconds(monkeypatch):
    monkeypatch.setattr(run, "CALIBRATION_REF_S", 0.5)
    kernels = [(0.0, 0.5), (2.5, 3.0), (3.5, 4.0)]
    assert run.scaled_seconds(kernels) == pytest.approx((2.5, 2.5))


def test_step_calibration_marks_every_step_and_restores(tmp_path):
    workload = _short("uav5_full")
    cfg = czest.simharness.ScenarioConfig(workload.doc(czest.simharness, 5))
    plain = run.run_one(czest, cfg, workload, 1, tmp_path)
    original = czest.sysmodel.step_truth
    with run.StepCalibration(czest.sysmodel, run.Calibration()) as steps:
        timed = run.run_one(czest, cfg, workload, 1, tmp_path, steps=steps)
    assert czest.sysmodel.step_truth is original
    assert timed.text == plain.text
    # one kernel run before the trial, one per step, one after
    assert len(steps.kernels) == 3 + 2
    assert 0 < timed.seconds < steps.kernels[-1][0] - steps.kernels[0][1]
    assert timed.scaled > 0


# -- tracer ----------------------------------------------------------------------------


def _short(name, horizon=3):
    return run.WORKLOADS[name].shortened(horizon)


def _traced_and_plain(workload, tmp_path):
    cfg = czest.simharness.ScenarioConfig(workload.doc(czest.simharness, 5))
    plain = run.run_one(czest, cfg, workload, 1, tmp_path)
    tracer = tracing.Tracer()
    tracer.install(czest)
    try:
        traced = run.run_one(czest, cfg, workload, 1, tmp_path, tracer)
    finally:
        tracer.uninstall()
    return plain, traced, tracer


@pytest.mark.parametrize("name", ["uav5_full", "uav5_window_dense"])
def test_traced_logs_are_byte_identical(name, tmp_path):
    plain, traced, tracer = _traced_and_plain(_short(name), tmp_path)
    assert plain.text is not None
    assert traced.text == plain.text
    assert tracer.spans


def test_uninstall_restores_every_wrapped_function(tmp_path):
    before = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in tracing.wrap_targets(czest)]
    _traced_and_plain(_short("uav5_full", horizon=2), tmp_path)
    for owner, attr, orig in before:
        assert getattr(owner, attr) is orig, f"{owner}.{attr} not restored"


def test_uninstall_restores_after_an_exception(tmp_path):
    before = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in tracing.wrap_targets(czest)]
    tracer = tracing.Tracer()
    tracer.install(czest)
    try:
        with pytest.raises(ValueError):
            czest.simharness.run_trial(None, 0, metrics="bogus")
    finally:
        tracer.uninstall()
    assert tracer.spans[0][0] == "simharness.trial" and tracer.spans[0][2] is not None
    for owner, attr, orig in before:
        assert getattr(owner, attr) is orig


def test_traced_spans_cover_the_trial(tmp_path):
    _, traced, tracer = _traced_and_plain(_short("uav5_full"), tmp_path)
    stats = tracing.group_stats(tracer.spans)
    assert stats["filters.centralized"]["calls"] == 3
    assert stats["simharness.trial"]["calls"] == 1
    total_self = sum(tracing.layer_self(stats).values())
    roots = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0)
    assert total_self == pytest.approx(roots, rel=1e-9)
    assert roots <= traced.seconds
    assert all(s[4] == 1 for s in tracer.spans)
