#!/usr/bin/env python3
"""czest benchmark runner.

Usage, from the root of a czest checkout:

    python3 perfbench/run.py --workload uav5_full --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                  # every workload, summary table

A workload run drives czest only through its public API, as ``czest run``
does: ``ScenarioConfig`` and ``run_trial``, then ``TrialLog.dumps`` and
``write_metrics_csv`` into a temporary directory inside the checkout.
Trials run one after another in this process, pinned to one CPU, with
BLAS pinned to one thread.  ``--trace 0`` repeats a pass of trials and
reports the end-to-end metrics, times scaled to a reference machine
speed by a calibration kernel (see ``Calibration``); ``--trace 1``
repeats the same trials under the span tracer and reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 when every output check passed, 1 when one failed (the
result line is still printed), 2 when the checkout holds no czest sources.
"""

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
TMP_DIR = ROOT / ".perfbench_tmp"
SPANS_DIR = ROOT / ".perfbench_spans"

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "CZEST_THREADS": "1",
}

ALL_ALGORITHMS = list(tracing.ALGORITHMS)
DEFAULT_SEED = 1  # the uav5 scenario's own seed; its hulls are stored in reference/
SETUP_REPEATS = 5
PROBE_HORIZON = 4
PROBE_TRIALS = 2
# A timed run repeats its pass of trials at least this many times.
MIN_PASSES = 3
# Seconds the calibration kernel takes at the reference speed; times are
# reported at that speed (see Calibration).
CALIBRATION_REF_S = 0.010
# Hull endpoints must match the stored reference to this relative tolerance.
REFERENCE_RTOL = 1e-9
# Timed trials stored per full-metric workload; later trials go unchecked.
REFERENCE_TRIALS = 6
# Centralized hulls are the tightest; allowed excess over the other filters.
TIGHTEST_ATOL = 1e-9


class Workload:
    """One benchmark input: uav5 with a horizon, algorithms and metrics mode."""

    def __init__(self, name, horizon, algorithms, metrics, overrides=None, trials=1):
        self.name = name
        self.horizon = horizon
        self.algorithms = algorithms
        self.metrics = metrics
        self.overrides = overrides or {}
        self.trials = trials  # trials per timed pass

    def doc(self, simharness, seed):
        doc = simharness.builtin_scenario("uav5")
        doc.update(self.overrides)
        doc.update(horizon=self.horizon, algorithms=list(self.algorithms), seed=seed)
        return doc

    def shortened(self, horizon):
        return Workload(self.name, horizon, self.algorithms, self.metrics, self.overrides, self.trials)

    def probe(self):
        """The quality probe: PROBE_TRIALS short trials of every algorithm
        with full metrics and this workload's hull backend, always at the
        default seed.  Every workload reports its hull diameters from the
        probe and checks the probe's hulls against the stored reference on
        every run, whatever ``--seed`` is."""
        return Workload(self.name + ".probe", PROBE_HORIZON, ALL_ALGORITHMS, "full", self.overrides)


# Why each workload exists is recorded in BENCHMARK.json and layers.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("uav5_full", 8, ALL_ALGORITHMS, "full"),
        Workload("uav5_mc_containment", 30, ALL_ALGORITHMS, "containment", trials=3),
        Workload("uav5_window_dense", 12, ["oit"], "full", {"hull_backend": "czono"}),
    )
}


def pin_environment():
    """Pin BLAS and czest to one thread, and this process and its children
    to one CPU, so that a trial and the calibration kernel next to it run
    on the same core."""
    os.environ.update(PINNED_ENV)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def load_czest():
    """Import czest from this checkout's src/ and nowhere else."""
    if not (SRC / "czest" / "__init__.py").is_file():
        raise FileNotFoundError(f"no czest sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import czest
    from czest import filters, lp, simharness  # noqa: F401  (submodules used by name)

    if Path(czest.__file__).resolve().parent != (SRC / "czest").resolve():
        raise ImportError(f"czest imported from {czest.__file__}, not from {SRC}")
    return czest


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **PINNED_ENV,
    }


# -- trials ---------------------------------------------------------------------


class TrialRun:
    """One trial: its log (None if it raised), log text and wall seconds.

    ``scaled`` is ``seconds`` at the reference machine speed when the
    trial ran under a ``StepCalibration``, else None.
    """

    def __init__(self, index, log, text, seconds, log_bytes, scaled=None):
        self.index = index
        self.log = log
        self.text = text
        self.seconds = seconds
        self.log_bytes = log_bytes
        self.scaled = scaled


class Calibration:
    """A fixed kernel whose time stands for the machine's current speed.

    The kernel is an interpreter loop and one solve of a fixed HiGHS LP,
    the two kinds of work a czest trial spends its time in.  On a shared
    host one core's speed jumps between levels up to 1.5x apart, several
    times a second to once a minute, and a trial slows down with the
    kernel run next to it; ``scale`` states a wall time at the reference
    speed, at which the kernel takes CALIBRATION_REF_S seconds.
    """

    LOOP = 50_000

    def __init__(self):
        import numpy as np
        from scipy.optimize import linprog

        rng = np.random.default_rng(0)
        self._linprog = linprog
        self._lp = dict(
            c=rng.uniform(-1, 1, 40),
            A_ub=rng.uniform(-1, 1, (60, 40)),
            b_ub=rng.uniform(1, 2, 60),
            bounds=(-5, 5),
            method="highs",
        )

    def __call__(self):
        """Run the kernel once; (start, end) on the perf_counter clock."""
        t0 = time.perf_counter()
        x = 0
        for i in range(self.LOOP):
            x += i * i
        self._linprog(**self._lp)
        return t0, time.perf_counter()

    @staticmethod
    def scale(seconds, before, after):
        """``seconds`` at the reference speed, between kernel runs that took
        ``before`` and ``after`` seconds."""
        return seconds * CALIBRATION_REF_S / ((before + after) / 2)


def scaled_seconds(kernels):
    """Wall seconds between consecutive kernel runs, each stretch at the
    reference speed of the two runs around it, and the same unscaled.

    ``kernels`` is the (start, end) of every kernel run in order; the time
    inside the kernel runs is left out.
    """
    scaled = raw = 0.0
    for (s0, e0), (s1, e1) in zip(kernels, kernels[1:]):
        raw += s1 - e0
        scaled += Calibration.scale(s1 - e0, e0 - s0, e1 - s1)
    return scaled, raw


class StepCalibration:
    """Runs the calibration kernel at the top of every trial step while
    installed, and records its (start, end) in ``kernels``.

    ``run_trial`` calls ``sysmodel.step_truth`` once at the top of each
    step, so the wrapper cuts a trial into stretches of one step each,
    short enough that the machine's speed rarely changes inside one.  The
    wrapper passes arguments and results through and draws no random
    numbers, so logs are unchanged.
    """

    def __init__(self, sysmodel, calibration):
        self.kernels = []
        self.calibration = calibration
        self._sysmodel = sysmodel
        self._original = None

    def __enter__(self):
        original = self._original = self._sysmodel.step_truth
        kernels, calibration = self.kernels, self.calibration

        @functools.wraps(original)
        def step_truth(*args, **kwargs):
            kernels.append(calibration())
            return original(*args, **kwargs)

        self._sysmodel.step_truth = step_truth
        return self

    def __exit__(self, *exc):
        self._sysmodel.step_truth = self._original


def run_one(czest, cfg, workload, index, out_dir, tracer=None, steps=None):
    """Run and serialize one trial.  Under a StepCalibration ``steps`` the
    kernel also runs before and after the trial, ``seconds`` leaves the
    kernel runs out and ``scaled`` is set."""
    simharness = czest.simharness
    if tracer is not None:
        tracer.trial = index
    log = text = None
    log_bytes = 0
    if steps is not None:
        first = len(steps.kernels)
        steps.kernels.append(steps.calibration())
    t0 = time.perf_counter()
    try:
        log = simharness.run_trial(cfg, index, workload.metrics)
        text = log.dumps()
        log_path = Path(out_dir) / f"trial_{index:03d}.jsonl"
        csv_path = Path(out_dir) / f"metrics_{index:03d}.csv"
        log_path.write_text(text)
        simharness.write_metrics_csv(str(csv_path), [log])
        log_bytes = log_path.stat().st_size + csv_path.stat().st_size
    except Exception:
        traceback.print_exc()
        log = None
    seconds = time.perf_counter() - t0
    if steps is None:
        return TrialRun(index, log, text, seconds, log_bytes)
    steps.kernels.append(steps.calibration())
    scaled, seconds = scaled_seconds(steps.kernels[first:])
    return TrialRun(index, log, text, seconds, log_bytes, scaled)


def run_trials(czest, cfg, workload, out_dir, seconds=None, indices=None, tracer=None):
    """Run the listed trial indices, or trials 0, 1, ... for ``seconds``.

    In the timed form a trial starts only if, at the mean trial time so
    far, at least half of it falls within ``seconds``, which keeps the
    measured time nearest ``seconds``; at least one trial always runs.
    """
    runs = []
    if indices is not None:
        for t in indices:
            runs.append(run_one(czest, cfg, workload, t, out_dir, tracer))
        return runs
    elapsed = 0.0
    while not runs or elapsed + elapsed / len(runs) / 2 <= seconds:
        runs.append(run_one(czest, cfg, workload, len(runs), out_dir, tracer))
        elapsed += runs[-1].seconds
    return runs


def run_passes(czest, cfg, workload, out_dir, seconds):
    """Run trials 0 .. workload.trials - 1 as one pass, again and again,
    under a StepCalibration.

    A pass starts while at least half of it, at the mean wall time of a
    pass so far (kernel runs included), falls within ``seconds``; at least
    MIN_PASSES passes run.  Returns the list of passes, each a list of
    TrialRun with ``scaled`` set.
    """
    passes = []
    elapsed = 0.0
    start = time.perf_counter()
    with StepCalibration(czest.sysmodel, Calibration()) as steps:
        while len(passes) < MIN_PASSES or elapsed + elapsed / len(passes) / 2 <= seconds:
            passes.append([run_one(czest, cfg, workload, t, out_dir, steps=steps) for t in range(workload.trials)])
            elapsed = time.perf_counter() - start
    return passes


def changed_repeats(passes):
    """Trial runs whose log differs from the same trial's log in the first pass."""
    return [run for later in passes[1:] for first, run in zip(passes[0], later) if run.text != first.text]


def warm_up(czest, workload, seed, out_dir):
    """Two steps of the workload, untimed, so lazy imports happen first."""
    short = workload.shortened(2)
    cfg = czest.simharness.ScenarioConfig(short.doc(czest.simharness, seed))
    run_one(czest, cfg, short, 0, out_dir)


def measure_setup(workload, seed, calibration):
    """(seconds at the reference speed, wall seconds) from spawning a fresh
    interpreter to its first filter step."""
    probe = BENCH_DIR / "setup_probe.py"
    b0, b1 = calibration()
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(probe), workload.name, str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    seconds = float(proc.stdout.strip().splitlines()[-1]) - start
    a0, a1 = calibration()
    return Calibration.scale(seconds, b1 - b0, a1 - a0), seconds


# -- output checks ---------------------------------------------------------------


def hulls_of(log):
    """{alg: {agent: [hull per step]}} of a full-metric log."""
    out = {}
    for alg in log.header["algorithms"]:
        agents = log.steps[0]["algs"][alg] if log.steps else {}
        out[alg] = {a: [s["algs"][alg][a]["hull"] for s in log.steps] for a in agents}
    return out


def reference_mismatches(ref, got, path="hulls"):
    """Descriptions of every place ``got`` differs from ``ref``.

    Numbers match when |got - ref| <= REFERENCE_RTOL * max(1, |ref|).
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(ref) != sorted(got):
            return [f"{path}: keys differ"]
        return [m for k in sorted(ref) for m in reference_mismatches(ref[k], got[k], f"{path}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [f"{path}: lengths differ"]
        return [m for i, (r, g) in enumerate(zip(ref, got)) for m in reference_mismatches(r, g, f"{path}[{i}]")]
    if ref is None or got is None:
        return [] if ref is got else [f"{path}: {got!r} != {ref!r}"]
    if abs(got - ref) <= REFERENCE_RTOL * max(1.0, abs(ref)):
        return []
    return [f"{path}: {got!r} != {ref!r}"]


def tightness_problems(log):
    """Steps where a centralized hull diameter exceeds another filter's."""
    algs = log.header["algorithms"]
    if log.header["metrics"] != "full" or "centralized" not in algs:
        return []
    out = []
    for s in log.steps:
        for agent, rec in s["algs"]["centralized"].items():
            for other in algs:
                d_other = s["algs"][other][agent]["d"]
                if rec["d"] > d_other + TIGHTEST_ATOL:
                    out.append(f"k={s['k']} agent {agent}: centralized d {rec['d']!r} > {other} d {d_other!r}")
    return out


def trial_problems(run, reference=None):
    """Why a trial fails the output gate; empty when it passes."""
    log = run.log
    if log is None:
        return ["raised"]
    out = []
    if log.aborted:
        out.append(f"aborted: {log.aborted}")
    if log.violations:
        out.append(f"{log.violations} containment violations")
    out += tightness_problems(log)
    if reference is not None:
        out += reference_mismatches(reference, hulls_of(log))
    return out


def load_reference(workload):
    """Stored default-seed hulls {"trials": {index: hulls}, "probe": {index: hulls}}."""
    return json.loads((REFERENCE_DIR / f"{workload.name}.json").read_text())


def gate(workload, runs, reference, label="trial", changed=()):
    """(attempted, failed) over ``runs``; prints each failure to stderr.

    Runs listed in ``changed`` also fail: their log differs from an
    earlier run of the same trial.
    """
    failed = 0
    for run in runs:
        ref = None
        if reference is not None and workload.metrics == "full":
            ref = reference.get(str(run.index))
        problems = trial_problems(run, ref)
        if any(run is c for c in changed):
            problems.append("log differs from the first pass")
        if problems:
            failed += 1
            shown = "; ".join(problems[:5])
            print(f"{workload.name} {label} {run.index} failed: {shown}", file=sys.stderr)
    return len(runs), failed


# -- metrics -------------------------------------------------------------------


def mean_diameters(logs):
    """{alg: mean hull diameter over steps, agents and trials}."""
    sums = {}
    for log in logs:
        for s in log.steps:
            for alg, recs in s["algs"].items():
                for rec in recs.values():
                    total, count = sums.get(alg, (0.0, 0))
                    sums[alg] = (total + rec["d"], count + 1)
    return {alg: total / count for alg, (total, count) in sums.items()}


def final_sizes(logs, alg):
    """Largest (generators, constraints) at the last step over trials."""
    best = (0, 0)
    for log in logs:
        if not log.steps or alg not in log.steps[-1]["sizes"]:
            continue
        size = log.steps[-1]["sizes"][alg]
        sizes = size.values() if isinstance(size, dict) else [size]
        best = max([best] + [tuple(s) for s in sizes])
    return best


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tracer, logs, wall_untraced, wall_traced, log_bytes):
    """Per-layer metrics from one traced run (see perfbench/README.md)."""
    stats = tracing.group_stats(tracer.spans)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []}

    def st(group):
        return stats.get(group, empty)

    def pct(durations, q):
        value, _ = tracing.percentile(durations, q)
        return value if value == tracing.NOT_REPORTED else value * 1e3

    out = {}
    lp_solve, lp_prog = st("lp.solve"), st("lp.program")
    solves, programs = lp_solve["calls"], lp_prog["calls"]
    out["lp.programs"] = metric(programs, "count")
    out["lp.solves"] = metric(solves, "count")
    out["lp.busy_s"] = metric(lp_solve["busy_s"] + lp_prog["busy_s"], "s")
    out["lp.solve_ms.p50"] = metric(pct(lp_solve["durations"], 0.5), "ms")
    out["lp.solve_ms.p90"] = metric(pct(lp_solve["durations"], 0.9), "ms")
    out["lp.reuse_frac"] = metric((solves - programs) / solves if solves else 0.0, "fraction")
    for status in ("infeasible", "unbounded", "errors"):
        out[f"lp.{status}"] = metric(tracer.lp_status[status], "count")
    dense = sum(8 * m * (n + m) for m, n in tracer.lp_sizes) / 1e6
    out["lp.dense_mb"] = metric(dense, "MB_computed")

    highs = st("highs.linprog")
    calls = tracer.highs_calls
    out["highs.calls"] = metric(highs["calls"], "count")
    out["highs.busy_s"] = metric(highs["busy_s"], "s")
    out["highs.call_ms.p50"] = metric(pct(highs["durations"], 0.5), "ms")
    out["highs.call_ms.p90"] = metric(pct(highs["durations"], 0.9), "ms")
    out["highs.nonoptimal"] = metric(sum(1 for c in calls if c[0] != 0), "count")
    out["highs.nvar_mean"] = metric(statistics.fmean(c[1] for c in calls) if calls else 0.0, "count")
    out["highs.nnz_mean"] = metric(statistics.fmean(c[2] for c in calls) if calls else 0.0, "count")

    for part in ("hull", "contains", "build"):
        out[f"czono.{part}.calls"] = metric(st(f"czono.{part}")["calls"], "count")
        out[f"czono.{part}.self_s"] = metric(st(f"czono.{part}")["self_s"], "s")

    out["sysmodel.stack.calls"] = metric(st("sysmodel.stack")["calls"], "count")
    out["sysmodel.stack.busy_s"] = metric(st("sysmodel.stack")["busy_s"], "s")
    out["sysmodel.truth.busy_s"] = metric(st("sysmodel.truth")["busy_s"], "s")

    for alg in tracing.ALGORITHMS:
        f = st(f"filters.{alg}")
        ng, nc = final_sizes(logs, alg)
        out[f"filters.{alg}.steps"] = metric(f["calls"], "count")
        out[f"filters.{alg}.step_ms.p50"] = metric(pct(f["durations"], 0.5), "ms")
        out[f"filters.{alg}.step_ms.p90"] = metric(pct(f["durations"], 0.9), "ms")
        out[f"filters.{alg}.self_s"] = metric(f["self_s"], "s")
        out[f"filters.{alg}.ng_final"] = metric(ng, "count")
        out[f"filters.{alg}.nc_final"] = metric(nc, "count")

    out["simharness.self_s"] = metric(st("simharness.trial")["self_s"], "s")
    out["simharness.serialize_s"] = metric(st("simharness.serialize")["busy_s"], "s")
    out["simharness.log_bytes"] = metric(log_bytes, "bytes")

    layers = tracing.layer_self(stats)
    total_self = sum(layers.values())
    for layer, value in layers.items():
        out[f"{layer}.share"] = metric(value / total_self if total_self else 0.0, "fraction")

    out["trace.overhead_frac"] = metric((wall_traced - wall_untraced) / wall_untraced, "fraction")
    out["trace.coverage_frac"] = metric(total_self / wall_traced, "fraction")
    out["trace.wall_s"] = metric(wall_traced, "s")
    out["trace.spans"] = metric(len(tracer.spans), "count")
    return out


# -- one workload ------------------------------------------------------------------


def run_workload(workload, seed, seconds, trace):
    """(result dict, environment and raw figures) for one run of ``workload``."""
    info = {}
    if not trace:
        calibration = Calibration()
        setups = [measure_setup(workload, seed, calibration) for _ in range(SETUP_REPEATS)]
        info["raw_setup_s"] = statistics.median(raw for _, raw in setups)
    czest = load_czest()
    simharness = czest.simharness
    cfg = simharness.ScenarioConfig(workload.doc(simharness, seed))
    reference = load_reference(workload)
    trial_reference = reference["trials"] if seed == DEFAULT_SEED else None
    TMP_DIR.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=TMP_DIR) as out_dir:
            warm_up(czest, workload, seed, out_dir)
            if trace:
                result = traced_run(czest, cfg, workload, seed, seconds, out_dir, trial_reference)
            else:
                result = timed_run(czest, cfg, workload, seconds, out_dir, trial_reference, info)
                probe_result(czest, workload, out_dir, reference["probe"], result)
                result["metrics"]["setup_s"] = metric(statistics.median(s for s, _ in setups), "s")
    finally:
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass
    return result, {**environment(), **info}


def timed_run(czest, cfg, workload, seconds, out_dir, reference, info):
    """Repeat the workload's pass of trials for ``seconds``.  ``steps_per_s``
    is the steps of one pass over the median pass time at the reference
    speed; the pass count and the unscaled rate go into ``info``."""
    passes = run_passes(czest, cfg, workload, out_dir, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runs = [r for p in passes for r in p]
    attempted, failed = gate(workload, runs, reference, changed=changed_repeats(passes))
    steps = sum(len(r.log.steps) for r in passes[0] if r.log is not None)
    scaled = statistics.median(sum(r.scaled for r in p) for p in passes)
    info["passes"] = len(passes)
    info["raw_steps_per_s"] = steps * len(passes) / sum(r.seconds for r in runs)
    metrics = {
        "steps_per_s": metric(steps / scaled, "1/s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def probe_result(czest, workload, out_dir, reference, result):
    """Run the quality probe at the default seed, check its hulls against
    the reference and add its trials and diameters to ``result``."""
    probe = workload.probe()
    cfg = czest.simharness.ScenarioConfig(probe.doc(czest.simharness, DEFAULT_SEED))
    runs = run_trials(czest, cfg, probe, out_dir, indices=range(PROBE_TRIALS))
    attempted, failed = gate(probe, runs, reference, label="probe")
    result["attempted"] += attempted
    result["failed"] += failed
    result["correct"] = result["failed"] == 0
    diam = mean_diameters([r.log for r in runs if r.log is not None])
    for alg in ALL_ALGORITHMS:
        # 0.0 only when every probe trial raised, which already fails the run
        result["metrics"][f"diam_mean.{alg}"] = metric(diam.get(alg, 0.0), "length")


def traced_run(czest, cfg, workload, seed, seconds, out_dir, reference):
    plain = run_trials(czest, cfg, workload, out_dir, seconds=seconds / 2)
    tracer = tracing.Tracer()
    tracer.install(czest)
    try:
        traced = run_trials(czest, cfg, workload, out_dir, indices=[r.index for r in plain], tracer=tracer)
    finally:
        tracer.uninstall()
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"{workload.name}_seed{seed}.jsonl"
    tracer.write(spans_path)
    print(f"spans: {spans_path.relative_to(ROOT)}")
    attempted, failed = gate(workload, plain + traced, reference)
    for a, b in zip(plain, traced):
        if a.text is not None and a.text != b.text:
            failed += 1
            print(f"{workload.name} trial {a.index}: traced log differs from untraced", file=sys.stderr)
    logs = [r.log for r in traced if r.log is not None]
    metrics = layer_metrics(
        tracer,
        logs,
        wall_untraced=sum(r.seconds for r in plain),
        wall_traced=sum(r.seconds for r in traced),
        log_bytes=sum(r.log_bytes for r in traced),
    )
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


# -- command line ---------------------------------------------------------------------


def write_reference():
    """Store the default seed's hulls: timed trials of full-metric workloads
    (as many as REFERENCE_TRIALS) and every quality-probe trial."""
    czest = load_czest()
    simharness = czest.simharness
    REFERENCE_DIR.mkdir(exist_ok=True)
    TMP_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP_DIR) as out_dir:
        for workload in WORKLOADS.values():
            doc = {"seed": DEFAULT_SEED}
            for key, wl, count in (
                ("trials", workload, REFERENCE_TRIALS if workload.metrics == "full" else 0),
                ("probe", workload.probe(), PROBE_TRIALS),
            ):
                cfg = simharness.ScenarioConfig(wl.doc(simharness, DEFAULT_SEED))
                runs = run_trials(czest, cfg, wl, out_dir, indices=range(count))
                doc[key] = {str(r.index): hulls_of(r.log) for r in runs}
            path = REFERENCE_DIR / f"{workload.name}.json"
            path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
            print(f"wrote {path.relative_to(ROOT)}")
    TMP_DIR.rmdir()


def run_all(seed, seconds, trace):
    """Run every workload in its own process and print a table."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or proc.returncode not in (0, 1):
            print(f"{name}: runner exited {proc.returncode}")
            status = status or proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        frac = result["failed"] / result["attempted"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed_frac={frac!r}")
        for key, m in result["metrics"].items():
            print(f"  {key:<32} {m['value']!r} {m['unit']}")
        status = status or proc.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store the default seed's hulls under perfbench/reference/")
    args = parser.parse_args(argv)
    pin_environment()
    if not (SRC / "czest" / "__init__.py").is_file():
        print(f"error: no czest sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result, env = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
