"""Simulation harness: scenarios, trials, metrics, Monte Carlo.

A scenario document (JSON-compatible dict) fixes the system, horizon,
algorithms and sampling rules.  ``run_trial`` simulates the truth,
generates measurements, drives the requested filters and logs per-step
metrics; ``run_monte_carlo`` repeats over deterministically derived
per-trial seeds, optionally on a process pool capped by the
CZEST_THREADS environment variable.  Identical configuration and seed
give byte-identical logs regardless of worker count.

A trial draws sampled initial centers, then the initial truth, one draw
each over the stacked state; then per step the process noise over the
centralized stack's ``Wset`` and the measurement noise over its ``Vset``
(``sysmodel.build_centralized``), whose row order ``sysmodel.measure`` reads.

Every logged hull and containment flag comes from the filters
themselves: the centralized and fixed-lag filters answer ``hull`` and
``contains`` from their posterior LP (see ``czest.filters``), the sparse
trajectory LP, or past ``delta_bar`` the fixed-lag filter's window LP,
whose hull is solved once per step and sliced per agent here.  A step
only stores its entry: the LP is brought up to it when a solve, or the
check of a solver's point, reads it.  The distributed filter keeps its
own hulls.  A step's ``sizes`` record
holds the lifted (generators, constraints), i.e. the LP's (columns,
rows), computed from the step and the stack's sizes without the LP: of
that posterior LP for the centralized and fixed-lag filters, growing
with k on the trajectory and constant on the window, and for the
distributed one, per agent, of its lifted message blocks, constant over
a trial, not of the smaller model HiGHS solves
(``filters._PeerForms``).
"""

import json
import math
import os
import time

import numpy as np

from . import filters, lp, sysmodel
from .czono import Box

__all__ = [
    "ScenarioConfig",
    "TrialLog",
    "McResult",
    "run_trial",
    "run_monte_carlo",
    "build_uav_scenario",
    "build_pair1d_scenario",
    "builtin_scenario",
    "metrics_rows",
    "write_metrics_csv",
]

ALGORITHMS = ("centralized", "oit", "distributed")


def __getattr__(name):
    # ``linprog`` is not called here: perfbench/tracing.py wraps this name
    # (its "highs" layer) and a test patches it.  It resolves on demand, so
    # that importing czest does not import scipy.optimize, and it goes with
    # that tracer target (ROADMAP item 4).
    if name == "linprog":
        from scipy.optimize import linprog

        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# -- scenario documents ------------------------------------------------------


def build_uav_scenario(horizon=30, seed=1):
    """Five planar vehicles on the default ring-and-hub measurement graph.

    State per agent is (px, vx, py, vy) with a unit-frequency coordinated
    turn, sampling period pi/12.  Every agent measures both of its
    position coordinates absolutely; relative position measurements
    follow the edge list.  All noise ranges are unit boxes.
    """
    T = math.pi / 12.0
    B = [[T * T / 2.0, 0.0], [T, 0.0], [0.0, T * T / 2.0], [0.0, T]]
    C = [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]
    D = [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]
    unit2 = {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}
    edges = [[1, 2], [2, 1], [2, 3], [2, 4], [3, 2], [4, 2], [4, 3], [5, 4]]
    in_nbrs = {1: [2], 2: [1, 3, 4], 3: [2], 4: [2, 3], 5: [4]}
    agents = []
    for i in range(1, 6):
        agents.append(
            {
                "id": i,
                "dynamics": {"kind": "coordinated-turn", "omega": 1.0, "T": T},
                "B": B,
                "C": C,
                "D": D,
                "process_noise": dict(unit2),
                "measurement_noise": dict(unit2),
                "relative_noise": {str(j): dict(unit2) for j in in_nbrs[i]},
            }
        )
    return {
        "name": "uav5",
        "description": "five planar vehicles, absolute + relative position measurements",
        "plot_coords": [0, 2],
        "agents": agents,
        "edges": edges,
        "horizon": horizon,
        "seed": seed,
        "delta_bar": None,
        "algorithms": list(ALGORITHMS),
        "initial": {
            "mode": "sampled",
            "center_low": -10.0,
            "center_high": 10.0,
            "half_width": 2.0,
        },
    }


def build_pair1d_scenario(horizon=5, seed=1):
    """Two scalar agents measuring each other; used by the grid oracle."""
    unit1 = {"lo": [-1.0], "hi": [1.0]}
    agents = []
    for i, rng_lo, rng_hi in ((1, -2.0, 2.0), (2, -1.0, 3.0)):
        agents.append(
            {
                "id": i,
                "dynamics": {"kind": "constant", "A": [[1.0]]},
                "B": [[1.0]],
                "C": [[1.0]],
                "D": [[1.0]],
                "process_noise": dict(unit1),
                "measurement_noise": dict(unit1),
                "relative_noise": {str(j): dict(unit1) for j in ([2] if i == 1 else [1])},
                "initial_range": {"lo": [rng_lo], "hi": [rng_hi]},
            }
        )
    return {
        "name": "pair1d",
        "description": "two scalar agents with mutual relative measurements",
        "agents": agents,
        "edges": [[1, 2], [2, 1]],
        "horizon": horizon,
        "seed": seed,
        "delta_bar": None,
        "algorithms": list(ALGORITHMS),
        "initial": {"mode": "fixed"},
        "noise_grid": 0.05,
    }


_BUILTINS = {"uav5": build_uav_scenario, "pair1d": build_pair1d_scenario}


def builtin_scenario(name):
    if name not in _BUILTINS:
        raise sysmodel.SchemaError(
            f"unknown scenario '{name}' (built-ins: {', '.join(sorted(_BUILTINS))})"
        )
    return _BUILTINS[name]()


def _plot_coords(coords, dims):
    """``coords`` as a tuple of one or two state indices, None if unset.
    The first must index a state component of every agent, the second one
    of every agent with two or more (a scalar agent plots the first only);
    anything else is a SchemaError naming ``scenario.plot_coords``."""
    if coords is None:
        return None
    if isinstance(coords, (list, tuple)) and len(coords) in (1, 2):
        idx = tuple(sysmodel._integer(c, "scenario.plot_coords", low=0) for c in coords)
        if idx[0] < min(dims) and (len(idx) == 1 or all(idx[1] < n for n in dims if n >= 2)):
            return idx
    raise sysmodel.SchemaError(
        "scenario.plot_coords: must be a list of one or two state indices below "
        f"the agents' state dimensions {sorted(set(dims))}, got {coords!r}"
    )


class ScenarioConfig:
    """Parsed scenario plus run options; reconstructible from its doc."""

    def __init__(self, doc):
        if not isinstance(doc, dict):
            raise sysmodel.SchemaError(f"scenario: must be an object, got {type(doc).__name__}")
        self.doc = doc
        self.name = doc.get("name", "scenario")
        self.system = sysmodel.system_from_dict(doc)
        self.K = sysmodel._integer(doc.get("horizon", 30), "scenario.horizon", low=1)
        self.seed = sysmodel._integer(doc.get("seed", 1), "scenario.seed", low=0)
        algs = doc.get("algorithms", list(ALGORITHMS))
        if not isinstance(algs, list):
            raise sysmodel.SchemaError(
                f"scenario.algorithms: must be a list of algorithm names, got {algs!r}"
            )
        for a in algs:
            if a not in ALGORITHMS:
                raise sysmodel.SchemaError(
                    f"scenario.algorithms: unknown algorithm '{a}'"
                )
        if not algs:
            raise sysmodel.SchemaError("scenario.algorithms: must name at least one algorithm")
        if len(set(algs)) != len(algs):
            raise sysmodel.SchemaError("scenario.algorithms: each algorithm may appear only once")
        self.algorithms = tuple(algs)
        try:
            self.mu0 = sysmodel.observability_index(self.system)
        except sysmodel.NotObservableError as e:  # a property of the whole system, so no key is named
            raise sysmodel.SchemaError(f"scenario: {e}") from e
        db = doc.get("delta_bar")
        db = self.mu0 + 1 if db is None else sysmodel._integer(db, "scenario.delta_bar")
        if db < self.mu0 - 1:
            raise sysmodel.SchemaError(
                f"scenario.delta_bar: {db} is below the observability requirement {self.mu0 - 1}"
            )
        self.delta_bar = db
        dims = [self.system.agents[i].n for i in self.system.agent_ids]
        self.plot_coords = _plot_coords(doc.get("plot_coords"), dims)
        self.noise_scale = sysmodel._real(doc.get("injected_noise_scale", 1.0), "scenario.injected_noise_scale", low=0)
        scale = self.noise_scale
        stack = sysmodel.build_centralized(self.system)
        with np.errstate(over="ignore", invalid="ignore"):  # the widths are checked below
            self.noise_ranges = [  # (lo, hi) of the process and of the measurement noise draws
                (b.center - b.radius * scale, b.center + b.radius * scale) for b in (stack.Wset, stack.Vset)
            ]
            if not all(np.all(np.isfinite(hi - lo)) for lo, hi in self.noise_ranges):
                raise sysmodel.SchemaError(f"scenario.injected_noise_scale: the noise boxes scaled by {scale} overflow")
        grid = doc.get("noise_grid")
        self.noise_grid = None if grid is None else sysmodel._real(grid, "scenario.noise_grid", low=0)
        if self.noise_grid == 0:
            raise sysmodel.SchemaError("scenario.noise_grid: must be > 0")
        init = doc.get("initial", {})
        if not isinstance(init, dict):
            raise sysmodel.SchemaError(f"scenario.initial: must be an object, got {init!r}")
        self.initial_mode = init.get("mode", "fixed")
        if self.initial_mode not in ("fixed", "sampled"):
            raise sysmodel.SchemaError("scenario.initial.mode: 'fixed' or 'sampled'")
        if self.initial_mode == "sampled":
            at = "scenario.initial."
            self.init_center_low = sysmodel._real(init.get("center_low", -10.0), at + "center_low")
            self.init_center_high = sysmodel._real(init.get("center_high", 10.0), at + "center_high")
            self.init_half_width = sysmodel._real(init.get("half_width", 2.0), at + "half_width", low=0)
            if self.init_center_low > self.init_center_high:
                raise sysmodel.SchemaError("scenario.initial.center_low/center_high: must be low <= high")
            # rng.uniform draws the centers, and then each box, over a finite width only
            if not math.isfinite(self.init_center_high - self.init_center_low):
                raise sysmodel.SchemaError("scenario.initial.center_low/center_high: high - low overflows")
            reach = max(-self.init_center_low, self.init_center_high) + self.init_half_width
            if not (math.isfinite(reach) and math.isfinite(2 * self.init_half_width)):
                raise sysmodel.SchemaError("scenario.initial.half_width: the boxes' ends or widths overflow")
        else:
            self.fixed_initial = {}  # agent id -> its initial Box
            for idx, ad in enumerate(doc["agents"]):
                if "initial_range" not in ad:
                    # a mode left to its default is the likelier fault
                    at = f"agents[{idx}]" if "mode" in init else "scenario.initial"
                    raise sysmodel.SchemaError(f"{at}: fixed initial mode needs agents[{idx}].initial_range")
                path, i = f"agents[{idx}].initial_range", int(ad["id"])
                box = sysmodel.box_from_dict(ad["initial_range"], path)
                if box.dim != self.system.agents[i].n:
                    raise sysmodel.SchemaError(f"{path}: not of the agent's state dimension")
                self.fixed_initial[i] = box

    @classmethod
    def from_doc(cls, doc, **overrides):
        """The config of ``doc`` with the ``overrides`` that are not None
        set; a ``doc`` that is no object is ``__init__``'s SchemaError."""
        if isinstance(doc, dict):
            doc = dict(doc, **{key: val for key, val in overrides.items() if val is not None})
        return cls(doc)

    def doc_json(self):
        return json.dumps(self.doc, sort_keys=True)


# -- sampling ---------------------------------------------------------------


def _draw(rng, lo, hi, grid=None):
    """A uniform draw on the box [lo, hi], one double per entry in order.

    With a grid step the draw is snapped to the nearest multiple of it,
    then clipped to [lo, hi].  Gridded scenarios make the exhaustive
    lattice oracle exact, since every reachable state and every
    measurement stays on the lattice.
    """
    x = rng.uniform(lo, hi)
    if grid is None:
        return x
    with np.errstate(over="ignore"):
        steps = x / grid
    # a quotient past the float range is of a draw far above the grid's
    # scale, which stays as drawn
    return np.clip(np.where(np.isfinite(steps), np.round(steps) * grid, x), lo, hi)


# -- trial logs ---------------------------------------------------------------


class TrialLog:
    """Pure-python record of one trial; serializes to JSON lines."""

    def __init__(self, header):
        self.header = header
        self.steps = []
        self.end = None

    def finish(self, aborted=None):
        violations = 0
        for s in self.steps:
            for alg in s["algs"].values():
                violations += sum(0 if a["contained"] else 1 for a in alg.values())
        self.end = {"type": "end", "aborted": aborted, "violations": violations}
        return self

    @property
    def violations(self):
        return self.end["violations"] if self.end else None

    @property
    def aborted(self):
        return self.end.get("aborted") if self.end else None

    def lines(self):
        recs = [self.header] + self.steps + ([self.end] if self.end else [])
        return [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in recs]

    def dumps(self):
        return "\n".join(self.lines()) + "\n"

    def write(self, path):
        with open(path, "w") as f:
            f.write(self.dumps())

    @classmethod
    def read(cls, path):
        with open(path) as f:
            recs = [json.loads(line) for line in f if line.strip()]
        log = cls(recs[0])
        for r in recs[1:]:
            if r.get("type") == "end":
                log.end = r
            else:
                log.steps.append(r)
        return log


def _box_out(box):
    return [[float(v) for v in box.lo], [float(v) for v in box.hi]]


def run_trial(cfg, trial_index=0, metrics="full"):
    """Simulate one trial and return its TrialLog.

    metrics="full" logs hull and diameter per algorithm, agent and step;
    metrics="containment" logs only the containment booleans (hull
    metrics are null), which is much cheaper for the history-based
    filters.
    """
    if metrics not in ("full", "containment"):
        raise ValueError("metrics must be 'full' or 'containment'")
    system = cfg.system
    ids = system.agent_ids
    slices = system.state_slices()
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, trial_index]))
    grid = cfg.noise_grid

    if cfg.initial_mode == "fixed":
        init_boxes = cfg.fixed_initial
    else:
        hw = cfg.init_half_width
        centers = rng.uniform(cfg.init_center_low, cfg.init_center_high, system.state_dim())
        init_boxes = {i: Box(centers[sl] - hw, centers[sl] + hw) for i, sl in slices.items()}
    x0_box = Box(
        np.concatenate([init_boxes[i].lo for i in ids]),
        np.concatenate([init_boxes[i].hi for i in ids]),
    )
    truth = _draw(rng, x0_box.lo, x0_box.hi, grid)
    w_range, v_range = cfg.noise_ranges

    log = TrialLog(
        {
            "type": "header",
            "name": cfg.name,
            "trial": trial_index,
            "seed": cfg.seed,
            "K": cfg.K,
            "delta_bar": cfg.delta_bar,
            "algorithms": list(cfg.algorithms),
            "metrics": metrics,
            "initial": {str(i): _box_out(init_boxes[i]) for i in ids},
        }
    )
    flt = {}
    try:
        if "centralized" in cfg.algorithms:
            flt["centralized"] = filters.CentralizedFilter(system, x0_box)
        if "oit" in cfg.algorithms:
            flt["oit"] = filters.OitFilter(system, x0_box, cfg.delta_bar)
        if "distributed" in cfg.algorithms:
            flt["distributed"] = filters.DistributedFilter(system, init_boxes)
    except lp.NumericalError:
        return log.finish({"k": 0, "agent": None, "reason": "numerical error"})
    aborted = None
    for k in range(1, cfg.K + 1):
        truth = sysmodel.step_truth(system, k - 1, truth, _draw(rng, *w_range, grid))
        batch = sysmodel.measure(system, k, truth, _draw(rng, *v_range, grid))
        step_rec = {"type": "step", "truth": truth.tolist()}
        step_rec.update(batch.to_dict())
        algs_rec = {}
        try:
            for alg, f in flt.items():
                f.step(k, batch)
                if alg == "oit" and k <= cfg.delta_bar and "centralized" in algs_rec:
                    # inside the window oit is the centralized filter: the
                    # same LP from the same entries, so the same records, and
                    # oit's window starts afresh either way; solve it once
                    algs_rec[alg] = algs_rec["centralized"]
                else:
                    algs_rec[alg] = _step_metrics(alg, f, ids, truth, slices, metrics)
        except filters.EmptyPosteriorError as e:
            aborted = {"k": e.k, "agent": e.agent, "reason": "empty posterior"}
        except lp.EmptySetError:
            aborted = {"k": k, "agent": None, "reason": "empty posterior"}
        except lp.NumericalError:
            aborted = {"k": k, "agent": None, "reason": "numerical error"}
        if aborted:
            break
        step_rec["algs"] = algs_rec
        step_rec["sizes"] = {
            alg: _rep_size(alg, f) for alg, f in flt.items()
        }
        log.steps.append(step_rec)
    return log.finish(aborted)


def _rep_size(alg, f):
    if alg == "distributed":
        return {str(i): list(size) for i, size in sorted(f.lifted_sizes.items())}
    return list(f.lifted_size)


def _step_metrics(alg, f, ids, truth, slices, metrics):
    rec = {}
    if alg == "distributed":
        for i in ids:
            hull = f.hulls[i]
            contained = hull.contains_point(truth[slices[i]])
            rec[str(i)] = _agent_rec(hull if metrics == "full" else None, contained)
        return rec
    contained_all = f.contains(truth)
    hull = f.hull() if metrics == "full" else None
    for i in ids:
        sl = slices[i]
        # a failed whole-state query has ruled out an empty posterior, so
        # the agents' probes skip that solve
        contained = contained_all or f.contains(truth[sl], range(sl.start, sl.stop))
        sub = None if hull is None else Box(hull.lo[sl], hull.hi[sl])
        rec[str(i)] = _agent_rec(sub, contained)
    return rec


def _agent_rec(hull, contained):
    if hull is None:
        return {"hull": None, "d": None, "contained": bool(contained)}
    widths = hull.widths()
    return {
        "hull": _box_out(hull),
        "d": float(widths.max()) if widths.size else 0.0,
        "contained": bool(contained),
    }


# -- Monte Carlo --------------------------------------------------------------


class McResult:
    """All logs of a Monte Carlo run plus summary counters."""

    def __init__(self, logs, elapsed):
        self.logs = logs
        self.elapsed = elapsed

    @property
    def violations(self):
        return sum(log.violations for log in self.logs)

    @property
    def aborts(self):
        return [log.aborted for log in self.logs if log.aborted]


def _worker(args):
    doc_json, trial_index, metrics = args
    cfg = ScenarioConfig(json.loads(doc_json))
    return run_trial(cfg, trial_index, metrics)


def thread_budget():
    """Worker cap from CZEST_THREADS; defaults to 1 (fully sequential)."""
    raw = os.environ.get("CZEST_THREADS", "")
    try:
        val = int(raw)
    except ValueError:
        val = 0
    return max(1, val) if val else 1


def run_monte_carlo(cfg, trials, metrics="full", workers=None):
    """Run `trials` independent trials; trial t uses seed (seed, t).

    Results are ordered by trial index and independent of worker count.
    """
    t0 = time.perf_counter()
    if workers is None:
        workers = thread_budget()
    workers = max(1, min(workers, trials))
    if workers == 1:
        logs = [run_trial(cfg, t, metrics) for t in range(trials)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        doc_json = cfg.doc_json()
        args = [(doc_json, t, metrics) for t in range(trials)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            logs = list(pool.map(_worker, args))
    return McResult(logs, time.perf_counter() - t0)


# -- metrics extraction --------------------------------------------------------


def metrics_rows(log):
    """Flatten a TrialLog into (trial, k, algorithm, agent, d, contained)."""
    rows = []
    trial = log.header["trial"]
    for s in log.steps:
        for alg in log.header["algorithms"]:
            arec = s["algs"][alg]
            for agent in sorted(arec, key=int):
                a = arec[agent]
                rows.append(
                    {
                        "trial": trial,
                        "k": s["k"],
                        "algorithm": alg,
                        "agent": int(agent),
                        "d": a["d"],
                        "contained": a["contained"],
                    }
                )
    return rows


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_metrics_csv(path, logs):
    cols = ["trial", "k", "algorithm", "agent", "d", "contained"]
    with open(path, "w") as f:
        f.write(",".join(cols) + "\n")
        for log in logs:
            for row in metrics_rows(log):
                f.write(",".join(_csv_cell(row[c]) for c in cols) + "\n")
