"""Simulation harness: scenarios, trials, metrics, Monte Carlo.

A scenario document (JSON-compatible dict) fixes the system, horizon,
algorithms and sampling rules.  ``run_trial`` simulates the truth,
generates measurements, drives the requested filters and logs per-step
metrics; ``run_monte_carlo`` repeats over deterministically derived
per-trial seeds, optionally on a process pool capped by the
CZEST_THREADS environment variable.  Identical configuration and seed
give byte-identical logs regardless of worker count.

Every logged hull and containment flag comes from the filters
themselves: the centralized and fixed-lag filters answer ``hull`` and
``contains`` from their sparse trajectory LP (see ``czest.filters``),
whose hull is solved once per step and sliced per agent here; the
distributed filter keeps its own hulls.  A step's ``sizes`` record holds
the lifted (generators, constraints), i.e. the LP's (columns, rows): of
the trajectory LP for the centralized and fixed-lag posteriors, and of
each agent's lifted LP, constant over a trial, for the distributed one.
"""

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

# Not called: perfbench/tracing.py wraps this name (its "highs" layer);
# the import goes when that tracer target does.
from scipy.optimize import linprog  # noqa: F401

from . import czono, filters, lp, sysmodel
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


class ScenarioConfig:
    """Parsed scenario plus run options; reconstructible from its doc."""

    def __init__(self, doc):
        self.doc = doc
        self.name = doc.get("name", "scenario")
        self.system = sysmodel.system_from_dict(doc)
        self.K = int(doc.get("horizon", 30))
        if self.K < 1:
            raise sysmodel.SchemaError("scenario.horizon: must be >= 1")
        self.seed = int(doc.get("seed", 1))
        algs = doc.get("algorithms", list(ALGORITHMS))
        for a in algs:
            if a not in ALGORITHMS:
                raise sysmodel.SchemaError(
                    f"scenario.algorithms: unknown algorithm '{a}'"
                )
        self.algorithms = tuple(algs)
        self.mu0 = sysmodel.observability_index(self.system)
        db = doc.get("delta_bar")
        self.delta_bar = self.mu0 + 1 if db is None else int(db)
        self.noise_scale = float(doc.get("injected_noise_scale", 1.0))
        grid = doc.get("noise_grid")
        self.noise_grid = None if grid is None else float(grid)
        if self.noise_grid is not None and self.noise_grid <= 0:
            raise sysmodel.SchemaError("scenario.noise_grid: must be positive")
        init = doc.get("initial", {"mode": "fixed"})
        self.initial_mode = init.get("mode", "fixed")
        if self.initial_mode not in ("fixed", "sampled"):
            raise sysmodel.SchemaError("scenario.initial.mode: 'fixed' or 'sampled'")
        if self.initial_mode == "sampled":
            self.init_center_low = float(init.get("center_low", -10.0))
            self.init_center_high = float(init.get("center_high", 10.0))
            self.init_half_width = float(init.get("half_width", 2.0))
        else:
            for idx, ad in enumerate(doc["agents"]):
                if "initial_range" not in ad:
                    raise sysmodel.SchemaError(
                        f"agents[{idx}]: fixed initial mode needs 'initial_range'"
                    )

    @classmethod
    def from_doc(cls, doc, **overrides):
        doc = dict(doc)
        for key, val in overrides.items():
            if val is not None:
                doc[key] = val
        return cls(doc)

    def doc_json(self):
        return json.dumps(self.doc, sort_keys=True)


# -- sampling ---------------------------------------------------------------


class NoiseSampler:
    """Uniform draws from noise ranges with a fixed, documented order.

    When a grid step is set, every draw is snapped to the nearest multiple
    of that step (then clipped to the range).  Gridded scenarios make the
    exhaustive lattice oracle exact, since every reachable state and every
    measurement stays on the lattice.
    """

    def __init__(self, rng, scale=1.0, grid=None):
        self.rng = rng
        self.scale = scale
        self.grid = grid

    def _snap(self, x, lo, hi):
        if self.grid is None:
            return x
        return np.clip(np.round(x / self.grid) * self.grid, lo, hi)

    def from_box(self, box):
        if box.dim == 0:
            return np.zeros(0)
        c, r = box.center, box.radius * self.scale
        return self._snap(self.rng.uniform(c - r, c + r), c - r, c + r)


def _initial_ranges(cfg, rng):
    """Per-agent initial boxes, drawn or fixed per the scenario."""
    out = {}
    for idx, i in enumerate(cfg.system.agent_ids):
        n = cfg.system.agents[i].n
        if cfg.initial_mode == "sampled":
            center = rng.uniform(cfg.init_center_low, cfg.init_center_high, n)
            out[i] = Box(center - cfg.init_half_width, center + cfg.init_half_width)
        else:
            bd = cfg.doc["agents"][idx]["initial_range"]
            out[i] = Box(bd["lo"], bd["hi"])
    return out


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
    sampler = NoiseSampler(rng, scale=cfg.noise_scale, grid=cfg.noise_grid)

    init_boxes = _initial_ranges(cfg, rng)
    truth = np.concatenate(
        [sampler._snap(rng.uniform(init_boxes[i].lo, init_boxes[i].hi),
                       init_boxes[i].lo, init_boxes[i].hi) for i in ids]
    )
    x0_box = Box(
        np.concatenate([init_boxes[i].lo for i in ids]),
        np.concatenate([init_boxes[i].hi for i in ids]),
    )

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
    agents = system.agents
    w_boxes = [agents[i].Wset for i in ids]
    v_boxes = {i: agents[i].Vset for i in ids}
    r_boxes = {
        (i, j): agents[i].Rset_of[j] for i in ids for j in system.topology.in_neighbors(i)
    }
    flt = {}
    try:
        if "centralized" in cfg.algorithms:
            flt["centralized"] = filters.CentralizedFilter(system, x0_box)
        if "oit" in cfg.algorithms:
            flt["oit"] = filters.OitFilter(system, x0_box, cfg.delta_bar, mu0=cfg.mu0)
        if "distributed" in cfg.algorithms:
            flt["distributed"] = filters.DistributedFilter(system, init_boxes)
    except lp.NumericalError:
        return log.finish({"k": 0, "agent": None, "reason": "numerical error"})
    aborted = None
    for k in range(1, cfg.K + 1):
        w = np.concatenate([sampler.from_box(box) for box in w_boxes])
        truth = sysmodel.step_truth(system, k - 1, truth, w)
        v = {i: sampler.from_box(box) for i, box in v_boxes.items()}
        r = {key: sampler.from_box(box) for key, box in r_boxes.items()}
        batch = sysmodel.measure(system, k, truth, v, r)
        step_rec = {"type": "step", "truth": truth.tolist()}
        step_rec.update(batch.to_dict())
        algs_rec = {}
        try:
            for alg, f in flt.items():
                f.step(k, batch)
                if alg == "oit" and k <= cfg.delta_bar and "centralized" in algs_rec:
                    # inside the window both filters grow the same LP from
                    # the same entries, so their records are equal; solve it once
                    algs_rec[alg] = algs_rec["centralized"]
                else:
                    algs_rec[alg] = _step_metrics(alg, f, ids, truth, slices, metrics)
        except filters.EmptyPosteriorError as e:
            aborted = {"k": e.k, "agent": e.agent, "reason": "empty posterior"}
        except czono.EmptySetError:
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
            contained = hull.contains_point(truth[slices[i]], tol=lp.EPS_LP)
            rec[str(i)] = _agent_rec(hull if metrics == "full" else None, contained)
        return rec
    contained_all = f.contains(truth)
    hull = f.hull() if metrics == "full" else None
    for i in ids:
        sl = slices[i]
        # the whole-state probe has ruled out an empty posterior, so the
        # agents' probes skip that solve
        contained = contained_all or f._traj.contains_final(truth[sl], range(sl.start, sl.stop))
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
    return run_trial(cfg, trial_index, metrics).__dict__


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
        doc_json = cfg.doc_json()
        args = [(doc_json, t, metrics) for t in range(trials)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_worker, args))
        logs = []
        for d in raw:
            log = TrialLog(d["header"])
            log.steps = d["steps"]
            log.end = d["end"]
            logs.append(log)
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
