"""Simulation harness: scenarios, trials, metrics, Monte Carlo.

A scenario document (JSON-compatible dict) fixes the system, horizon,
algorithms and sampling rules.  ``run_trial`` simulates the truth,
generates measurements, drives the requested filters and logs per-step
metrics; ``run_monte_carlo`` repeats over deterministically derived
per-trial seeds, optionally on a process pool capped by the
CZEST_THREADS environment variable.  Identical configuration and seed
give byte-identical logs regardless of worker count.

Hull and containment queries for the centralized and fixed-lag filters
are answered by an equivalent sparse "trajectory" LP over the history
window (states and noises as explicit variables) instead of the
accumulated generator form.  Both describe the same set; the ``backends``
verify suite replays logged trials through the filters and checks that
the hulls of their accumulated sets match the logged ones.  Each LP is
one ``lp.LinearProgram`` assembled step by step (``_TrajectoryLP.extend``
appends a step's noise and state columns with its dynamics and
measurement rows).  The whole-history LP is one model per trial, grown
in place as steps arrive, so its solves warm-start from the last basis
across steps; the fixed-lag filter reads it for k <= delta_bar and
builds its own window afresh each step after that.  The hull of the
whole final state is solved once per step and sliced per agent; a
containment probe pins the final state through its bounds, solves, and
restores them, and its answer is cached for the step.  The distributed
filter's hulls come from the filter itself.
"""

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from scipy import sparse

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


def _as_box(Z):
    """Return the Box a CZ exactly equals, or None.

    An unconstrained CZ whose generator columns each touch at most one
    output row is an axis-aligned box; its interval hull is then exact.
    """
    if Z.n_constraints:
        return None
    touched = (Z.G != 0.0).sum(axis=0)
    if np.any(touched > 1):
        return None
    return czono.interval_hull(Z)


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

    def from_cz(self, Z, max_tries=1000):
        box = _as_box(Z)
        if box is not None:
            return self.from_box(box)
        if self.scale != 1.0:
            raise ValueError("injected_noise_scale supports box noise ranges only")
        if self.grid is not None:
            raise ValueError("noise_grid supports box noise ranges only")
        hull = czono.interval_hull(Z)
        for _ in range(max_tries):
            x = self.rng.uniform(hull.lo, hull.hi)
            if czono.contains(Z, x):
                return x
        raise RuntimeError("rejection sampling failed; noise range too thin")


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


# -- trajectory-LP metrics backend -------------------------------------------


class _History:
    """Per-trial record of stacked data, one entry per measurement step.

    The trajectory LP over the whole history is one model, grown in place
    by the steps it has not seen yet whenever it is asked for; a window
    with a free initial state is built afresh for each step.
    """

    def __init__(self, x0_box):
        self.steps = []  # dicts: A_prev, B, w_box, H, v_box, Y
        self._grown = _TrajectoryLP(x0_box.dim, x0_box)
        self._windows = {}  # t0 -> window LP of the last step

    def append(self, A_prev, B, w_box, H, v_box, Y):
        self.steps.append(
            {"A": A_prev, "B": B, "w": w_box, "H": H, "v": v_box, "Y": Y}
        )
        self._windows = {}

    def trajectory(self):
        """The LP over steps 0..k from the initial box (k the last step)."""
        traj = self._grown
        for entry in self.steps[traj.length :]:
            traj.extend(entry)
        return traj

    def window(self, t0):
        """The LP over steps t0..k, x_{t0} free and measured at t0."""
        if t0 not in self._windows:
            steps = self.steps
            traj = _TrajectoryLP(steps[0]["A"].shape[0], None, steps[t0 - 1])
            for entry in steps[t0:]:
                traj.extend(entry)
            self._windows[t0] = traj
        return self._windows[t0]


class _TrajectoryLP:
    """Sparse LP over (x_{t0}, w, x, v) for one window of the history.

    The feasible set projected on x_k equals the filter posterior: the
    dynamics rows encode the prediction, the measurement rows the update.
    ``x0_box=None`` leaves the window's initial state free, matching the
    fixed-lag rebuild from an unbounded prior; ``t0_entry`` adds that
    step's measurement of the initial state.  ``extend`` appends one step
    to the same ``lp.LinearProgram``, so every solve after the first
    starts from the last basis, across steps too.
    """

    def __init__(self, n, x0_box=None, t0_entry=None):
        self.n = n
        self.length = 0  # steps appended by extend
        self.x_final = 0  # first column of the final state
        if x0_box is None:
            lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
        else:
            lo, hi = x0_box.lo, x0_box.hi
        self.program = lp.LinearProgram(np.zeros((0, n)), np.zeros(0), lo, hi)
        if t0_entry is not None:
            # measurement rows  H x_{t0} + v = Y
            H, vbox = t0_entry["H"], t0_entry["v"]
            self._append(vbox.lo, vbox.hi, np.hstack([H, np.eye(H.shape[0])]), t0_entry["Y"])
        self._hull = None
        self._probes = {}

    def extend(self, entry):
        """Append one step: columns w, x_k, v and the rows

        dynamics     x_k - A x_{k-1} - B w = 0,
        measurement  H x_k + v = Y.
        """
        A, B, H = entry["A"], entry["B"], entry["H"]
        n, p, m = self.n, B.shape[1], H.shape[0]
        # columns: x_{k-1}, then the new w, x_k, v
        D = np.zeros((n + m, n + p + n + m))
        D[:n, :n] = -A
        D[:n, n : n + p] = -B
        D[:n, n + p : 2 * n + p] = np.eye(n)
        D[n:, n + p : 2 * n + p] = H
        D[n:, 2 * n + p :] = np.eye(m)
        wbox, vbox = entry["w"], entry["v"]
        x_at = self.program.n + p
        self._append(
            np.concatenate([wbox.lo, np.full(n, -np.inf), vbox.lo]),
            np.concatenate([wbox.hi, np.full(n, np.inf), vbox.hi]),
            D,
            np.concatenate([np.zeros(n), entry["Y"]]),
        )
        self.x_final = x_at
        self.length += 1
        self._hull = None
        self._probes = {}

    def _append(self, lo, hi, D, b):
        """Append columns with bounds [lo, hi] and the rows D y = b, where
        y is the final state followed by the new columns."""
        region = self.program
        cols = np.concatenate([
            np.arange(self.x_final, self.x_final + self.n),
            np.arange(region.n, region.n + lo.size),
        ])
        r, c = np.nonzero(D)  # row-major, so already CSR order
        indptr = np.searchsorted(r, np.arange(D.shape[0] + 1))
        rows = sparse.csr_matrix(
            (D[r, c], cols[c], indptr), shape=(D.shape[0], region.n + lo.size)
        )
        region.extend(lo, hi, rows, b)

    def hull(self):
        """Interval hull of the final state, solved once per step and cached.

        The 2n bounds are solved over the one LinearProgram, each
        warm-started from the previous one's basis.
        """
        if self._hull is None:
            region = self.program
            lo = np.empty(self.n)
            hi = np.empty(self.n)
            c = np.zeros(region.n)
            for j in range(self.n):
                c[self.x_final + j] = 1.0
                rmin = region.solve(c, sense="min")
                if rmin.status == lp.INFEASIBLE:
                    raise czono.EmptySetError("trajectory LP infeasible")
                rmax = region.solve(c, sense="max")
                if rmax.status == lp.INFEASIBLE:
                    raise lp.NumericalError("trajectory LP feasible for the minimum only")
                lo[j] = -np.inf if rmin.status == lp.UNBOUNDED else rmin.value
                hi[j] = np.inf if rmax.status == lp.UNBOUNDED else rmax.value
                c[self.x_final + j] = 0.0
            self._hull = Box(lo, hi)
        return self._hull

    def contains_final(self, x, coords=None):
        """True iff some trajectory ends at x (on the listed coords).

        The final state is pinned through its bounds, which are restored
        after the solve; the answer is cached for the step.
        """
        coords = tuple(range(self.n) if coords is None else coords)
        x = np.asarray(x, dtype=float)
        key = (coords, x.tobytes())
        if key not in self._probes:
            region = self.program
            cols = self.x_final + np.array(coords, dtype=int)
            lo, hi = region.lo[cols], region.hi[cols]
            region.set_bounds(cols, x, x)
            status = region.solve(np.zeros(region.n)).status
            region.set_bounds(cols, lo, hi)
            self._probes[key] = status != lp.INFEASIBLE
        return self._probes[key]


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

    metrics="full" logs hull, diameter and generator norm per algorithm,
    agent and step; metrics="containment" logs only the containment
    booleans (hull metrics are null), which is much cheaper for the
    history-based filters.
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
    Z0 = czono.cartesian_product([czono.from_box(init_boxes[i]) for i in ids])

    flt = {}
    if "centralized" in cfg.algorithms:
        flt["centralized"] = filters.CentralizedFilter(system, Z0)
    if "oit" in cfg.algorithms:
        flt["oit"] = filters.OitFilter(system, Z0, cfg.delta_bar, mu0=cfg.mu0)
    if "distributed" in cfg.algorithms:
        flt["distributed"] = filters.DistributedFilter(
            system, {i: czono.from_box(init_boxes[i]) for i in ids}
        )

    history = _History(x0_box)

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
    # system_from_dict builds every noise range as a box, so each range is
    # its interval hull; the draws are those of NoiseSampler.from_cz
    agents = system.agents
    w_boxes = [czono.interval_hull(agents[i].Wset) for i in ids]
    v_boxes = {i: czono.interval_hull(agents[i].Vset) for i in ids}
    r_boxes = {
        (i, j): czono.interval_hull(agents[i].Rset_of[j])
        for i in ids
        for j in system.topology.in_neighbors(i)
    }
    aborted = None
    for k in range(1, cfg.K + 1):
        w = np.concatenate([sampler.from_box(box) for box in w_boxes])
        truth = sysmodel.step_truth(system, k - 1, truth, w)
        v = {i: sampler.from_box(box) for i, box in v_boxes.items()}
        r = {key: sampler.from_box(box) for key, box in r_boxes.items()}
        batch = sysmodel.measure(system, k, truth, v, r)
        prev = sysmodel.build_centralized(system, k - 1)
        cur = sysmodel.build_centralized(system, k)
        # system_from_dict builds every noise range as a box, so these
        # hulls are the stacked ranges themselves
        history.append(
            prev.A,
            prev.B,
            czono.interval_hull(prev.Wset),
            cur.H,
            czono.interval_hull(cur.Vset),
            sysmodel.stack_measurements(cur, batch),
        )
        step_rec = {"type": "step", "truth": truth.tolist()}
        step_rec.update(batch.to_dict())
        algs_rec = {}
        try:
            for alg, f in flt.items():
                f.step(k, batch)
                algs_rec[alg] = _step_metrics(
                    alg, f, cfg, history, k, truth, slices, metrics
                )
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
        if not f.last_refined:
            return {}
        return {
            str(i): [Z.n_generators, Z.n_constraints]
            for i, Z in sorted(f.last_refined.items())
        }
    return [f.posterior.n_generators, f.posterior.n_constraints]


def _step_metrics(alg, f, cfg, history, k, truth, slices, metrics):
    ids = cfg.system.agent_ids
    rec = {}
    if alg == "distributed":
        for i in ids:
            hull = f.hulls[i]
            contained = hull.contains_point(truth[slices[i]], tol=1e-9)
            rec[str(i)] = _agent_rec(hull if metrics == "full" else None, contained)
        return rec
    # history-backed filters: centralized over the whole past, fixed-lag
    # over its window with a free initial state
    if alg == "oit" and k > cfg.delta_bar:
        traj = history.window(k - cfg.delta_bar)
    else:
        traj = history.trajectory()
    contained_all = traj.contains_final(truth)
    hull = traj.hull() if metrics == "full" else None
    for i in ids:
        sl = slices[i]
        contained = contained_all or traj.contains_final(truth[sl], range(sl.start, sl.stop))
        sub = None if hull is None else Box(hull.lo[sl], hull.hi[sl])
        rec[str(i)] = _agent_rec(sub, contained)
    return rec


def _agent_rec(hull, contained):
    if hull is None:
        return {"hull": None, "d": None, "gnorm": None, "contained": bool(contained)}
    widths = hull.widths()
    d = float(widths.max()) if widths.size else 0.0
    gnorm = float(hull.radius.max()) if hull.radius.size else 0.0
    assert abs(d - 2.0 * gnorm) <= 1e-12 * max(1.0, d)
    return {
        "hull": _box_out(hull),
        "d": d,
        "gnorm": gnorm,
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
    """Flatten a TrialLog into (trial, k, algorithm, agent, d, gnorm, contained)."""
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
                        "gnorm": a["gnorm"],
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
    cols = ["trial", "k", "algorithm", "agent", "d", "gnorm", "contained"]
    with open(path, "w") as f:
        f.write(",".join(cols) + "\n")
        for log in logs:
            for row in metrics_rows(log):
                f.write(",".join(_csv_cell(row[c]) for c in cols) + "\n")
