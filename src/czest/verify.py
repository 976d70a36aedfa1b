"""Self-check suites: randomized oracles for the geometry and filters.

These are callable both from the test suite and from the command line
(``czest verify``).  Each suite returns a list of CheckResult records; a
check fails loudly with a counterexample description rather than
asserting, so the CLI can print a table.

Suites:
  * geometry: randomized set-operation invariants on small CZs, with
    membership decided by LP and witnesses carried through constructions.
  * stacking: the lifted refinement (each joint a block of generator and
    state columns, assembled on shared columns, ``_SharedColumns``, so
    that every joint reads this agent's state through the same columns,
    as each block of the filter's agents' LP does) must represent exactly
    the same set as the project/intersect composition built from
    primitives.
  * oracle: the centralized filter against an exhaustive lattice oracle
    on a two-agent scalar scenario.
  * ordering: centralized hull diameters never exceed the fixed-lag or
    distributed ones on the five-vehicle scenario, and the centralized
    hulls lie inside the distributed ones, and inside the fixed-lag ones
    past its window.
  * backends: the centralized and fixed-lag hulls a trial logs (from the
    filters' trajectory LPs, and past ``delta_bar`` from the fixed-lag
    filter's window LP) agree on short horizons with those of the dense
    accumulated recursion (``_dense_predict``, ``_dense_update``),
    replayed here as a test-only reference from the trial's logged
    measurements.
  * distributed: the distributed hulls a trial logs (from the agents'
    lifted LP) agree with those of the dense composition of one
    distributed step, replayed per step from the logged previous hulls.
"""

import numpy as np

from . import czono, filters, simharness, sysmodel
from .czono import Box

__all__ = [
    "CheckResult",
    "geometry_checks",
    "stacking_checks",
    "grid_oracle_check",
    "ordering_check",
    "backend_check",
    "distributed_check",
    "lifted_refinement",
    "run_suites",
]


_WITNESS_POINTS = 20  # carried members per geometry case
_REPLAY_TOL = 1e-6  # largest deviation of a logged hull endpoint from its dense replay


class CheckResult:
    def __init__(self, name, cases, failures, detail=""):
        self.name = name
        self.cases = cases
        self.failures = failures
        self.detail = detail

    @property
    def passed(self):
        return self.failures == 0

    def __repr__(self):
        state = "pass" if self.passed else "FAIL"
        msg = f" [{self.detail}]" if self.detail else ""
        return f"{self.name}: {state} ({self.cases} cases, {self.failures} failures){msg}"


def _trial_result(name, log, cases, failures, detail):
    """The CheckResult of a suite that replays one trial ``log``: an
    aborted trial, cut short, counts as one more failing case."""
    if log.aborted:
        cases, failures = cases + 1, failures + 1
        detail = detail or f"trial aborted: {log.aborted}"
    return CheckResult(name, cases, failures, detail)


# -- random CZ construction with witnesses -----------------------------------


def _random_cz(rng, dim=None, allow_inf=True):
    """A nonempty CZ plus one interior generator witness xi0."""
    dim = dim or rng.integers(1, 4)
    ng = int(rng.integers(dim, dim + 5))
    nc = int(rng.integers(0, 3))
    G = rng.standard_normal((dim, ng))
    c = rng.standard_normal(dim) * 2
    h = np.where(rng.random(ng) < 0.7, 1.0, rng.uniform(0.3, 2.0, ng))
    if allow_inf and rng.random() < 0.15:
        h[rng.integers(0, ng)] = np.inf
    hw = np.where(np.isfinite(h), h, 2.0)
    xi0 = rng.uniform(-0.8, 0.8, ng) * hw
    A = rng.standard_normal((nc, ng))
    b = A @ xi0
    return czono.ConstrainedZonotope(G, c, A, b, h), xi0


def _interior_xi(rng, Z, xi0, count):
    """Feasible generator vectors strictly inside the box, via null(A)."""
    ng = Z.n_generators
    if Z.n_constraints:
        _, s, Vt = np.linalg.svd(Z.A, full_matrices=True)
        rank = int(np.sum(s > 1e-10 * (s[0] if s.size else 1.0)))
        null = Vt[rank:].T
    else:
        null = np.eye(ng)
    out = []
    hw = np.where(np.isfinite(Z.h), Z.h, 2.0)
    for _ in range(count):
        if null.shape[1] == 0:
            out.append(xi0)
            continue
        direction = null @ rng.standard_normal(null.shape[1])
        nrm = np.abs(direction).max()
        if nrm < 1e-12:
            out.append(xi0)
            continue
        # largest |t| keeping xi0 + t*direction within 0.95 of the box
        caps = (0.95 * hw - np.sign(direction) * xi0) / np.abs(direction)
        caps = caps[np.abs(direction) > 1e-12]
        t_max = caps.min() if caps.size else 0.0
        t = rng.uniform(0.0, max(t_max, 0.0))
        out.append(xi0 + t * direction)
    return out


def _probe_points(rng, Z, count):
    """Points around Z: inside-ish samples plus clear outsiders."""
    hull = czono.interval_hull(Z)
    lo = np.where(np.isfinite(hull.lo), hull.lo, -3.0)
    hi = np.where(np.isfinite(hull.hi), hull.hi, 3.0)
    span = np.maximum(hi - lo, 1.0)
    pts = [rng.uniform(lo - 0.2 * span, hi + 0.2 * span) for _ in range(count)]
    return pts


def geometry_checks(rng_seed=2026, cases_per_op=200, lp_points=8):
    """Randomized invariants for every exact set operation."""
    rng = np.random.default_rng(rng_seed)
    results = []

    def run(name, fn):
        failures = 0
        detail = ""
        for case in range(cases_per_op):
            msg = fn(rng)
            if msg:
                failures += 1
                if not detail:
                    detail = f"case {case}: {msg}"
        results.append(CheckResult(f"geometry.{name}", cases_per_op, failures, detail))

    def check_linear_map(rng):
        Z, xi0 = _random_cz(rng)
        M = rng.standard_normal((rng.integers(1, 4), Z.dim))
        t = rng.standard_normal(M.shape[0])
        ZM = czono.linear_map(M, Z, t)
        for xi in _interior_xi(rng, Z, xi0, _WITNESS_POINTS):
            x = Z.G @ xi + Z.c
            y = ZM.G @ xi + ZM.c
            if not np.allclose(M @ x + t, y, atol=1e-9):
                return "witness image mismatch"
            if not czono.contains(ZM, M @ x + t):
                return "mapped member not contained"
        return ""

    def check_minkowski(rng):
        Z1, xi1 = _random_cz(rng)
        Z2, xi2 = _random_cz(rng, dim=Z1.dim)
        ZS = czono.minkowski_sum(Z1, Z2)
        for a, b in zip(
            _interior_xi(rng, Z1, xi1, _WITNESS_POINTS),
            _interior_xi(rng, Z2, xi2, _WITNESS_POINTS),
        ):
            x = Z1.G @ a + Z1.c
            y = Z2.G @ b + Z2.c
            if not czono.contains(ZS, x + y):
                return "sum of members not in sum"
        hullS = czono.interval_hull(ZS)
        for x in _probe_points(rng, ZS, lp_points):
            inside = czono.contains(ZS, x)
            if inside and not hullS.contains_point(x, tol=1e-7):
                return "member outside the hull"
        return ""

    def check_intersect(rng):
        Z1, xi1 = _random_cz(rng)
        # build Z2 sharing a point with Z1 so the intersection is nonempty
        shared = Z1.G @ xi1 + Z1.c
        Z2, xi2 = _random_cz(rng, dim=Z1.dim)
        Z2 = czono.ConstrainedZonotope(Z2.G, shared - Z2.G @ xi2, Z2.A, Z2.b, Z2.h)
        ZI = czono.intersect(Z1, Z2)
        if czono.is_empty(ZI):
            return "intersection empty despite shared point"
        for x in _probe_points(rng, Z1, lp_points):
            both = czono.contains(Z1, x) and czono.contains(Z2, x)
            inter = czono.contains(ZI, x)
            if both != inter:
                return f"membership biconditional broken at {x}"
        return ""

    def check_intersect_under_map(rng):
        Zx, xix = _random_cz(rng)
        m = int(rng.integers(1, 3))
        H = rng.standard_normal((m, Zx.dim))
        Zv, xiv = _random_cz(rng, dim=m, allow_inf=False)
        x_true = Zx.G @ xix + Zx.c
        v_true = Zv.G @ xiv + Zv.c
        Y = H @ x_true + v_true
        ZU = czono.intersect_under_map(Zx, H, Y, Zv)
        if not czono.contains(ZU, x_true):
            return "generating state not in update"
        for x in _probe_points(rng, Zx, lp_points):
            in_upd = czono.contains(ZU, x)
            consistent = czono.contains(Zx, x) and czono.contains(Zv, Y - H @ x)
            if in_upd != consistent:
                return f"update biconditional broken at {x}"
        return ""

    def check_project(rng):
        Z, xi0 = _random_cz(rng, dim=int(rng.integers(2, 4)))
        coords = sorted(
            rng.choice(Z.dim, size=int(rng.integers(1, Z.dim + 1)), replace=False).tolist()
        )
        ZP = czono.project(Z, coords)
        for xi in _interior_xi(rng, Z, xi0, _WITNESS_POINTS):
            x = Z.G @ xi + Z.c
            if not czono.contains(ZP, x[coords]):
                return "projected member missing"
        try:
            hull_full = czono.interval_hull(Z)
            hull_proj = czono.interval_hull(ZP)
        except czono.EmptySetError:
            return "unexpected empty set"
        for out, j in enumerate(coords):
            if np.isfinite(hull_full.lo[j]) != np.isfinite(hull_proj.lo[out]):
                return "hull finiteness mismatch"
            if np.isfinite(hull_full.lo[j]) and (
                abs(hull_full.lo[j] - hull_proj.lo[out]) > 1e-7
                or abs(hull_full.hi[j] - hull_proj.hi[out]) > 1e-7
            ):
                return "projection hull differs from full hull coords"
        return ""

    def check_cartesian(rng):
        Z1, xi1 = _random_cz(rng)
        Z2, xi2 = _random_cz(rng)
        ZC = czono.cartesian_product([Z1, Z2])
        if ZC.dim != Z1.dim + Z2.dim:
            return "dim mismatch"
        for a, b in zip(
            _interior_xi(rng, Z1, xi1, _WITNESS_POINTS),
            _interior_xi(rng, Z2, xi2, _WITNESS_POINTS),
        ):
            x = np.concatenate([Z1.G @ a + Z1.c, Z2.G @ b + Z2.c])
            if not czono.contains(ZC, x):
                return "stacked member missing"
        return ""

    def check_hull_bounds(rng):
        Z, xi0 = _random_cz(rng, allow_inf=False)
        hull = czono.interval_hull(Z)
        for xi in _interior_xi(rng, Z, xi0, _WITNESS_POINTS):
            x = Z.G @ xi + Z.c
            if not hull.contains_point(x, tol=1e-7):
                return "member escapes hull"
        # nothing beyond the hull may be contained
        for j in range(Z.dim):
            probe = np.array(Z.c)
            probe[j] = hull.hi[j] + 1e-3 * max(1.0, abs(hull.hi[j]))
            if czono.contains(Z, probe):
                return "containment beyond hull bound"
        return ""

    def check_monotone(rng):
        Z, xi0 = _random_cz(rng, allow_inf=False)
        Zbig = czono.ConstrainedZonotope(Z.G, Z.c, Z.A, Z.b, Z.h * 2.0)
        h1 = czono.interval_hull(Z)
        h2 = czono.interval_hull(Zbig)
        if np.any(h1.lo < h2.lo - 1e-7) or np.any(h1.hi > h2.hi + 1e-7):
            return "hull not monotone under box growth"
        return ""

    def check_diameter(rng):
        Z, xi0 = _random_cz(rng, allow_inf=False)
        d = czono.diameter_inf(Z)
        pts = [
            Z.G @ xi + Z.c for xi in _interior_xi(rng, Z, xi0, _WITNESS_POINTS)
        ]
        for a in pts:
            for b in pts:
                if np.abs(a - b).max() > d + 1e-7:
                    return "point pair wider than diameter"
        return ""

    run("linear_map", check_linear_map)
    run("minkowski_sum", check_minkowski)
    run("intersect", check_intersect)
    run("intersect_under_map", check_intersect_under_map)
    run("project", check_project)
    run("cartesian_product", check_cartesian)
    run("interval_hull", check_hull_bounds)
    run("hull_monotone", check_monotone)
    run("diameter_inf", check_diameter)
    return results


# -- stacking equivalence -----------------------------------------------------


def _random_joint(rng, q, n=1):
    """A nonempty joint posterior over q blocks of dim n."""
    Z, xi0 = _random_cz(rng, dim=q * n, allow_inf=False)
    return Z


class _SharedColumns:
    """One LP of blocks (lo, hi, D, b_lo, b_hi), each over its own columns
    but for one slot of columns that all of them share: the layout, laid
    out once from each block's shape (its rows and columns) and the slot's
    positions among its columns, and the assembly of a list of such blocks
    (``__call__``).

    The blocks' rows follow each other in order.  The first block's
    columns come first, in its order; each later block reads the slot
    through the first block's columns of it, with the sign
    ``filters._COUPLING_SIGN`` (which ``czest verify --inject-fault``
    flips, so that the oracles catch a block that reads the slot wrongly),
    and its other columns follow, in its order.  ``cols`` holds the LP
    column of each block column, block by block, ``own`` the slot's LP
    columns and (``m``, ``n``) the LP's shape.  The distributed filter's
    agents' LP reads each agent's slot so, with the other agents reduced
    to their measured coordinates (``filters._AgentLP``); this
    unreduced assembly is its tests' reference.
    """

    def __init__(self, blocks):
        self.cols, self.m, self.n, laid = [], 0, 0, []
        for b, ((rows, width), slot) in enumerate(blocks):
            cols, sign = np.full(width, -1), np.ones(width)
            if b:
                cols[slot], sign[slot] = self.own, filters._COUPLING_SIGN
            fresh = np.flatnonzero(cols < 0)
            cols[fresh] = self.n + np.arange(fresh.size)
            if not b:
                self.own = cols[slot]
            self.m, self.n = self.m + rows, self.n + fresh.size
            self.cols.append(cols)
            laid.append((rows, sign, fresh))
        # per block entry, its place in D (flat) and its sign; per LP
        # column, the block column (in the blocks' concatenation) that
        # bounds it: the first
        at, signs, self._pick, row, first = [], [], np.empty(self.n, dtype=int), 0, 0
        for cols, (rows, sign, fresh) in zip(self.cols, laid):
            at.append(((row + np.arange(rows))[:, None] * self.n + cols).ravel())
            signs.append(np.tile(sign, rows))
            self._pick[cols[fresh]] = first + fresh
            row, first = row + rows, first + cols.size
        self._at, self._sign = np.concatenate(at), np.concatenate(signs)

    def __call__(self, blocks):
        """The LP (lo, hi, D, b_lo, b_hi) of ``blocks``, in layout order:
        each block's rows in turn, on its columns.  Every block bounds the
        slot alike; the first one's bounds are kept."""
        col_lo, col_hi, rows, b_lo, b_hi = zip(*blocks)
        D = np.zeros(self.m * self.n)
        D[self._at] = np.concatenate([R.ravel() for R in rows]) * self._sign
        return (
            np.concatenate(col_lo)[self._pick],
            np.concatenate(col_hi)[self._pick],
            D.reshape(self.m, self.n),
            np.concatenate(b_lo),
            np.concatenate(b_hi),
        )


def lifted_refinement(own_joint, own_dims, received):
    """The refined own-block set of a distributed step, as a lifted LP.

    Args:
        own_joint: this agent's joint posterior over N̄_i.
        own_dims: per-agent dims of own_joint's blocks (own block first).
        received: list of (joint_l, alpha_l, dims_l); alpha_l is the
            1-based position of this agent in N̄_l.

    Each joint Z is one LP block over its columns (xi, x)
    (``czono._lifted_block``), and the blocks are one LP on shared columns
    (``_SharedColumns``): every received joint reads this agent's state
    through the own joint's columns of it, which is the refinement's
    intersection.  Returns (LinearProgram, columns of the own state): the
    feasible set projected on those columns is the refined set.
    """
    n = own_dims[0]
    joints = [(own_joint, 1, own_dims)] + list(received)
    slots = []
    for Z, alpha, dims in joints:
        if dims[alpha - 1] != n:
            raise ValueError("received joint stores this agent with a different dim")
        start = Z.n_generators + int(np.sum(dims[: alpha - 1]))
        slots.append(np.arange(start, start + n))
    shapes = [(Z.n_constraints + Z.dim, Z.n_generators + Z.dim) for Z, _, _ in joints]
    layout = _SharedColumns(list(zip(shapes, slots)))
    return filters._region(*layout([czono._lifted_block(Z) for Z, _, _ in joints])), layout.own


def stacking_checks(rng_seed=2026, instances=100, probes=1000):
    """Lifted refinement vs project/intersect composition.

    For each random instance both realizations are built over the same
    received joints; membership of every probe point, pinned through the
    own columns' bounds in the lifted LP, must agree exactly.
    """
    rng = np.random.default_rng(rng_seed)
    failures = 0
    detail = ""
    for inst in range(instances):
        n = 1
        q_own = int(rng.integers(2, 4))
        own = _random_joint(rng, q_own, n)
        own_dims = [n] * q_own
        received = []
        for _ in range(int(rng.integers(0, 3))):
            q_l = int(rng.integers(2, 4))
            alpha = int(rng.integers(2, q_l + 1))
            received.append((_random_joint(rng, q_l, n), alpha, [n] * q_l))
        region, cols = lifted_refinement(own, own_dims, received)
        comp = czono.project(own, range(n))
        for Zl, alpha, dims_l in received:
            start = int(np.sum(dims_l[: alpha - 1]))
            comp = czono.intersect(comp, czono.project(Zl, range(start, start + n)))
        # probe points spread around both hulls
        disagreements = 0
        for x in _probe_points(rng, own, probes):
            xs = x[:n]
            if region.feasible_at(cols, xs) != czono.contains(comp, xs):
                disagreements += 1
        if disagreements:
            failures += 1
            if not detail:
                detail = f"instance {inst}: {disagreements} membership disagreements"
    return [CheckResult("stacking.equivalence", instances, failures, detail)]


# -- lattice oracle -----------------------------------------------------------


def grid_oracle_check(resolution=0.05, steps=5, rng_seed=2026):
    """Centralized filter vs exhaustive lattice enumeration on pair1d.

    The pair1d scenario draws noise on a lattice of the given resolution,
    so the exhaustive dynamic program over lattice states is exact: a
    lattice point survives step k iff some gridded trajectory consistent
    with every measurement ends there.  Oracle extremes must match the
    filter's LP hull endpoints to within one cell.
    """
    from scipy.ndimage import maximum_filter1d

    doc = simharness.build_pair1d_scenario(horizon=steps, seed=rng_seed)
    doc.update(noise_grid=resolution, algorithms=["centralized"])
    cfg = simharness.ScenarioConfig(doc)
    log = simharness.run_trial(cfg, 0, metrics="full")

    lo0, hi0 = -10.0, 12.0
    npts = int(round((hi0 - lo0) / resolution)) + 1
    axis = lo0 + resolution * np.arange(npts)
    X1, X2 = np.meshgrid(axis, axis, indexing="ij")
    b1 = Box(**doc["agents"][0]["initial_range"])
    b2 = Box(**doc["agents"][1]["initial_range"])
    occ = (
        (X1 >= b1.lo[0] - 1e-9)
        & (X1 <= b1.hi[0] + 1e-9)
        & (X2 >= b2.lo[0] - 1e-9)
        & (X2 <= b2.hi[0] + 1e-9)
    )
    wcells = int(round(1.0 / resolution))
    assert abs(wcells * resolution - 1.0) < 1e-12

    failures = 0
    detail = ""
    worst = 0.0
    for rec in log.steps:
        k = rec["k"]
        # predict: dilation by the gridded process noise box (A = B = 1)
        occ = maximum_filter1d(occ.astype(np.uint8), 2 * wcells + 1, axis=0, mode="constant")
        occ = maximum_filter1d(occ, 2 * wcells + 1, axis=1, mode="constant").astype(bool)
        # update: keep lattice points consistent with all measurements
        y1, y2 = rec["y"]["1"][0], rec["y"]["2"][0]
        z12, z21 = rec["z"]["1,2"][0], rec["z"]["2,1"][0]
        occ &= np.abs(y1 - X1) <= 1.0 + 1e-9
        occ &= np.abs(y2 - X2) <= 1.0 + 1e-9
        occ &= np.abs(z12 - (X1 - X2)) <= 1.0 + 1e-9
        occ &= np.abs(z21 - (X2 - X1)) <= 1.0 + 1e-9
        if not occ.any():
            failures += 1
            detail = detail or f"step {k}: oracle grid empty"
            break
        hulls = rec["algs"]["centralized"]
        filter_box = Box(
            [hulls["1"]["hull"][0][0], hulls["2"]["hull"][0][0]],
            [hulls["1"]["hull"][1][0], hulls["2"]["hull"][1][0]],
        )
        idx1 = np.where(occ.any(axis=1))[0]
        idx2 = np.where(occ.any(axis=0))[0]
        oracle = Box(
            [axis[idx1[0]], axis[idx2[0]]], [axis[idx1[-1]], axis[idx2[-1]]]
        )
        dev = max(
            np.abs(oracle.lo - filter_box.lo).max(),
            np.abs(oracle.hi - filter_box.hi).max(),
        )
        worst = max(worst, dev)
        if dev > resolution + 1e-6:
            failures += 1
            if not detail:
                detail = f"step {k}: deviation {dev:.6f} > {resolution + 1e-6}"
    if not detail and not log.aborted:
        detail = f"max dev {worst:.4f}"
    return [_trial_result("oracle.grid", log, len(log.steps), failures, detail)]


# -- conservativeness ordering -------------------------------------------------


def ordering_check(rng_seed=2026):
    """Centralized hulls must be tightest on the five-vehicle scenario
    (two trials at horizon 12, full metrics).

    ``ordering.diameters`` compares hull diameters: the centralized one
    may exceed neither the fixed-lag nor the distributed one by more than
    ``tol`` = 1e-9.  ``ordering.inclusion`` compares the hulls coordinate by
    coordinate: the centralized hull must lie inside the distributed one
    at every step, and inside the fixed-lag one past ``delta_bar`` (inside
    the window the two are the same LP), each endpoint to within
    ``tol * max(1, |x|)`` of the outer endpoint x.
    """
    tol = 1e-9
    doc = simharness.build_uav_scenario(horizon=12, seed=rng_seed)
    cfg = simharness.ScenarioConfig(doc)
    mc = simharness.run_monte_carlo(cfg, 2, metrics="full", workers=1)
    diam = {"cases": 0, "failures": 0, "detail": ""}
    incl = {"cases": 0, "failures": 0, "detail": ""}

    def fail(tally, detail):
        tally["failures"] += 1
        tally["detail"] = tally["detail"] or detail

    for log in mc.logs:
        for s in log.steps:
            algs = s["algs"]
            outer = ["distributed"] + (["oit"] if s["k"] > cfg.delta_bar else [])
            for agent in map(str, cfg.system.agent_ids):
                where = f"trial {log.header['trial']} step {s['k']} agent {agent}"
                diam["cases"] += 1
                dc = algs["centralized"][agent]["d"]
                do = algs["oit"][agent]["d"]
                dd = algs["distributed"][agent]["d"]
                if dc > do + tol or dc > dd + tol:
                    fail(diam, f"{where}: centralized {dc} vs oit {do} / distributed {dd}")
                c_lo, c_hi = np.array(algs["centralized"][agent]["hull"])
                for alg in outer:
                    incl["cases"] += 1
                    lo, hi = np.array(algs[alg][agent]["hull"])
                    excess = np.concatenate([lo - c_lo, c_hi - hi])
                    if np.any(excess > tol * np.maximum(1.0, np.abs(np.concatenate([lo, hi])))):
                        fail(incl, f"{where}: centralized hull leaves {alg}'s by {excess.max():.2e}")
    for tally in (diam, incl):
        if mc.aborts:
            tally["failures"] += len(mc.aborts)
            tally["detail"] = tally["detail"] or f"aborted trials: {mc.aborts}"
    return [
        CheckResult(f"ordering.{name}", t["cases"], t["failures"], t["detail"])
        for name, t in (("diameters", diam), ("inclusion", incl))
    ]


# -- backend agreement ---------------------------------------------------------


def _dense_predict(Z, A, B, Wset):
    """One dense prediction: A Z + B Wset."""
    return czono.minkowski_sum(czono.linear_map(A, Z), czono.linear_map(B, Wset))


def _dense_update(Z, H, Y, Vset):
    """One dense measurement update: { x in Z : H x + v = Y, v in Vset }."""
    return czono.intersect_under_map(Z, H, Y, Vset)


def _replay_hull_deviations(cfg, log):
    """Largest deviation of each logged centralized/oit hull from its reference.

    The reference is the interval hull of the accumulated (dense)
    constrained zonotope: the trial's logged measurement batches are
    replayed from the logged initial boxes through the textbook
    predict/update recursion, and past ``delta_bar`` the fixed-lag set is
    rebuilt from the last ``delta_bar + 1`` batches, starting from the
    whole space.  ``log`` must come from ``run_trial(cfg, ...,
    metrics="full")``.  Returns (k, algorithm, agent, deviation) tuples.
    """
    system = cfg.system
    ids = system.agent_ids
    slices = system.state_slices()
    cent = czono.cartesian_product(
        [czono.from_box(Box(*log.header["initial"][str(i)])) for i in ids]
    )
    st = sysmodel.build_centralized(system)
    W, V = czono.from_box(st.Wset), czono.from_box(st.Vset)
    window = []  # (A(k - 1), Y) per step, oldest first
    out = []
    for rec in log.steps:
        k = rec["k"]
        A = st.A(k - 1)
        Y = sysmodel.stack_measurements(st, sysmodel.MeasurementBatch.from_dict(rec))
        window = (window + [(A, Y)])[-(cfg.delta_bar + 1) :]
        cent = _dense_update(_dense_predict(cent, A, st.B, W), st.H, Y, V)
        oit = cent
        if k > cfg.delta_bar:
            oit = czono.whole_space(system.state_dim())
            for t, (At, Yt) in enumerate(window):
                if t:
                    oit = _dense_predict(oit, At, st.B, W)
                oit = _dense_update(oit, st.H, Yt, V)
        for alg, Z in (("centralized", cent), ("oit", oit)):
            for i in ids:
                sl = slices[i]
                ref = czono.interval_hull(czono.project(Z, range(sl.start, sl.stop)))
                logged = np.array(rec["algs"][alg][str(i)]["hull"])
                dev = max(np.abs(logged[0] - ref.lo).max(), np.abs(logged[1] - ref.hi).max())
                out.append((k, alg, i, float(dev)))
    return out


def backend_check(horizon=6, rng_seed=2026):
    """Logged centralized and fixed-lag hulls vs dense accumulated-form
    hulls on short horizons: those of the trajectory LPs, and past
    ``delta_bar`` (3 on uav5, 2 on pair1d) those of the fixed-lag filter's
    window LP."""
    results = []
    for name, builder in (("uav5", simharness.build_uav_scenario), ("pair1d", simharness.build_pair1d_scenario)):
        cfg = simharness.ScenarioConfig.from_doc(
            builder(horizon=horizon, seed=rng_seed), algorithms=["centralized", "oit"]
        )
        log = simharness.run_trial(cfg, 0, metrics="full")
        devs = _replay_hull_deviations(cfg, log)
        bad = [d for d in devs if d[3] > _REPLAY_TOL]
        detail = ""
        if bad:
            k, alg, agent, dev = bad[0]
            detail = f"{alg} agent {agent} step {k}: max dev {dev:.2e}"
        results.append(_trial_result(f"backends.{name}", log, len(devs), len(bad), detail))
    return results


# -- distributed replay ----------------------------------------------------------


def _replay_distributed_deviations(cfg, log):
    """Largest deviation of each logged distributed hull from its reference.

    The reference is the dense composition of one distributed step,
    started from the logged previous hulls (the logged initial boxes at
    k = 1): each agent's prior A_l(k - 1) X_l + B_l W_l, the Cartesian
    product over N̄_i updated with agent i's measurements, and the own
    block of that joint intersected (``czono.project`` / ``czono.intersect``)
    with this agent's block of every peer's joint.  ``log`` must come from
    ``run_trial(cfg, ..., metrics="full")``.  Returns (k, agent, deviation)
    tuples.
    """
    system = cfg.system
    topo = system.topology
    agents = system.agents
    ids = system.agent_ids
    prev = {i: Box(*log.header["initial"][str(i)]) for i in ids}
    stacks = {i: sysmodel.build_neighborhood(system, i) for i in ids}
    out = []
    for rec in log.steps:
        k = rec["k"]
        batch = sysmodel.MeasurementBatch.from_dict(rec)
        priors = {
            l: _dense_predict(
                czono.from_box(prev[l]), agents[l].A_of_k(k - 1), agents[l].B, czono.from_box(agents[l].Wset)
            )
            for l in ids
        }
        joint = {}
        for i in ids:
            nb = stacks[i]
            prior = czono.cartesian_product([priors[l] for l in nb.state_order])
            Y = sysmodel.stack_measurements(nb, batch)
            joint[i] = _dense_update(prior, nb.H, Y, czono.from_box(nb.Vset))
        logged = {i: rec["algs"]["distributed"][str(i)]["hull"] for i in ids}
        for i in ids:
            n = agents[i].n
            refined = czono.project(joint[i], range(n))
            for l in topo.peers(i):
                order = topo.nbar(l)
                start = sum(agents[m].n for m in order[: order.index(i)])
                refined = czono.intersect(refined, czono.project(joint[l], range(start, start + n)))
            ref = czono.interval_hull(refined)
            lo, hi = np.array(logged[i])
            dev = max(np.abs(lo - ref.lo).max(), np.abs(hi - ref.hi).max())
            out.append((k, i, float(dev)))
        prev = {i: Box(*logged[i]) for i in ids}
    return out


def distributed_check(horizon=6, rng_seed=2026):
    """Logged distributed hulls vs the dense composition of each step."""
    results = []
    for name, builder in (("uav5", simharness.build_uav_scenario), ("pair1d", simharness.build_pair1d_scenario)):
        cfg = simharness.ScenarioConfig.from_doc(
            builder(horizon=horizon, seed=rng_seed), algorithms=["distributed"]
        )
        log = simharness.run_trial(cfg, 0, metrics="full")
        devs = _replay_distributed_deviations(cfg, log)
        bad = [d for d in devs if d[2] > _REPLAY_TOL]
        detail = ""
        if bad:
            k, agent, dev = bad[0]
            detail = f"agent {agent} step {k}: max dev {dev:.2e}"
        results.append(_trial_result(f"distributed.{name}", log, len(devs), len(bad), detail))
    return results


_SUITES = {
    "geometry": lambda seed: geometry_checks(rng_seed=seed, cases_per_op=60, lp_points=6),
    "stacking": lambda seed: stacking_checks(rng_seed=seed, instances=40, probes=200),
    "oracle": lambda seed: grid_oracle_check(rng_seed=seed),
    "ordering": lambda seed: ordering_check(rng_seed=seed),
    "backends": lambda seed: backend_check(rng_seed=seed),
    "distributed": lambda seed: distributed_check(rng_seed=seed),
}


def run_suites(names=None, seed=2026):
    """Run the named suites (all by default) and return CheckResults."""
    names = list(names or _SUITES)
    results = []
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown suite '{name}' (have: {', '.join(sorted(_SUITES))})")
        results.extend(_SUITES[name](seed))
    return results
