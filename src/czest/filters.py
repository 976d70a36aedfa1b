"""Set-membership filters over extended constrained zonotopes.

Three estimators:

* ``CentralizedFilter``: the full-history recursion on the stacked
  system.  Exact, but its representation grows with time.
* ``OitFilter``: fixed-lag variant.  Once more than ``delta_bar`` steps
  have passed it rebuilds the posterior from the last ``delta_bar + 1``
  measurement batches starting from an unbounded prior, so the
  representation size stops growing.  Needs ``delta_bar >= mu0 - 1``
  where ``mu0`` is the system's observability index.
* ``DistributedFilter``: each agent runs a local recursion over its
  neighborhood joint state, refines its own block with the joint
  posteriors received from peers, and finalizes with an interval hull so
  the local representation stays constant-size.

The centralized and fixed-lag posteriors are lifted constrained
zonotopes (Scott, Raimondo, Marseglia & Braatz, Automatica 69, 2016),
held as one sparse "trajectory" LP over the window's states and noises
(``_TrajectoryLP``): the dynamics rows x_k = A x_{k-1} + B w encode the
prediction, the measurement rows H x_k + v = Y the update, and the set
is the LP's feasible set projected on the final state.  A step appends
one block of columns and rows to the same ``lp.LinearProgram``, so every
solve warm-starts from the last basis, across steps too; past
``delta_bar`` the fixed-lag filter builds its window afresh each step,
with the window's first state free.  ``hull`` solves the final state's
interval hull once per step; ``contains`` pins the final state through
its bounds, solves and restores them.  ``posterior`` builds the lifted
CZ itself only when asked for.  The trajectory LP reads every noise
range as a box, so these two filters accept box noise ranges and a box
initial set only.

Steps are numbered so that step 0 is initialization only; the first
measurement batch arrives at k = 1.
"""

import numpy as np
from scipy import sparse

from . import czono, lp, sysmodel
from .czono import Box, ConstrainedZonotope, EmptySetError

__all__ = [
    "CentralizedFilter",
    "OitFilter",
    "DistributedFilter",
    "EmptyPosteriorError",
    "WindowTooShortError",
    "smf_predict",
    "smf_update",
    "update_intersection",
    "finalize_hull",
]

# Test hook: cmd_verify --inject-fault flips this to check that the
# stacking-equivalence oracle actually detects a wrong coupling sign.
_COUPLING_SIGN = 1.0


class EmptyPosteriorError(RuntimeError):
    """A posterior came out empty: the model contradicts the data."""

    def __init__(self, k, agent=None):
        where = f"agent {agent} " if agent is not None else ""
        super().__init__(f"empty posterior at {where}step {k}")
        self.k = k
        self.agent = agent


class WindowTooShortError(ValueError):
    """delta_bar below the observability requirement."""


def smf_predict(Z, A, B, Wset):
    """One prediction: A Z + B [w]."""
    return czono.minkowski_sum(czono.linear_map(A, Z), czono.linear_map(B, Wset))


def smf_update(Z, H, Y, Vset):
    """One measurement update: { x in Z : H x + v = Y, v in Vset }."""
    return czono.intersect_under_map(Z, H, Y, Vset)


def _as_box(Z, what):
    """The Box a CZ exactly equals; ValueError unless Z is in box form.

    An unconstrained CZ whose generator columns each touch at most one
    output row is an axis-aligned box; its interval hull is then exact.
    """
    if Z.n_constraints or np.any((Z.G != 0.0).sum(axis=0) > 1):
        raise ValueError(f"{what} is not an axis-aligned box")
    return czono.interval_hull(Z)


def _step_entry(system, k, batch):
    """The stacked data of step k: the dynamics from k - 1 with its noise
    box, and the measurement map, noise box and stacked measurements."""
    prev = sysmodel.build_centralized(system, k - 1)
    cur = sysmodel.build_centralized(system, k)
    # every noise range is a box (checked by _LiftedFilter), so these
    # hulls are the stacked ranges themselves
    return {
        "A": prev.A,
        "B": prev.B,
        "w": czono.interval_hull(prev.Wset),
        "H": cur.H,
        "v": czono.interval_hull(cur.Vset),
        "Y": sysmodel.stack_measurements(cur, batch),
    }


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
        self.x_final = 0  # first column of the final state
        if x0_box is None:
            lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
        else:
            lo, hi = x0_box.lo, x0_box.hi
        self.program = lp.LinearProgram(np.zeros((0, n)), np.zeros(0), lo, hi)
        self._rows = []  # (CSR block, right-hand side) per _append
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
        self._rows.append((rows, b))

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

    def lifted(self):
        """The feasible set projected on the final state, as a lifted CZ.

        Every column is a generator: a finite column [lo, hi] is its
        center plus a generator with h = its radius, a free column a
        generator with h = inf.  G selects the final state's columns and
        the rows are the LP's, shifted by the centers.
        """
        region = self.program
        finite = np.isfinite(region.lo) & np.isfinite(region.hi)
        with np.errstate(invalid="ignore"):
            center = np.where(finite, 0.5 * (region.lo + region.hi), 0.0)
            h = np.where(finite, 0.5 * (region.hi - region.lo), np.inf)
        N = region.n
        if self._rows:
            A = sparse.vstack([
                sparse.csr_matrix((R.data, R.indices, R.indptr), shape=(R.shape[0], N))
                for R, _ in self._rows
            ]).toarray()
            b = np.concatenate([b for _, b in self._rows]) - A @ center
        else:
            A, b = np.zeros((0, N)), np.zeros(0)
        G = np.zeros((self.n, N))
        G[np.arange(self.n), self.x_final + np.arange(self.n)] = 1.0
        return ConstrainedZonotope(G, center[self.x_final : self.x_final + self.n], A, b, h)


class _LiftedFilter:
    """What the centralized and fixed-lag filters share: a posterior held
    as a ``_TrajectoryLP`` and the queries on it."""

    def __init__(self, system, initial):
        """``initial`` is a Box or a CZ that is an axis-aligned box; every
        noise range of ``system`` must be a box too."""
        if initial.dim != system.state_dim():
            raise ValueError("initial set dimension mismatch")
        x0_box = initial if isinstance(initial, Box) else _as_box(initial, "initial set")
        for i in system.agent_ids:
            a = system.agents[i]
            _as_box(a.Wset, f"agent {i}: process noise range")
            _as_box(a.Vset, f"agent {i}: measurement noise range")
            for j, R in a.Rset_of.items():
                _as_box(R, f"agent {i}: relative noise range of {j}")
        self.system = system
        self.k = 0
        self._traj = _TrajectoryLP(x0_box.dim, x0_box)

    def _next_entry(self, k, batch):
        if k != self.k + 1:
            raise ValueError(f"expected step {self.k + 1}, got {k}")
        return _step_entry(self.system, k, batch)

    def hull(self):
        """Interval hull of the stacked state (a Box), cached per step."""
        return self._traj.hull()

    def contains(self, x, coords=None):
        """True iff the posterior holds a state equal to x on ``coords``
        (all coordinates by default)."""
        return self._traj.contains_final(x, coords)

    @property
    def lifted_size(self):
        """(generators, constraints) of the lifted posterior: the LP's
        columns and rows."""
        return self._traj.program.n, self._traj.program.m

    @property
    def posterior(self):
        """The posterior as a lifted CZ, built on each access."""
        return self._traj.lifted()

    def agent_set(self, i):
        """Projection of the posterior onto agent i's block."""
        sl = self.system.state_slices()[i]
        return czono.project(self.posterior, range(sl.start, sl.stop))


class CentralizedFilter(_LiftedFilter):
    """Full-information recursion on the stacked system."""

    def step(self, k, batch):
        """Consume the batch of step k (must be the next step)."""
        self._traj.extend(self._next_entry(k, batch))
        self.k = k


class OitFilter(_LiftedFilter):
    """Fixed-lag rebuild recursion with bounded representation size.

    For k <= delta_bar the posterior is grown exactly as the centralized
    one (same LP, same inputs).  Beyond that it is rebuilt each step from
    the buffered window, with the state at k - delta_bar free, which caps
    its columns and rows at a constant.
    """

    def __init__(self, system, initial, delta_bar, mu0=None):
        super().__init__(system, initial)
        if mu0 is None:
            mu0 = sysmodel.observability_index(system)
        if delta_bar < mu0 - 1:
            raise WindowTooShortError(
                f"delta_bar={delta_bar} below observability requirement {mu0 - 1}"
            )
        self.delta_bar = int(delta_bar)
        self.mu0 = int(mu0)
        self._window = []  # step entries, oldest first

    def step(self, k, batch):
        """Consume the batch of step k (must be the next step)."""
        entry = self._next_entry(k, batch)
        self._window.append(entry)
        if len(self._window) > self.delta_bar + 1:
            self._window.pop(0)
        if k <= self.delta_bar:
            self._traj.extend(entry)
        else:
            first, *rest = self._window
            traj = _TrajectoryLP(self.system.state_dim(), None, first)
            for e in rest:
                traj.extend(e)
            self._traj = traj
        self.k = k


def update_intersection(own_joint, own_dims, received):
    """Refine the own block of a joint posterior with received joints.

    Args:
        own_joint: this agent's joint posterior over N̄_i.
        own_dims: per-agent dims of own_joint's blocks (own block first).
        received: list of (joint_l, alpha_l, dims_l), ascending peer id;
            alpha_l is the 1-based position of this agent in N̄_l.

    Returns the agent's own-state set: generators of all joints stacked,
    output map reading the own block, one coupling constraint per peer
    forcing its copy of the agent's state to match.
    """
    n = own_dims[0]
    Go = own_joint.G[:n, :]
    co = own_joint.c[:n]
    G = np.hstack([Go] + [np.zeros((n, Zl.n_generators)) for Zl, _, _ in received])
    A_blocks = [own_joint.A] + [Zl.A for Zl, _, _ in received]
    b_parts = [own_joint.b] + [Zl.b for Zl, _, _ in received]
    h = np.concatenate([own_joint.h] + [Zl.h for Zl, _, _ in received])
    ng_list = [own_joint.n_generators] + [Zl.n_generators for Zl, _, _ in received]
    total_ng = int(np.sum(ng_list))
    A = czono._blockdiag(*A_blocks)
    rows = []
    rhs = []
    ofs = ng_list[0]
    for Zl, alpha, dims_l in received:
        start = int(np.sum(dims_l[: alpha - 1]))
        if dims_l[alpha - 1] != n:
            raise ValueError("received joint stores this agent with a different dim")
        Gl = Zl.G[start : start + n, :]
        cl = Zl.c[start : start + n]
        row = np.zeros((n, total_ng))
        row[:, : ng_list[0]] = Go
        row[:, ofs : ofs + Zl.n_generators] = -_COUPLING_SIGN * Gl
        rows.append(row)
        rhs.append(_COUPLING_SIGN * cl - co)
        ofs += Zl.n_generators
    if rows:
        A = np.vstack([A] + rows)
        b = np.concatenate(b_parts + rhs)
    else:
        b = np.concatenate(b_parts) if b_parts else np.zeros(0)
    return ConstrainedZonotope(G, co, A, b, h)


def finalize_hull(Z):
    """Interval hull re-encoded as an unconstrained box-form CZ."""
    return czono.from_box(czono.interval_hull(Z))


class DistributedFilter:
    """Per-agent neighborhood recursion with peer refinement.

    After ``step`` the attributes ``last_joint`` (joint posteriors per
    agent) and ``last_refined`` (own-block sets before hulling) hold the
    intermediate sets of the step, for inspection and testing.
    """

    def __init__(self, system, initial_ranges):
        self.system = system
        ids = system.agent_ids
        if sorted(initial_ranges) != ids:
            raise ValueError("need an initial range per agent")
        for i in ids:
            if initial_ranges[i].dim != system.agents[i].n:
                raise ValueError(f"agent {i}: initial range dimension mismatch")
        self.posterior = dict(initial_ranges)
        self.hulls = {i: czono.interval_hull(initial_ranges[i]) for i in ids}
        self.k = 0
        self.last_joint = None
        self.last_refined = None

    def step(self, k, batch):
        if k != self.k + 1:
            raise ValueError(f"expected step {self.k + 1}, got {k}")
        system = self.system
        topo = system.topology
        ids = system.agent_ids
        priors = {}
        for i in ids:
            a = system.agents[i]
            priors[i] = smf_predict(self.posterior[i], a.A_of_k(k - 1), a.B, a.Wset)
        joint = {}
        for i in ids:
            nb = sysmodel.build_neighborhood(system, i, k)
            jp = czono.cartesian_product([priors[l] for l in nb.state_order])
            Y = sysmodel.stack_measurements(nb, batch)
            joint[i] = smf_update(jp, nb.H, Y, nb.Vset)
        refined = {}
        for i in ids:
            order_i = topo.nbar(i)
            dims_i = [system.agents[l].n for l in order_i]
            received = []
            for l in topo.peers(i):
                order_l = topo.nbar(l)
                dims_l = [system.agents[m].n for m in order_l]
                alpha = order_l.index(i) + 1
                received.append((joint[l], alpha, dims_l))
            refined[i] = update_intersection(joint[i], dims_i, received)
        for i in ids:
            try:
                hull = czono.interval_hull(refined[i])
            except EmptySetError:
                raise EmptyPosteriorError(k, agent=i) from None
            self.hulls[i] = hull
            self.posterior[i] = czono.from_box(hull)
        self.k = k
        self.last_joint = joint
        self.last_refined = refined
        return dict(self.posterior)

    def agent_set(self, i):
        return self.posterior[i]
