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

All three filters hold their sets as lifted constrained zonotopes
(Scott, Raimondo, Marseglia & Braatz, Automatica 69, 2016): LPs whose
columns are states and noises and whose rows are the dynamics,
measurement and coupling equations, one ``lp.LinearProgram`` each.

Every filter builds its LP from step blocks (``_step_block``), each
appended to the ``lp.LinearProgram`` by ``_append``: the dynamics rows
x_k = A x_{k-1} + B w encode the prediction, the measurement rows
H x_k + v = Y the update, over the columns x_{k-1}, w, x_k and v of one
stacked system (``sysmodel``), with w and v in the stack's noise boxes.
Each filter builds its stacks once, at construction.  Of these numbers
only A (``StackedSystem.A(k)``) and Y change from one step to the next:
B, H and the noise boxes are the stack's fixed parts, so a block moved
to a later step is rewritten in place by ``_write_blocks``.

The distributed filter gives each agent one LP for the whole trial
(``_AgentLP``): one step block per owner, its own neighborhood and every
peer's, with the previous states bounded by the last hulls, and the
``coupling_rows`` that make the peers' copies of the agent's state
equal to its own.  Its structure is fixed, so a step only writes the
new numbers in place (hull bounds, changed dynamics coefficients,
measurements) and solves the 2n bounds of the agent's state from the
last basis.  The posterior is the hull
(``hulls``); ``agent_set`` encodes it as a CZ only when asked.

The centralized and fixed-lag posteriors are held as one sparse
"trajectory" LP over the window's states and noises (``_TrajectoryLP``),
one step block of the centralized stack per step; the set is the LP's
feasible set projected on the final state.  A step appends
its block of columns and rows to the same ``lp.LinearProgram``, so every
solve warm-starts from the last basis, across steps too.  Past
``delta_bar`` the fixed-lag filter builds its window once, with the
window's first state free, and then slides it by rewriting that LP in
place: the window's columns and rows never change, and of its numbers
only the dynamics coefficients A and the measurements Y move
(``_TrajectoryLP.rewrite``).  ``hull`` solves the final state's
interval hull; ``contains`` pins the final state through its bounds,
solves and restores them, and after an infeasible probe solves the
unpinned region once, so that an empty posterior raises
``czono.EmptySetError`` instead of reading as a point outside it.

Every hull (``_lp_hull``) solves all minima first, then all maxima.
Inside one hull only the objective changes, so ``lp.LinearProgram``
runs primal simplex from the last basis; the first solve after a step's
change to the region (appended rows, new numbers, restored bounds) runs
dual simplex.  An infeasible minimum is an empty posterior, an
infeasible maximum after feasible minima a ``lp.NumericalError``, and
an unbounded bound is ±inf.  ``posterior`` builds the lifted
CZ itself only when asked for.  Noise ranges are boxes by the system
model's type, and the LPs bound their first states by the initial sets,
so all three filters take their initial sets as ``Box``es.

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
    "coupling_rows",
]

# Test hook: cmd_verify --inject-fault flips this to check that the
# stacking and distributed oracles actually detect a wrong coupling sign
# (read by coupling_rows, so by each agent LP when it is built).
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


def _lp_hull(region, cols):
    """Interval hull of the listed columns over the region's feasible set.

    The 2 bounds per column are solved over the one LinearProgram, all
    minima before all maxima, each warm-started from the previous one's
    basis (``czono._lp_bounds``).
    """
    C = np.zeros((len(cols), region.n))
    C[np.arange(len(cols)), cols] = 1.0
    return czono._uncrossed_box(*czono._lp_bounds(region, C))


def _pinned_feasible(region, cols, x):
    """True iff some feasible point equals x on the listed columns.

    The columns are pinned through their bounds, which are restored after
    the solve, also when it raises.
    """
    cols = np.asarray(cols, dtype=int)
    lo, hi = region.lo[cols], region.hi[cols]
    region.set_bounds(cols, x, x)
    try:
        return region.solve(np.zeros(region.n)).status != lp.INFEASIBLE
    finally:
        region.set_bounds(cols, lo, hi)


def coupling_rows(n_cols, own_cols, peer_cols):
    """The rows x_own - _COUPLING_SIGN * x_peer = 0 over ``n_cols`` columns
    (CSR, one row per coordinate): they tie a peer's copy of a state to
    the own one, which is the refinement's intersection."""
    own_cols = np.asarray(own_cols, dtype=int)
    n = own_cols.size
    rows = np.arange(n)
    return sparse.csr_matrix(
        (
            np.concatenate([np.ones(n), np.full(n, -_COUPLING_SIGN)]),
            (np.concatenate([rows, rows]), np.concatenate([own_cols, np.asarray(peer_cols, dtype=int)])),
        ),
        shape=(n, n_cols),
    )


def _step_entry(stack, k, batch):
    """What of step k moves, as (A, Y): the dynamics A(k - 1) of ``stack``
    and the batch's measurements in its row order."""
    return stack.A(k - 1), sysmodel.stack_measurements(stack, batch)


def _step_block(stack, A, Y):
    """One step as (lo, hi, D, b): the rows D y = b,

        dynamics     x_k - A x_{k-1} - B w = 0,
        measurement  H x_k + v = Y,

    over the columns y = (x_{k-1}, w, x_k, v), and the bounds [lo, hi] of
    the columns the step adds: w and v in the stack's boxes, x_k free.
    """
    B, H = stack.B, stack.H
    n, p, m = A.shape[0], B.shape[1], H.shape[0]
    D = np.zeros((n + m, n + p + n + m))
    D[:n, :n] = -A
    D[:n, n : n + p] = -B
    D[:n, n + p : 2 * n + p] = np.eye(n)
    D[n:, n + p : 2 * n + p] = H
    D[n:, 2 * n + p :] = np.eye(m)
    wbox, vbox = stack.Wset, stack.Vset
    return (
        np.concatenate([wbox.lo, np.full(n, -np.inf), vbox.lo]),
        np.concatenate([wbox.hi, np.full(n, np.inf), vbox.hi]),
        D,
        np.concatenate([np.zeros(n), Y]),
    )


def _write_blocks(region, blocks, entries):
    """Rewrite ``_step_block``s of ``region`` in place with the (A, Y) of
    ``entries``, one per block, and return the blocks with their new A.

    A block is (first dynamics row, first x_{k-1} column, A), its
    measurement rows following its dynamics rows.  Only A and Y move
    between steps, so only the entries of -A that differ from the block's
    A and the measurement right-hand sides are written, in one call each.
    """
    if not blocks:
        return []
    rows, cols, vals, meas = [], [], [], []
    for (row, col, A_old), (A, Y) in zip(blocks, entries, strict=True):
        rr, cc = np.nonzero(A != A_old)
        rows.append(row + rr)
        cols.append(col + cc)
        vals.append(-A[rr, cc])
        meas.append(np.arange(row + A.shape[0], row + A.shape[0] + Y.size))
    region.set_coefficients(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))
    region.set_rhs(np.concatenate(meas), np.concatenate([Y for _, Y in entries]))
    return [(row, col, A) for (row, col, _), (A, _) in zip(blocks, entries)]


def _append(region, prev_cols, lo, hi, D, b):
    """Append columns with bounds [lo, hi] and the rows D y = b to
    ``region``, where y is the columns ``prev_cols`` followed by the new
    ones."""
    cols = np.concatenate([prev_cols, np.arange(region.n, region.n + lo.size)])
    r, c = np.nonzero(D)  # row-major, so already CSR order
    indptr = np.searchsorted(r, np.arange(D.shape[0] + 1))
    rows = sparse.csr_matrix((D[r, c], cols[c], indptr), shape=(D.shape[0], region.n + lo.size))
    region.extend(lo, hi, rows, b)


class _TrajectoryLP:
    """Sparse LP over the (x_{t0}, w, x, v) of ``stack`` in one window.

    The feasible set projected on x_k equals the filter posterior: the
    dynamics rows encode the prediction, the measurement rows the update.
    ``x0_box=None`` leaves the window's initial state free, matching the
    fixed-lag window's unbounded prior; ``t0_Y`` adds that step's
    measurements of the initial state.  ``extend`` appends one step to the
    same ``lp.LinearProgram``, so every solve after the first starts from
    the last basis, across steps too.  ``rewrite`` moves a window to the
    next step in place: its columns, rows, bounds and every coefficient
    but A stay, so it writes A and the measurements Y only.
    """

    def __init__(self, stack, x0_box=None, t0_Y=None):
        self.stack = stack
        self.n = n = stack.B.shape[0]
        self.x_final = 0  # first column of the final state
        if x0_box is None:
            lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
        else:
            lo, hi = x0_box.lo, x0_box.hi
        self.program = lp.LinearProgram(np.zeros((0, n)), np.zeros(0), lo, hi)
        self._blocks = []  # (first dynamics row, first x_{k-1} column, A) per extend
        if t0_Y is not None:
            # measurement rows  H x_{t0} + v = Y
            H, vbox = stack.H, stack.Vset
            D = np.hstack([H, np.eye(H.shape[0])])
            _append(self.program, np.arange(n), vbox.lo, vbox.hi, D, t0_Y)

    def extend(self, A, Y):
        """Append one step (``_step_block``): columns w, x_k, v with the
        dynamics and measurement rows."""
        region = self.program
        prev = np.arange(self.x_final, self.x_final + self.n)
        x_at = region.n + self.stack.B.shape[1]
        self._blocks.append((region.m, self.x_final, A))
        _append(region, prev, *_step_block(self.stack, A, Y))
        self.x_final = x_at

    def rewrite(self, t0_Y, entries):
        """Write the window of ``t0_Y`` followed by ``entries`` ((A, Y) per
        ``extend``) over the current one, in place: the initial state's
        measurements and each block's A and Y (``_write_blocks``)."""
        self.program.set_rhs(np.arange(t0_Y.size), t0_Y)
        self._blocks = _write_blocks(self.program, self._blocks, entries)

    def hull(self):
        """Interval hull of the final state."""
        return _lp_hull(self.program, range(self.x_final, self.x_final + self.n))

    def contains_final(self, x, coords=None):
        """True iff some trajectory ends at x (on the listed coords)."""
        coords = range(self.n) if coords is None else coords
        cols = self.x_final + np.array(coords, dtype=int)
        return _pinned_feasible(self.program, cols, x)

    def lifted(self):
        """The feasible set projected on the final state, as a lifted CZ.

        Every column is a generator: a finite column [lo, hi] is its
        center plus a generator with h = its radius, a free column a
        generator with h = inf.  G selects the final state's columns and
        the rows are the LP's, shifted by the centers; they are read back
        from the model (``lp.LinearProgram.rows``), so they are the ones
        the last ``rewrite`` wrote.
        """
        region = self.program
        finite = np.isfinite(region.lo) & np.isfinite(region.hi)
        with np.errstate(invalid="ignore"):
            center = np.where(finite, 0.5 * (region.lo + region.hi), 0.0)
            h = np.where(finite, 0.5 * (region.hi - region.lo), np.inf)
        A, b = region.rows()
        A = A.toarray()
        b = b - A @ center
        G = np.zeros((self.n, region.n))
        G[np.arange(self.n), self.x_final + np.arange(self.n)] = 1.0
        return ConstrainedZonotope(G, center[self.x_final : self.x_final + self.n], A, b, h)


class _LiftedFilter:
    """What the centralized and fixed-lag filters share: a posterior held
    as a ``_TrajectoryLP`` and the queries on it."""

    def __init__(self, system, initial):
        """``initial`` is the stacked initial state's Box."""
        if not isinstance(initial, Box):
            raise ValueError("initial set is not a Box")
        if initial.dim != system.state_dim():
            raise ValueError("initial set dimension mismatch")
        self.system = system
        self.k = 0
        self._stack = sysmodel.build_centralized(system)
        self._traj = _TrajectoryLP(self._stack, initial)

    def _next_entry(self, k, batch):
        if k != self.k + 1:
            raise ValueError(f"expected step {self.k + 1}, got {k}")
        return _step_entry(self._stack, k, batch)

    def hull(self):
        """Interval hull of the stacked state (a Box)."""
        return self._traj.hull()

    def contains(self, x, coords=None):
        """True iff the posterior holds a state equal to x on ``coords``
        (all coordinates by default).  Raises ``czono.EmptySetError`` if
        the posterior is empty."""
        if self._traj.contains_final(x, coords):
            return True
        region = self._traj.program
        if region.solve(np.zeros(region.n)).status == lp.INFEASIBLE:
            raise EmptySetError("empty posterior")
        return False

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
        self._traj.extend(*self._next_entry(k, batch))
        self.k = k


class OitFilter(_LiftedFilter):
    """Fixed-lag recursion with bounded representation size.

    For k <= delta_bar the posterior is grown exactly as the centralized
    one (same LP, same inputs).  Beyond that it is the LP of the buffered
    window of the last delta_bar + 1 batches, with the state at
    k - delta_bar free, which caps its columns and rows at a constant.
    That LP is built once, at k = delta_bar + 1; each later step slides
    the window by rewriting it in place (``_TrajectoryLP.rewrite``), since
    only the dynamics coefficients A and the measurements Y differ, so
    its solves warm-start from the last basis.
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
        (_, Y0), *rest = self._window
        if k <= self.delta_bar:
            self._traj.extend(*entry)
        elif k == self.delta_bar + 1:
            self._traj = _TrajectoryLP(self._stack, None, Y0)
            for e in rest:
                self._traj.extend(*e)
        else:
            self._traj.rewrite(Y0, rest)
        self.k = k


class _AgentLP:
    """Agent i's lifted refinement: one LinearProgram for the whole trial.

    It holds the joint of agent i and the joint of every peer l in
    ``topology.peers(i)``.  Each of these owners o appends, in turn, the
    columns x_prev (bounded by the last hulls of N̄_o) and then, through
    ``_append``, one ``_step_block`` of its neighborhood stack over them:
    the columns w (in the W box), x (free) and o's v (in its V box), the
    dynamics rows and o's measurement rows.  One block of
    ``coupling_rows`` per peer then ties the peer's copy of x_i to agent
    i's own.  The feasible set projected on agent i's own x is the
    refined set of one distributed step.  Only numbers change from step
    to step: ``update`` writes them in place, so each step's solves start
    from the last basis.
    """

    def __init__(self, system, i, stacks, entries, hulls):
        """Build the model for one step: ``stacks`` maps each owner o to
        its neighborhood stack over N̄_o, ``entries`` to its
        ``_step_entry``, and ``hulls`` each agent to its last hull."""
        topo = system.topology
        self._nbar = {o: topo.nbar(o) for o in [i] + topo.peers(i)}
        self._blocks = []  # (first row, first column, A) per owner, in _nbar order
        region = lp.LinearProgram(np.zeros((0, 0)), np.zeros(0), np.zeros(0), np.zeros(0))
        x_of = {}  # owner -> first x column
        for o, order in self._nbar.items():
            A, Y = entries[o]
            prev = np.arange(region.n, region.n + A.shape[0])
            region.extend(
                np.concatenate([hulls[l].lo for l in order]),
                np.concatenate([hulls[l].hi for l in order]),
                np.zeros((0, region.n + prev.size)),
                np.zeros(0),
            )
            self._blocks.append((region.m, prev[0], A))
            x_of[o] = region.n + stacks[o].B.shape[1]
            _append(region, prev, *_step_block(stacks[o], A, Y))
        n = system.agents[i].n
        self.x_own = np.arange(x_of[i], x_of[i] + n)  # i leads N̄_i
        for l in topo.peers(i):
            start = x_of[l] + system.state_slices(self._nbar[l])[i].start
            rows = coupling_rows(region.n, self.x_own, np.arange(start, start + n))
            region.extend([], [], rows, np.zeros(n))
        self.program = region
        self._prev_cols = np.concatenate(
            [np.arange(col, col + A.shape[0]) for _, col, A in self._blocks]
        )
        self._prev_agents = [l for order in self._nbar.values() for l in order]  # of _prev_cols

    def update(self, entries, hulls):
        """Write the next step's numbers in place: per owner block the
        entries of A that changed and the measurement right-hand sides,
        from ``entries`` (``_write_blocks``), and the x_prev bounds from
        ``hulls``."""
        region = self.program
        self._blocks = _write_blocks(region, self._blocks, [entries[o] for o in self._nbar])
        region.set_bounds(
            self._prev_cols,
            np.concatenate([hulls[l].lo for l in self._prev_agents]),
            np.concatenate([hulls[l].hi for l in self._prev_agents]),
        )

    def hull(self):
        """Interval hull of agent i's refined own state."""
        return _lp_hull(self.program, self.x_own)


class DistributedFilter:
    """Per-agent neighborhood recursion with peer refinement.

    Each agent's posterior is the interval hull of its refined own state
    (``hulls``), solved on the agent's persistent lifted LP (``_AgentLP``).
    The models are built at the first step and then changed in place.
    """

    def __init__(self, system, initial_ranges):
        """``initial_ranges`` maps every agent id to its initial Box."""
        ids = system.agent_ids
        if sorted(initial_ranges) != ids:
            raise ValueError("need an initial range per agent")
        for i in ids:
            R = initial_ranges[i]
            if not isinstance(R, Box):
                raise ValueError(f"agent {i}: initial set is not a Box")
            if R.dim != system.agents[i].n:
                raise ValueError(f"agent {i}: initial range dimension mismatch")
        self.system = system
        self.hulls = {i: initial_ranges[i] for i in ids}
        self.k = 0
        self._stacks = {o: sysmodel.build_neighborhood(system, o) for o in ids}
        self._lps = None  # agent -> _AgentLP, from the first step on

    def step(self, k, batch):
        """Consume the batch of step k (must be the next step)."""
        if k != self.k + 1:
            raise ValueError(f"expected step {self.k + 1}, got {k}")
        system = self.system
        ids = system.agent_ids
        entries = {o: _step_entry(st, k, batch) for o, st in self._stacks.items()}
        if self._lps is None:
            self._lps = {i: _AgentLP(system, i, self._stacks, entries, self.hulls) for i in ids}
        else:
            for i in ids:
                self._lps[i].update(entries, self.hulls)
        hulls = {}
        for i in ids:
            try:
                hulls[i] = self._lps[i].hull()
            except EmptySetError:
                raise EmptyPosteriorError(k, agent=i) from None
        self.hulls = hulls
        self.k = k

    @property
    def lifted_sizes(self):
        """{agent: (columns, rows)} of the agents' lifted LPs, constant
        from the first step on ({} before it)."""
        if self._lps is None:
            return {}
        return {i: (m.program.n, m.program.m) for i, m in self._lps.items()}

    def agent_set(self, i):
        """Agent i's posterior, its hull as a box-form CZ (built on each call)."""
        return czono.from_box(self.hulls[i])
