"""Set-membership filters over extended constrained zonotopes.

Three estimators:

* ``CentralizedFilter``: the full-history recursion on the stacked
  system.  Exact, but its representation grows with time.
* ``OitFilter``: fixed-lag variant.  Once more than ``delta_bar`` steps
  have passed it rebuilds the posterior from the last ``delta_bar + 1``
  measurement batches starting from an unbounded prior, so the
  representation size stops growing.  Needs ``delta_bar >= mu0 - 1``
  where ``mu0`` is the system's observability index, which it computes
  (``sysmodel.observability_index``).
* ``DistributedFilter``: each agent runs a local recursion over its
  neighborhood joint state, refines its own block with the joint
  posteriors received from peers, and finalizes with an interval hull so
  the local representation stays constant-size.

All three filters hold their sets as lifted constrained zonotopes
(Scott, Raimondo, Marseglia & Braatz, Automatica 69, 2016): LPs whose
columns are states and process noises and whose rows are the dynamics,
measurement and coupling relations, one ``lp.LinearProgram`` each.  A
measurement noise v gets no column: the row H x + v = Y with v in its
box is the ranged row Y - v_hi <= H x <= Y - v_lo, each end rounded one
ulp outward (``_measurement_bounds``), since HiGHS keeps a bounded slack
for every row anyway.

The centralized and fixed-lag filters build their LPs from step blocks
(``_step_block``), each appended to the ``lp.LinearProgram`` on its own
columns (``extend``'s ``cols``): the dynamics rows x_k = A x_{k-1} + B w
encode the prediction, the measurement rows the update, over the columns
x_{k-1}, w and x_k of one stacked system (``sysmodel``), with w in the
stack's noise box.  Each filter builds its stacks once, at construction.
Of these numbers only A (``StackedSystem.A(k)``) and Y change from one
step to the next: B, H and the noise boxes are the stack's fixed parts,
so a block moved to a later step is rewritten in place
(``_TrajectoryLP.rewrite``).  Every in-place write of new numbers into a
filter LP goes through one writer, ``_rewrite``: each block whose
coefficients move is a slot, and it writes the entries that changed
since the slot's last matrix in one call and the measurement row bounds
in another.

The distributed filter gives each agent one LP for the whole trial
(``_AgentLP``), with each step's states substituted out: per owner, its
own neighborhood and every peer's, the previous states x_prev (bounded by
the last hulls) and the process noises w, the owner's measurement rows
over H A(k) x_prev + H B w, and the ``coupling_rows`` that make the
peers' copies of the agent's state equal to its own.  Every column is
bounded.  Each step, every owner o's numbers are computed once, as a
message (``_message``): A(k) and H A(k) of N̄_o, the measurement row
bounds and the bounds of N̄_o's last hulls.  Each agent LP receives the
messages of its owners and nothing else, so what it can read is local by
construction.  Its structure is fixed, so a step only writes the
messages' numbers in place (``_rewrite``, then the hull bounds) and
solves the 2n bounds of the agent's state from the last basis.  The
posterior is the hull (``hulls``).

The centralized and fixed-lag posteriors are held as one sparse
"trajectory" LP over the window's states and process noises
(``_TrajectoryLP``), one step block of the centralized stack per step;
the set is the LP's
feasible set projected on the final state.  A step appends
its block of columns and rows to the same ``lp.LinearProgram``, so every
solve warm-starts from the last basis, across steps too.  The fixed-lag
filter builds its window once, at construction, with the window's first
state free; past ``delta_bar`` it slides the window by rewriting that LP
in place: the window's columns and rows never change, and of its numbers
only the dynamics coefficients A and the measurement row bounds move.
``hull`` solves the final state's interval hull.  ``contains`` first
tries a one-step witness: the feasible LP point behind the last step's
``True``, carried one step by the recursion to the queried state and
checked against the LP's bounds and its rows as the HiGHS model holds them
(``lp.LinearProgram.satisfied_by``); a point that passes is a primal
certificate of membership.  Only when there is no witness, or it fails
the check, does ``contains`` fall back to the LP probe
(``lp.LinearProgram.feasible_at``): it pins the final state through its
bounds, solves and restores them, and after an infeasible probe solves
the unpinned region once, so that an empty posterior raises
``lp.EmptySetError`` instead of reading as a point outside it.

Every hull is ``lp.LinearProgram.bounds`` of the state's columns, so
an empty posterior raises ``lp.EmptySetError``.  Noise ranges are boxes
by the system model's type, and the LPs bound their first states by the
initial sets, so all three filters take their initial sets as ``Box``es.

Steps are numbered so that step 0 is initialization only; the first
measurement batch arrives at k = 1.
"""

import numpy as np

from . import lp, sysmodel
from .czono import Box

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


def _unit_rows(n, cols):
    """The rows e_j^T over n columns, one per listed column j."""
    C = np.zeros((len(cols), n))
    C[np.arange(len(cols)), cols] = 1.0
    return C


def coupling_rows(n_cols, own_cols, peer_cols, M=None):
    """The rows M y_own - _COUPLING_SIGN * M y_peer = 0 over ``n_cols``
    columns (a dense array, one row per row of M, the identity by
    default): they tie a peer's copy of a state to the own one, which is
    the refinement's intersection."""
    own_cols = np.asarray(own_cols, dtype=int)
    M = np.eye(own_cols.size) if M is None else M
    D = np.zeros((M.shape[0], n_cols))
    D[:, own_cols] = M
    D[:, peer_cols] = -_COUPLING_SIGN * M
    return D


def _step_entry(stack, k, batch):
    """What of step k moves, as (A, Y): the dynamics A(k - 1) of ``stack``
    and the batch's measurements in its row order."""
    return stack.A(k - 1), sysmodel.stack_measurements(stack, batch)


def _measurement_bounds(Y, vbox):
    """The range [Y - v_hi, Y - v_lo] of H x over the noises v in
    ``vbox`` that make H x + v = Y, each end rounded outward by one ulp so
    that it holds every exact value in floating point."""
    return np.nextafter(Y - vbox.hi, -np.inf), np.nextafter(Y - vbox.lo, np.inf)


def _step_block(stack, A, Y):
    """One step as (lo, hi, D, b_lo, b_hi): the rows b_lo <= D y <= b_hi,

        dynamics     x_k - A x_{k-1} - B w = 0,
        measurement  Y - v_hi <= H x_k <= Y - v_lo  (``_measurement_bounds``),

    over the columns y = (x_{k-1}, w, x_k), and the bounds [lo, hi] of
    the columns the step adds: w in the stack's W box, x_k free.
    """
    B, H = stack.B, stack.H
    n, p, m = A.shape[0], B.shape[1], H.shape[0]
    D = np.zeros((n + m, n + p + n))
    D[:n, :n] = -A
    D[:n, n : n + p] = -B
    D[:n, n + p :] = np.eye(n)
    D[n:, n + p :] = H
    y_lo, y_hi = _measurement_bounds(Y, stack.Vset)
    return (
        np.concatenate([stack.Wset.lo, np.full(n, -np.inf)]),
        np.concatenate([stack.Wset.hi, np.full(n, np.inf)]),
        D,
        np.concatenate([np.zeros(n), y_lo]),
        np.concatenate([np.zeros(n), y_hi]),
    )


def _rewrite(region, slots, mats, rows, lo, hi):
    """Write a step's numbers into ``region`` in place.

    Each slot [first row, columns, sign, M] is a block of coefficients
    sign * M whose row r and column j sit at ``first row + r`` and
    ``columns[j]``; ``mats`` holds each slot's new M.  The entries that
    differ from the slot's last M go in one ``set_coefficients`` call,
    made even when none differ (it marks the region changed, which picks
    the next solve's simplex), and the bounds [lo, hi] of ``rows`` in one
    ``set_row_bounds`` call.  Each slot keeps its new M.
    """
    rr_all, cc_all, vals = [], [], []
    for slot, M in zip(slots, mats, strict=True):
        row, cols, sign, old = slot
        rr, cc = np.nonzero(M != old)
        rr_all.append(row + rr)
        cc_all.append(cols[cc])
        vals.append(sign * M[rr, cc])
        slot[3] = M
    if slots:
        region.set_coefficients(np.concatenate(rr_all), np.concatenate(cc_all), np.concatenate(vals))
    region.set_row_bounds(rows, lo, hi)


class _TrajectoryLP:
    """Sparse LP over the (x_{t0}, w, x) of ``stack`` in one window.

    The feasible set projected on x_k equals the filter posterior: the
    dynamics rows encode the prediction, the measurement rows the update.
    ``x0_box=None`` leaves the window's initial state free, matching the
    fixed-lag window's unbounded prior; ``t0_Y`` adds that step's
    measurement rows of the initial state.  ``extend`` appends one step to
    the same ``lp.LinearProgram``, so every solve after the first starts
    from the last basis, across steps too.  ``rewrite`` moves a window to
    the next step in place: its columns, rows, bounds and every
    coefficient but A stay, so it writes A and the measurement row bounds
    only (``_rewrite``).
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
        self._slots = []  # [first dynamics row, x_{k-1} columns, -1, A] per extend
        self._meas = []  # the measurement rows of t0_Y, then of each extend
        if t0_Y is not None:
            # the initial state's measurement rows, the LP's first rows
            self._meas.append(np.arange(stack.H.shape[0]))
            self.program.extend([], [], stack.H, *_measurement_bounds(t0_Y, stack.Vset))

    def extend(self, A, Y):
        """Append one step (``_step_block``): columns w and x_k with the
        dynamics and measurement rows."""
        region = self.program
        prev = np.arange(self.x_final, self.x_final + self.n)
        x_at = region.n + self.stack.B.shape[1]
        self._slots.append([region.m, prev, -1.0, A])
        self._meas.append(np.arange(region.m + self.n, region.m + self.n + Y.size))
        cols = np.concatenate([prev, np.arange(region.n, x_at + self.n)])  # x_{k-1}, then w and x_k
        region.extend(*_step_block(self.stack, A, Y), cols=cols)
        self.x_final = x_at

    def rewrite(self, t0_Y, entries):
        """Write the window of ``t0_Y`` followed by ``entries`` ((A, Y) per
        ``extend``) over the current one, in place (``_rewrite``)."""
        Ys = np.stack([t0_Y] + [Y for _, Y in entries])  # one block's measurements per row
        lo, hi = _measurement_bounds(Ys, self.stack.Vset)
        mats = [A for A, _ in entries]
        _rewrite(self.program, self._slots, mats, np.concatenate(self._meas), lo.ravel(), hi.ravel())

    def hull(self):
        """Interval hull of the final state."""
        cols = range(self.x_final, self.x_final + self.n)
        return Box(*self.program.bounds(_unit_rows(self.program.n, cols)))

    def contains_final(self, x, coords=None):
        """True iff some trajectory ends at x (on the listed coords)."""
        coords = range(self.n) if coords is None else coords
        cols = self.x_final + np.array(coords, dtype=int)
        return self.program.feasible_at(cols, x)


class _LiftedFilter:
    """What the centralized and fixed-lag filters share: a posterior held
    as a ``_TrajectoryLP``, the step bookkeeping and the queries on it.

    ``contains`` keeps a witness (k, p, y, checked): the
    state p it last found in the step-k posterior and y, a feasible point
    of that step's LP whose final state is p.  ``checked`` is
    (LinearProgram, its ``row_edits``, rows) when y was verified against
    those leading rows of that LP (``_try_witness``), None for a solver's
    point.
    """

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
        self._B_pinv = np.linalg.pinv(self._stack.B)
        self._entry = None  # (A, Y) of step k
        self._witness = None

    def step(self, k, batch):
        """Consume the batch of step k (must be the next step)."""
        if k != self.k + 1:
            raise ValueError(f"expected step {self.k + 1}, got {k}")
        entry = _step_entry(self._stack, k, batch)
        self._consume(k, entry)
        self._entry = entry
        self.k = k

    def hull(self):
        """Interval hull of the stacked state (a Box)."""
        return self._traj.hull()

    def contains(self, x):
        """True iff the posterior holds the state x.  Raises
        ``lp.EmptySetError`` if the posterior is empty.

        The one-step witness comes first (``_try_witness``); only when
        there is none, or it fails its check against the LP's rows, is the
        final state pinned and the LP solved.  A feasible solve's point
        seeds the next step's witness.
        """
        x = np.array(x, dtype=float)
        if self._try_witness(x):
            return True
        self._witness = None
        region = self._traj.program
        if self._traj.contains_final(x):
            if region.last_x is not None:
                self._witness = (self.k, x, region.last_x, None)
            return True
        if region.solve(np.zeros(region.n)).status == lp.INFEASIBLE:
            raise lp.EmptySetError("empty posterior")
        return False

    def _try_witness(self, x):
        """True iff the witness of step k - 1, carried one step to x, is a
        feasible point of the LP; it then becomes the witness of step k.

        The recursion carries it: with A this step's dynamics, the noise
        w = B⁺(x - A p) and the state x extend y by one step block, and the
        LP's columns are the trailing ones of that (a window LP's first
        columns are the final state of the step block before them).
        ``lp.LinearProgram.satisfied_by`` then checks the point against
        every bound and against the rows as the model holds
        them: all rows, unless y was checked against this LP's leading
        rows and none of them was changed in place since, when only the
        rows after those are read.
        """
        if self._witness is None or self._witness[0] != self.k - 1:
            return False
        _, p, y, checked = self._witness
        A, _ = self._entry
        w = self._B_pinv @ (x - A @ p)
        region = self._traj.program
        y = np.concatenate([y, w, x])[-region.n :]
        first = 0
        if checked is not None and checked[0] is region and checked[1] == region.row_edits:
            first = checked[2]
        if not region.satisfied_by(y, first):
            return False
        self._witness = (self.k, x, y, (region, region.row_edits, region.m))
        return True

    @property
    def lifted_size(self):
        """(generators, constraints) of the lifted posterior: the LP's
        columns and rows."""
        return self._traj.program.n, self._traj.program.m


class CentralizedFilter(_LiftedFilter):
    """Full-information recursion on the stacked system."""

    def _consume(self, k, entry):
        self._traj.extend(*entry)


class OitFilter(_LiftedFilter):
    """Fixed-lag recursion with bounded representation size.

    For k <= delta_bar the posterior is grown exactly as the centralized
    one (same LP, same inputs).  Beyond that it is the LP of the buffered
    window of the last delta_bar + 1 batches, with the state at
    k - delta_bar free, which caps its columns and rows at a constant.
    That LP is built once, at construction, with the first window's
    dynamics; each step past delta_bar slides the window by rewriting it
    in place (``_TrajectoryLP.rewrite``), since only the dynamics
    coefficients A and the measurements Y differ, so its solves
    warm-start from the last basis.
    """

    def __init__(self, system, initial, delta_bar):
        super().__init__(system, initial)
        mu0 = sysmodel.observability_index(system)
        if delta_bar < mu0 - 1:
            raise WindowTooShortError(
                f"delta_bar={delta_bar} below observability requirement {mu0 - 1}"
            )
        self.delta_bar = int(delta_bar)
        self._window = []  # step entries, oldest first
        stack = self._stack
        zeros = np.zeros(stack.H.shape[0])
        self._window_lp = _TrajectoryLP(stack, None, zeros)
        for t in range(1, self.delta_bar + 1):
            self._window_lp.extend(stack.A(t), zeros)

    def _consume(self, k, entry):
        self._window.append(entry)
        if len(self._window) > self.delta_bar + 1:
            self._window.pop(0)
        if k <= self.delta_bar:
            self._traj.extend(*entry)
        else:
            (_, Y0), *rest = self._window
            self._traj = self._window_lp
            self._traj.rewrite(Y0, rest)


def _message(stack, A, Y, hulls):
    """Owner o's numbers of one step over its neighborhood stack (N̄_o):
    (A, H A, the measurement row bounds (lo, hi) of Y, the bounds (lo, hi)
    of N̄_o's last ``hulls``)."""
    order = stack.state_order
    x_bounds = np.concatenate([hulls[l].lo for l in order]), np.concatenate([hulls[l].hi for l in order])
    return A, stack.H @ A, _measurement_bounds(Y, stack.Vset), x_bounds


class _AgentLP:
    """Agent i's lifted refinement: one LinearProgram for the whole trial.

    It holds the joint of each of its ``owners``: agent i and every peer
    l in ``topology.peers(i)``, with each step's states substituted out.
    Each owner o appends, in turn, the columns x_prev (bounded by the
    last hulls of N̄_o) and w (in the W box of o's neighborhood stack),
    and o's measurement rows, in which the state x = A x_prev + B w of
    step k enters through its parts:

        Y - v_hi <= H A(k) x_prev + H B w <= Y - v_lo  (``_measurement_bounds``).

    One block of ``coupling_rows`` per peer then ties the peer's copy of
    x_i to agent i's own, as [A_i(k) B_i] on agent i's (x_prev, w) columns
    of each.  Every column is bounded.  The refined set of one distributed
    step is the image of the feasible set under [A_i(k) B_i] on agent i's
    own columns, whose rows ``hull`` bounds.

    The LP reads no data but its owners' messages (``_message``), in
    ``owners`` order: it is built from the ones of step 1's dynamics, zero
    measurements and the initial sets, and ``update`` writes each later
    step's in place, so each step's solves start from the last basis.
    """

    def __init__(self, system, i, stacks, messages):
        """Build the model from ``messages``; ``stacks`` maps each owner o
        to its neighborhood stack over N̄_o."""
        agents = system.agents
        self.owners = [i] + system.topology.peers(i)
        n, p = agents[i].n, agents[i].p
        region = lp.LinearProgram(np.zeros((0, 0)), np.zeros(0), np.zeros(0), np.zeros(0))
        self._slots = []  # [first row, columns, sign, M] per moving block (_rewrite)
        own = {}  # owner -> agent i's x_prev and w columns in its block
        for o, (_, HA, y_bounds, x_bounds) in zip(self.owners, messages, strict=True):
            st = stacks[o]
            col = region.n
            self._slots.append([region.m, np.arange(col, col + HA.shape[1]), 1.0, HA])
            region.extend(
                np.concatenate([x_bounds[0], st.Wset.lo]),
                np.concatenate([x_bounds[1], st.Wset.hi]),
                np.hstack([HA, st.H @ st.B]),
                *y_bounds,
                cols=np.arange(col, col + HA.shape[1] + st.B.shape[1]),
            )
            before = st.state_order[: st.state_order.index(i)]
            x_at = col + sum(agents[l].n for l in before)
            w_at = col + st.B.shape[0] + sum(agents[l].p for l in before)
            own[o] = np.concatenate([np.arange(x_at, x_at + n), np.arange(w_at, w_at + p)])
        self._meas = np.concatenate([np.arange(row, row + M.shape[0]) for row, _, _, M in self._slots])
        self._prev_cols = np.concatenate([cols for _, cols, _, _ in self._slots])
        self._own = own[i]
        self._A_i, self._B_i = messages[0][0][:n, :n], agents[i].B  # i leads N̄_i
        for l in self.owners[1:]:
            self._slots += [
                [region.m, self._own[:n], 1.0, self._A_i],
                [region.m, own[l][:n], -_COUPLING_SIGN, self._A_i],
            ]
            rows = coupling_rows(region.n, self._own, own[l], np.hstack([self._A_i, self._B_i]))
            region.extend([], [], rows, np.zeros(n), np.zeros(n))
        self.program = region

    def update(self, messages):
        """Write the owners' ``messages`` of the next step in place: H A of
        every owner, A_i in the coupling rows and every measurement row's
        bounds (``_rewrite``), then the x_prev bounds."""
        A, HA, y_bounds, x_bounds = zip(*messages)
        n = self._B_i.shape[0]
        self._A_i = A[0][:n, :n]  # i leads N̄_i
        mats = list(HA) + [self._A_i] * (len(self._slots) - len(HA))
        _rewrite(self.program, self._slots, mats, self._meas, *map(np.concatenate, zip(*y_bounds)))
        self.program.set_bounds(self._prev_cols, *map(np.concatenate, zip(*x_bounds)))

    def hull(self):
        """Interval hull of agent i's refined own state."""
        C = np.zeros((self._A_i.shape[0], self.program.n))
        C[:, self._own] = np.hstack([self._A_i, self._B_i])
        return Box(*self.program.bounds(C))


class DistributedFilter:
    """Per-agent neighborhood recursion with peer refinement.

    Each agent's posterior is the interval hull of its refined own state
    (``hulls``), solved on the agent's persistent lifted LP (``_AgentLP``).
    A step computes each owner's message (``_message``) once, from its
    neighborhood stack, the step's measurements and the last hulls, and
    hands each agent LP the messages of its owners only.  The models are
    built at construction and changed in place by every step.
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
        sent = {o: _message(st, st.A(0), np.zeros(st.H.shape[0]), self.hulls)
                for o, st in self._stacks.items()}
        self._lps = {i: _AgentLP(system, i, self._stacks, [sent[o] for o in [i] + system.topology.peers(i)])
                     for i in ids}

    def step(self, k, batch):
        """Consume the batch of step k (must be the next step)."""
        if k != self.k + 1:
            raise ValueError(f"expected step {self.k + 1}, got {k}")
        sent = {o: _message(st, *_step_entry(st, k, batch), self.hulls)
                for o, st in self._stacks.items()}
        for m in self._lps.values():
            m.update([sent[o] for o in m.owners])
        hulls = {}
        for i in self.system.agent_ids:
            try:
                hulls[i] = self._lps[i].hull()
            except lp.EmptySetError:
                raise EmptyPosteriorError(k, agent=i) from None
        self.hulls = hulls
        self.k = k

    @property
    def lifted_sizes(self):
        """{agent: (columns, rows)} of the agents' lifted LPs, constant
        from construction on."""
        return {i: (m.program.n, m.program.m) for i, m in self._lps.items()}
