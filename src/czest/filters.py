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
columns are states and process noises and whose rows are the dynamics
and measurement relations, one ``lp.LinearProgram`` each, whose hulls
bound the coordinates of independent blocks (uav5's x and y axes) in
one solve.  A measurement noise v gets no column: the row H x + v = Y
with v in its box is the ranged row Y - v_hi <= H x <= Y - v_lo, each
end rounded one ulp outward (``_measurement_bounds``), since HiGHS keeps
a bounded slack for every row anyway.

The centralized filter and the fixed-lag filter inside its window build
their LPs from step blocks (``_step_block``), each appended to the
``lp.LinearProgram`` on its own columns (``extend``'s ``cols``): the
dynamics rows x_k = A x_{k-1} + B w encode the prediction, the
measurement rows the update, over the columns x_{k-1}, w and x_k of one
stacked system (``sysmodel``), with w in the stack's noise box.  Each
filter builds its stacks once, at construction.  Of these numbers only A
(``StackedSystem.A(k)``) and Y change from one step to the next: B, H and
the noise boxes are the stack's fixed parts.  An LP whose structure is
fixed and whose numbers move, the fixed-lag window and each distributed
agent's LP, keeps a dense copy of its matrix and bounds, writes each
step's numbers into that copy and reloads the model whole
(``lp.LinearProgram.replace``), which keeps its basis.

The distributed filter gives each agent one LP for the whole trial
(``_AgentLP``), with each step's states substituted out: per owner, its
own neighborhood and every peer's, the previous states x_prev (bounded by
the last hulls) and the process noises w, and the owner's measurement
rows over H A(k) x_prev + H B w.  Every owner's rows read the agent's
one set of (x_prev, w) columns, which intersects the peers' joints with
its own exactly, without a copy of its state per peer (``_AgentLP``).
Every column is bounded.  Each step, every owner
o's numbers are computed once, as a message (``_message``): A(k) and
H A(k) of N̄_o, the measurement row bounds and the bounds of N̄_o's last
hulls.  Each agent LP receives the messages of its owners and nothing
else, so what it can read is local by construction.  A step writes the
messages into the LP's dense copy, reloads it and solves the 2n bounds
of the agent's state from the last basis.  The posterior is the hull
(``hulls``).

The centralized posterior is held as one sparse "trajectory" LP over
every state and process noise so far (``_LiftedFilter``), one step block
of the centralized stack per step; the set is the LP's feasible set
projected on the final state.  A step appends its block of columns and
rows to the same ``lp.LinearProgram``, so every solve warm-starts from
the last basis, across steps too.  The fixed-lag filter grows the same LP
up to ``delta_bar``.  Past it, its window of the last ``delta_bar + 1``
batches, with the window's first state x_a free, is one LP over x_a, the
window's process noises w and the final state (``_window_block``), the
finite-horizon filter of Cong, Wang & Zhou (*IEEE TAC* 67(5), 2022): the
states in between are substituted out, so the measurement rows of the
window's j-th batch read H Φ_j (x_a, w), Φ_j being the window's first j
steps of dynamics, as in the observability matrix [H; H Φ_1; ...] of
``sysmodel.observability_index``; the last batch's read H x_k, and the
final state's rows tie x_k to (x_a, w).  That LP is built at the first
step past ``delta_bar``.  A time-varying A(k) moves every coefficient of
it at every step, so each later step reloads it whole.

``hull`` solves the final state's interval hull.  ``contains`` first
tries a one-step witness: the feasible LP point behind the last step's
``True``, carried one step by the recursion to the queried state and
checked against the LP's bounds and its rows as they were last written
(``lp.LinearProgram.satisfied_by``); a point that passes is a primal
certificate of membership.  Only when there is no witness, or it fails
the check, does ``contains`` fall back to the LP probe
(``lp.LinearProgram.feasible_at``): it pins the final state through its
bounds, solves and restores them, and after an infeasible probe solves
the unpinned region once per step, so that an empty posterior raises
``lp.EmptySetError`` instead of reading as a point outside it.  A query
on some coordinates of the state is the probe alone.

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
]

# Test hook: cmd_verify --inject-fault flips this to check that the
# stacking and distributed oracles detect a wrong sign: that of
# verify.coupling_rows, and that with which a peer's block of an agent LP
# reads the agent's columns (read when the LP is built).
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


def _window_block(stack, entries):
    """The fixed-lag window of ``entries`` ((A, Y) of its steps, oldest
    first; the first A is not read) as (lo, hi, D, b_lo, b_hi): the rows
    b_lo <= D y <= b_hi over the columns y = (x_a, w_1, ..., w_d, x_k),
    d = len(entries) - 1,

        measurement  Y_j - v_hi <= H F_j (x_a, w) <= Y_j - v_lo,  j < d,
                     Y_d - v_hi <= H x_k <= Y_d - v_lo  (``_measurement_bounds``),
        final state  x_k - F_d (x_a, w) = 0,

    where F_j (x_a, w) is the state j steps of the window's dynamics after
    x_a (F_0 = [I 0]), and the bounds [lo, hi] of the columns: x_a and x_k
    free, each w in the stack's W box.  An entry that overflows (the
    products of the window's A) raises ``lp.NumericalError``.
    """
    B, H = stack.B, stack.H
    n, p = B.shape
    d, m = len(entries) - 1, H.shape[0]
    F = np.eye(n, n + d * p)
    D = np.zeros(((d + 1) * m + n, n + d * p + n))
    with np.errstate(over="ignore", invalid="ignore"):  # D is checked below
        for j, (A, _) in enumerate(entries):
            if j:
                F = A @ F
                F[:, n + (j - 1) * p : n + j * p] = B
            if j < d:
                D[j * m : (j + 1) * m, : n + d * p] = H @ F
    D[d * m : (d + 1) * m, n + d * p :] = H
    D[(d + 1) * m :, : n + d * p] = -F
    D[(d + 1) * m :, n + d * p :] = np.eye(n)
    if not np.all(np.isfinite(D)):
        raise lp.NumericalError("window coefficients overflow")
    y_lo, y_hi = _measurement_bounds(np.stack([Y for _, Y in entries]), stack.Vset)  # a batch per row
    free = np.full(n, np.inf)
    return (
        np.concatenate([-free, np.tile(stack.Wset.lo, d), -free]),
        np.concatenate([free, np.tile(stack.Wset.hi, d), free]),
        D,
        np.concatenate([y_lo.ravel(), np.zeros(n)]),
        np.concatenate([y_hi.ravel(), np.zeros(n)]),
    )


def _region(lo, hi, D, b_lo, b_hi):
    """A new ``lp.LinearProgram`` over columns in [lo, hi] with the rows
    b_lo <= D y <= b_hi."""
    region = lp.LinearProgram(np.zeros((0, lo.size)), np.zeros(0), lo, hi)
    region.extend([], [], D, b_lo, b_hi)
    return region


def _extend_trajectory(region, stack, A, Y):
    """Append one step (``_step_block``) to the trajectory LP ``region``,
    whose last columns are x_{k-1}: columns w and x_k with the dynamics
    and measurement rows."""
    n, p = stack.B.shape
    cols = np.arange(region.n - n, region.n + p + n)  # x_{k-1}, then the new w and x_k
    region.extend(*_step_block(stack, A, Y), cols=cols)


class _LiftedFilter:
    """What the centralized and fixed-lag filters share: a posterior held
    as the final state, the last columns, of an LP (``_post``: the
    trajectory LP ``_traj`` over (x_0, w_1, x_1, ..., w_k, x_k), grown by
    ``_extend_trajectory``, or the fixed-lag window), the step bookkeeping
    and the queries on it.

    ``contains`` keeps a witness (k, p, y, checked): the
    state p it last found in the step-k posterior and y, a feasible point
    of that step's LP whose final state is p.  ``checked`` is
    (LinearProgram, its ``reloads``, rows) when y was verified against
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
        self._traj = self._post = lp.LinearProgram(np.zeros((0, initial.dim)), np.zeros(0), initial.lo, initial.hi)
        self._B_pinv = np.linalg.pinv(self._stack.B)
        self._entry = None  # (A, Y) of step k
        self._hull_rows = np.zeros((0, 0))  # what ``hull`` bounds, for an LP of its width
        self._witness = None
        self._nonempty = None  # the last step whose posterior a solve found nonempty

    def step(self, k, batch):
        """Consume the batch of step k (must be the next step)."""
        if k != self.k + 1:
            raise ValueError(f"expected step {self.k + 1}, got {k}")
        entry = _step_entry(self._stack, k, batch)
        self._consume(k, entry)
        self._entry = entry
        self.k = k

    def hull(self):
        """Interval hull of the stacked state (a Box): the bounds of the
        unit rows of the LP's last n columns, kept while its width stays."""
        region, n = self._post, self._stack.B.shape[0]
        if self._hull_rows.shape[1] != region.n:
            self._hull_rows = _unit_rows(region.n, range(region.n - n, region.n))
        return Box(*region.bounds(self._hull_rows))

    def contains(self, x, coords=None):
        """True iff the posterior holds a state equal to x on the listed
        coordinates of the stacked state (all by default).  Raises
        ``lp.EmptySetError`` if the posterior is empty.

        A whole-state query tries the one-step witness first
        (``_try_witness``); only when there is none, or it fails its check
        against the LP's rows, are the final state's coordinates pinned
        and the LP solved.  A query on listed coordinates is that probe
        alone.  A feasible whole-state solve's point seeds the next step's
        witness.  After an infeasible probe the unpinned LP is solved,
        once per step, to tell an empty posterior from a point outside it.
        """
        x = np.array(x, dtype=float)
        n = self._stack.B.shape[0]
        whole = coords is None
        coords = np.arange(n) if whole else np.asarray(coords, dtype=int).ravel()
        if coords.size and (coords.min() < 0 or coords.max() >= n):
            raise ValueError(f"state coordinate out of range 0..{n - 1}")
        if whole:
            if self._try_witness(x):
                return True
            self._witness = None
        region = self._post
        if region.feasible_at(region.n - n + coords, x):
            if whole and region.last_x is not None:
                self._witness = (self.k, x, region.last_x, None)
            return True
        if self._nonempty != self.k:
            if region.solve(np.zeros(region.n)).status == lp.INFEASIBLE:
                raise lp.EmptySetError("empty posterior")
            self._nonempty = self.k
        return False

    def _try_witness(self, x):
        """True iff the witness of step k - 1, carried one step to x, is a
        feasible point of the LP; it then becomes the witness of step k.

        The recursion carries it (``_carry``) with A this step's dynamics
        and the noise w = B⁺(x - A p) that takes its state p to x.
        ``lp.LinearProgram.satisfied_by`` then checks the point against
        every bound and against the rows as they were last
        written: all rows, unless y was checked against this LP's leading
        rows and none of them was reloaded since, when only the
        rows after those are read.
        """
        if self._witness is None or self._witness[0] != self.k - 1:
            return False
        _, p, y, checked = self._witness
        A, _ = self._entry
        region = self._post
        y = self._carry(y, self._B_pinv @ (x - A @ p), x)
        first = 0
        if checked is not None and checked[0] is region and checked[1] == region.reloads:
            first = checked[2]
        if not region.satisfied_by(y, first):
            return False
        self._witness = (self.k, x, y, (region, region.reloads, region.m))
        return True

    def _carry(self, y, w, x):
        """The point of this step's trajectory LP that extends y, a point of
        the last step's, by the noise w and the state x."""
        return np.concatenate([y, w, x])

    @property
    def lifted_size(self):
        """(generators, constraints) of the lifted posterior: the LP's
        columns and rows."""
        return self._post.n, self._post.m


class CentralizedFilter(_LiftedFilter):
    """Full-information recursion on the stacked system."""

    def _consume(self, k, entry):
        _extend_trajectory(self._traj, self._stack, *entry)


class OitFilter(_LiftedFilter):
    """Fixed-lag recursion with bounded representation size.

    For k <= delta_bar the posterior is grown exactly as the centralized
    one (same LP, same inputs).  Beyond that it is the LP of the buffered
    window of the last delta_bar + 1 batches (``_window_block``), with the
    state at k - delta_bar free, which caps its columns and rows at a
    constant.  That LP is built once, at the first step past delta_bar,
    from that step's window; each later step reloads it with the new
    window's numbers (``lp.LinearProgram.replace``), so its solves
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
        self._window_lp = None

    def _consume(self, k, entry):
        self._window.append(entry)
        if len(self._window) > self.delta_bar + 1:
            self._window.pop(0)
        if k <= self.delta_bar:
            _extend_trajectory(self._traj, self._stack, *entry)
        elif self._window_lp is None:
            self._window_lp = self._post = _region(*_window_block(self._stack, self._window))
            self._traj = None  # the grown LP is not read again
        else:
            self._window_lp.replace(*_window_block(self._stack, self._window))

    def _carry(self, y, w, x):
        """The point of this step's LP that extends y, the last step's
        witness point, by the noise w and the state x.  Past delta_bar
        that is the window's (x_a, w_1, ..., w_d, x): on the first window
        x_a and w_2, ..., w_d are x_1 and the noises of the trajectory
        point y (with d = 0, x_a is x itself); on each later one x_a moves
        a step, A x_a + B w_1, and the noises shift by one."""
        if self.k <= self.delta_bar:
            return super()._carry(y, w, x)
        n, p = self._stack.B.shape
        if self.k == self.delta_bar + 1:  # y = (x_0, w_1, x_1, ..., w_d, x_d)
            if not self.delta_bar:  # the window (x_a, x_k) of one state
                return np.concatenate([x, x])
            steps = y[n:].reshape(self.delta_bar, p + n)
            start, noises = steps[0, p:], np.append(steps[1:, :p], w)
        else:  # y = (x_a, w_1, ..., w_d, p)
            noises = np.concatenate([y[n:-n], w])
            start, noises = self._window[0][0] @ y[:n] + self._stack.B @ noises[:p], noises[p:]
        return np.concatenate([start, noises, x])


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
    Every agent of N̄_o enters owner o's block through its columns x_prev
    (bounded by its last hull) and w (in its W box), and o's measurement
    rows read the state x = A x_prev + B w of step k through its parts:

        Y - v_hi <= H A(k) x_prev + H B w <= Y - v_lo  (``_measurement_bounds``).

    Agent i has one set of (x_prev, w) columns, read by every block; each
    other agent of a block has its own.  That is exact: A(k) and B are
    block-diagonal, so a peer's rows read agent i only through
    A_i(k) x_prev + B_i w over the same box (its last hull times W_i) as
    its own block's, and a copy per peer tied to agent i's state would
    hold the same set.  Every column is bounded.  The refined set of one
    step is the image of the feasible set under [A_i(k) B_i] on agent i's
    columns, whose rows ``hull`` bounds.

    The LP reads no data but its owners' messages (``_message``), in
    ``owners`` order.  It keeps a dense copy of its matrix and bounds:
    ``update`` writes each step's messages into it and reloads the model
    (``lp.LinearProgram.replace``), so each step's solves start from the
    last basis.
    """

    def __init__(self, system, i, stacks, messages):
        """Build the model from ``messages``; ``stacks`` maps each owner o
        to its neighborhood stack over N̄_o."""
        agents = system.agents
        self.owners = [i] + system.topology.peers(i)
        n, p = agents[i].n, agents[i].p
        self._blocks = []  # per owner: (its rows, N̄_o's x_prev columns, the signs they are read with)
        w_parts = []  # per owner: (its rows, N̄_o's w columns, H B as they read it, the W box)
        own = None  # agent i's (x_prev, w) columns, laid out by its own block, the first
        row = col = 0
        for o in self.owners:
            st = stacks[o]
            (nx, nw), m = st.B.shape, st.H.shape[0]
            before = st.state_order[: st.state_order.index(i)]
            x_at, w_at = sum(agents[l].n for l in before), nx + sum(agents[l].p for l in before)
            at = np.r_[x_at : x_at + n, w_at : w_at + p]  # agent i's part of N̄_o's (x_prev, w)
            cols, sign = np.full(nx + nw, -1), np.ones(nx + nw)
            if own is not None:
                cols[at], sign[at] = own, _COUPLING_SIGN
            fresh = np.flatnonzero(cols < 0)
            cols[fresh] = col + np.arange(fresh.size)
            own, rows = cols[at], slice(row, row + m)
            self._blocks.append((rows, cols[:nx], sign[:nx]))
            w_parts.append((rows, cols[nx:], st.H @ st.B * sign[nx:], st.Wset))
            row, col = row + m, col + fresh.size
        self._own = own
        self._hull_rows = np.zeros((n, col))  # [A_i(k) B_i] on agent i's columns; ``_write`` writes A_i(k)
        self._hull_rows[:, own[n:]] = agents[i].B
        D, lo, hi = np.zeros((row, col)), np.empty(col), np.empty(col)
        for rows, cols, HB, W in w_parts:
            D[rows, cols] = HB
            lo[cols], hi[cols] = W.lo, W.hi
        self._D, self._lo, self._hi = D, lo, hi
        self._b_lo, self._b_hi = np.zeros(row), np.zeros(row)
        self._write(messages)
        self.program = _region(lo, hi, D, self._b_lo, self._b_hi)

    def _write(self, messages):
        """Write the owners' ``messages`` into the dense copy: H A of
        every owner, its measurement row bounds and the x_prev bounds, and
        agent i's A_i(k) into the hull rows."""
        n = self._hull_rows.shape[0]
        self._hull_rows[:, self._own[:n]] = messages[0][0][:n, :n]  # i leads N̄_i
        for (rows, cols, sign), (_, HA, y_bounds, x_bounds) in zip(self._blocks, messages, strict=True):
            self._D[rows, cols] = HA * sign
            self._b_lo[rows], self._b_hi[rows] = y_bounds
            self._lo[cols], self._hi[cols] = x_bounds

    def update(self, messages):
        """Load the owners' ``messages`` of the next step (``_write``) into
        the model."""
        self._write(messages)
        self.program.replace(self._lo, self._hi, self._D, self._b_lo, self._b_hi)

    def hull(self):
        """Interval hull of agent i's refined own state."""
        return Box(*self.program.bounds(self._hull_rows))


class DistributedFilter:
    """Per-agent neighborhood recursion with peer refinement.

    Each agent's posterior is the interval hull of its refined own state
    (``hulls``), solved on the agent's persistent lifted LP (``_AgentLP``).
    A step computes each owner's message (``_message``) once, from its
    neighborhood stack, the step's measurements and the last hulls, and
    hands each agent LP the messages of its owners only.  The models are
    built at construction and reloaded by every step.
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
