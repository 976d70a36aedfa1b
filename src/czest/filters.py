"""Set-membership filters over extended constrained zonotopes.

Three estimators:

* ``CentralizedFilter``: the full-history recursion on the stacked
  system.  Exact, but its representation grows with time.
* ``OitFilter``: fixed-lag variant.  Once more than ``delta_bar`` steps
  have passed it rebuilds the posterior from the last ``delta_bar + 1``
  measurement batches starting from an unbounded prior, so the
  representation size stops growing.  Needs ``delta_bar >= mu0 - 1``
  where ``mu0`` is the system's observability index, which it computes
  (``sysmodel.observability_index``).  The centralized filter is this
  filter without a window: both are one class, ``_LiftedFilter``.
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
fixed and whose numbers move is reloaded whole
(``lp.LinearProgram.replace``), which keeps its basis, and its row
pattern while the nonzeros stay where they were: the distributed agents'
LP at each step, assembled from the owners' messages (``_AgentLP``), and
the fixed-lag window when it is read, rebuilt from its entries
(``_window_block``).

The distributed filter holds every agent's refinement, with each step's
states substituted out, as an independent block of one LP for the whole
trial (``_AgentLP``, where the layout is explained).  Each step, every
owner o's one-step set is computed once, as a message
(``_Owner.message``): one LP block over N̄_o's previous states x_prev
(bounded by their last hulls) and process noises w (in their W boxes),
whose rows are o's measurements, H A(k) x_prev + H B w within the noise
range.  Of a message only A(k), Y and the hulls move: each owner keeps H B
and the W bounds from the filter's construction on (``_Owner``).  Agent
i's block holds the messages of its owners, itself and every peer, on
one set of agent i's (x_prev, w) columns; every other agent of a message
enters only through the coordinates of its predicted state that the
owner measures, by exact projections rounded outward (``_interval_dot``,
``_fold``), which take uav5's agents' LP from 156 columns to 42.  The
unreduced assembly stays as the stacking oracle's
(``verify.lifted_refinement``).  Agent i's block reads the messages of
its owners and nothing else, so what its hull can read is local by
construction, up to round-off.  A step assembles and reloads the one LP
once and bounds every agent's state in one ``lp.LinearProgram.bounds``,
from the last basis.  The posteriors are the hulls (``hulls``).

The centralized posterior is held as one sparse "trajectory" LP over
every state and process noise so far (``_LiftedFilter``), one step block
of the centralized stack per step; the set is the LP's feasible set
projected on the final state.  The blocks are appended to the same
``lp.LinearProgram``, so every solve warm-starts from the last basis,
across steps too.  The fixed-lag filter is the same class with a window:
up to ``delta_bar`` it is the same trajectory, and its records there are
the centralized filter's, whether or not the two run together.  Past it,
its window of the last ``delta_bar + 1`` batches, with the window's first
state x_a free, is one LP over x_a, the window's process noises w and the
final state (``_window_block``), the finite-horizon filter of Cong, Wang
& Zhou (*IEEE TAC* 67(5), 2022): the states in between are substituted
out, so the measurement rows of the window's j-th batch read H Φ_j (x_a,
w), Φ_j being the window's first j steps of dynamics, as in the
observability matrix [H; H Φ_1; ...] of ``sysmodel.observability_index``;
the last batch's read H x_k, and the final state's rows tie x_k to (x_a,
w).  A time-varying A(k) moves every coefficient of it at every step.

A step of either filter stores its entry (``_Entry``: A(k), Y and the
measurement bounds, computed once) and builds nothing.  The LP is brought
up to the step only when a solve reads it (``_LiftedFilter._posterior``):
the trajectory is extended by its pending blocks, in order; the window
is built at its first use, a new LP that no witness enters, and reloaded
whole at each later one (``lp.LinearProgram.replace``).  This is the one
place where a build waits: ``lp`` writes every block to HiGHS when it is
appended, so HiGHS holds the model it would hold had every step built
it.  In containment mode a trial extends the trajectory about once and
builds the window about once; ``hull`` needs them at every step.  A step
whose numbers come within a tenth of HiGHS's refusal limits, or past the
float range, is brought up at once (``_LiftedFilter._within_limits``), so
that its abort falls on its own step.

``hull`` solves the final state's interval hull.  ``contains`` first
tries a one-step witness: the feasible LP point behind the last step's
``True``, carried one step by the recursion to the queried state (on a
trajectory extended by a step, on a window shifted by one).  It is
checked on the step entries alone (``_LiftedFilter._admits``), without
the LP: on a window every row of it, by its recursion; on the trajectory
the new step's rows, since the point it extends satisfied every older
one.  So a solver's point on the trajectory is checked once, against the
bounds and rows of the LP it came from (``lp.LinearProgram.satisfied_by``),
before it is stored; one on a window is stored as it is.  A point that
passes is a primal certificate of membership.  Only when there is no
witness, or it fails the check, does ``contains`` fall back to the LP
probe (``lp.LinearProgram.feasible_at``): it pins the final state
through its bounds, solves and restores them, and after an infeasible
probe solves the unpinned region once per step, so that an empty
posterior raises ``lp.EmptySetError`` instead of reading as a point
outside it.  A query on some coordinates of the state is the probe
alone.

Every hull is ``lp.LinearProgram.bounds`` of the state's columns, so
an empty posterior raises ``lp.EmptySetError``.  A step whose dynamics
A(k) is not finite raises ``lp.NumericalError`` (``_dynamics``).  Noise
ranges are boxes by the system model's type, and the LPs bound their
first states by the initial sets, so all three filters take their
initial sets as ``Box``es.

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
# stacking and distributed oracles detect a wrong sign: that with which a
# later block reads an agent's shared columns, in the agents' LP
# (``_AgentLP``) and in the stacking oracle's
# (``verify._SharedColumns``), read when the LP is laid out.
_COUPLING_SIGN = 1.0

# HiGHS refuses a model change that holds a coefficient of magnitude 1e15
# or more (its large_matrix_value), a lower bound of 1e20 or more or an
# upper bound of -1e20 or less (its infinite_bound).  A lifted LP whose
# numbers stay below a tenth of these limits can wait for its next solve
# (``_LiftedFilter._within_limits``).
_COEF_LIMIT = 1e14
_BOUND_LIMIT = 1e19


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


def _dynamics(stack, k):
    """``stack``'s A(k); a non-finite entry (a time-varying model read past
    the float range) raises ``lp.NumericalError``."""
    A = stack.A(k)
    if not np.isfinite(A).all():
        raise lp.NumericalError(f"dynamics A({k}) not finite")
    return A


def _step_entry(stack, k, batch):
    """What of step k moves, as (A, Y): the dynamics A(k - 1) of ``stack``
    (``_dynamics``) and the batch's measurements in its row order."""
    return _dynamics(stack, k - 1), sysmodel.stack_measurements(stack, batch)


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


def _norm_bound(M):
    """A bound on the ∞-norm of M (its largest absolute row sum): its width
    times its largest magnitude, a float (inf past the float range)."""
    return M.shape[1] * float(np.abs(M).max(initial=0.0))


class _Entry:
    """What a lifted filter keeps of a step, computed once, when it is
    stored: the step entry (A, Y) (``_step_entry``); the measurement bounds
    [lo, hi] of Y (``_measurement_bounds``), which the step's LP rows hold
    and the witness check reads; a bound on A's ∞-norm (``_norm_bound``);
    and whether each of those bounds is below ``_BOUND_LIMIT`` in magnitude
    (False at a NaN)."""

    __slots__ = ("A", "Y", "lo", "hi", "norm", "small")

    def __init__(self, stack, A, Y):
        self.A, self.Y = A, Y
        self.lo, self.hi = _measurement_bounds(Y, stack.Vset)
        self.norm = _norm_bound(A)
        # lo <= hi, so lo > -limit and hi < limit bound them all
        self.small = bool(self.lo.min() > -_BOUND_LIMIT and self.hi.max() < _BOUND_LIMIT)


class _LiftedFilter:
    """The centralized and fixed-lag filters: a posterior held as the final
    state, the last columns, of one LP, ``_post``, with the step
    bookkeeping and the queries on it.

    Without a window (``delta_bar`` None), and with one up to step
    ``delta_bar``, the posterior is the trajectory LP over (x_0, w_1, x_1,
    ..., w_k, x_k), a step block per step (``_extend_trajectory``).  Past
    ``delta_bar`` it is the LP of the last ``delta_bar + 1`` step entries
    (``_window_block``), of constant size.

    ``step`` stores, it does not build: it keeps the step's entry
    (``_Entry``), among the trajectory's pending ones or in the window's
    buffer.  ``_posterior`` brings ``_post`` up to step k when a solve
    needs it (``hull``, the LP probe of ``contains``): it extends the
    trajectory by its pending step blocks, in order, or builds the first
    window, a new LP, or reloads the window it built once, with the last
    entries (``lp.LinearProgram.replace``).  HiGHS so receives the model
    that building at every step would give it: the same rows, bounds and
    basis.  A step whose numbers could make that build or HiGHS fail
    (``_within_limits``) brings ``_post`` up at once, so that the abort
    falls on its step.  ``lifted_size`` is computed from k and the stack's
    sizes.

    ``contains`` keeps a witness (k, p, y): the state p it last found in
    the step-k posterior and y, a point of that step's LP whose final
    state is p, verified against every row of that LP that the next
    check does not read: on the trajectory every row, by ``_try_witness``
    or, for a solver's point, by ``lp.LinearProgram.satisfied_by``; on a
    window none.  The first window, a new LP, starts without one.
    """

    def __init__(self, system, initial, delta_bar=None):
        """``initial`` is the stacked initial state's Box."""
        if not isinstance(initial, Box):
            raise ValueError("initial set is not a Box")
        if initial.dim != system.state_dim():
            raise ValueError("initial set dimension mismatch")
        self.system = system
        self.delta_bar = delta_bar
        self.k = 0
        self._stack = stack = sysmodel.build_centralized(system)
        self._post = lp.LinearProgram(np.zeros((0, initial.dim)), np.zeros(0), initial.lo, initial.hi)
        self._held = 0  # the step ``_post`` is brought up to
        self._pending = []  # the trajectory's step entries not yet in ``_post``, oldest first
        self._window = []  # the last delta_bar + 1 step entries, oldest first, if there is a window
        self._entry = None  # the step entry of step k
        (n, p), m = stack.B.shape, stack.H.shape[0]
        self._dims = n, p, m
        self._B_pinv = np.linalg.pinv(stack.B)
        # what ``_admits`` reads of the fixed parts: the W box widened by
        # EPS_LP, and the row of each term of a step's dynamics and
        # measurement sums
        self._w_lo, self._w_hi = stack.Wset.lo - lp.EPS_LP, stack.Wset.hi + lp.EPS_LP
        self._dyn_rows, self._meas_rows = np.repeat(np.arange(n), n + p), np.repeat(np.arange(m), n)
        # what ``_within_limits`` reads of the fixed parts: bounds on the
        # ∞-norms of B and of [H; I]
        self._norms = _norm_bound(stack.B), max(_norm_bound(stack.H), 1.0)
        self._hull_rows = np.zeros((0, 0))  # what ``hull`` bounds, for an LP of its width
        self._witness = None
        self._nonempty = None  # the last step whose posterior a solve found nonempty

    def _windowed(self):
        """True iff the step-k posterior is the window, past ``delta_bar``."""
        return self.delta_bar is not None and self.k > self.delta_bar

    def step(self, k, batch):
        """Consume the batch of step k (must be the next step): store its
        entry, and build nothing unless ``_within_limits`` fails."""
        if k != self.k + 1:
            raise ValueError(f"expected step {self.k + 1}, got {k}")
        entry = _Entry(self._stack, *_step_entry(self._stack, k, batch))
        db = self.delta_bar
        if db is not None:
            self._window = (self._window + [entry])[-(db + 1) :]
        if db is None or k <= db:
            self._pending.append(entry)
        elif k == db + 1:  # the trajectory is dropped unbuilt; no witness enters the first window, a new LP
            self._pending, self._witness = [], None
        self._entry, self.k = entry, k
        if not self._within_limits():
            self._posterior()

    def _within_limits(self):
        """True iff every number that ``_post`` holds at step k stays below
        ``_COEF_LIMIT`` (coefficients) and ``_BOUND_LIMIT`` (bounds) in
        magnitude, by a bound from ∞-norms: then neither building it nor
        HiGHS can fail on it, and it can wait for its next solve.

        A step block's coefficients are A's, B's, H's and 1.  The window's
        are H F_j and F_d (``_window_block``), where F_j's rows sum to at
        most f_j, f_0 = 1 and f_j = |A_j| f_{j-1} + |B|.  The bounds that
        move are the entries' measurement bounds; the W box's are fixed,
        and a refusal of them comes at the LP's first build, its first
        read."""
        b, h = self._norms
        if self._windowed():
            entries, f, top = self._window, 1.0, 1.0
            for e in entries[1:]:
                f = e.norm * f + b  # a float past the range is inf, and top keeps it
                top = max(top, f)
            coef = h * top
        else:
            entries = [self._entry]
            coef = max(self._entry.norm, b, h)
        return coef < _COEF_LIMIT and all(e.small for e in entries)

    def _posterior(self):
        """``_post`` brought up to step k, and returned: the trajectory
        extended by its pending step blocks, in order; or the window of the
        last entries, a new LP (``_region``) the first time and reloaded
        (``lp.LinearProgram.replace``) after that.  Every reader of the LP
        calls it."""
        if self._held != self.k:
            if not self._windowed():
                while self._pending:  # an entry whose block raises stays pending
                    _extend_trajectory(self._post, self._stack, self._pending[0].A, self._pending[0].Y)
                    del self._pending[0]
            else:
                block = _window_block(self._stack, [(e.A, e.Y) for e in self._window])
                if self._held > self.delta_bar:
                    self._post.replace(*block)
                else:
                    self._post = _region(*block)
            self._held = self.k
        return self._post

    def hull(self):
        """Interval hull of the stacked state (a Box): the bounds of the
        unit rows of the LP's last n columns, kept while its width stays."""
        region, n = self._posterior(), self._dims[0]
        if self._hull_rows.shape[1] != region.n:
            self._hull_rows = _unit_rows(region.n, range(region.n - n, region.n))
        return Box(*region.bounds(self._hull_rows))

    def contains(self, x, coords=None):
        """True iff the posterior holds a state equal to x on the listed
        coordinates of the stacked state (all by default).  Raises
        ``lp.EmptySetError`` if the posterior is empty; a coordinate that
        is no integer, or out of range, is a ``ValueError``.

        A whole-state query tries the one-step witness first
        (``_try_witness``); only when there is none, or it fails its check,
        are the final state's coordinates pinned and the LP solved.  A
        query on listed coordinates is that probe alone.  A feasible
        whole-state solve's point seeds the next step's witness, on the
        trajectory once it passes ``satisfied_by`` on that LP.  After an
        infeasible probe the unpinned LP is solved, once per step, to tell
        an empty posterior from a point outside it.
        """
        x = np.array(x, dtype=float)
        n = self._dims[0]
        whole = coords is None
        coords = np.arange(n) if whole else np.asarray(coords).ravel()
        if coords.size and coords.dtype.kind not in "iu":  # 0.9 must not read as coordinate 0
            raise ValueError(f"state coordinates must be integers, got {coords.tolist()}")
        if coords.size and (coords.min() < 0 or coords.max() >= n):
            raise ValueError(f"state coordinate out of range 0..{n - 1}")
        if whole:
            if self._try_witness(x):
                return True
            self._witness = None
        region = self._posterior()
        if region.feasible_at(region.n - n + coords, x):
            y = region.last_x
            if whole and y is not None and (self._windowed() or region.satisfied_by(y)):
                self._witness = (self.k, x, y)
            return True
        if self._nonempty != self.k:
            if region.solve(np.zeros(region.n)).status == lp.INFEASIBLE:
                raise lp.EmptySetError("empty posterior")
            self._nonempty = self.k
        return False

    def _try_witness(self, x):
        """True iff the witness of step k - 1, carried one step to x, is a
        feasible point of the step-k posterior; it then becomes the witness
        of step k.

        The recursion carries it (``_carry``) with A this step's dynamics
        and the noise w = B⁺(x - A p) that takes its state p to x, and it
        is checked on the step entries alone (``_admits``), without the LP.
        """
        if self._witness is None or self._witness[0] != self.k - 1:
            return False
        _, p, y = self._witness
        y = self._carry(y, self._B_pinv @ (x - self._entry.A @ p), x)
        if not self._admits(y):
            return False
        self._witness = (self.k, x, y)
        return True

    def _carry(self, y, w, x):
        """The point of this step's LP that extends y, a point of the last
        step's, by the noise w and the state x: on the trajectory LP, y
        followed by (w, x); on a window after the first, (x_a, w_1, ...,
        w_d, x), with x_a moved a step, A x_a + B w_1, and y's noises
        shifted by one."""
        if not self._windowed():
            return np.concatenate([y, w, x])
        n, p, _ = self._dims
        noises = np.concatenate([y[n:-n], w])
        start = self._window[0].A @ y[:n] + self._stack.B @ noises[:p]
        return np.concatenate([start, noises[p:], x])

    def _admits(self, y):
        """True iff y, a point of the step-k posterior carried from one of
        step k - 1's (on the trajectory, one that was verified against
        every row of it), satisfies the step-k rows it was not verified
        against, to within ``lp.EPS_LP``, read from the step entries
        without the LP: its finite entries, its new noises within W, and

        * on the trajectory, the step's dynamics x - A p - B w = 0 and
          measurements H x within the batch's bounds, each row summed term
          by term in the LP's order, as ``lp.LinearProgram.satisfied_by``
          sums it, so that the verdict is that of the extended LP;
        * on a window, every row of it: the recursion s_0 = x_a, s_j =
          A_j s_{j-1} + B w_j through the window's entries, each H s_j, j <
          d, and H x within its batch's bounds, and x - s_d = 0; O(d n²),
          not the dense rows of ``_window_block``, whose sums it equals up
          to round-off.
        """
        n, p, m = self._dims
        H, eps = self._stack.H, lp.EPS_LP
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum fails its check
            if not self._windowed():
                e, new, x = self._entry, y[-n - p :], y[-n:]  # new: (w, x)
                if not np.isfinite(new).all():
                    return False
                if (new[:p] < self._w_lo).any() or (new[:p] > self._w_hi).any():
                    return False
                terms = -np.concatenate([e.A, self._stack.B], axis=1) * y[-2 * n - p : -n]  # on (x_{k-1}, w)
                gap = np.bincount(self._dyn_rows, weights=terms.ravel(), minlength=n) + x
                Hx = np.bincount(self._meas_rows, weights=(H * x).ravel(), minlength=m)
                return bool((np.abs(gap) <= eps).all() and (Hx >= e.lo - eps).all() and (Hx <= e.hi + eps).all())
            window, d = self._window, self.delta_bar
            if not np.isfinite(y).all():
                return False
            noises = y[n:-n].reshape(d, p)
            if (noises < self._w_lo).any() or (noises > self._w_hi).any():
                return False
            pushed = noises @ self._stack.B.T  # B w_j, a step per row
            states = np.empty((d + 1, n))
            states[0] = y[:n]
            for j in range(1, d + 1):
                states[j] = window[j].A @ states[j - 1] + pushed[j - 1]
            x = y[-n:]
            if not (np.abs(x - states[d]) <= eps).all():
                return False
            states[d] = x  # the last batch reads x_k
            HS = states @ H.T  # a batch per row
            return bool((HS >= np.array([e.lo for e in window]) - eps).all()
                        and (HS <= np.array([e.hi for e in window]) + eps).all())

    @property
    def lifted_size(self):
        """(generators, constraints) of the lifted posterior at step k: the
        columns and rows of ``_post`` brought up to it, from the sizes of a
        step block or of the window, without the LP."""
        n, p, m = self._dims
        if self._windowed():
            db = self.delta_bar
            return n + db * p + n, (db + 1) * m + n
        return n + self.k * (p + n), self.k * (n + m)


class CentralizedFilter(_LiftedFilter):
    """Full-information recursion on the stacked system: the trajectory LP
    of every step so far, without a window."""


class OitFilter(_LiftedFilter):
    """Fixed-lag recursion with bounded representation size: the window of
    the last ``delta_bar + 1`` batches past ``delta_bar`` (``_LiftedFilter``)."""

    def __init__(self, system, initial, delta_bar):
        super().__init__(system, initial, int(delta_bar))
        mu0 = sysmodel.observability_index(system)
        if delta_bar < mu0 - 1:
            raise WindowTooShortError(
                f"delta_bar={delta_bar} below observability requirement {mu0 - 1}"
            )


class _Owner:
    """Owner o's side of the exchange: its neighborhood stack over N̄_o
    (``stack``) and the parts of its messages that no step moves, kept
    from construction on: H B and the W box's bounds of the w columns."""

    def __init__(self, stack):
        self.stack = stack
        self._HB = stack.H @ stack.B
        self._w_lo, self._w_hi = stack.Wset.lo, stack.Wset.hi

    def message(self, A, Y, hulls):
        """Owner o's one-step set, as (A, block): its dynamics A(k), which
        agent i's hull rows read when o is i, and one LP block (lo, hi, D,
        b_lo, b_hi) over N̄_o's columns (x_prev, w): the measurement rows
        of the state x = A x_prev + B w,

            Y - v_hi <= H A(k) x_prev + H B w <= Y - v_lo  (``_measurement_bounds``),

        with x_prev in N̄_o's last ``hulls`` and w in the stack's W box."""
        stack = self.stack
        order = stack.state_order
        return A, (
            np.concatenate([hulls[l].lo for l in order] + [self._w_lo]),
            np.concatenate([hulls[l].hi for l in order] + [self._w_hi]),
            np.concatenate([stack.H @ A, self._HB], axis=1),
            *_measurement_bounds(Y, stack.Vset),
        )


def _interval_dot(a, lo, hi):
    """The range [l, u] of each row of ``a`` dotted with z over the box
    ``lo <= z <= hi`` (three 2-d arrays of one shape, a form per row,
    whose zero entries pad a short form), rounded outward: each product
    and each partial sum is moved one ulp away (``np.nextafter``), so that
    [l, u] holds the exact range, an interval whatever the form's signs
    and magnitudes.  A zero coefficient's term is 0 whatever its box, and
    a sum past the float range is infinite."""
    with np.errstate(over="ignore", invalid="ignore"):
        p, q = a * lo, a * hi
        low, high = np.nextafter(np.minimum(p, q), -np.inf), np.nextafter(np.maximum(p, q), np.inf)
        low[a == 0] = high[a == 0] = 0.0
        l, u = low[:, 0], high[:, 0]
        for j in range(1, a.shape[1]):
            l, u = np.nextafter(l + low[:, j], -np.inf), np.nextafter(u + high[:, j], np.inf)
    return l, u


def _fold(b_lo, b_hi, t_lo, t_hi):
    """The bounds [b_lo - t_hi, b_hi - t_lo] of a row's other terms when
    the row b_lo <= (other terms) + t <= b_hi reads t, in [t_lo, t_hi],
    nowhere else: the row's projection with t folded away, rounded
    outward.  A row bound that is infinite in t's direction stays."""
    with np.errstate(invalid="ignore"):
        lo, hi = np.nextafter(b_lo - t_hi, -np.inf), np.nextafter(b_hi - t_lo, np.inf)
    return np.where(np.isnan(lo), b_lo, lo), np.where(np.isnan(hi), b_hi, hi)


def _components(S):
    """The connected components of the bipartite graph of the boolean
    matrix S, whose nodes are its rows and columns and whose edges are its
    True entries, each as (rows, columns), in the order of their first
    rows; a column without a True entry is in none.  The rows are the
    graph's first nodes, so each component's label (``lp._labels``) is
    its first row."""
    r, c = np.nonzero(S)
    label = lp._labels(r, S.shape[0] + c, sum(S.shape))
    rows, cols = label[: S.shape[0]], label[S.shape[0] :]
    return [(np.flatnonzero(rows == g), np.flatnonzero(cols == g)) for g in np.unique(rows)]


class _AgentLP:
    """Every agent's lifted refinement, each an independent block of one
    LinearProgram for the whole trial: the layout, laid out once from the
    system; the assembly of one step's messages (``_assemble``); the
    model, built from the first messages and reloaded whole by every later
    step (``update``, ``lp.LinearProgram.replace``), so that each step's
    solves start from the last basis; and the hull rows (``hulls``).

    Agent i's block holds the messages (``_Owner.message``) of its
    ``owners[i]``, agent i and every peer in ``topology.peers(i)``, in
    that order, their rows in turn, each over N̄_o's previous states
    x_prev and process noises w, the step's states substituted out.
    Agent i's (x_prev, w) columns, its slot, are one set that every
    message reads, the later ones with the sign ``_COUPLING_SIGN`` (which
    ``czest verify --inject-fault`` flips).  That is exact: A(k) and B are
    block-diagonal, so a peer's rows read agent i only through A_i(k)
    x_prev + B_i w over the same box (its last hull times W_i) as its own
    message's, and a copy of the slot per peer tied to agent i's state
    would hold the same set.

    Any other agent l of owner o's message reaches o's rows only through
    H_l s_l, s_l = A_l(k) x_prev + B_l w its predicted state, over l's box
    in o's message (its last hull times W_l), which no other row reads.
    So l enters as the coordinates t of s_l that H_l reads, its *forms*:
    each form whose support in [A_l(k) B_l] meets no other's is one
    interval column, with o's coefficients H_l[:, t] and the form's range
    over the box as its bounds (``_interval_dot``; a linear form over a box
    ranges over an interval, so the columns it merges are parallel
    columns, Andersen & Andersen, *Math. Programming* 71, 1995), and a
    form column that one row reads is folded into that row's bounds
    (``_fold``; a column singleton).  Both are exact projections, and both
    are rounded outward, so that the block's projection on agent i's slot
    is the messages' own.  The supports are those of every k
    (``sysmodel.AgentModel.A_support``); forms whose supports meet (an
    A(k) of undeclared pattern) keep l's columns of them as they are, and
    l's columns that no form reads drop.  uav5's blocks so hold 42 columns
    instead of 156, pair1d's 6 instead of 12 and hetero3's 11 instead of
    28, with the same rows; ``sizes`` holds each block's unreduced
    (columns, rows), its owners' message blocks less the later ones'
    copies of the slot.  Every column is bounded.

    Agent i's columns are its slot, ``own[g]`` for its place g in id
    order, then each message's form and kept columns in turn; the blocks
    follow each other, rows ``spans[g][0]`` by columns ``spans[g][1]``.
    The refined set of one step is the image of agent i's block's feasible
    set under [A_i(k) B_i] on its slot, whose rows ``hulls`` bounds.  No
    column or row is shared between agents, so the LP is the product of
    the agents' blocks: agent i's block reads no data but its owners'
    messages, and its hull is the one its block alone would give
    (``first_empty`` solves a block alone).  All agents' hull rows are
    bounded in one ``lp.LinearProgram.bounds``, whose batches sum rows
    that read different blocks: each row goes into the batch it would take
    in its agent's hull alone, so a step makes as many HiGHS runs as the
    agent whose hull alone would take the most, 4 for uav5's five agents.
    HiGHS pivots and refactors the whole model, so an agent's hull can
    depend on another agent's data in its last bits.
    """

    def __init__(self, system, stacks, sent):
        """Lay out the LP and build it from the messages ``sent`` ({owner:
        message}); ``stacks`` maps each owner o to its neighborhood stack
        over N̄_o."""
        agents, ids = system.agents, system.agent_ids
        self.ids, self.owners = ids, {i: [i] + system.topology.peers(i) for i in ids}
        width = {o: sum(stacks[o].B.shape) for o in ids}
        rows = {o: stacks[o].H.shape[0] for o in ids}

        def starts(size):  # where each id's part starts in their concatenation, in id order
            return dict(zip(ids, np.cumsum([0] + [size(o) for o in ids[:-1]])))

        at_col, at_row, at_hull = starts(width.get), starts(rows.get), starts(lambda i: agents[i].n)
        at_D, at_A = starts(lambda o: rows[o] * width[o]), starts(lambda o: stacks[o].B.shape[0] ** 2)
        n_A = sum(stacks[o].B.shape[0] ** 2 for o in ids)
        at_B = {o: n_A + at for o, at in starts(lambda o: stacks[o].B.size).items()}
        # what the forms read after the messages' A: each stack's B, then a
        # zero that pads a short form
        self._B = np.concatenate([stacks[o].B.ravel() for o in ids] + [np.zeros(1)])
        pad = n_A + self._B.size - 1
        n_box = sum(width.values())  # the forms' bounds follow the messages' column bounds
        # per form its terms (coefficient, box entry); per (o, l) l's kept
        # columns or forms in o's message, in order
        forms, parts = [], {}
        pick, entries, fixed, folds, row_src = [], [], [], [], []
        self.spans, self.own, self.sizes, self._rows = [], [], {}, []
        m = n = 0
        for i in ids:
            m0, n0, a = m, n, agents[i]
            slot = n + np.arange(a.n + a.p)
            self.own.append(slot)
            self._rows.append((slice(at_hull[i], at_hull[i] + a.n), slot[: a.n]))  # its hull rows, its state
            n += slot.size
            for b, o in enumerate(self.owners[i]):
                st = stacks[o]
                (nx, px), H = st.B.shape, st.H
                D_at = at_D[o] + width[o] * np.arange(rows[o])  # where each of its rows starts in D
                x_at, w_at = 0, nx
                for l in st.state_order:
                    cols = np.r_[x_at : x_at + agents[l].n, w_at : w_at + agents[l].p]  # l's (x_prev, w)
                    xs = cols[: agents[l].n]
                    x_at, w_at = x_at + agents[l].n, w_at + agents[l].p
                    if l == i:
                        if not b:
                            pick.extend(at_col[o] + cols)
                        sign = 1.0 if not b else _COUPLING_SIGN
                        entries.extend((m + r, c, D_at[r] + j, sign) for r in range(rows[o]) for c, j in zip(slot, cols))
                        continue
                    if (o, l) not in parts:  # alike for every holder of o's message but l
                        T = np.flatnonzero((H[:, xs] != 0).any(axis=0))  # l's coordinates that o's rows read
                        support = np.hstack([agents[l].A_support, agents[l].B != 0])[T]
                        parts[o, l] = []
                        for ts, vs in _components(support):
                            if ts.size > 1:  # forms that meet keep l's columns of them
                                parts[o, l].append((cols[vs], None, None, None))
                                continue
                            t = xs[T[ts[0]]]  # row t of [A_l(k) B_l] over l's box, in o's message
                            parts[o, l].append((None, len(forms), t, np.flatnonzero(H[:, t])))
                            forms.append([(at_A[o] + t * nx + j if j < nx else at_B[o] + t * px + j - nx,
                                           at_col[o] + j) for j in cols[vs]])
                    for kept, f, t, reads in parts[o, l]:
                        if f is None:
                            for j in kept:
                                pick.append(at_col[o] + j)
                                entries.extend((m + r, n, D_at[r] + j, 1.0) for r in range(rows[o]))
                                n += 1
                        elif reads.size == 1:
                            folds.append((m + reads[0], f, H[reads[0], t]))
                        else:
                            pick.append(n_box + f)
                            fixed.extend((m + r, n, H[r, t]) for r in reads)
                            n += 1
                row_src.extend(at_row[o] + np.arange(rows[o]))
                m += rows[o]
            self.spans.append((slice(m0, m), slice(n0, n)))
            self.sizes[i] = (sum(width[o] for o in self.owners[i]) - (len(self.owners[i]) - 1) * slot.size, m - m0)
        self._pick, self._row_src = np.array(pick, dtype=int), np.array(row_src, dtype=int)
        # per step entry of the LP from the messages' D: its place (flat),
        # its source and its sign; the form columns' fixed coefficients
        row, col, src, self._sign = np.array(entries, dtype=float).reshape(-1, 4).T
        self._at, self._src = (row * n + col).astype(int), src.astype(int)
        self._template = np.zeros((m, n))
        for r, c, h in fixed:
            self._template[r, c] = h
        # each form's terms, padded to one width with a zero coefficient
        wide = max([len(terms) for terms in forms] + [1])
        terms = [f + [(pad, 0)] * (wide - len(f)) for f in forms]
        self._form_coef = np.array([[c for c, _ in f] for f in terms], dtype=int).reshape(-1, wide)
        self._form_box = np.array([[z for _, z in f] for f in terms], dtype=int).reshape(-1, wide)
        # each folded row's forms and coefficients, padded alike
        by_row = {}
        for r, f, h in folds:
            by_row.setdefault(r, []).append((f, h))
        wide = max([len(v) for v in by_row.values()] + [1])
        padded = [v + [(0, 0.0)] * (wide - len(v)) for v in by_row.values()]
        self._folded = np.array(list(by_row), dtype=int)
        self._fold_form = np.array([[f for f, _ in v] for v in padded], dtype=int).reshape(-1, wide)
        self._fold_coef = np.array([[h for _, h in v] for v in padded], dtype=float).reshape(-1, wide)
        # [A_i(k) B_i] on agent i's slot, agent after agent; update writes A_i(k)
        self._hull_rows = np.zeros((sum(agents[i].n for i in ids), n))
        for i, own, (hull, _) in zip(ids, self.own, self._rows):
            self._hull_rows[hull, own[agents[i].n :]] = agents[i].B
        self.program = None
        self.update(sent)

    def _assemble(self, messages):
        """The LP (lo, hi, D, b_lo, b_hi) of one step's ``messages`` (one
        per owner, in id order, each (A, block) as ``_Owner.message``
        returns it), in layout order."""
        A, blocks = zip(*messages)
        col_lo, col_hi, D, b_lo, b_hi = zip(*blocks)
        box_lo, box_hi = np.concatenate(col_lo), np.concatenate(col_hi)
        coef = np.concatenate([a.ravel() for a in A] + [self._B])
        f_lo, f_hi = _interval_dot(coef[self._form_coef], box_lo[self._form_box], box_hi[self._form_box])
        M = self._template.copy()
        M.flat[self._at] = np.concatenate([d.ravel() for d in D])[self._src] * self._sign
        r_lo, r_hi = np.concatenate(b_lo)[self._row_src], np.concatenate(b_hi)[self._row_src]
        if self._folded.size:
            t_lo, t_hi = _interval_dot(self._fold_coef, f_lo[self._fold_form], f_hi[self._fold_form])
            r_lo[self._folded], r_hi[self._folded] = _fold(r_lo[self._folded], r_hi[self._folded], t_lo, t_hi)
        return (
            np.concatenate([box_lo, f_lo])[self._pick],
            np.concatenate([box_hi, f_hi])[self._pick],
            M,
            r_lo,
            r_hi,
        )

    def update(self, sent):
        """Load the messages ``sent`` ({owner: message}) of a step: each
        agent i's A_i(k) into its hull rows, and their LP (``_assemble``)
        into the model, built by the first call and reloaded by every later
        one (``lp.LinearProgram.replace``)."""
        for i, (hull, x) in zip(self.ids, self._rows):
            self._hull_rows[hull, x] = sent[i][0][: x.size, : x.size]  # i leads N̄_i
        self._loaded = self._assemble([sent[o] for o in self.ids])
        if self.program is None:
            self.program = _region(*self._loaded)
        else:
            self.program.replace(*self._loaded)

    def hulls(self):
        """{agent: interval hull of its refined own state}, all in one
        ``bounds``; an empty block raises ``lp.EmptySetError``."""
        lo, hi = self.program.bounds(self._hull_rows)
        return {i: Box(lo[hull], hi[hull]) for i, (hull, _) in zip(self.ids, self._rows)}

    def first_empty(self):
        """The first agent, in id order, whose block of the last loaded LP
        is infeasible alone, solved as a fresh LinearProgram; None if no
        block is."""
        lo, hi, D, b_lo, b_hi = self._loaded
        for i, (rows, cols) in zip(self.ids, self.spans):
            alone = _region(lo[cols], hi[cols], D[rows, cols], b_lo[rows], b_hi[rows])
            if alone.solve(np.zeros(alone.n)).status == lp.INFEASIBLE:
                return i
        return None


class DistributedFilter:
    """Per-agent neighborhood recursion with peer refinement.

    Each agent's posterior is the interval hull of its refined own state
    (``hulls``), solved on the agents' persistent lifted LP (``_AgentLP``),
    one independent block per agent.  A step computes each owner's message
    (``_Owner.message``) once, from its neighborhood stack, the step's
    measurements and the last hulls, and hands each agent's block the
    messages of its owners only.  The model is built at construction and
    reloaded by every step.  When the model is empty, the abort names the
    first agent, in id order, whose block alone is empty
    (``_AgentLP.first_empty``).
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
        self._owners = {o: _Owner(sysmodel.build_neighborhood(system, o)) for o in ids}
        stacks = {o: owner.stack for o, owner in self._owners.items()}
        sent = {o: owner.message(_dynamics(stacks[o], 0), np.zeros(stacks[o].H.shape[0]), self.hulls)
                for o, owner in self._owners.items()}
        self._lp = _AgentLP(system, stacks, sent)

    def step(self, k, batch):
        """Consume the batch of step k (must be the next step)."""
        if k != self.k + 1:
            raise ValueError(f"expected step {self.k + 1}, got {k}")
        self._lp.update({o: owner.message(*_step_entry(owner.stack, k, batch), self.hulls)
                         for o, owner in self._owners.items()})
        try:
            self.hulls = self._lp.hulls()
        except lp.EmptySetError:
            raise EmptyPosteriorError(k, agent=self._lp.first_empty()) from None
        self.k = k

    @property
    def lifted_sizes(self):
        """{agent: (columns, rows)} of each agent's lifted block, its
        owners' message blocks on its shared columns, constant from
        construction on: the model HiGHS solves holds the same rows and
        fewer columns (``_AgentLP``)."""
        return self._lp.sizes
