"""Set-membership filters over extended constrained zonotopes.

Three estimators share the same predict/update primitives:

* ``CentralizedFilter``: the textbook recursion on the full stacked
  system.  Exact, but generators and constraints accumulate with time.
* ``OitFilter``: fixed-lag variant.  Once more than ``delta_bar`` steps
  have passed it rebuilds the posterior from the last ``delta_bar + 1``
  measurement batches starting from an unbounded prior, so the
  representation size stops growing.  Needs ``delta_bar >= mu0 - 1``
  where ``mu0`` is the system's observability index.
* ``DistributedFilter``: each agent runs a local recursion over its
  neighborhood joint state, refines its own block with the joint
  posteriors received from peers, and finalizes with an interval hull so
  the local representation stays constant-size.

Steps are numbered so that step 0 is initialization only; the first
measurement batch arrives at k = 1.
"""

import numpy as np

from . import czono, sysmodel
from .czono import ConstrainedZonotope, EmptySetError

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
    "extract_agent_set",
    "projection_matrix",
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


class CentralizedFilter:
    """Full-information recursion on the stacked system."""

    def __init__(self, system, initial):
        if initial.dim != system.state_dim():
            raise ValueError("initial set dimension mismatch")
        self.system = system
        self.posterior = initial
        self.k = 0

    def step(self, k, batch):
        """Consume the batch of step k (must be the next step)."""
        if k != self.k + 1:
            raise ValueError(f"expected step {self.k + 1}, got {k}")
        prev = sysmodel.build_centralized(self.system, k - 1)
        prior = smf_predict(self.posterior, prev.A, prev.B, prev.Wset)
        cur = sysmodel.build_centralized(self.system, k)
        Y = sysmodel.stack_measurements(cur, batch)
        self.posterior = smf_update(prior, cur.H, Y, cur.Vset)
        self.k = k
        return self.posterior

    def agent_set(self, i):
        """Projection of the posterior onto agent i's block."""
        sl = self.system.state_slices()[i]
        return czono.project(self.posterior, range(sl.start, sl.stop))


class OitFilter:
    """Fixed-lag rebuild recursion with bounded representation size.

    For k <= delta_bar the posterior equals the centralized recursion
    exactly (same primitives, same inputs).  Beyond that the posterior is
    rebuilt each step from the buffered window, starting from an
    unbounded prior at k - delta_bar, which caps generator and constraint
    counts at a constant.
    """

    def __init__(self, system, initial, delta_bar, mu0=None):
        if initial.dim != system.state_dim():
            raise ValueError("initial set dimension mismatch")
        if mu0 is None:
            mu0 = sysmodel.observability_index(system)
        if delta_bar < mu0 - 1:
            raise WindowTooShortError(
                f"delta_bar={delta_bar} below observability requirement {mu0 - 1}"
            )
        self.system = system
        self.delta_bar = int(delta_bar)
        self.mu0 = int(mu0)
        self.posterior = initial
        self.k = 0
        self._window = []  # (A_prev, B, Wset, H, Vset, Y) per step, oldest first

    def step(self, k, batch):
        if k != self.k + 1:
            raise ValueError(f"expected step {self.k + 1}, got {k}")
        prev = sysmodel.build_centralized(self.system, k - 1)
        cur = sysmodel.build_centralized(self.system, k)
        Y = sysmodel.stack_measurements(cur, batch)
        self._window.append((prev.A, prev.B, prev.Wset, cur.H, cur.Vset, Y))
        if len(self._window) > self.delta_bar + 1:
            self._window.pop(0)
        if k <= self.delta_bar:
            prior = smf_predict(self.posterior, prev.A, prev.B, prev.Wset)
            self.posterior = smf_update(prior, cur.H, Y, cur.Vset)
        else:
            Z = czono.whole_space(self.system.state_dim())
            first = True
            for A_prev, B, Wset, H, Vset, Yt in self._window:
                if not first:
                    Z = smf_predict(Z, A_prev, B, Wset)
                Z = smf_update(Z, H, Yt, Vset)
                first = False
            self.posterior = Z
        self.k = k
        return self.posterior

    def agent_set(self, i):
        sl = self.system.state_slices()[i]
        return czono.project(self.posterior, range(sl.start, sl.stop))


def projection_matrix(alpha, q, n):
    """E_{alpha,q} = e_alpha^T kron I_n: picks block alpha (1-based) of q."""
    e = np.zeros((1, q))
    e[0, alpha - 1] = 1.0
    return np.kron(e, np.eye(n))


def extract_agent_set(joint, position, block_dims):
    """Project a joint set onto the block at `position` (0-based).

    block_dims lists the per-agent state dimensions in joint order.
    """
    ofs = int(np.sum(block_dims[:position]))
    n = block_dims[position]
    return czono.project(joint, range(ofs, ofs + n))


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
