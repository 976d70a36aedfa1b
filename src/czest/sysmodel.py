"""Multi-agent system models with absolute and relative measurements.

Each agent i evolves as x_{i,k+1} = A_i(k) x_{i,k} + B_i w_{i,k} and takes

    y_i  = C_i x_i + v_i            (absolute measurement)
    z_ij = D_i (x_i - x_j) + r_ij   (relative measurement, j in N_i)

on a directed measurement graph.  An edge (i, j) means "agent i measures
agent j", so j is an in-neighbor of i.  Communication follows the same
edges.  Noise ranges are boxes (``czono.Box``): ``AgentModel`` rejects
any other set, and the stacked ranges are boxes too.

This module builds the stacked systems used by the filters: the
centralized stack over all agents and the neighborhood stack over
N̄_i = (i, then in-neighbors ascending), both with a fixed, documented
row order so measurement vectors can be serialized and re-stacked
deterministically.  Of the model only A_i(k) moves with the step, so a
stack holds the fixed parts (B, H, noise boxes, layout) and assembles
its dynamics per step with ``StackedSystem.A(k)``; callers build each
stack once and nothing is kept per step.
"""

import numbers

import numpy as np

from .czono import Box

__all__ = [
    "AgentModel",
    "Topology",
    "MultiAgentSystem",
    "MeasurementBatch",
    "StackedSystem",
    "NotObservableError",
    "SchemaError",
    "box_from_dict",
    "build_centralized",
    "build_neighborhood",
    "stack_measurements",
    "step_truth",
    "measure",
    "observability_index",
    "system_from_dict",
]

EPS_RANK = 1e-8


class NotObservableError(RuntimeError):
    """The stacked system never reaches full rank within the horizon."""


class SchemaError(ValueError):
    """A scenario document violates the schema."""


class AgentModel:
    """One agent: dynamics, measurement maps and noise ranges.

    Args:
        agent_id: positive integer identifier (1-based).
        A_of_k: callable k -> (n, n) system matrix at step k.
        B: (n, p) input matrix.
        C: (m_y, n) absolute measurement matrix (m_y may be 0).
        D: (m_z, n) relative measurement matrix.
        Wset: process noise range, a Box of dim p.
        Vset: absolute measurement noise range, a Box of dim m_y.
        Rset_of: mapping in-neighbor id -> relative noise range, a Box of
            dim m_z.
    """

    def __init__(self, agent_id, A_of_k, B, C, D, Wset, Vset, Rset_of=None):
        if agent_id < 1:
            raise ValueError("agent ids are 1-based positive integers")
        self.id = int(agent_id)
        self.A_of_k = A_of_k
        self.B = np.atleast_2d(np.asarray(B, dtype=float))
        self.C = _rows_over(C, self.B.shape[0], f"agent {self.id}: C")
        self.D = _rows_over(D, self.B.shape[0], f"agent {self.id}: D")
        self.Wset = Wset
        self.Vset = Vset
        self.Rset_of = dict(Rset_of or {})
        ranges = [("process noise", Wset), ("measurement noise", Vset)]
        ranges += [(f"relative noise of {j}", R) for j, R in self.Rset_of.items()]
        for what, S in ranges:
            if not isinstance(S, Box):
                raise ValueError(f"agent {self.id}: {what} range is not a Box")
        n = self.B.shape[0]
        A0 = np.asarray(A_of_k(0), dtype=float)
        if A0.shape != (n, n):
            raise ValueError(f"agent {self.id}: A(k) must be {n}x{n}, got {A0.shape}")
        if Wset.dim != self.B.shape[1]:
            raise ValueError(f"agent {self.id}: Wset dim {Wset.dim} != B columns {self.B.shape[1]}")
        if Vset.dim != self.C.shape[0]:
            raise ValueError(f"agent {self.id}: Vset dim {Vset.dim} != C rows {self.C.shape[0]}")

    @property
    def n(self):
        return self.B.shape[0]

    @property
    def p(self):
        return self.B.shape[1]

    @property
    def m_y(self):
        return self.C.shape[0]

    @property
    def m_z(self):
        return self.D.shape[0]


def _rows_over(M, n, what):
    """M as a float matrix with n columns; an empty M has no rows, and any
    other shape is a ValueError naming ``what``."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return M.reshape(0, n)
    if M.ndim != 2 or M.shape[1] != n:
        raise ValueError(f"{what}: must be a matrix with {n} columns, got shape {M.shape}")
    return M


class Topology:
    """Directed measurement/communication graph on agents 1..n_agents.

    Edge (i, j) reads "i measures j": j becomes an in-neighbor of i and
    agent i also receives what agent j publishes.
    """

    def __init__(self, n_agents, edges):
        self.n_agents = int(n_agents)
        es = set()
        for e in edges:
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise ValueError(f"self-loop ({i},{j}) not allowed")
            if not (1 <= i <= self.n_agents and 1 <= j <= self.n_agents):
                raise ValueError(f"edge ({i},{j}) out of range 1..{self.n_agents}")
            es.add((i, j))
        self.edges = frozenset(es)

    def in_neighbors(self, i):
        """N_i: agents that i measures, ascending."""
        return sorted(j for (a, j) in self.edges if a == i)

    def out_neighbors(self, i):
        """M_i: agents that measure i, ascending."""
        return sorted(a for (a, j) in self.edges if j == i)

    def nbar(self, i):
        """N̄_i = (i, then in-neighbors ascending): joint state order."""
        return [i] + self.in_neighbors(i)

    def peers(self, i):
        """M_i ∩ N_i: agents whose joint sets agent i receives and uses."""
        ni = set(self.in_neighbors(i))
        return sorted(l for l in self.out_neighbors(i) if l in ni)


class MeasurementBatch:
    """All measurements of one step: y per agent, z per edge."""

    __slots__ = ("k", "y", "z")

    def __init__(self, k, y, z):
        self.k = int(k)
        self.y = {int(i): np.asarray(v, dtype=float).ravel() for i, v in y.items()}
        self.z = {(int(i), int(j)): np.asarray(v, dtype=float).ravel() for (i, j), v in z.items()}

    def to_dict(self):
        return {
            "k": self.k,
            "y": {str(i): v.tolist() for i, v in sorted(self.y.items())},
            "z": {f"{i},{j}": v.tolist() for (i, j), v in sorted(self.z.items())},
        }

    @classmethod
    def from_dict(cls, d):
        y = {int(i): v for i, v in d["y"].items()}
        z = {tuple(int(t) for t in key.split(",")): v for key, v in d["z"].items()}
        return cls(d["k"], y, z)


class StackedSystem:
    """A stacked (centralized or neighborhood) system: its fixed parts and
    its dynamics at any step.

    Attributes:
        state_order: agent ids in block order.
        state_slices: id -> slice into the stacked state.
        B: stacked input matrix (read-only).
        H: stacked measurement matrix (read-only).
        Wset, Vset: stacked noise ranges (Box).
        meas_layout: row blocks of H in order, entries ("y", i) or ("z", i, j).
    """

    __slots__ = ("state_order", "state_slices", "B", "H", "Wset", "Vset", "meas_layout", "_A_of_k")

    def __init__(self, agents, state_order, state_slices, B, H, Wset, Vset, meas_layout):
        self.state_order = state_order
        self.state_slices = state_slices
        self.B = B
        self.H = H
        self.Wset = Wset
        self.Vset = Vset
        self.meas_layout = meas_layout
        self._A_of_k = [(state_slices[i], agents[i].A_of_k) for i in state_order]

    def A(self, k):
        """Stacked dynamics at step k: the block-diagonal of the agents'
        ``A_of_k(k)``, a new array on each call."""
        dim = self.B.shape[0]
        A = np.zeros((dim, dim))
        for sl, A_of_k in self._A_of_k:
            A[sl, sl] = A_of_k(k)
        return A


class MultiAgentSystem:
    """Agents plus topology, with consistency checks."""

    def __init__(self, agents, topology):
        agents = {a.id: a for a in agents}
        if sorted(agents) != list(range(1, topology.n_agents + 1)):
            raise ValueError("agent ids must be exactly 1..n_agents")
        self.agents = agents
        self.topology = topology
        for i, a in agents.items():
            ni = topology.in_neighbors(i)
            if sorted(a.Rset_of) != ni:
                raise ValueError(
                    f"agent {i}: relative noise ranges given for {sorted(a.Rset_of)}, "
                    f"in-neighbors are {ni}"
                )
            for j, R in a.Rset_of.items():
                if R.dim != a.m_z:
                    raise ValueError(f"agent {i}: Rset[{j}] dim {R.dim} != D rows {a.m_z}")

    @property
    def n_agents(self):
        return self.topology.n_agents

    @property
    def agent_ids(self):
        return list(range(1, self.n_agents + 1))

    def state_dim(self):
        return sum(self.agents[i].n for i in self.agent_ids)

    def state_slices(self, order=None):
        order = order or self.agent_ids
        slices = {}
        ofs = 0
        for i in order:
            n = self.agents[i].n
            slices[i] = slice(ofs, ofs + n)
            ofs += n
        return slices


def _concat_boxes(boxes):
    """The Cartesian product of boxes, in order (0-dimensional for none)."""
    return Box(
        np.concatenate([b.lo for b in boxes] + [np.zeros(0)]),
        np.concatenate([b.hi for b in boxes] + [np.zeros(0)]),
    )


def _build_stack(system, order, meas_agents):
    """Stacked B/W over `order`, H/V rows from `meas_agents`."""
    agents = system.agents
    slices = system.state_slices(order)
    dim = sum(agents[i].n for i in order)
    B_blocks = [agents[i].B for i in order]
    pdim = sum(b.shape[1] for b in B_blocks)
    B = np.zeros((dim, pdim))
    ofs = 0
    for i, blk in zip(order, B_blocks):
        B[slices[i], ofs : ofs + blk.shape[1]] = blk
        ofs += blk.shape[1]
    # measurement rows: every absolute block, then every relative block
    rows = []
    layout = []
    vparts = []
    in_order = set(order)
    for i in meas_agents:
        a = agents[i]
        if a.m_y:
            blk = np.zeros((a.m_y, dim))
            blk[:, slices[i]] = a.C
            rows.append(blk)
            layout.append(("y", i))
            vparts.append(a.Vset)
    for i in meas_agents:
        a = agents[i]
        for j in system.topology.in_neighbors(i):
            if j not in in_order:
                raise ValueError(f"relative measurement ({i},{j}) leaves the stacked state")
            blk = np.zeros((a.m_z, dim))
            blk[:, slices[i]] = a.D
            blk[:, slices[j]] = -a.D
            rows.append(blk)
            layout.append(("z", i, j))
            vparts.append(a.Rset_of[j])
    H = np.vstack(rows) if rows else np.zeros((0, dim))
    for arr in (B, H):
        arr.setflags(write=False)
    Wset = _concat_boxes([agents[i].Wset for i in order])
    return StackedSystem(agents, list(order), slices, B, H, Wset, _concat_boxes(vparts), layout)


def build_centralized(system):
    """Stack all agents (ascending id) with every measurement row."""
    ids = system.agent_ids
    return _build_stack(system, ids, ids)


def build_neighborhood(system, i):
    """Stack N̄_i = (i, in-neighbors ascending) with agent i's rows only."""
    return _build_stack(system, system.topology.nbar(i), [i])


def stack_measurements(stacked, batch):
    """Assemble the Y vector matching the stacked H row order."""
    parts = []
    for entry in stacked.meas_layout:
        if entry[0] == "y":
            parts.append(batch.y[entry[1]])
        else:
            parts.append(batch.z[(entry[1], entry[2])])
    return np.concatenate(parts) if parts else np.zeros(0)


def step_truth(system, k, x, w):
    """Advance the stacked truth one step with stacked process noise."""
    x = np.asarray(x, dtype=float).ravel()
    w = np.asarray(w, dtype=float).ravel()
    slices = system.state_slices()
    out = np.empty_like(x)
    wofs = 0
    for i in system.agent_ids:
        a = system.agents[i]
        Ai = np.asarray(a.A_of_k(k), dtype=float)
        out[slices[i]] = Ai @ x[slices[i]] + a.B @ w[wofs : wofs + a.p]
        wofs += a.p
    return out


def measure(system, k, x, noise):
    """Generate all measurements at the stacked truth x.

    ``noise`` is one vector in the row order of ``build_centralized``:
    every absolute block (agents ascending, those with m_y > 0), then
    every relative block (i ascending, j over ``in_neighbors(i)``).  A
    vector of another length raises ValueError.
    """
    x = np.asarray(x, dtype=float).ravel()
    noise = np.asarray(noise, dtype=float).ravel()
    agents, topo, ids = system.agents, system.topology, system.agent_ids
    m = sum(a.m_y + a.m_z * len(a.Rset_of) for a in agents.values())
    if noise.shape[0] != m:
        raise ValueError(f"noise has length {noise.shape[0]}, the stacked rows are {m}")
    slices = system.state_slices()
    y = {}
    z = {}
    ofs = 0
    for i in ids:
        a = agents[i]
        if a.m_y:
            y[i] = a.C @ x[slices[i]] + noise[ofs : ofs + a.m_y]
            ofs += a.m_y
    for i in ids:
        a = agents[i]
        for j in topo.in_neighbors(i):
            z[(i, j)] = a.D @ (x[slices[i]] - x[slices[j]]) + noise[ofs : ofs + a.m_z]
            ofs += a.m_z
    return MeasurementBatch(k, y, z)


def observability_index(system):
    """Smallest mu with [H; H Phi(1); ...; H Phi(mu-1)] of full column rank.

    Phi(t) is the state transition product A(t-1)...A(0).  Raises
    NotObservableError if no mu <= 2 * dim works, or if a block of the
    matrix is not finite before one does.
    """
    dim = system.state_dim()
    mu_max = 2 * dim
    stack = build_centralized(system)
    H = stack.H
    blocks = [H]
    Phi = np.eye(dim)
    for mu in range(1, mu_max + 1):
        O = np.vstack(blocks)
        if not np.all(np.isfinite(O)):
            raise NotObservableError(f"observability matrix not finite at mu = {mu}")
        s = np.linalg.svd(O, compute_uv=False)
        if s.size and s[0] > 0 and np.sum(s > EPS_RANK * s[0]) == dim:
            return mu
        with np.errstate(over="ignore", invalid="ignore"):  # O is checked before its SVD
            Phi = stack.A(mu - 1) @ Phi
            blocks.append(H @ Phi)
    raise NotObservableError(f"system not observable within {mu_max} steps")


# -- scenario schema --------------------------------------------------------
# One rule for a number, here and in ``simharness.ScenarioConfig``: an int
# or a float, never a string or a bool; an int where the schema says so.


def _need(d, key, path):
    """``d[key]``; a SchemaError naming ``path`` if d is no object or lacks it."""
    if not isinstance(d, dict):
        raise SchemaError(f"{path}: must be an object, got {d!r}")
    if key not in d:
        raise SchemaError(f"{path}: missing key '{key}'")
    return d[key]


def _integer(val, path, low=None):
    """``val`` as an int; anything but an integer (a float, a bool, a
    string), or one below ``low``, is a SchemaError naming ``path``."""
    if not isinstance(val, numbers.Integral) or isinstance(val, bool):
        raise SchemaError(f"{path}: must be an integer, got {val!r}")
    if low is not None and val < low:
        raise SchemaError(f"{path}: must be >= {low}, got {val}")
    return int(val)


def _numbers(val, path, nonfinite="must be finite"):
    """``val``, a number or nested lists of numbers, as a float array.  A
    string, a bool, a ragged list or an integer no float holds is a
    SchemaError naming ``path``, and so is a NaN or infinite entry, with
    the message ``nonfinite``."""
    arr = None
    try:
        entries = np.array(val, dtype=object)  # a ragged list keeps lists as entries
        if all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in entries.flat):
            arr = entries.astype(float)
    except (ValueError, OverflowError):
        pass
    if arr is None:
        raise SchemaError(f"{path}: must be a number or lists of numbers, got {val!r}")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{path}: {nonfinite}")
    return arr


def _real(val, path, low=None):
    """``val`` as a float: one finite number (``_numbers``), at least
    ``low`` if given; anything else is a SchemaError naming ``path``."""
    x = _numbers(val, path)
    if x.ndim:
        raise SchemaError(f"{path}: must be a number, got {val!r}")
    if low is not None and x < low:
        raise SchemaError(f"{path}: must be >= {low}, got {val!r}")
    return float(x)


def box_from_dict(d, path):
    """The bounded box ``{"lo": [...], "hi": [...]}`` at ``path`` of a
    scenario; a missing or nested end, an entry that is no finite number
    (``_numbers``), or ``lo > hi`` is a SchemaError naming ``path``."""
    lo, hi = (_numbers(_need(d, end, path), path, "range must be bounded") for end in ("lo", "hi"))
    if lo.ndim != 1 or hi.ndim != 1:
        raise SchemaError(f"{path}: 'lo' and 'hi' must be flat lists of numbers")
    try:
        return Box(lo, hi)
    except ValueError as e:
        raise SchemaError(f"{path}: {e}") from e


def _dynamics_from_dict(d, path):
    kind = _need(d, "kind", path)
    if kind == "constant":
        A = np.atleast_2d(_numbers(_need(d, "A", path), f"{path}.A"))

        def A_of_k(k, A=A):
            return A

        return A_of_k, A.shape[0]
    if kind == "coordinated-turn":
        omega, T = (_real(_need(d, key, path), f"{path}.{key}") for key in ("omega", "T"))
        if omega == 0:
            raise SchemaError(f"{path}.omega: must be nonzero")

        def A_of_k(k, omega=omega, T=T):
            # an angle past the float range is inf, whose sine is a quiet
            # NaN: the filters and ``observability_index`` check A
            with np.errstate(invalid="ignore"):
                s1, s0 = np.sin((k + 1) * omega * T), np.sin(k * omega * T)
                c1, c0 = np.cos((k + 1) * omega * T), np.cos(k * omega * T)
            a11 = 1.0 + (s1 - s0) / omega
            a12 = -(c1 - c0) / omega
            return np.array(
                [[a11, a12, 0.0, 0.0], [-a12, a11, 0.0, 0.0], [0.0, 0.0, a11, a12], [0.0, 0.0, -a12, a11]]
            )

        return A_of_k, 4
    raise SchemaError(f"{path}.kind: unknown dynamics kind '{kind}'")


def _is_meta(key):
    return key.startswith("_") or key == "description"


def system_from_dict(doc):
    """Build a MultiAgentSystem from the scenario schema's 'agents'/'edges'.

    Unknown keys prefixed with '_' and 'description' fields are ignored so
    scenario files can carry commentary.  The edges are read last, so that
    a malformed agent list is named as such, not as edges that leave it.
    """
    agents_doc = _need(doc, "agents", "scenario")
    edges_doc = _need(doc, "edges", "scenario")
    if not isinstance(agents_doc, list) or not agents_doc:
        raise SchemaError("scenario.agents: expected a non-empty list")
    agents = []
    for idx, ad in enumerate(agents_doc):
        path = f"agents[{idx}]"
        aid = _integer(_need(ad, "id", path), f"{path}.id", low=1)
        A_of_k, n = _dynamics_from_dict(_need(ad, "dynamics", path), f"{path}.dynamics")
        B = np.atleast_2d(_numbers(_need(ad, "B", path), f"{path}.B"))
        if B.ndim != 2 or B.shape[0] != n:
            raise SchemaError(f"{path}.B: must be a matrix with {n} rows, got shape {B.shape}")
        try:
            C, D = (_rows_over(_numbers(_need(ad, k, path), f"{path}.{k}"), n, f"{path}.{k}") for k in ("C", "D"))
        except ValueError as e:
            raise SchemaError(str(e)) from e
        W = box_from_dict(_need(ad, "process_noise", path), f"{path}.process_noise")
        V = box_from_dict(_need(ad, "measurement_noise", path), f"{path}.measurement_noise")
        rel_doc = _need(ad, "relative_noise", path)
        if not isinstance(rel_doc, dict):
            raise SchemaError(f"{path}.relative_noise: must map in-neighbor ids to boxes, got {rel_doc!r}")
        rel = {}
        for jkey, rd in rel_doc.items():
            if _is_meta(jkey):
                continue
            try:
                j = int(jkey)
            except ValueError as e:
                raise SchemaError(f"{path}.relative_noise: key {jkey!r} is not an agent id") from e
            rel[j] = box_from_dict(rd, f"{path}.relative_noise[{jkey}]")
        try:
            agents.append(AgentModel(aid, A_of_k, B, C, D, W, V, rel))
        except ValueError as e:
            raise SchemaError(f"{path}: {e}") from e
    if not isinstance(edges_doc, list) or not all(isinstance(e, (list, tuple)) and len(e) == 2 for e in edges_doc):
        raise SchemaError(f"scenario.edges: must be a list of [i, j] agent id pairs, got {edges_doc!r}")
    edges = [[_integer(t, "scenario.edges") for t in e] for e in edges_doc]
    try:
        topo = Topology(len(agents_doc), edges)
    except ValueError as e:
        raise SchemaError(f"scenario.edges: {e}") from e
    try:
        return MultiAgentSystem(agents, topo)
    except ValueError as e:
        raise SchemaError(f"scenario: {e}") from e
