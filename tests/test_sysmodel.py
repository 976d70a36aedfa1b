"""System description, stacking builders, observability and the JSON schema."""

import json
import pathlib

import numpy as np
import pytest
import scipy.linalg

from czest import czono, simharness, sysmodel
from czest.czono import Box
from czest.sysmodel import (
    AgentModel,
    MeasurementBatch,
    MultiAgentSystem,
    NotObservableError,
    SchemaError,
    Topology,
)


def interval(lo, hi):
    return Box([lo], [hi])


def scalar_agent(i, with_rel=None):
    one = interval(-1.0, 1.0)
    rel = {j: one for j in (with_rel or [])}
    return AgentModel(
        i,
        lambda k: np.array([[1.0]]),
        np.array([[1.0]]),
        np.array([[1.0]]),
        np.array([[1.0]]),
        one,
        one,
        rel,
    )


def pair_system():
    agents = [scalar_agent(1, [2]), scalar_agent(2, [1])]
    topo = Topology(2, [(1, 2), (2, 1)])
    return MultiAgentSystem(agents, topo)


class TestAgentModel:
    def test_non_box_noise_rejected(self):
        one = interval(-1.0, 1.0)
        cz = czono.from_box(one)
        dyn = (3, lambda k: np.array([[1.0]]), [[1.0]], [[1.0]], [[1.0]])
        for W, V, R, what in (
            (cz, one, one, "process noise"),
            (one, cz, one, "measurement noise"),
            (one, one, cz, "relative noise of 2"),
        ):
            with pytest.raises(ValueError, match=f"agent 3: {what} range"):
                AgentModel(*dyn, W, V, {2: R})


    @pytest.mark.parametrize("key", ["C", "D"])
    def test_measurement_matrices_have_n_columns(self, key):
        # two measurement rows over a 2-state agent: nested once more or
        # flattened, they are no 2-column matrix; an empty one has no rows
        two = Box([-1.0, -1.0], [1.0, 1.0])
        M = [[1.0, 0.0], [0.0, 1.0]]

        def agent(bad):
            mats = {"C": M, "D": M, key: bad}
            return AgentModel(1, lambda k: np.eye(2), np.eye(2), mats["C"], mats["D"], two, two, {2: two})

        for bad in ([M], [1.0, 0.0, 0.0, 1.0], [[1.0, 0.0, 0.0]]):
            with pytest.raises(ValueError, match=f"agent 1: {key}: must be a matrix with 2 columns"):
                agent(bad)
        if key == "C":
            empty = AgentModel(1, lambda k: np.eye(2), np.eye(2), [], M, two, Box([], []), {2: two})
            assert empty.C.shape == (0, 2) and empty.m_y == 0

    def test_a_outside_its_declared_support_is_an_error(self):
        # A(k) is checked against ``A_of_k.support`` at construction (A(0))
        # and at every newly evaluated k; an exact 0 outside it is fine
        two = Box([-1.0, -1.0], [1.0, 1.0])

        def agent(A_of_k, support=np.eye(2) != 0):
            A_of_k.support = support
            return AgentModel(2, A_of_k, np.eye(2), np.eye(2), np.eye(2), two, two)

        with pytest.raises(ValueError, match=r"agent 2: A\(0\)\[1, 0\] = 0.5 lies outside the support"):
            agent(lambda k: np.array([[1.0, 0.0], [0.5, 1.0]]))
        a = agent(lambda k: np.array([[1.0, -0.0], [0.0, 1.0]]) if k < 3 else np.array([[1.0, np.nan], [0.0, 1.0]]))
        assert np.array_equal(a._A_at(2), np.eye(2))
        with pytest.raises(ValueError, match=r"agent 2: A\(3\)\[0, 1\] = nan lies outside the support"):
            a._A_at(3)
        with pytest.raises(ValueError, match="agent 2: A_of_k.support must be 2x2"):
            agent(lambda k: np.eye(2), [True])
        with pytest.raises(ValueError, match=r"agent 2: A\(k\) must be 2x2, got \(3, 3\) at k = 1"):
            agent(lambda k: np.eye(2 + k))._A_at(1)


class TestTopology:
    def test_uav5_neighborhoods(self):
        doc = simharness.build_uav_scenario()
        system = sysmodel.system_from_dict(doc)
        topo = system.topology
        assert topo.nbar(2) == [2, 1, 3, 4]
        assert topo.nbar(4) == [4, 2, 3]
        assert topo.nbar(5) == [5, 4]
        assert topo.in_neighbors(1) == [2]
        assert topo.out_neighbors(2) == [1, 3, 4]
        assert topo.peers(2) == [1, 3, 4]
        assert topo.peers(4) == [2]
        assert topo.peers(5) == []

    def test_no_self_loops(self):
        with pytest.raises(ValueError):
            Topology(2, [(1, 1)])

    def test_edges_in_range(self):
        with pytest.raises(ValueError):
            Topology(2, [(1, 3)])


class TestStacking:
    def test_centralized_shapes(self):
        doc = simharness.build_uav_scenario()
        system = sysmodel.system_from_dict(doc)
        st = sysmodel.build_centralized(system)
        assert st.A(0).shape == (20, 20)
        assert st.B.shape == (20, 10)
        # 5 absolute measurement blocks + 8 relative blocks, all 2 rows
        assert st.H.shape == (26, 20)
        assert st.state_order == [1, 2, 3, 4, 5]
        y_blocks = [e for e in st.meas_layout if e[0] == "y"]
        z_blocks = [e for e in st.meas_layout if e[0] == "z"]
        assert [e[1] for e in y_blocks] == [1, 2, 3, 4, 5]
        assert [(e[1], e[2]) for e in z_blocks] == [
            (1, 2), (2, 1), (2, 3), (2, 4), (3, 2), (4, 2), (4, 3), (5, 4),
        ]

    def test_neighborhood_shapes(self):
        doc = simharness.build_uav_scenario()
        system = sysmodel.system_from_dict(doc)
        st = sysmodel.build_neighborhood(system, 2)
        assert st.state_order == [2, 1, 3, 4]
        assert st.A(0).shape == (16, 16)
        # only agent 2's own rows: y2 plus z to each of 1, 3, 4
        assert st.H.shape == (8, 16)

    def test_relative_rows_have_opposite_signs(self):
        system = pair_system()
        st = sysmodel.build_centralized(system)
        # row order: y1, y2, z(1,2), z(2,1)
        assert st.H[2].tolist() == [1.0, -1.0]
        assert st.H[3].tolist() == [-1.0, 1.0]

    def test_measurement_stacking_consistency(self):
        system = pair_system()
        st = sysmodel.build_centralized(system)
        x = np.array([2.0, -1.0])
        # noise in the stack's row order: y1, y2, z(1,2), z(2,1)
        batch = sysmodel.measure(system, 1, x, [0.1, -0.1, 0.2, 0.0])
        assert batch.y[1][0] == pytest.approx(2.1)
        assert batch.z[(1, 2)][0] == pytest.approx(3.2)
        Y = sysmodel.stack_measurements(st, batch)
        assert Y.tolist() == pytest.approx([2.1, -1.1, 3.2, -3.0])

    @pytest.mark.parametrize(
        "build", [simharness.build_uav_scenario, simharness.build_pair1d_scenario], ids=["uav5", "pair1d"]
    )
    def test_measure_reads_noise_in_stack_order(self, build):
        system = sysmodel.system_from_dict(build())
        st = sysmodel.build_centralized(system)
        rng = np.random.default_rng(5)
        x = rng.uniform(-5.0, 5.0, system.state_dim())
        e = rng.uniform(-1.0, 1.0, st.H.shape[0])
        noisy = sysmodel.stack_measurements(st, sysmodel.measure(system, 1, x, e))
        clean = sysmodel.stack_measurements(st, sysmodel.measure(system, 1, x, np.zeros_like(e)))
        assert np.allclose(noisy - clean, e, rtol=0.0, atol=1e-12)
        for wrong in (e[:-1], np.append(e, 0.0)):
            with pytest.raises(ValueError, match="noise has length"):
                sysmodel.measure(system, 1, x, wrong)

    @pytest.mark.parametrize(
        "build", [simharness.build_uav_scenario, simharness.build_pair1d_scenario], ids=["uav5", "pair1d"]
    )
    def test_dynamics_are_the_agents_block_diagonal(self, build):
        system = sysmodel.system_from_dict(build())
        stacks = [sysmodel.build_centralized(system)]
        stacks += [sysmodel.build_neighborhood(system, i) for i in system.agent_ids]
        for st in stacks:
            for k in range(41):
                want = scipy.linalg.block_diag(*[system.agents[i].A_of_k(k) for i in st.state_order])
                assert np.array_equal(st.A(k), want)

    def test_step_truth_linear(self):
        system = pair_system()
        x = np.array([1.0, 2.0])
        w = np.array([0.5, -0.5])
        nxt = sysmodel.step_truth(system, 0, x, w)
        assert nxt.tolist() == [1.5, 1.5]


class TestCoordinatedTurn:
    def test_entries_at_k0(self):
        doc = simharness.build_uav_scenario()
        system = sysmodel.system_from_dict(doc)
        A = system.agents[1].A_of_k(0)
        assert A.shape == (4, 4)
        a11, a12 = A[0, 0], A[0, 1]
        assert a11 == pytest.approx(1.2588190451, abs=1e-9)
        assert a12 == pytest.approx(0.0340741737, abs=1e-9)
        # the two planar axes carry identical blocks
        assert A[2, 2] == pytest.approx(a11)
        assert A[2, 3] == pytest.approx(a12)
        assert A[1, 0] == pytest.approx(-a12)
        assert A[0, 2] == 0.0

    def test_equals_the_kronecker_form(self):
        doc = simharness.build_uav_scenario()
        dyn = doc["agents"][0]["dynamics"]
        omega, T = dyn["omega"], dyn["T"]
        system = sysmodel.system_from_dict(doc)
        for k in range(101):
            s1, s0 = np.sin((k + 1) * omega * T), np.sin(k * omega * T)
            c1, c0 = np.cos((k + 1) * omega * T), np.cos(k * omega * T)
            a11 = 1.0 + (s1 - s0) / omega
            a12 = -(c1 - c0) / omega
            want = np.kron(np.eye(2), np.array([[a11, a12], [-a12, a11]]))
            assert np.array_equal(system.agents[1].A_of_k(k), want)

    def test_time_varying(self):
        doc = simharness.build_uav_scenario()
        system = sysmodel.system_from_dict(doc)
        A0 = system.agents[1].A_of_k(0)
        A5 = system.agents[1].A_of_k(5)
        assert not np.allclose(A0, A5)

    def test_input_matrix(self):
        doc = simharness.build_uav_scenario()
        system = sysmodel.system_from_dict(doc)
        B = system.agents[1].B
        T = np.pi / 12
        assert B[0, 0] == pytest.approx(T * T / 2)
        assert B[1, 0] == pytest.approx(T)
        assert B[0, 1] == 0.0


def restacked_observability_index(system):
    """Test-only oracle of ``sysmodel.observability_index``: the smallest mu
    with [H; H Phi(1); ...; H Phi(mu-1)] of full column rank, the matrix
    stacked whole and its singular values taken afresh at every mu."""
    dim = system.state_dim()
    mu_max = 2 * dim
    stack = sysmodel.build_centralized(system)
    H = stack.H
    blocks = [H]
    Phi = np.eye(dim)
    for mu in range(1, mu_max + 1):
        O = np.vstack(blocks)
        if not np.all(np.isfinite(O)):
            raise NotObservableError(f"observability matrix not finite at mu = {mu}")
        s = np.linalg.svd(O, compute_uv=False)
        if s.size and s[0] > 0 and np.sum(s > sysmodel.EPS_RANK * s[0]) == dim:
            return mu
        with np.errstate(over="ignore", invalid="ignore"):
            Phi = stack.A(mu - 1) @ Phi
            blocks.append(H @ Phi)
    raise NotObservableError(f"system not observable within {mu_max} steps")


def observability_outcomes(system):
    """(``sysmodel.observability_index``, its restacked oracle) of
    ``system``: each a mu, or NotObservableError if it raised that."""
    out = []
    for index in (sysmodel.observability_index, restacked_observability_index):
        try:
            out.append(index(system))
        except NotObservableError:
            out.append(NotObservableError)
    return tuple(out)


def random_system(rng):
    """A seeded random system: 1-3 agents of one state dimension n (1-3),
    each with 1-2 noise inputs, 0-2 absolute measurement rows and a
    relative row on random one-way edges, all measurement rows sparse, so
    that some systems are unobservable.  Each agent's dynamics is constant
    or time-varying (A0 + sin(k) A1).  Returns (system, time-varying)."""
    q, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    edges = [(a, j) for a in range(1, q + 1) for j in range(1, q + 1) if a != j and rng.random() < 0.4]
    topology = Topology(q, edges)
    agents, varying = [], False
    for i in range(1, q + 1):
        A0 = rng.standard_normal((n, n))
        A1 = rng.standard_normal((n, n)) if rng.random() < 0.5 else np.zeros((n, n))
        varying |= bool(np.any(A1))
        p, m_y = int(rng.integers(1, 3)), int(rng.integers(0, 3))
        C = rng.standard_normal((m_y, n)) * (rng.random((m_y, n)) < 0.4)
        D = rng.standard_normal((1, n)) * (rng.random((1, n)) < 0.6)
        box = lambda m: Box(-np.ones(m), np.ones(m))  # noqa: E731
        agents.append(AgentModel(
            i, lambda k, A0=A0, A1=A1: A0 + np.sin(k) * A1, rng.standard_normal((n, p)), C, D,
            box(p), box(m_y), {j: box(1) for j in topology.in_neighbors(i)},
        ))
    return MultiAgentSystem(agents, topology), varying


class TestObservability:
    def test_full_state_measurement_mu1(self):
        system = pair_system()
        assert sysmodel.observability_index(system) == 1

    def test_double_integrator_position_only_mu2(self):
        one = interval(-1.0, 1.0)
        T = 0.5
        agent = AgentModel(
            1,
            lambda k: np.array([[1.0, T], [0.0, 1.0]]),
            np.array([[T * T / 2], [T]]),
            np.array([[1.0, 0.0]]),
            np.zeros((0, 2)),
            one,
            one,
            {},
        )
        system = MultiAgentSystem([agent], Topology(1, []))
        assert sysmodel.observability_index(system) == 2

    def test_uav5_mu2(self):
        doc = simharness.build_uav_scenario()
        system = sysmodel.system_from_dict(doc)
        assert sysmodel.observability_index(system) == 2

    def test_unobservable_raises(self):
        one = interval(-1.0, 1.0)
        agent = AgentModel(
            1,
            lambda k: np.array([[1.0, 0.0], [0.0, 1.0]]),
            np.eye(2),
            np.array([[1.0, 0.0]]),
            np.zeros((0, 2)),
            Box([-1, -1], [1, 1]),
            one,
            {},
        )
        system = MultiAgentSystem([agent], Topology(1, []))
        with pytest.raises(NotObservableError):
            sysmodel.observability_index(system)

    def test_dynamics_past_the_float_range_are_not_observable(self):
        # omega = 1e308 on one uav5 agent: its A(1) reads the sine of an
        # infinite angle, NaN, before the matrix reaches full rank
        doc = simharness.build_uav_scenario()
        doc["agents"][0]["dynamics"]["omega"] = 1e308
        with pytest.raises(NotObservableError, match="not finite"):
            sysmodel.observability_index(sysmodel.system_from_dict(doc))
        with pytest.raises(sysmodel.SchemaError, match="^scenario: "):
            simharness.ScenarioConfig(doc)


    def test_a_norm_past_the_float_range_is_not_observable(self):
        # finite blocks whose stack's largest singular value overflows at
        # mu = 2: a schema error of the whole system, as for the restacked
        # oracle, whose singular values never reach full rank there
        doc = simharness.build_uav_scenario()
        doc["agents"][0]["C"] = [[1e308, 0.0, 0.0, 0.0], [1e308, 0.0, 0.0, 0.0]]
        system = sysmodel.system_from_dict(doc)
        with pytest.raises(NotObservableError, match="overflows at mu = 2"):
            sysmodel.observability_index(system)
        assert observability_outcomes(system) == (NotObservableError, NotObservableError)
        with pytest.raises(sysmodel.SchemaError, match="^scenario: "):
            simharness.ScenarioConfig(doc)

    @pytest.mark.parametrize("name", ["uav5", "pair1d", "hetero3"])
    def test_scenarios_match_the_restacked_oracle(self, name):
        if name == "hetero3":
            doc = json.loads((pathlib.Path(__file__).parent / "hetero3.json").read_text())
        else:
            doc = simharness.builtin_scenario(name)
        got, want = observability_outcomes(sysmodel.system_from_dict(doc))
        assert got == want == {"uav5": 2, "pair1d": 1, "hetero3": 2}[name]

    def test_random_systems_match_the_restacked_oracle(self):
        # 300 seeded systems, time-varying and unobservable ones among them
        rng = np.random.default_rng(2026)
        kinds = set()
        for t in range(300):
            system, varying = random_system(rng)
            got, want = observability_outcomes(system)
            assert got == want, t
            kinds.add((varying, want is NotObservableError))
        assert kinds == {(False, False), (False, True), (True, False), (True, True)}


class TestMeasurementBatch:
    def test_round_trip(self):
        batch = MeasurementBatch(
            3,
            {1: np.array([1.0, 2.0]), 2: np.array([0.5])},
            {(1, 2): np.array([0.25])},
        )
        back = MeasurementBatch.from_dict(batch.to_dict())
        assert back.k == 3
        assert np.array_equal(back.y[1], batch.y[1])
        assert np.array_equal(back.z[(1, 2)], batch.z[(1, 2)])


class TestSchema:
    def test_uav5_round_trip(self):
        doc = simharness.build_uav_scenario()
        system = sysmodel.system_from_dict(doc)
        assert system.n_agents == 5
        assert system.state_dim() == 20
        assert system.agents[3].Wset.dim == 2

    def test_flat_input_matrix_names_b(self):
        # a uav5 B flattened to 8 numbers reads as 1 x 8: the error names
        # B, not the C that a 1-state agent would then reject
        doc = simharness.build_uav_scenario()
        doc["agents"][0]["B"] = sum(doc["agents"][0]["B"], [])
        with pytest.raises(SchemaError, match=r"^agents\[0\]\.B: must be a matrix with 4 rows, got shape \(1, 8\)"):
            sysmodel.system_from_dict(doc)

    def test_missing_key(self):
        doc = simharness.build_pair1d_scenario()
        del doc["agents"][0]["dynamics"]
        with pytest.raises(SchemaError, match="dynamics"):
            sysmodel.system_from_dict(doc)

    def test_unknown_dynamics_kind(self):
        doc = simharness.build_pair1d_scenario()
        doc["agents"][0]["dynamics"]["kind"] = "quantum"
        with pytest.raises(SchemaError, match="kind"):
            sysmodel.system_from_dict(doc)

    def test_meta_keys_ignored(self):
        doc = simharness.build_pair1d_scenario()
        doc["agents"][0]["_note"] = "anything"
        doc["agents"][0]["description"] = "scalar agent"
        sysmodel.system_from_dict(doc)

    def test_relative_noise_keys_must_match_edges(self):
        doc = simharness.build_pair1d_scenario()
        doc["agents"][0]["relative_noise"] = {}
        with pytest.raises(SchemaError):
            sysmodel.system_from_dict(doc)

    def test_box_lo_above_hi(self):
        doc = simharness.build_pair1d_scenario()
        doc["agents"][0]["process_noise"] = {"lo": [1.0], "hi": [-1.0]}
        with pytest.raises(SchemaError):
            sysmodel.system_from_dict(doc)

    def test_unbounded_noise_rejected(self):
        doc = simharness.build_pair1d_scenario()
        doc["agents"][0]["measurement_noise"] = {"lo": [-np.inf], "hi": [1.0]}
        with pytest.raises(SchemaError, match="bounded"):
            sysmodel.system_from_dict(doc)

    def test_noise_ranges_are_the_declared_boxes(self):
        doc = simharness.build_pair1d_scenario()
        doc["agents"][0]["process_noise"] = {"lo": [-0.3], "hi": [0.7]}
        system = sysmodel.system_from_dict(doc)
        W = system.agents[1].Wset
        assert isinstance(W, Box)
        assert (W.lo[0], W.hi[0]) == (-0.3, 0.7)
