"""System description, stacking builders, observability and the JSON schema."""

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
        v = {1: np.array([0.1]), 2: np.array([-0.1])}
        r = {(1, 2): np.array([0.2]), (2, 1): np.array([0.0])}
        batch = sysmodel.measure(system, 1, x, v, r)
        assert batch.y[1][0] == pytest.approx(2.1)
        assert batch.z[(1, 2)][0] == pytest.approx(3.2)
        Y = sysmodel.stack_measurements(st, batch)
        assert Y.tolist() == pytest.approx([2.1, -1.1, 3.2, -3.0])

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
