import numpy as np
import pytest

from tubeform.errors import GraphNotRooted, StalePlan
from tubeform.graph import CommGraph
from tubeform.models import BrunovskyDims
from tubeform.ocp import OcpSpec, discretize_error_dynamics
from tubeform.protocol import (
    MessageBoard,
    PlanMessage,
    initial_broadcast,
    relay_leader,
    shift_plan,
)


def chain_graph(n=5):
    adjacency = np.zeros((n, n))
    for i in range(n - 1):
        adjacency[i, i + 1] = 1.0
        adjacency[i + 1, i] = 1.0
    b0 = np.zeros(n)
    b0[0] = 1.0
    return CommGraph(adjacency=adjacency, b0=b0)


def minimal_spec(dims, ts=0.1, horizon=5):
    ad, bd = discretize_error_dynamics(dims, ts)
    return OcpSpec(
        dims=dims, horizon=horizon, ts=ts,
        qr=np.eye(dims.nd), r=np.eye(dims.d), rdelta=np.zeros((dims.d, dims.d)),
        pr=np.eye(dims.nd), input_bound=np.inf, terminal_gain=None,
        terminal_level=np.inf, coupling=1.0, ad=ad, bd=bd,
    )


class TestInitialBroadcast:
    def test_no_edges(self):
        g = CommGraph(adjacency=np.zeros((1, 1)), b0=np.array([1.0]))
        assert np.array_equal(initial_broadcast([0.1], g), np.zeros((1, 1)))

    def test_complete_graph(self):
        adjacency = np.ones((3, 3)) - np.eye(3)
        g = CommGraph(adjacency=adjacency, b0=np.array([1.0, 0.0, 0.0]))
        table = initial_broadcast([0.1, 0.2, 0.3], g)
        assert table.tolist() == [[0.0, 0.2, 0.3], [0.1, 0.0, 0.3], [0.1, 0.2, 0.0]]

    def test_message_count_is_edge_count(self):
        """Row i holds r_j exactly on i's in-neighbors j, one scalar per directed edge."""
        g = chain_graph()
        radii = 0.1 * np.arange(1, 6)
        table = initial_broadcast(radii, g)
        assert np.count_nonzero(table) == int(np.sum(g.adjacency > 0))
        for i in range(5):
            for j in range(5):
                assert table[i, j] == (radii[j] if j in g.neighbors(i) else 0.0)


class TestShiftPlan:
    def test_two_step_example(self):
        msg = PlanMessage(
            sender=1, stamp=3,
            inputs=np.array([[1.0, 2.0], [3.0, 4.0]]),
            terminal_error=np.array([1.0, 0.0]),
        )
        khat = np.array([[0.5, 0.0], [0.0, 0.5]])
        shifted = shift_plan(msg, khat)
        assert np.allclose(shifted[0], [3.0, 4.0])
        assert np.allclose(shifted[1], [-0.5, 0.0])

    def test_constant_plan_zero_terminal(self):
        msg = PlanMessage(
            sender=1, stamp=0,
            inputs=np.tile([1.0, -1.0], (4, 1)),
            terminal_error=np.zeros(2),
        )
        shifted = shift_plan(msg, np.eye(2))
        assert np.allclose(shifted[:3], np.tile([1.0, -1.0], (3, 1)))
        assert np.allclose(shifted[3], 0.0)

    def test_replay_reproduces_prediction_tail(self):
        """Shifting then rolling out reproduces the tail of the sender's own
        error prediction exactly."""
        from tubeform.ocp import rollout, terminal_ingredients

        dims = BrunovskyDims(n=2, d=1, followers=1)
        ad, bd = discretize_error_dynamics(dims, 0.1)
        khat, pr, _ = terminal_ingredients(ad, -1.0 * bd, np.eye(2), np.eye(1), np.inf)
        spec = minimal_spec(dims, horizon=4)
        rng = np.random.default_rng(0)
        e0 = rng.normal(size=2)
        inputs = rng.normal(size=(4, 1))
        errors = rollout(spec, e0, -spec.coupling * inputs)
        msg = PlanMessage(sender=1, stamp=0, inputs=inputs, terminal_error=errors[-1])
        shifted = shift_plan(msg, khat)
        # tail of the prediction: errors[1] evolved under shifted inputs
        replay = rollout(spec, errors[1], -spec.coupling * shifted)
        assert np.allclose(replay[: 4 - 1 + 1], errors[1:], atol=1e-12)


class TestBoard:
    def test_read_previous_stamp(self):
        board = MessageBoard()
        msg = PlanMessage(sender=1, stamp=0, inputs=np.zeros((2, 1)), terminal_error=np.zeros(2))
        board.post(msg)
        assert board.read(1, 1).stamp == 0

    def test_stale_read(self):
        board = MessageBoard()
        board.post(PlanMessage(sender=1, stamp=0, inputs=np.zeros((2, 1)), terminal_error=np.zeros(2)))
        with pytest.raises(StalePlan):
            board.read(1, 2)

    def test_monotone_stamps(self):
        board = MessageBoard()
        board.post(PlanMessage(sender=1, stamp=1, inputs=np.zeros((2, 1)), terminal_error=np.zeros(2)))
        with pytest.raises(StalePlan):
            board.post(PlanMessage(sender=1, stamp=1, inputs=np.zeros((2, 1)), terminal_error=np.zeros(2)))


class TestRelayLeader:
    def test_pinned_exact(self):
        g = chain_graph()
        leader = np.array([1.0, 2.0, 0, 0, 0, 0.0])
        est = relay_leader(g, leader, None)
        assert est[1].hops == 0
        assert est[1].age == 0
        assert np.array_equal(est[1].value, leader)

    def test_stationary_leader_exact_everywhere(self):
        g = chain_graph()
        leader = np.array([3.0, 0, 0, 0, 0, 0.0])
        est = relay_leader(g, leader, None)
        for _ in range(10):
            est = relay_leader(g, leader, est)
        for i in range(1, 6):
            assert np.array_equal(est[i].value, leader)

    def test_delay_line_constant_speed(self):
        """After the transient, a hops-h agent lags by h * Ts * speed."""
        g = chain_graph()
        ts, speed = 0.1, 1.3
        est = None
        for k in range(12):
            leader = np.array([speed * k * ts, 0.0])
            est = relay_leader(g, leader, est)
        # agent 3 has hops 2
        assert est[3].hops == 2
        lag = leader[0] - est[3].value[0]
        assert lag == pytest.approx(2 * ts * speed, abs=1e-12)
        assert est[3].age == 2

    def test_unrooted_raises(self):
        g = CommGraph(adjacency=np.zeros((2, 2)), b0=np.zeros(2))
        with pytest.raises(GraphNotRooted):
            relay_leader(g, np.zeros(2), None)
