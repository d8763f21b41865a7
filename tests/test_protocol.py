import dataclasses

import numpy as np
import pytest

from tubeform.errors import GraphNotRooted
from tubeform.graph import CommGraph
from tubeform.models import BrunovskyDims
from tubeform.ocp import OcpSpec, rollout, terminal_ingredients
from tubeform.protocol import initial_broadcast, protected_pairs, relayed_estimates, shift_plan

from oracles import relay_round


def chain_graph(n=5):
    adjacency = np.zeros((n, n))
    for i in range(n - 1):
        adjacency[i, i + 1] = 1.0
        adjacency[i + 1, i] = 1.0
    b0 = np.zeros(n)
    b0[0] = 1.0
    return CommGraph(adjacency=adjacency, b0=b0)


def minimal_spec(dims, ts=0.1, horizon=5):
    """Unit weights, coupling 1, no input bound (so no terminal cut) and a zero terminal gain."""
    (spec,) = OcpSpec.design(dims, horizon, ts, 1.0, 1.0, 0.0, [1.0], [np.inf], [None])
    return dataclasses.replace(spec, terminal_gain=np.zeros((dims.d, dims.nd)))


class TestInitialBroadcast:
    def test_no_edges(self):
        """One follower has no pair to protect: no message, an all-zero table."""
        assert protected_pairs(1).shape == (0, 2)
        assert np.array_equal(initial_broadcast([0.1], protected_pairs(1)), np.zeros((1, 1)))

    def test_complete_graph(self):
        table = initial_broadcast([0.1, 0.2, 0.3], protected_pairs(3))
        assert table.tolist() == [[0.0, 0.2, 0.3], [0.1, 0.0, 0.3], [0.1, 0.2, 0.0]]

    def test_message_count_is_edge_count(self):
        """Row i holds r_j exactly on the protected pairs (i, j), one scalar per directed edge of the
        complete follower graph, N(N-1), whatever the communication graph: here a path."""
        g = chain_graph()
        radii = 0.1 * np.arange(1, 6)
        pairs = protected_pairs(g.n_followers)
        assert pairs.tolist() == [[i, j] for i in range(5) for j in range(5) if i != j]
        table = initial_broadcast(radii, pairs)
        assert np.count_nonzero(table) == len(pairs) == 20 > int(np.sum(g.adjacency > 0))
        for i in range(5):
            for j in range(5):
                assert table[i, j] == (radii[j] if j != i else 0.0)


class TestShiftPlan:
    def test_two_step_example(self):
        inputs = np.array([[1.0, 2.0], [3.0, 4.0]])
        khat = np.array([[0.5, 0.0], [0.0, 0.5]])
        shifted = shift_plan(inputs, np.array([1.0, 0.0]), khat)
        assert np.allclose(shifted[0], [3.0, 4.0])
        assert np.allclose(shifted[1], [-0.5, 0.0])

    def test_constant_plan_zero_terminal(self):
        shifted = shift_plan(np.tile([1.0, -1.0], (4, 1)), np.zeros(2), np.eye(2))
        assert np.allclose(shifted[:3], np.tile([1.0, -1.0], (3, 1)))
        assert np.allclose(shifted[3], 0.0)

    def test_stacked_senders_match_per_sender_shift(self):
        """One call on (N, H, d) plans equals each sender's plan tail followed by
        its own -K e, bit for bit."""
        rng = np.random.default_rng(3)
        inputs = rng.normal(size=(5, 4, 2))
        terminal = rng.normal(size=(5, 6))
        gains = rng.normal(size=(5, 2, 6))
        shifted = shift_plan(inputs, terminal, gains)
        assert shifted.shape == (5, 4, 2)
        for j in range(5):
            expected = np.vstack([inputs[j, 1:], -gains[j] @ terminal[j]])
            np.testing.assert_array_equal(shifted[j], expected)

    def test_replay_reproduces_prediction_tail(self):
        """Shifting then rolling out reproduces the tail of the sender's own
        error prediction exactly."""
        dims = BrunovskyDims(n=2, d=1, followers=1)
        spec = minimal_spec(dims, horizon=4)
        khat, _ = terminal_ingredients(spec.ad, -spec.coupling * spec.bd, spec.qr, spec.r)
        rng = np.random.default_rng(0)
        e0 = rng.normal(size=2)
        inputs = rng.normal(size=(4, 1))
        errors = rollout(spec, e0, -spec.coupling * inputs)
        shifted = shift_plan(inputs[None], errors[-1][None], khat)[0]
        # tail of the prediction: errors[1] evolved under shifted inputs
        replay = rollout(spec, errors[1], -spec.coupling * shifted)
        assert np.allclose(replay[: 4 - 1 + 1], errors[1:], atol=1e-12)


def rooted_graph(rng, n):
    """A random follower digraph that the leader reaches: every agent but a pinned
    first one (in a random order) listens to an earlier one, plus random extra
    edges and pins."""
    order = rng.permutation(n)
    adjacency = (rng.random((n, n)) < 0.2) * rng.uniform(0.5, 2.0, (n, n))
    for a in range(1, n):
        adjacency[order[a], order[rng.integers(a)]] = 1.0
    np.fill_diagonal(adjacency, 0.0)
    b0 = (rng.random(n) < 0.2) * 1.0
    b0[order[0]] = 1.0
    return CommGraph(adjacency=adjacency, b0=b0)


class TestRelayLeader:
    def test_relay_tree_arrays(self):
        hops = chain_graph().hops
        assert hops.dtype.kind == "i"
        assert hops.tolist() == [0, 1, 2, 3, 4]

    def test_pinned_exact(self):
        leader = np.array([np.zeros(6), [1.0, 2.0, 0, 0, 0, 0.0]])
        est = relayed_estimates(leader, chain_graph().hops)
        assert np.array_equal(est[0], np.zeros((5, 6)))  # deployment: the true leader state
        assert np.array_equal(est[1, 0], leader[1])
        assert np.array_equal(est[1, 1], np.zeros(6))  # one hop: last step's value

    def test_stationary_leader_exact_everywhere(self):
        leader = np.tile([3.0, 0, 0, 0, 0, 0.0], (11, 1))
        est = relayed_estimates(leader, chain_graph().hops)
        assert np.array_equal(est, np.tile(leader[0], (11, 5, 1)))

    def test_delay_line_constant_speed(self):
        """After the transient, a hops-h agent lags by h * Ts * speed: on the
        3-agent line every agent holds the leader state of h steps ago."""
        hops = chain_graph(3).hops
        ts, speed = 0.1, 1.3
        leader = np.zeros((12, 2))
        leader[:, 0] = speed * np.arange(12) * ts
        est = relayed_estimates(leader, hops)
        assert hops.tolist() == [0, 1, 2]
        assert np.array_equal(est[-1], leader[[11, 10, 9]])
        lag = leader[-1, 0] - est[-1, :, 0]
        np.testing.assert_allclose(lag, hops * ts * speed, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_gather_matches_relay_rounds(self, seed):
        """On random rooted graphs, the gather equals max(hops) + 2 relay rounds from
        deployment, and every agent's age at step k is min(k, hops)."""
        rng = np.random.default_rng(seed)
        g = rooted_graph(rng, int(rng.integers(1, 9)))
        steps = int(np.max(g.hops)) + 3  # deployment, then max(hops) + 2 rounds
        leader = rng.normal(size=(steps, 3))
        est, ages = np.tile(leader[0], (g.n_followers, 1)), np.zeros(g.n_followers, dtype=int)
        gathered = relayed_estimates(leader, g.hops)
        for k in range(steps):
            if k:
                est, ages = relay_round(g.adjacency, g.b0, leader[k], est, ages)
            assert np.array_equal(gathered[k], est), k
            assert ages.tolist() == np.minimum(k, g.hops).tolist(), k

    def test_unrooted_raises(self):
        g = CommGraph(adjacency=np.zeros((2, 2)), b0=np.zeros(2))
        with pytest.raises(GraphNotRooted, match="^no spanning tree rooted at the leader$"):
            g.hops
