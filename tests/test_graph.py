import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubeform.errors import GraphNotRooted
from tubeform.graph import CommGraph, global_bound

from oracles import inverse_power_min_singular


def chain_graph(n=5, pinned=(0,)):
    adjacency = np.zeros((n, n))
    for i in range(n - 1):
        adjacency[i, i + 1] = 1.0
        adjacency[i + 1, i] = 1.0
    b0 = np.zeros(n)
    for i in pinned:
        b0[i] = 1.0
    return CommGraph(adjacency=adjacency, b0=b0)


def formation(n_followers, d=2, n_orders=1, offsets=None):
    """(N+1, n, d) offsets, leader first, as the run reads a scenario's ``formation.offsets``."""
    arr = np.zeros((n_followers + 1, n_orders, d))
    if offsets is not None:
        arr[:, 0, :] = offsets
    return arr


class TestSpanningTree:
    def test_chain_rooted(self):
        adjacency = np.zeros((3, 3))
        adjacency[1, 0] = 1.0  # 1 listens to 0
        adjacency[2, 1] = 1.0
        g = CommGraph(adjacency=adjacency, b0=np.array([1.0, 0.0, 0.0]))
        assert g.hops.tolist() == [0, 1, 2]

    def test_unreachable(self):
        g = CommGraph(adjacency=np.zeros((2, 2)), b0=np.zeros(2))
        with pytest.raises(GraphNotRooted, match="^no spanning tree rooted at the leader$"):
            g.hops

    def test_partly_unreachable(self):
        """Agent 2 listens only to agent 3, which listens to nobody: neither is reached."""
        adjacency = np.zeros((3, 3))
        adjacency[1, 2] = 1.0
        g = CommGraph(adjacency=adjacency, b0=np.array([1.0, 0.0, 0.0]))
        with pytest.raises(GraphNotRooted):
            g.hops

    def test_paper_topology_rooted_and_depths(self):
        hops = chain_graph().hops
        assert hops.dtype.kind == "i"
        assert hops.tolist() == [0, 1, 2, 3, 4]

    def test_listener_of_two_pinned_agents_is_one_hop(self):
        """Agent 3 listens to pinned agents 1 and 2 (0-based 0 and 1)."""
        adjacency = np.zeros((3, 3))
        adjacency[2, [1, 0]] = 1.0
        g = CommGraph(adjacency=adjacency, b0=np.array([1.0, 1.0, 0.0]))
        assert g.hops.tolist() == [0, 0, 1]

    def test_laplacian_rows_sum_to_zero(self):
        g = chain_graph()
        laplacian = (g.m - g.nu2 * np.diag(g.b0)) / g.nu1
        assert np.array_equal(laplacian @ np.ones(5), np.zeros(5))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_m_diagonal_is_each_coupling(self, seed):
        """m[i, i] is nu1 d_i + nu2 b_i0 bit for bit, and the off-diagonal is -nu1 A."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        adjacency = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        np.fill_diagonal(adjacency, 0.0)
        nu1, nu2 = (float(v) for v in rng.uniform(0.2, 2.0, size=2))
        g = CommGraph(adjacency=adjacency, b0=rng.random(n), nu1=nu1, nu2=nu2)
        for i in range(n):
            assert g.m[i, i] == nu1 * float(np.sum(adjacency[i])) + nu2 * float(g.b0[i])
        off = ~np.eye(n, dtype=bool)
        assert np.array_equal(g.m[off], -nu1 * adjacency[off])

    def test_m_and_hops_are_kept_read_only(self):
        g = chain_graph()
        assert g.m is g.m and g.hops is g.hops
        for arr in (g.m, g.hops):
            with pytest.raises(ValueError):
                arr[0] = 7


def sv_min(g):
    """sigma_min(M) as the global bound computes it."""
    return global_bound(g, np.zeros(g.n_followers), 0.0).sv_min


class TestMinSingularValue:
    def test_identity(self):
        """Every follower pinned and no follower edge: M = I."""
        assert sv_min(CommGraph(adjacency=np.zeros((3, 3)), b0=np.ones(3))) == 1.0

    def test_spd_2x2(self):
        """Two pinned followers listening to each other: M = [[2, -1], [-1, 2]]."""
        assert abs(sv_min(chain_graph(2, pinned=(0, 1))) - 1.0) <= 4 * math.ulp(1.0)

    def test_all_pinned_path_is_exactly_one(self):
        """The ablation graph, five followers on a path, all pinned: M = L + I, whose
        smallest eigenvalue is the Laplacian's 0 plus 1."""
        assert sv_min(chain_graph(5, pinned=range(5))) == 1.0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_end_pinned_path_matches_closed_form(self, n):
        """The paper graph: M is tridiagonal with diagonal (2, ..., 2, 1), whose smallest
        eigenvalue is 4 sin^2(pi / (2 (2N + 1)))."""
        exact = 4.0 * math.sin(math.pi / (2 * (2 * n + 1))) ** 2
        assert abs(sv_min(chain_graph(n)) - exact) <= 64 * math.ulp(exact)

    def test_random_vs_inverse_power(self):
        """A weighted digraph with one pinned follower; M is not symmetric."""
        rng = np.random.default_rng(42)
        adjacency = rng.uniform(0.1, 2.0, size=(5, 5)) * (rng.random((5, 5)) < 0.6)
        np.fill_diagonal(adjacency, 0.0)
        g = CommGraph(adjacency=adjacency, b0=np.array([1.5, 0.0, 0.0, 0.0, 0.0]))
        assert sv_min(g) == pytest.approx(inverse_power_min_singular(g.m), abs=1e-8)

    def test_rooted_graph_gives_positive_sv(self):
        assert sv_min(chain_graph()) > 0.0


def neighbor_sum_sync_error(i, states, g, offsets):
    """Explicit e^i = -sum_j nu1 a_ij (q_i - q_j) - nu2 b_i0 (q_i - q_0), q = x - psi."""
    own = states[i + 1] - offsets[i + 1]
    err = np.zeros_like(own)
    for j in np.flatnonzero(g.adjacency[i] > 0.0):
        err -= g.nu1 * g.adjacency[i, j] * (own - (states[j + 1] - offsets[j + 1]))
    if g.b0[i] > 0.0:
        err -= g.nu2 * g.b0[i] * (own - (states[0] - offsets[0]))
    return err


def neighbor_sum_zbar(i, radii, r0, g):
    """Explicit zbar_i = (nu1 d_i + nu2 b_i0) r_i + sum_j nu1 a_ij r_j + nu2 b_i0 r0."""
    out = (g.nu1 * float(np.sum(g.adjacency[i])) + g.nu2 * float(g.b0[i])) * radii[i]
    for j in np.flatnonzero(g.adjacency[i] > 0.0):
        out += g.nu1 * g.adjacency[i, j] * radii[j]
    return out + g.nu2 * float(g.b0[i]) * r0


class TestSyncError:
    def test_perfect_formation_zero(self):
        offsets = formation(3, offsets=[[0, 0], [1, 0], [2, 0], [3, 0]])
        g = chain_graph(3)
        leader = np.array([5.0, 1.0])
        states = np.stack([leader + offsets[a, 0] for a in range(4)])
        errors = g.sync_errors(states - offsets[:, 0])
        assert np.allclose(errors, 0.0, atol=1e-14)

    def test_single_follower_direct(self):
        g = CommGraph(adjacency=np.zeros((1, 1)), b0=np.array([1.0]))
        delta = np.array([0.3, -0.7])
        states = np.stack([np.zeros(2), delta])
        assert np.allclose(g.sync_errors(states), [-delta])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_stacked_identity(self, seed):
        """-M q on full chain states equals the per-agent neighbor sums, to 1e-12."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        adjacency = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        np.fill_diagonal(adjacency, 0.0)
        g = CommGraph(
            adjacency=adjacency,
            b0=rng.random(n) * (rng.random(n) < 0.7),
            nu1=float(rng.uniform(0.2, 2.0)),
            nu2=float(rng.uniform(0.2, 2.0)),
        )
        offsets = rng.normal(size=(n + 1, 6))  # full chain states, n = 3 orders of d = 2
        states = rng.normal(size=(n + 1, 6))
        errors = g.sync_errors(states - offsets)
        expected = np.stack([neighbor_sum_sync_error(i, states, g, offsets) for i in range(n)])
        assert np.max(np.abs(errors - expected)) < 1e-12


class TestZbarAndBound:
    def test_zero_radii(self):
        g = chain_graph()
        assert np.array_equal(global_bound(g, np.zeros(5), 0.0).zbars, np.zeros(5))

    def test_single_neighbor_hand_value(self):
        adjacency = np.array([[0.0, 1.0], [0.0, 0.0]])
        g = CommGraph(adjacency=adjacency, b0=np.array([0.0, 1.0]), nu1=1.0, nu2=1.0)
        # nu2 = 0 is not allowed; emulate by zero pinning weight on agent 1
        assert global_bound(g, [0.1, 0.2], 0.5).zbars[0] == pytest.approx(0.3)

    def test_explicit_sum_oracle(self):
        rng = np.random.default_rng(1)
        radii = rng.uniform(0.05, 0.3, size=5)
        r0 = 0.04
        for pinned in [(0,), (0, 2), (1, 3, 4)]:
            g = chain_graph(pinned=pinned)
            zbars = global_bound(g, radii, r0).zbars
            for i in range(5):
                assert abs(zbars[i] - neighbor_sum_zbar(i, radii, r0, g)) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_zbar_monotone_in_radii(self, seed):
        rng = np.random.default_rng(seed)
        g = chain_graph()
        radii = rng.uniform(0.0, 0.5, size=5)
        bumped = radii.copy()
        bumped[int(rng.integers(0, 5))] += 0.1
        assert np.all(global_bound(g, bumped, 0.1).zbars >= global_bound(g, radii, 0.1).zbars - 1e-15)

    def test_single_agent_bound(self):
        g = CommGraph(adjacency=np.zeros((1, 1)), b0=np.array([1.0]))
        cert = global_bound(g, np.array([0.2]), 0.3)  # zbar = r_1 + r0
        assert cert.sv_min == pytest.approx(1.0)
        assert cert.bound == pytest.approx(0.5)

    def test_zero_zbars(self):
        g = chain_graph()
        assert global_bound(g, np.zeros(5), 0.0).bound == 0.0

    def test_unrooted_raises(self):
        g = CommGraph(adjacency=np.zeros((2, 2)), b0=np.zeros(2))
        with pytest.raises(GraphNotRooted):
            global_bound(g, np.zeros(2), 0.0)

    def test_rooted_gram_positive(self):
        g = chain_graph()
        m = g.m
        assert np.min(np.linalg.eigvalsh(m.T @ m)) > 0.0
