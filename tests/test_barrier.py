import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubeform.barrier import (
    EcbfCoefficients,
    QuadraticBarrier,
    assemble_row,
    lie_derivatives,
    margin_obstacle,
    margin_pairwise,
)
from tubeform.errors import DegenerateGradient, NotHurwitz
from tubeform.models import BrunovskyDims, Obstacle, chain_derivative

from oracles import fd_derivative

DIMS = BrunovskyDims(n=3, d=2, followers=1)
KAPPA = EcbfCoefficients.from_poles((-1.5, -2.5, -3.5))


def obstacle_barrier(center=(0.0, 0.0), radius=1.0):
    return QuadraticBarrier.for_obstacle(
        DIMS, Obstacle(center=center, radius=radius, inflation=0.0)
    )


def chain_flow(x0, top_input, t):
    """Exact chain flow under a constant top-block input (polynomial in t)."""
    x = np.asarray(x0, float)
    p, v, a = x[0:2], x[2:4], x[4:6]
    u = np.asarray(top_input, float)
    pos = p + t * v + t**2 / 2 * a + t**3 / 6 * u
    vel = v + t * a + t**2 / 2 * u
    acc = a + t * u
    return np.concatenate([pos, vel, acc])


class TestEcbfCoefficients:
    def test_from_poles_vieta(self):
        # (s+1.5)(s+2.5)(s+3.5) = s^3 + 7.5 s^2 + 17.75 s + 13.125
        assert KAPPA.kappa == pytest.approx((13.125, 17.75, 7.5))

    def test_rejects_non_hurwitz(self):
        with pytest.raises(NotHurwitz):
            EcbfCoefficients(kappa=(-1.0, 2.0, 3.0))


class TestLieDerivatives:
    def test_relative_degree_one(self):
        dims = BrunovskyDims(n=1, d=2, followers=1)
        barrier = QuadraticBarrier(kind="obstacle", dims=dims, center=(0.0, 0.0), eff_radius=1.0)
        lie = lie_derivatives(barrier, np.array([2.0, 0.0]))
        assert lie.values[0] == pytest.approx(3.0)
        assert np.allclose(lie.input_row, [4.0, 0.0])

    def test_hand_arithmetic(self):
        barrier = obstacle_barrier()
        x = np.array([2.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        lie = lie_derivatives(barrier, x)
        assert lie.values[0] == pytest.approx(3.0)  # 4 - 1
        assert lie.values[1] == pytest.approx(4.0)  # 2 p.v
        assert lie.values[2] == pytest.approx(2.0)  # 2|v|^2 + 2 p.a
        assert np.allclose(lie.input_row, [4.0, 0.0])

    def test_third_order_structure(self):
        barrier = obstacle_barrier()
        rng = np.random.default_rng(0)
        x = rng.normal(size=6)
        ff = rng.normal(size=2)
        vin = rng.normal(size=2)
        lie = lie_derivatives(barrier, x, drift_top_self=ff)
        p, v, a = x[0:2], x[2:4], x[4:6]
        expected = 6.0 * v @ a + 2.0 * p @ (ff + vin)
        assert lie.drift_term + lie.input_row @ vin == pytest.approx(expected)

    def test_degenerate_gradient(self):
        barrier = obstacle_barrier(center=(1.0, 1.0))
        x = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(DegenerateGradient):
            lie_derivatives(barrier, x)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_obstacle_orders_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x0 = rng.normal(size=6)
        if np.linalg.norm(x0[:2]) < 0.2:
            x0[:2] += 1.0
        u = rng.normal(size=2)
        barrier = obstacle_barrier()
        lie = lie_derivatives(barrier, x0, drift_top_self=np.zeros(2))
        full_top = lie.drift_term + lie.input_row @ u

        def h_along_flow(t):
            return barrier.value(chain_flow(x0, u, t))

        for order, analytic in enumerate(lie.values):
            fd = fd_derivative(h_along_flow, order) if order else h_along_flow(0.0)
            assert fd == pytest.approx(analytic, rel=1e-6, abs=1e-8)
        assert fd_derivative(h_along_flow, 3) == pytest.approx(full_top, rel=1e-6, abs=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_pairwise_orders_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        xi = rng.normal(size=6)
        xj = rng.normal(size=6) + np.array([3.0, 0, 0, 0, 0, 0])
        ui = rng.normal(size=2)
        uj = rng.normal(size=2)
        barrier = QuadraticBarrier.for_pair(DIMS, safe_dist=0.3)
        lie = lie_derivatives(
            barrier, xi, xj, drift_top_self=np.zeros(2), top_other=uj
        )
        full_top = lie.drift_term + lie.input_row @ ui

        def h_along_flow(t):
            return barrier.value(chain_flow(xi, ui, t), chain_flow(xj, uj, t))

        for order, analytic in enumerate(lie.values):
            fd = fd_derivative(h_along_flow, order) if order else h_along_flow(0.0)
            assert fd == pytest.approx(analytic, rel=1e-6, abs=1e-8)
        assert fd_derivative(h_along_flow, 3) == pytest.approx(full_top, rel=1e-6, abs=1e-8)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(9)
        barrier = obstacle_barrier(center=(0.5, -0.5))
        for _ in range(50):
            x = rng.normal(size=6)
            if np.linalg.norm(x[:2] - [0.5, -0.5]) < 0.2:
                continue
            grad = barrier.gradient_self(x)
            step = 1e-6
            for comp in range(6):
                bump = np.zeros(6)
                bump[comp] = step
                fd = (barrier.value(x + bump) - barrier.value(x - bump)) / (2 * step)
                assert grad[comp] == pytest.approx(fd, rel=1e-6, abs=1e-6)


class TestStackedRows:
    """Stacked states give the same rows as one call per state."""

    @staticmethod
    def assert_same_rows(lie, row, single_lie, single_row, idx):
        for value, single in zip(lie.values, single_lie.values):
            assert value[idx] == pytest.approx(single, rel=1e-13, abs=1e-13)
        np.testing.assert_allclose(lie.input_row[idx], single_lie.input_row, rtol=1e-13, atol=1e-13)
        assert lie.drift_term[idx] == pytest.approx(single_lie.drift_term, rel=1e-13, abs=1e-13)
        (a, b), (single_a, single_b) = row, single_row
        np.testing.assert_allclose(a[idx], single_a, rtol=1e-13, atol=1e-13)
        assert b[idx] == pytest.approx(single_b, rel=1e-13, abs=1e-13)

    def test_obstacle_stack_matches_row_by_row(self):
        rng = np.random.default_rng(21)
        barrier = obstacle_barrier(center=(0.5, -0.5), radius=0.7)
        xs = rng.normal(size=(2, 4, 6))
        ff = rng.normal(size=(2, 4, 2))
        margins = rng.uniform(0.0, 0.3, size=(2, 4))
        lie = lie_derivatives(barrier, xs, drift_top_self=ff)
        row = assemble_row(barrier, KAPPA, xs, None, margins, drift_top_self=ff)
        assert row[0].shape == (2, 4, 2) and row[1].shape == (2, 4)
        for idx in np.ndindex(2, 4):
            single_lie = lie_derivatives(barrier, xs[idx], drift_top_self=ff[idx])
            single_row = assemble_row(
                barrier, KAPPA, xs[idx], None, margins[idx], drift_top_self=ff[idx]
            )
            self.assert_same_rows(lie, row, single_lie, single_row, idx)

    def test_obstacle_set_broadcasts_against_states(self):
        """One barrier over several obstacles: (steps, 1, nd) states give (steps, n_obs) rows."""
        rng = np.random.default_rng(22)
        obstacles = [
            Obstacle(center=(1.0, 0.5), radius=0.4, inflation=0.1),
            Obstacle(center=(-2.0, 0.0), radius=0.6),
        ]
        stacked = QuadraticBarrier.for_obstacles(DIMS, obstacles)
        xs = rng.normal(size=(4, 1, 6))
        ff = rng.normal(size=(4, 1, 2))
        margins = margin_obstacle(0.2, stacked.gradient_self(xs))
        lie = lie_derivatives(stacked, xs, drift_top_self=ff)
        row = assemble_row(stacked, KAPPA, xs, None, margins, drift_top_self=ff)
        assert row[1].shape == (4, 2)
        for (l, o) in np.ndindex(4, 2):
            barrier = QuadraticBarrier.for_obstacle(DIMS, obstacles[o])
            margin = margin_obstacle(0.2, barrier.gradient_self(xs[l, 0]))
            assert margins[l, o] == pytest.approx(margin, rel=1e-13)
            single_lie = lie_derivatives(barrier, xs[l, 0], drift_top_self=ff[l, 0])
            single_row = assemble_row(
                barrier, KAPPA, xs[l, 0], None, margin, drift_top_self=ff[l, 0]
            )
            self.assert_same_rows(lie, row, single_lie, single_row, (l, o))

    def test_pairwise_stack_matches_row_by_row(self):
        rng = np.random.default_rng(23)
        barrier = QuadraticBarrier.for_pair(DIMS, safe_dist=0.3)
        xi = rng.normal(size=(2, 4, 6))
        xj = rng.normal(size=(2, 4, 6))
        ff = rng.normal(size=(2, 4, 2))
        top_other = rng.normal(size=(2, 4, 2))
        grad_i = barrier.gradient_self(xi, xj)
        grad_j = barrier.gradient_other(xi, xj)
        margins = margin_pairwise(0.1, 0.2, grad_i, grad_j)
        lie = lie_derivatives(barrier, xi, xj, drift_top_self=ff, top_other=top_other)
        row = assemble_row(
            barrier, KAPPA, xi, xj, margins, drift_top_self=ff, top_other=top_other
        )
        for idx in np.ndindex(2, 4):
            margin = margin_pairwise(
                0.1,
                0.2,
                barrier.gradient_self(xi[idx], xj[idx]),
                barrier.gradient_other(xi[idx], xj[idx]),
            )
            assert margins[idx] == pytest.approx(margin, rel=1e-13)
            single_lie = lie_derivatives(
                barrier, xi[idx], xj[idx], drift_top_self=ff[idx], top_other=top_other[idx]
            )
            single_row = assemble_row(
                barrier, KAPPA, xi[idx], xj[idx], margin,
                drift_top_self=ff[idx], top_other=top_other[idx],
            )
            self.assert_same_rows(lie, row, single_lie, single_row, idx)

    def test_one_degenerate_row_raises(self):
        barrier = obstacle_barrier(center=(1.0, 1.0))
        xs = np.random.default_rng(24).normal(size=(2, 4, 6))
        xs[1, 2, :2] = (1.0, 1.0)  # this state sits on the center
        with pytest.raises(DegenerateGradient):
            lie_derivatives(barrier, xs)
        with pytest.raises(DegenerateGradient):
            assemble_row(barrier, KAPPA, xs, None, 0.0)


class TestMargins:
    def test_zero_radius(self):
        assert margin_obstacle(0.0, np.ones(6)) == 0.0

    def test_three_four_five(self):
        grad = np.array([6.0, 8.0, 0, 0, 0, 0])
        assert margin_obstacle(0.1, grad) == pytest.approx(1.0)

    def test_pairwise_symmetry(self):
        barrier = QuadraticBarrier.for_pair(DIMS, safe_dist=0.3)
        xi = np.array([1.0, 0, 0, 0, 0, 0])
        xj = np.array([-1.0, 0, 0, 0, 0, 0])
        gi = barrier.gradient_self(xi, xj)
        gj = barrier.gradient_other(xi, xj)
        assert np.linalg.norm(gi) == pytest.approx(np.linalg.norm(gj))
        assert margin_pairwise(0.1, 0.2, gi, gj) == pytest.approx(
            (0.1 + 0.2) * np.linalg.norm(gi)
        )

    def test_first_order_h_drop_bound(self):
        """The margin bounds the worst h drop over the deviation ball to first order."""
        rng = np.random.default_rng(3)
        barrier = obstacle_barrier()
        x = np.array([2.0, 1.0, 0.4, -0.2, 0.1, 0.0])
        r_ball = 0.05
        delta_m = margin_obstacle(r_ball, barrier.gradient_self(x))
        worst_drop = 0.0
        for _ in range(20_000):
            d = rng.normal(size=6)
            d *= r_ball / np.linalg.norm(d)
            worst_drop = max(worst_drop, barrier.value(x) - barrier.value(x + d))
        assert worst_drop <= delta_m + 4.0 * r_ball**2

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.1, 5.0))
    def test_margin_monotone(self, r1, r2, gnorm):
        grad = np.zeros(6)
        grad[0] = gnorm
        assert margin_obstacle(r1 + r2, grad) >= margin_obstacle(r1, grad)
        assert margin_pairwise(r1, r2, grad, grad) >= margin_pairwise(r1, 0.0, grad, grad)


class TestAssembleRow:
    def test_inactive_far_away(self):
        barrier = obstacle_barrier()
        x = np.zeros(6)
        x[0] = 10.0
        _, b = assemble_row(barrier, KAPPA, x, None, margin=0.0, drift_top_self=np.zeros(2))
        assert b > 0.0  # satisfied at v = 0

    def test_margin_linearity(self):
        barrier = obstacle_barrier()
        x = np.zeros(6)
        x[0] = 3.0
        _, base = assemble_row(barrier, KAPPA, x, None, margin=0.0, drift_top_self=np.zeros(2))
        _, bumped = assemble_row(barrier, KAPPA, x, None, margin=0.5, drift_top_self=np.zeros(2))
        assert base - bumped == pytest.approx(KAPPA.kappa[0] * 0.5)

    def test_forward_invariance_single_agent(self):
        """Closed chain under row-satisfying inputs keeps h >= 0."""
        barrier = obstacle_barrier(center=(2.0, 0.0), radius=1.0)
        x = np.zeros(6)
        x[2] = 1.5  # moving toward the obstacle
        h_min = np.inf
        dt = 1e-3
        for step in range(8000):
            a, b = assemble_row(
                barrier, KAPPA, x, None, margin=0.0, drift_top_self=np.zeros(2)
            )
            # least-norm input satisfying a.v + b >= 0
            viol = -b
            if viol > 0.0:
                v = a * viol / float(a @ a)
            else:
                v = np.zeros(2)
            k1 = chain_derivative(DIMS, x, v)
            k2 = chain_derivative(DIMS, x + 0.5 * dt * k1, v)
            k3 = chain_derivative(DIMS, x + 0.5 * dt * k2, v)
            k4 = chain_derivative(DIMS, x + dt * k3, v)
            x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            h_min = min(h_min, barrier.value(x))
        assert h_min >= -1e-9
