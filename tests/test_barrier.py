import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubeform.barrier import EcbfCoefficients, RowGrid, assemble_row, lie_derivatives, row_values
from tubeform.errors import DegenerateGradient, NotHurwitz
from tubeform.models import BrunovskyDims, chain_derivative

from oracles import barrier_value, fd_derivative

DIMS = BrunovskyDims(n=3, d=2, followers=1)
KAPPA = EcbfCoefficients.from_poles((-1.5, -2.5, -3.5))
ZERO_TOP = np.zeros(2)


def center_chain(center=(0.0, 0.0)):
    """An obstacle as the constant chain (c, 0, 0)."""
    chain = np.zeros(6)
    chain[:2] = center
    return chain


def obstacle_b(x, radius_self, center=(0.0, 0.0), keep_out=1.0):
    """b of the obstacle row at x with own tube radius ``radius_self``."""
    chain = center_chain(center)
    return assemble_row(KAPPA, DIMS, x, chain, keep_out, radius_self, 0.0, ZERO_TOP)[1]


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
        x = np.array([2.0, 0.0])
        values, input_row, _ = lie_derivatives(dims, x, np.zeros(2), 1.0, ZERO_TOP)
        assert values[0] == pytest.approx(3.0)
        assert np.allclose(input_row, [4.0, 0.0])

    def test_hand_arithmetic(self):
        x = np.array([2.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        values, input_row, _ = lie_derivatives(DIMS, x, center_chain(), 1.0, ZERO_TOP)
        assert values[0] == pytest.approx(3.0)  # 4 - 1
        assert values[1] == pytest.approx(4.0)  # 2 p.v
        assert values[2] == pytest.approx(2.0)  # 2|v|^2 + 2 p.a
        assert np.allclose(input_row, [4.0, 0.0])

    def test_third_order_structure(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=6)
        ff = rng.normal(size=2)
        vin = rng.normal(size=2)
        _, input_row, drift = lie_derivatives(DIMS, x, center_chain(), 1.0, ff)
        p, v, a = x[0:2], x[2:4], x[4:6]
        expected = 6.0 * v @ a + 2.0 * p @ (ff + vin)
        assert drift + input_row @ vin == pytest.approx(expected)

    def test_degenerate_gradient(self):
        x = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(DegenerateGradient):
            lie_derivatives(DIMS, x, center_chain((1.0, 1.0)), 1.0, ZERO_TOP)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_obstacle_orders_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x0 = rng.normal(size=6)
        if np.linalg.norm(x0[:2]) < 0.2:
            x0[:2] += 1.0
        u = rng.normal(size=2)
        values, input_row, drift = lie_derivatives(DIMS, x0, center_chain(), 1.0, ZERO_TOP)
        full_top = drift + input_row @ u

        def h_along_flow(t):
            return barrier_value(chain_flow(x0, u, t), center_chain(), 1.0, 2)

        for order, analytic in enumerate(values):
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
        values, input_row, drift = lie_derivatives(DIMS, xi, xj, 0.3, ZERO_TOP - uj)
        full_top = drift + input_row @ ui

        def h_along_flow(t):
            return barrier_value(chain_flow(xi, ui, t), chain_flow(xj, uj, t), 0.3, 2)

        for order, analytic in enumerate(values):
            fd = fd_derivative(h_along_flow, order) if order else h_along_flow(0.0)
            assert fd == pytest.approx(analytic, rel=1e-6, abs=1e-8)
        assert fd_derivative(h_along_flow, 3) == pytest.approx(full_top, rel=1e-6, abs=1e-8)

    def test_gradient_matches_central_differences(self):
        """The input row is the position gradient of h; h ignores the higher blocks."""
        rng = np.random.default_rng(9)
        center = center_chain((0.5, -0.5))
        for _ in range(50):
            x = rng.normal(size=6)
            if np.linalg.norm(x[:2] - [0.5, -0.5]) < 0.2:
                continue
            _, input_row, _ = lie_derivatives(DIMS, x, center, 1.0, ZERO_TOP)
            grad = np.concatenate([input_row, np.zeros(4)])
            step = 1e-6
            for comp in range(6):
                bump = np.zeros(6)
                bump[comp] = step
                up, down = (barrier_value(x + s * bump, center, 1.0, 2) for s in (1, -1))
                fd = (up - down) / (2 * step)
                assert grad[comp] == pytest.approx(fd, rel=1e-6, abs=1e-6)


class TestStackedRows:
    """Stacked states give the same rows as one call per state."""

    @staticmethod
    def assert_same_rows(lie, row, single_lie, single_row, idx):
        for stacked, single in zip(lie, single_lie):  # values, input row, drift
            np.testing.assert_allclose(stacked[idx], single, rtol=1e-13, atol=1e-13)
        (a, b, grad), (single_a, single_b, single_grad) = row, single_row
        np.testing.assert_allclose(a[idx], single_a, rtol=1e-13, atol=1e-13)
        assert b[idx] == pytest.approx(single_b, rel=1e-13, abs=1e-13)
        np.testing.assert_allclose(grad[idx], single_grad, rtol=1e-13, atol=1e-13)

    def test_obstacle_stack_matches_row_by_row(self):
        rng = np.random.default_rng(21)
        center = center_chain((0.5, -0.5))
        xs = rng.normal(size=(2, 4, 6))
        ff = rng.normal(size=(2, 4, 2))
        radii = rng.uniform(0.0, 0.3, size=(2, 4))
        lie = lie_derivatives(DIMS, xs, center, 0.7, ff)
        row = assemble_row(KAPPA, DIMS, xs, center, 0.7, radii, 0.0, ff)
        assert row[0].shape == (2, 4, 2) and row[1].shape == (2, 4)
        for idx in np.ndindex(2, 4):
            single_lie = lie_derivatives(DIMS, xs[idx], center, 0.7, ff[idx])
            single_row = assemble_row(KAPPA, DIMS, xs[idx], center, 0.7, radii[idx], 0.0, ff[idx])
            self.assert_same_rows(lie, row, single_lie, single_row, idx)

    def test_obstacle_set_broadcasts_against_states(self):
        """(steps, 1, nd) states against (n_obs, nd) obstacle chains give (steps, n_obs) rows."""
        rng = np.random.default_rng(22)
        chains = np.stack([center_chain((1.0, 0.5)), center_chain((-2.0, 0.0))])
        keep_out = np.array([0.5, 0.6])
        xs = rng.normal(size=(4, 1, 6))
        ff = rng.normal(size=(4, 1, 2))
        lie = lie_derivatives(DIMS, xs, chains, keep_out, ff)
        row = assemble_row(KAPPA, DIMS, xs, chains, keep_out, 0.2, 0.0, ff)
        assert row[1].shape == (4, 2)
        for (l, o) in np.ndindex(4, 2):
            single_lie = lie_derivatives(DIMS, xs[l, 0], chains[o], keep_out[o], ff[l, 0])
            single_row = assemble_row(
                KAPPA, DIMS, xs[l, 0], chains[o], keep_out[o], 0.2, 0.0, ff[l, 0]
            )
            self.assert_same_rows(lie, row, single_lie, single_row, (l, o))

    def test_pairwise_stack_matches_row_by_row(self):
        rng = np.random.default_rng(23)
        xi = rng.normal(size=(2, 4, 6))
        xj = rng.normal(size=(2, 4, 6))
        top_exo = rng.normal(size=(2, 4, 2)) - rng.normal(size=(2, 4, 2))
        radius_other = rng.uniform(0.0, 0.3, size=(2, 4))
        lie = lie_derivatives(DIMS, xi, xj, 0.3, top_exo)
        row = assemble_row(KAPPA, DIMS, xi, xj, 0.3, 0.1, radius_other, top_exo)
        for idx in np.ndindex(2, 4):
            single_lie = lie_derivatives(DIMS, xi[idx], xj[idx], 0.3, top_exo[idx])
            single_row = assemble_row(
                KAPPA, DIMS, xi[idx], xj[idx], 0.3, 0.1, radius_other[idx], top_exo[idx]
            )
            self.assert_same_rows(lie, row, single_lie, single_row, idx)

    def test_one_degenerate_row_raises(self):
        center = center_chain((1.0, 1.0))
        xs = np.random.default_rng(24).normal(size=(2, 4, 6))
        xs[1, 2, :2] = (1.0, 1.0)  # this state sits on the center
        with pytest.raises(DegenerateGradient):
            lie_derivatives(DIMS, xs, center, 1.0, ZERO_TOP)
        with pytest.raises(DegenerateGradient):
            assemble_row(KAPPA, DIMS, xs, center, 1.0, 0.0, 0.0, ZERO_TOP)


class TestMargins:
    """The tube margin r_i ||grad h|| + r_j ||grad h|| lowers b by kappa_0 times the margin."""

    def test_zero_radius(self):
        x = np.array([1.0, 2.0, 0.3, -0.1, 0.2, 0.0])
        values, _, drift = lie_derivatives(DIMS, x, center_chain(), 1.0, ZERO_TOP)
        untightened = drift + KAPPA.kappa[1] * values[1] + KAPPA.kappa[2] * values[2]
        untightened = untightened + KAPPA.kappa[0] * values[0]
        assert obstacle_b(x, 0.0) == untightened

    def test_three_four_five(self):
        x = np.array([3.0, 4.0, 0, 0, 0, 0])  # ||grad h|| = ||2 D^0|| = 10
        drop = obstacle_b(x, 0.0) - obstacle_b(x, 0.1)
        assert drop == pytest.approx(KAPPA.kappa[0] * 1.0)

    def test_pairwise_symmetry(self):
        """Both agents' radii enter through the same gradient norm, ||2 D^0|| = 4."""
        xi = np.array([1.0, 0, 0, 0, 0, 0])
        xj = np.array([-1.0, 0, 0, 0, 0, 0])

        def b(radius_self, radius_other):
            return assemble_row(KAPPA, DIMS, xi, xj, 0.3, radius_self, radius_other, ZERO_TOP)[1]

        assert b(0.1, 0.2) == pytest.approx(b(0.2, 0.1))
        assert b(0.1, 0.2) == pytest.approx(b(0.3, 0.0))
        assert b(0.0, 0.0) - b(0.1, 0.2) == pytest.approx(KAPPA.kappa[0] * (0.1 + 0.2) * 4.0)

    def test_first_order_h_drop_bound(self):
        """The margin bounds the worst h drop over the deviation ball to first order."""
        rng = np.random.default_rng(3)
        x = np.array([2.0, 1.0, 0.4, -0.2, 0.1, 0.0])
        r_ball = 0.05
        delta_m = (obstacle_b(x, 0.0) - obstacle_b(x, r_ball)) / KAPPA.kappa[0]
        h = barrier_value(x, center_chain(), 1.0, 2)
        worst_drop = 0.0
        for _ in range(20_000):
            d = rng.normal(size=6)
            d *= r_ball / np.linalg.norm(d)
            worst_drop = max(worst_drop, h - barrier_value(x + d, center_chain(), 1.0, 2))
        assert worst_drop <= delta_m + 4.0 * r_ball**2

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.1, 5.0))
    def test_margin_monotone(self, r1, r2, gnorm):
        x = np.zeros(6)
        x[0] = gnorm / 2.0  # ||grad h|| = gnorm

        def b(radius_self, radius_other):
            chain = center_chain()
            return assemble_row(KAPPA, DIMS, x, chain, 0.01, radius_self, radius_other, ZERO_TOP)[1]

        assert b(r1 + r2, 0.0) <= b(r1, 0.0)
        assert b(r1, r2) <= b(r1, 0.0)


class TestAssembleRow:
    def test_inactive_far_away(self):
        x = np.zeros(6)
        x[0] = 10.0
        assert obstacle_b(x, 0.0) > 0.0  # satisfied at v = 0

    def test_margin_linearity(self):
        x = np.zeros(6)
        x[0] = 3.0  # ||grad h|| = 6
        drop = obstacle_b(x, 0.0) - obstacle_b(x, 0.5)
        assert drop == pytest.approx(KAPPA.kappa[0] * 0.5 * 6.0)

    def test_obstacle_is_stationary_neighbor(self):
        """An obstacle row is the row of a neighbor resting at the center with radius 0."""
        rng = np.random.default_rng(25)
        xs = rng.normal(size=(4, 6))
        ff = rng.normal(size=(4, 2))
        center = center_chain((0.4, -0.3))
        resting = np.stack([chain_flow(center, ZERO_TOP, t) for t in 0.1 * np.arange(4)])
        neighbor_top = np.zeros((4, 2))  # a resting chain's top derivative
        obstacle = assemble_row(KAPPA, DIMS, xs, center, 0.6, 0.1, 0.0, ff)
        neighbor = assemble_row(KAPPA, DIMS, xs, resting, 0.6, 0.1, 0.0, ff - neighbor_top)
        for got, want in zip(obstacle, neighbor):
            np.testing.assert_array_equal(got, want)

    def test_forward_invariance_single_agent(self):
        """Closed chain under row-satisfying inputs keeps h >= 0."""
        center = center_chain((2.0, 0.0))
        x = np.zeros(6)
        x[2] = 1.5  # moving toward the obstacle
        h_min = np.inf
        dt = 1e-3
        for step in range(8000):
            a, b, _ = assemble_row(KAPPA, DIMS, x, center, 1.0, 0.0, 0.0, ZERO_TOP)
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
            h_min = min(h_min, barrier_value(x, center, 1.0, 2))
        assert h_min >= -1e-9


class TestRowGridActivation:
    def test_a_cell_exactly_at_the_activation_range_is_a_row_one_just_beyond_is_not(self):
        """One rule for every cell reads the input row's norm, ||2 (x - x_other)|| <= 2 activation:
        at step 0 an obstacle and a pair cell lie exactly 5 from the state and one of each an ulp
        beyond, with activation 5; at step 1 only the second pair cell's predicted chain is in range.
        The kept rows and gradients are ``assemble_row``'s, bit for bit, and the guard is the least
        kept row's value a . v + b, bit for bit, inf where no cell is kept."""
        at, beyond = (3.0, 4.0), (3.0, np.nextafter(4.0, 5.0))
        assert np.linalg.norm(at) == 5.0 < np.linalg.norm(beyond)
        pair_at = np.r_[-4.0, 3.0, 0.5, -0.25, 0.1, 0.2]
        pair_beyond = np.r_[np.nextafter(-4.0, -5.0), 3.0, 0.5, -0.25, 0.1, 0.2]
        assert np.linalg.norm(pair_at[:2]) == 5.0 < np.linalg.norm(pair_beyond[:2])
        x_other = np.stack([[center_chain(at), center_chain(beyond), pair_at, pair_beyond]] * 2)
        x_other[1, 3, :2] = (-19.0, 0.5)
        top_exo = np.full((2, 4, 2), 0.25)
        keep_out, radius_other = np.array([1.0, 1.0, 0.3, 0.3]), np.array([0.0, 0.0, 0.1, 0.15])
        group = np.array([0, 0, 1, 1])
        grid = RowGrid(KAPPA, DIMS, x_other, top_exo, keep_out, 0.2, radius_other, group, 5.0)
        states = np.zeros((3, 6))
        states[1, :2] = (-20.0, 0.0)
        inputs = np.arange(6.0).reshape(3, 2)
        rows = grid.rows(states, inputs)
        assert list(zip(rows.step.tolist(), rows.group.tolist())) == [(0, 0), (0, 1), (1, 1)]
        for r, (step, cell) in enumerate([(0, 0), (0, 2), (1, 3)]):
            a, b, grad = assemble_row(KAPPA, DIMS, states[step], x_other[step, cell], keep_out[cell], 0.2,
                                      radius_other[cell], top_exo[step, cell], inputs[step])
            assert np.array_equal(rows.a[r], a) and rows.b[r] == b and np.array_equal(rows.grad[r], grad)
        # a range just below 5 drops both cells at 5 too; one just above keeps all four
        assert grid._replace(activation=np.nextafter(5.0, 0.0)).rows(states, inputs).step.tolist() == [1]
        wider = grid._replace(activation=5.0 + 4 * np.spacing(5.0)).rows(states, inputs)
        assert list(zip(wider.step.tolist(), wider.group.tolist())) == [(0, 0), (0, 0), (0, 1), (0, 1), (1, 1)]
        for activation in (5.0, np.nextafter(5.0, 0.0), 5.0 + 4 * np.spacing(5.0), -1.0):
            kept = grid._replace(activation=activation)
            r = kept.rows(states, inputs)
            least = np.min(np.sum(r.a * inputs[r.step], axis=1) + r.b, initial=np.inf)
            assert kept.guard(states, inputs) == least
        assert grid._replace(activation=-1.0).guard(states, inputs) == np.inf


class TestRowGradient:
    """``assemble_row``'s ``grad`` against central differences of a . v + b in the own state."""

    @pytest.mark.parametrize("kind", ["obstacle", "pair"])
    def test_gradient_matches_central_differences(self, kind):
        rng = np.random.default_rng(31 if kind == "obstacle" else 32)
        for _ in range(20):
            x = rng.normal(size=6) * 1.5
            other = center_chain(rng.normal(size=2)) if kind == "obstacle" else rng.normal(size=6)
            keep_out, r_self = rng.uniform(0.2, 0.8), rng.uniform(0.0, 0.3)
            r_other = 0.0 if kind == "obstacle" else rng.uniform(0.0, 0.3)
            top_exo, v = rng.normal(size=2), rng.normal(size=2)

            def row(state):
                a, b, _ = assemble_row(KAPPA, DIMS, state, other, keep_out, r_self, r_other, top_exo, v)
                return float(a @ v + b)

            _, _, grad = assemble_row(KAPPA, DIMS, x, other, keep_out, r_self, r_other, top_exo, v)
            step = 1e-5
            for comp in range(6):
                bump = np.zeros(6)
                bump[comp] = step
                fd = (row(x + bump) - row(x - bump)) / (2 * step)
                assert grad[comp] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_omitted_inputs_are_zero_inputs(self):
        x, other = np.r_[1.0, -0.5, 0.2, 0.3, -0.1, 0.4], center_chain((0.3, 0.2))
        args = (KAPPA, DIMS, x, other, 0.5, 0.1, 0.0, np.r_[0.2, -0.3])
        np.testing.assert_array_equal(assemble_row(*args)[2], assemble_row(*args, np.zeros(2))[2])

    def test_row_values_are_the_rows_without_the_gradient(self):
        """``row_values`` gives ``assemble_row``'s a and b bit for bit over a stack, and ||a||."""
        rng = np.random.default_rng(33)
        xs, others = rng.normal(size=(4, 1, 6)), rng.normal(size=(4, 3, 6))
        args = (KAPPA, DIMS, xs, others, np.array([0.4, 0.5, 0.6]), 0.1, np.array([0.0, 0.2, 0.3]),
                rng.normal(size=(4, 3, 2)))
        a, b, norm = row_values(*args)
        want_a, want_b, _ = assemble_row(*args, rng.normal(size=(4, 1, 2)))
        np.testing.assert_array_equal(a, want_a)
        np.testing.assert_array_equal(b, want_b)
        np.testing.assert_array_equal(norm, np.linalg.norm(want_a, axis=-1))
