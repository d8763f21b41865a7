import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from tubeform.barrier import BarrierRows, EcbfCoefficients, RowGrid, TeamRows
from tubeform.errors import DegenerateGradient
from tubeform.linalg import rk4_step
from tubeform.models import BrunovskyDims, chain_matrices
from tubeform.ocp import (
    CondensedQp,
    OcpSpec,
    QpTeam,
    build_qp,
    discretize_error_dynamics,
    rollout,
    solve_ocp,
    terminal_ingredients,
)
from tubeform.pipeline import certify_scenario
from tubeform.qp import INFEASIBLE, OPTIMAL, QpProblem, solve_qp
from tubeform.scenario import load_scenario, parse_scenario
from tubeform.sim import run_simulation

from oracles import (
    chain_recurrence, condensed_plan, condensed_qp_differences, hard_row_qp, recorded_solves, reference_qp,
    rollout_objective,
)

SMOKE = Path(__file__).resolve().parents[1] / "scenarios" / "smoke_scenario.json"
ABLATION = SMOKE.with_name("ablation_scenario.json")

NO_ROWS = BarrierRows(
    np.zeros(0, dtype=int), np.zeros((0, 2)), np.zeros(0), np.zeros(0, dtype=int), np.zeros((0, 6))
)
ZERO_INPUTS = np.zeros((5, 2))
KAPPA = EcbfCoefficients.from_poles((-1.5, -2.5, -3.5))
# a one-agent grid without any cell, over the 4 free steps of a horizon-5 chain with n = 3, d = 2
NO_CELLS = RowGrid.of(
    KAPPA, BrunovskyDims(n=3, d=2, followers=1), np.zeros((4, 0, 6)), np.zeros((4, 0, 2)), np.zeros(0), 0.0,
    np.zeros(0), np.zeros(0, dtype=int), 1.0,
)


def build(spec, e0, s_seq, v_prev, rows, lin_inputs):
    """One pass's QP and its input offset ``t_off``, as ``solve_ocp`` builds one for its agent alone."""
    rows = TeamRows.of([rows], spec.dims)
    return build_qp(spec.team, e0[None], s_seq[None], v_prev[None], rows, lin_inputs[None])[0]


def plan(spec, t_off, z):
    """The full input stack of a QP solution ``z``: its free inputs through the condensing map."""
    t_map = spec.condensing.t_map
    return t_map @ z[: t_map.shape[1]] + t_off


def n_slack(spec, qp):
    """The trailing slack variables of a QP that ``build_qp`` made from ``spec``."""
    return qp.linear.size - spec.condensing.t_map.shape[1]


def make_spec(
    dims=None,
    horizon=5,
    ts=0.1,
    coupling=2.0,
    qr=1.0,
    r=0.1,
    rdelta=0.01,
    input_bound=50.0,
    terminal_set=True,
):
    """The OCP spec; without ``terminal_set`` the level is infinite, so no terminal cut is built."""
    dims = dims or BrunovskyDims(n=3, d=2, followers=1)
    (spec,) = OcpSpec.design(dims, horizon, ts, qr, r, rdelta, [coupling], [input_bound], [None])
    return spec if terminal_set else dataclasses.replace(spec, terminal_level=math.inf)


class TestDiscretization:
    def test_single_integrator(self):
        dims = BrunovskyDims(n=1, d=1, followers=1)
        ad, bd = discretize_error_dynamics(dims, 0.1)
        assert np.allclose(ad, [[1.0]])
        assert np.allclose(bd, [[0.1]])

    def test_double_integrator(self):
        dims = BrunovskyDims(n=2, d=1, followers=1)
        ad, bd = discretize_error_dynamics(dims, 0.1)
        assert np.allclose(ad, [[1.0, 0.1], [0.0, 1.0]])
        assert np.allclose(bd, [[0.005], [0.1]])

    def test_matches_rk4_exactly(self):
        """Polynomial chain: RK4 over one step equals the exact map."""
        dims = BrunovskyDims(n=3, d=2, followers=1)
        ad, bd = discretize_error_dynamics(dims, 0.1)
        a0, g = chain_matrices(dims)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.normal(size=6)
            u = rng.normal(size=2)
            exact = ad @ x + bd @ u
            stepped = rk4_step(lambda s, t: a0 @ s + g @ u, x, 0.0, 0.1)
            assert np.max(np.abs(exact - stepped)) < 1e-14


class TestTerminalIngredients:
    def test_scalar_dare_vs_bisection(self):
        dims = BrunovskyDims(n=1, d=1, followers=1)
        ad = np.array([[1.0]])
        bd = np.array([[0.1]])
        _, pr = terminal_ingredients(ad, bd, np.eye(1), np.eye(1))
        # scalar DARE: p = 1 + p - p^2 b^2/(1 + p b^2), root by bisection
        def resid(p):
            return 1.0 + p - p**2 * 0.01 / (1.0 + p * 0.01) - p
        lo, hi = 0.0, 1e6
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if resid(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert pr[0, 0] == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_qr_zero_limit_with_stable_ad(self):
        ad = np.array([[0.5]])
        bd = np.array([[0.1]])
        _, pr = terminal_ingredients(ad, bd, np.zeros((1, 1)), np.eye(1))
        assert pr[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_closed_loop_stable(self):
        # effective input matrix is -coupling * Bd, so the loop closes as
        # Ad - (-c Bd) Khat
        spec = make_spec()
        closed = spec.ad + spec.coupling * spec.bd @ spec.terminal_gain
        assert np.max(np.abs(np.linalg.eigvals(closed))) < 1.0

    def test_terminal_set_invariance_and_input(self):
        """Random terminal-set states stay inside after one closed-loop step
        and their terminal law respects the tightened input bound."""
        spec = make_spec()
        rng = np.random.default_rng(1)
        w, v = np.linalg.eigh(spec.pr)
        closed = spec.ad + spec.coupling * spec.bd @ spec.terminal_gain
        for _ in range(100):
            u = rng.normal(size=6)
            u /= np.linalg.norm(u)
            e = np.sqrt(spec.terminal_level) * (v / np.sqrt(w)) @ (v.T @ u)
            e *= rng.random() ** 0.5
            level = e @ spec.pr @ e
            assert level <= spec.terminal_level * (1 + 1e-9)
            e_next = closed @ e
            assert e_next @ spec.pr @ e_next <= level * (1 + 1e-9)
            assert np.max(np.abs(spec.terminal_gain @ e)) <= spec.input_bound * (1 + 1e-9)


def own_row_min(rows, inputs):
    """The least ``a . v_step + b`` of a row block at the plan ``inputs``; inf without rows."""
    return float(np.min(np.sum(rows.a * inputs[rows.step], axis=1) + rows.b, initial=math.inf))


def obstacle_grid(dims, center, keep_out, r_ball, steps=4):
    """A one-agent grid with one obstacle cell and no activation limit: one obstacle row per free
    input (steps 0..H-2), tightened by the own tube radius ``r_ball``; the obstacle is the
    constant chain (center, 0, 0)."""
    chain = np.zeros(dims.nd)
    chain[: dims.d] = center
    x_other = np.broadcast_to(chain, (steps, 1, dims.nd))
    return RowGrid.of(KAPPA, dims, x_other, np.zeros((steps, 1, dims.d)), np.array([keep_out]), r_ball,
                   np.zeros(1), np.zeros(1, dtype=int), math.inf)


class TestLinearizedRows:
    """``build_qp``'s barrier rows against the exact rows of a grid with obstacle and pair cells."""

    @staticmethod
    def setup(seed):
        dims = BrunovskyDims(n=3, d=2, followers=1)
        spec = make_spec(dims=dims, coupling=1.0)
        rng = np.random.default_rng(seed)
        kappa = EcbfCoefficients.from_poles((-1.5, -2.5, -3.5))
        chains = np.zeros((3, 6))
        chains[:2, :2] = rng.normal(size=(2, 2)) * 3.0  # two obstacles
        x_other = np.repeat(chains[None], 4, axis=0)
        x_other[:, 2] = rng.normal(size=(4, 6)) * 2.0  # a predicted follower chain
        top_exo = rng.normal(size=(4, 3, 2)) * 0.3
        grid = RowGrid.of(kappa, dims, x_other, top_exo, np.array([0.6, 0.5, 0.3]), 0.1,
                       np.array([0.0, 0.0, 0.12]), np.array([0, 0, 1]), 1e6)
        x0, ff, e0 = rng.normal(size=6), rng.normal(size=(5, 2)) * 0.2, rng.normal(size=6)
        return spec, grid, x0, ff, e0, rng

    @staticmethod
    def qp_rows(spec, qp, m):
        """The QP's barrier rows as (a on the free inputs, b): the rows after the hard block."""
        n_free, n_hard = spec.condensing.t_map.shape[1], spec.condensing.hard_a.shape[0]
        return qp.a_in[n_hard : n_hard + m, :n_free], qp.b_in[n_hard : n_hard + m]

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_equal_at_the_linearization_plan_second_order_away(self, seed):
        """At the linearization plan each QP row's value a . z - b is the exact a . v_step + b;
        at a plan moved by eps along the free inputs the gap to the exact row, rebuilt at the
        moved plan's own states, is O(eps^2): halving eps quarters it (step 0's rows, whose
        state is fixed, have none)."""
        spec, grid, x0, ff, e0, rng = self.setup(seed)
        lin = rng.normal(size=(5, 2))
        rows = grid.rows(rollout(spec, x0, lin + ff), lin)
        assert rows.b.size == 12 and set(rows.group.tolist()) == {0, 1}
        qp, _ = build(spec, e0, np.zeros((5, 2)), np.zeros(2), rows, lin)
        a_lin, b_lin = self.qp_rows(spec, qp, rows.b.size)
        z_lin = lin[:-1].reshape(-1)
        exact = np.sum(rows.a * lin[rows.step], axis=1) + rows.b
        np.testing.assert_allclose(a_lin @ z_lin - b_lin, exact, rtol=1e-12, atol=1e-10)

        direction = rng.normal(size=z_lin.size)
        gaps = []
        for eps in (1e-2, 5e-3):
            moved = lin.copy()
            moved[:-1] += (eps * direction).reshape(4, 2)
            own = grid.rows(rollout(spec, x0, moved + ff), moved)
            exact = np.sum(own.a * moved[own.step], axis=1) + own.b
            gaps.append(np.abs(exact - (a_lin @ moved[:-1].reshape(-1) - b_lin)))
        # a step-0 row is affine in the plan: its state is x0
        first = rows.step == 0
        assert np.all(np.concatenate(gaps)[np.tile(first, 2)] <= 1e-12)
        np.testing.assert_allclose(gaps[1][~first] / gaps[0][~first], 0.25, atol=0.02)


class TestBuildQp:
    def test_zero_weights_zero_input(self):
        spec = make_spec(qr=0.0, rdelta=0.0)
        e0 = np.zeros(6)
        s_seq = np.zeros((5, 2))
        qp, t_off = build(spec, e0, s_seq, np.zeros(2), NO_ROWS, ZERO_INPUTS)
        assert n_slack(spec, qp) == 0  # the zero terminal error needs no cut
        assert np.allclose(plan(spec, t_off, solve_qp(qp).z), 0.0, atol=1e-12)

    def test_inactive_barrier_row_no_change(self):
        spec = make_spec()
        e0 = np.array([1.0, -0.5, 0.2, 0.0, 0.0, 0.1])
        s_seq = np.zeros((5, 2))
        qp0, t_off0 = build(spec, e0, s_seq, np.zeros(2), NO_ROWS, ZERO_INPUTS)
        # v_2,x >= -1e6: never active
        row = BarrierRows(np.array([2]), np.array([[1.0, 0.0]]), np.array([1e6]), np.array([0]), np.ones((1, 6)))
        qp1, t_off1 = build(spec, e0, s_seq, np.zeros(2), row, ZERO_INPUTS)
        z0 = plan(spec, t_off0, solve_qp(qp0).z)
        z1 = plan(spec, t_off1, solve_qp(qp1).z)
        assert np.allclose(z0, z1, atol=1e-9)

    def test_condensed_objective_equals_rollout(self):
        spec = make_spec(terminal_set=False)
        rng = np.random.default_rng(4)
        e0 = rng.normal(size=6)
        s_seq = rng.normal(size=(5, 2)) * 0.2
        v_prev = rng.normal(size=2) * 0.1
        qp, t_off = build(spec, e0, s_seq, v_prev, NO_ROWS, ZERO_INPUTS)
        sol = solve_qp(qp)
        inputs = plan(spec, t_off, sol.z).reshape(5, 2)
        explicit = rollout_objective(spec, e0, s_seq, v_prev, inputs)
        assert sol.objective == pytest.approx(explicit, abs=1e-9 * max(1.0, explicit))

    def test_terminal_law_substitution_holds(self):
        spec = make_spec()
        rng = np.random.default_rng(5)
        e0 = rng.normal(size=6) * 0.5
        s_seq = rng.normal(size=(5, 2)) * 0.1
        qp, t_off = build(spec, e0, s_seq, np.zeros(2), NO_ROWS, ZERO_INPUTS)
        inputs = plan(spec, t_off, solve_qp(qp).z).reshape(5, 2)
        errors = rollout(spec, e0, s_seq - spec.coupling * inputs)
        assert np.allclose(inputs[-1], -spec.terminal_gain @ errors[-1], atol=1e-9)

    def test_terminal_row_from_inputs_matches_explicit_terminal_error(self):
        """The terminal cut read off the condensed error map at the linearization
        inputs equals the supporting hyperplane at the explicitly rolled terminal error."""
        spec = make_spec()
        rng = np.random.default_rng(8)
        e0 = rng.normal(size=6) * 2.0
        s_seq = rng.normal(size=(5, 2)) * 0.3
        lin_inputs = rng.normal(size=(5, 2))
        qp, t_off = build(spec, e0, s_seq, np.zeros(2), NO_ROWS, lin_inputs)
        e_ref = chain_recurrence(spec.ad, spec.bd, e0, s_seq - spec.coupling * lin_inputs)[-1]
        level = e_ref @ spec.pr @ e_ref
        assert level > spec.terminal_level  # outside the terminal set: the cut binds
        py = spec.pr @ (e_ref * np.sqrt(spec.terminal_level / level))
        # the cut on the free inputs, through the terminal error's map probed from the
        # recurrence; it is the last row before the slack's nonnegativity and has the one slack
        cp = condensed_plan(spec, e0, s_seq)
        a_free = -py @ cp.err_map[-1]
        b_free = py @ cp.err_off[-1] - spec.terminal_level
        assert n_slack(spec, qp) == 1
        np.testing.assert_allclose(qp.a_in[-2, :-1], a_free, rtol=1e-12, atol=1e-12)
        assert qp.a_in[-2, -1] == 1.0
        assert qp.b_in[-2] == pytest.approx(b_free, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("error_box", [False, True])
    @pytest.mark.parametrize("terminal_set", [False, True])
    def test_free_input_block_matches_recurrence_oracle(self, error_box, terminal_set):
        """On random (e0, s, v_prev, rows, lin_inputs) every term of the QP on the free
        inputs equals the hard-row QP probed from the explicit recurrence."""
        spec = make_spec(terminal_set=terminal_set)
        if error_box:
            spec = dataclasses.replace(spec, error_box=TestCondensingCache.ERROR_BOX)
        rng = np.random.default_rng(11)
        for _ in range(3):
            e0 = rng.normal(size=6) * 2.0
            s_seq = rng.normal(size=(5, 2)) * 0.3
            v_prev = rng.normal(size=2)
            entries = [
                (int(rng.integers(0, 4)), rng.normal(size=2), float(rng.normal()), int(g), rng.normal(size=6))
                for g in rng.integers(0, 2, size=6)
            ]
            rows = BarrierRows(*map(np.array, zip(*entries)))
            lin_inputs = rng.normal(size=(5, 2))
            qp, t_off = build(spec, e0, s_seq, v_prev, rows, lin_inputs)
            ref = hard_row_qp(spec, e0, s_seq, v_prev, rows, lin_inputs)
            n_free, n_rows = ref.hessian.shape[0], ref.b_in.size
            assert n_rows == qp.b_in.size - n_slack(spec, qp)  # all but the slacks' signs
            # input box 2 H d, the error box, six barrier rows, and the cut (random e_ref)
            assert n_rows == 20 + 6 + (40 if error_box else 0) + terminal_set
            pairs = [
                (qp.hessian[:n_free, :n_free], ref.hessian),
                (qp.linear[:n_free], ref.linear),
                (qp.constant, ref.constant),
                (qp.a_in[:n_rows, :n_free], ref.a_in),
                (qp.b_in[:n_rows], ref.b_in),
                (t_off, ref.t_off),
                (spec.condensing.t_map, ref.t_map),
            ]
            for got, want in pairs:
                scale = max(1.0, float(np.max(np.abs(want))))
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9 * scale)


class TestRollout:
    def test_batched_matches_recurrence_on_broadcast_stacks(self):
        """(N, N) stacks as the neighbor predictions use them: one x0 per column,
        one drive per pair; every trajectory equals the explicit recurrence."""
        spec = make_spec(horizon=6)
        rng = np.random.default_rng(9)
        n = 4
        x0 = rng.normal(size=(n, 6))
        plans = rng.normal(size=(n, 6, 2))
        ff = rng.normal(size=(n, 6, 2))
        out = rollout(spec, x0[None], plans[None] + ff[:, None])
        assert out.shape == (n, n, 7, 6)
        for i in range(n):
            for j in range(n):
                ref = chain_recurrence(spec.ad, spec.bd, x0[j], plans[j] + ff[i])
                np.testing.assert_allclose(out[i, j], ref, rtol=1e-12, atol=1e-12)
                assert np.array_equal(out[i, j, 0], x0[j])

    def test_stationary(self):
        states = rollout(make_spec(), np.zeros(6), np.zeros((5, 2)))
        assert np.array_equal(states, np.zeros((6, 6)))

    def test_single_integrator_constant_input(self):
        dims = BrunovskyDims(n=1, d=1, followers=1)
        spec = make_spec(dims=dims)
        states = rollout(spec, np.array([1.0]), np.full((5, 1), 2.0))
        np.testing.assert_allclose(states[:, 0], 1.0 + 2.0 * 0.1 * np.arange(6), atol=1e-14)


class TestCondensingCache:
    """build_qp on a spec whose structure is cached equals a build from scratch."""

    ERROR_BOX = np.array([2.0, 2.5, np.inf, 3.0, np.inf, 1.5])

    @pytest.mark.parametrize("with_error_box", [False, True])
    def test_cached_build_matches_fresh_spec(self, with_error_box):
        spec = make_spec()
        if with_error_box:
            spec = dataclasses.replace(spec, error_box=self.ERROR_BOX)
        rng = np.random.default_rng(7)
        for _ in range(2):  # the second call reuses the first call's structure
            e0 = rng.normal(size=6)
            s_seq = rng.normal(size=(5, 2)) * 0.3
            v_prev = rng.normal(size=2) * 0.1
            entries = [
                (int(rng.integers(0, 4)), rng.normal(size=2), float(rng.normal()), int(g), rng.normal(size=6))
                for g in rng.integers(0, 2, size=5)
            ]
            rows = BarrierRows(*map(np.array, zip(*entries)))
            args = (e0, s_seq, v_prev, rows, rng.normal(size=(5, 2)))
            fresh = dataclasses.replace(spec)
            qp, t_off = build(spec, *args)
            fresh_qp, fresh_t_off = build(fresh, *args)
            for field in ("hessian", "linear", "a_in", "b_in"):
                np.testing.assert_array_equal(getattr(qp, field), getattr(fresh_qp, field))
            assert qp.constant == fresh_qp.constant
            np.testing.assert_array_equal(spec.condensing.t_map, fresh.condensing.t_map)
            np.testing.assert_array_equal(t_off, fresh_t_off)
        assert spec.condensing is spec.condensing
        # input box 2 H d, the finite error-box entries twice per step,
        # five barrier rows, and the terminal cut
        n_box = 2 * 4 * 5 if with_error_box else 0
        n_rows = 2 * 5 * 2 + 5 + n_box + 1
        assert qp.a_in.shape[0] == n_rows + n_slack(spec, qp)


class TestSolveOcp:
    def test_equilibrium_stays_zero(self):
        spec = make_spec()
        sol = solve_ocp(
            spec,
            e0=np.zeros(6),
            x0_nominal=np.zeros(6),
            s_seq=np.zeros((5, 2)),
            ff_seq=np.zeros((5, 2)),
            v_prev=np.zeros(2),
            warm_inputs=np.zeros((5, 2)),
            grid=NO_CELLS,
        )
        assert sol.status == OPTIMAL
        assert np.allclose(sol.inputs, 0.0, atol=1e-10)
        assert sol.objective == pytest.approx(0.0, abs=1e-12)

    def test_unconstrained_matches_normal_equations(self):
        """No rows: the plan equals the dense least-squares solution."""
        spec = make_spec(input_bound=np.inf)  # no input box and no terminal set
        rng = np.random.default_rng(6)
        e0 = rng.normal(size=6) * 0.3
        s_seq = np.zeros((5, 2))
        v_prev = np.zeros(2)
        sol = solve_ocp(
            spec, e0, np.zeros(6), s_seq, np.zeros((5, 2)), v_prev,
            np.zeros((5, 2)), NO_CELLS,
        )
        qp, t_off = build(spec, e0, s_seq, v_prev, NO_ROWS, ZERO_INPUTS)
        assert qp.a_in.shape[0] == 0
        z_free = np.linalg.solve(qp.hessian, -qp.linear)
        z = spec.condensing.t_map @ z_free + t_off
        assert np.allclose(sol.inputs.reshape(-1), z, atol=1e-7)

    def test_head_on_obstacle_rows_satisfied(self):
        """Rows assembled at the returned plan's own trajectory hold to -1e-6."""
        dims = BrunovskyDims(n=3, d=2, followers=1)
        spec = make_spec(dims=dims, coupling=1.0)
        x0 = np.array([0.0, 0.0, 0.5, 0.0, 0.0, 0.0])  # heading at the obstacle
        e0 = np.array([0.0, 0.5, 0.0, 0.0, 0.0, 0.0])
        grid = obstacle_grid(dims, (2.0, 0.0), 0.8, r_ball=0.1)

        sol = solve_ocp(
            spec, e0, x0, np.zeros((5, 2)), np.zeros((5, 2)), np.zeros(2),
            np.zeros((5, 2)), grid,
        )
        assert sol.status == OPTIMAL
        own = grid.rows(rollout(spec, x0, sol.inputs), sol.inputs)  # the feedforward is zero
        assert np.min(np.sum(own.a * sol.inputs[own.step], axis=1) + own.b) >= -1e-6

    def test_adverse_error_conflict_is_infeasible(self):
        """An error pulling hard into the obstacle conflicts with the terminal
        law: the final pass needs slack, so the solve reports Infeasible with
        its minimally violating plan and the caller can fall back."""
        dims = BrunovskyDims(n=3, d=2, followers=1)
        spec = make_spec(dims=dims, coupling=1.0)
        x0 = np.array([0.0, 0.0, 1.5, 0.0, 0.0, 0.0])
        e0 = np.array([4.0, 0.0, 2.0, 0.0, 0.0, 0.0])
        grid = obstacle_grid(dims, (2.0, 0.0), 0.8, r_ball=0.1)

        sol = solve_ocp(
            spec, e0, x0, np.zeros((5, 2)), np.zeros((5, 2)), np.zeros(2),
            np.zeros((5, 2)), grid,
        )
        assert sol.status == INFEASIBLE
        assert 1e-6 < sol.slack < np.inf

    def test_capped_plan_breaking_own_rows_is_not_optimal(self):
        """Half the conflict above, where a frozen-row pass loop once returned a
        plan breaking the rows at its own trajectory by 2.0 as Optimal: the
        returned plan holds its own rows, or the solve reports it relaxed."""
        dims = BrunovskyDims(n=3, d=2, followers=1)
        spec = make_spec(dims=dims, coupling=1.0)
        x0 = np.array([0.0, 0.0, 1.5, 0.0, 0.0, 0.0])
        e0 = np.array([2.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        grid = obstacle_grid(dims, (2.0, 0.0), 0.8, r_ball=0.1)

        sol = solve_ocp(
            spec, e0, x0, np.zeros((5, 2)), np.zeros((5, 2)), np.zeros(2),
            np.zeros((5, 2)), grid,
        )
        holds = own_row_min(grid.rows(rollout(spec, x0, sol.inputs), sol.inputs), sol.inputs) >= -1e-6
        assert holds or sol.status == INFEASIBLE
        assert sol.converged == (holds and sol.slack <= 1e-6)

    def test_degenerate_guard_rows_make_the_plan_relaxed(self):
        """A guard whose row evaluation at the returned plan raises ``DegenerateGradient`` counts
        as a broken row and leaves nothing to linearize at: that plan is returned relaxed with
        its QP's finite slack, after one QP."""
        dims = BrunovskyDims(n=3, d=2, followers=1)
        spec = make_spec(dims=dims, coupling=1.0)
        grid = obstacle_grid(dims, (2.0, 0.0), 0.8, r_ball=0.1)
        calls = []

        class DegenerateAtThePlan:
            """The grid's rows at the warm start; a guard at the returned plan that raises."""

            def rows(self, states, inputs):
                calls.append("rows")
                return grid.rows(states, inputs)

            def guard(self, states, inputs):
                calls.append("guard")
                raise DegenerateGradient("barrier gradient undefined at zero offset")

        args = (spec, np.array([0.5, 0.0, 0.2, 0.0, 0.0, 0.0]), np.zeros(6), ZERO_INPUTS, ZERO_INPUTS)
        sol = solve_ocp(*args, np.zeros(2), ZERO_INPUTS, DegenerateAtThePlan())
        assert calls == ["rows", "guard"] and sol.sqp_passes == 1
        assert sol.status == INFEASIBLE and not sol.converged and sol.slack == 0.0
        held = solve_ocp(*args, np.zeros(2), ZERO_INPUTS, grid)
        assert held.status == OPTIMAL and held.converged
        np.testing.assert_array_equal(sol.inputs, held.inputs)

    def test_feasible_rows_match_hard_row_qp(self):
        """On a feasible row set the exact-penalty solve needs no slack, and its
        plan is the plan of the QP with every row hard, linearized where it was."""
        dims = BrunovskyDims(n=3, d=2, followers=1)
        spec = make_spec(dims=dims, coupling=1.0)
        x0 = np.array([0.0, 0.0, 1.2, 0.2, 0.0, 0.0])
        e0 = np.array([1.5, 0.5, 0.8, 0.0, 0.0, 0.0])
        grid = obstacle_grid(dims, (1.5, 0.2), 0.6, r_ball=0.02)
        args = (spec, e0, x0, np.zeros((5, 2)), np.zeros((5, 2)), np.zeros(2))

        warm = np.zeros((5, 2))
        for _ in range(8):  # chain warm starts until the pass loop converges
            sol = solve_ocp(*args, warm, grid)
            warm = sol.inputs
            if sol.converged:
                break
        # from the converged plan the first pass converges: one QP, linearized at ``warm``
        sol = solve_ocp(*args, warm, grid)
        assert sol.converged and sol.sqp_passes == 1
        assert sol.status == OPTIMAL and sol.slack <= 1e-9

        ref = hard_row_qp(
            spec, e0, np.zeros((5, 2)), np.zeros(2), grid.rows(rollout(spec, x0, warm), warm), warm
        )
        hard = solve_qp(QpProblem(hessian=ref.hessian, linear=ref.linear, a_in=ref.a_in, b_in=ref.b_in))
        assert hard.status == OPTIMAL
        assert np.count_nonzero(hard.active) >= 1  # rows bind: the penalty must hold them
        hard_plan = (ref.t_map @ hard.z + ref.t_off).reshape(5, 2)
        np.testing.assert_allclose(sol.inputs, hard_plan, rtol=0.0, atol=1e-7)

    def test_binding_error_box_matches_hard_row_qp(self):
        """An error box that the unconstrained plan leaves: the penalty solve keeps
        its errors inside the box and its plan is the hard-row QP's plan."""
        spec = make_spec(terminal_set=False)
        e0 = np.array([1.5, -1.0, 0.6, 0.4, 0.0, 0.0])
        s_seq = np.zeros((5, 2))
        free = solve_ocp(spec, e0, np.zeros(6), s_seq, s_seq, np.zeros(2), s_seq, NO_CELLS)
        free_errors = chain_recurrence(spec.ad, spec.bd, e0, -spec.coupling * free.inputs)
        box = np.array([np.inf, np.inf, 0.45, 0.45, np.inf, np.inf])
        assert np.max(np.abs(free_errors[1:, 2:4])) > 0.5  # the free plan leaves the box
        spec = dataclasses.replace(spec, error_box=box)

        sol = solve_ocp(spec, e0, np.zeros(6), s_seq, s_seq, np.zeros(2), s_seq, NO_CELLS)
        assert sol.converged and sol.status == OPTIMAL and sol.slack == 0.0
        errors = chain_recurrence(spec.ad, spec.bd, e0, -spec.coupling * sol.inputs)
        assert np.all(np.abs(errors[1:]) <= box + 1e-9)

        ref = hard_row_qp(spec, e0, s_seq, np.zeros(2), NO_ROWS, sol.inputs)
        hard = solve_qp(QpProblem(hessian=ref.hessian, linear=ref.linear, a_in=ref.a_in, b_in=ref.b_in))
        assert hard.status == OPTIMAL
        assert np.count_nonzero(hard.active[20:]) >= 1  # error-box rows bind
        hard_plan = (ref.t_map @ hard.z + ref.t_off).reshape(5, 2)
        np.testing.assert_allclose(sol.inputs, hard_plan, rtol=0.0, atol=1e-7)

    def test_sqp_fixed_point(self):
        """Chained solves, each linearized at the plan before, contract to a fixed point:
        re-solving at it takes one QP and changes the inputs by less than 1e-6."""
        dims = BrunovskyDims(n=3, d=2, followers=1)
        spec = make_spec(dims=dims, coupling=1.0)
        x0 = np.array([0.0, 0.0, 1.2, 0.2, 0.0, 0.0])
        e0 = np.array([1.5, 0.5, 0.8, 0.0, 0.0, 0.0])
        grid = obstacle_grid(dims, (1.5, 0.2), 0.6, r_ball=0.02)
        args = (spec, e0, x0, np.zeros((5, 2)), np.zeros((5, 2)), np.zeros(2))

        warm, changes = np.zeros((5, 2)), []
        for _ in range(40):
            sol = solve_ocp(*args, warm, grid)
            changes.append(float(np.max(np.abs(sol.inputs - warm))))
            warm = sol.inputs
            if changes[-1] < 1e-7:
                break
        assert changes[-1] < 1e-7 and sol.converged
        assert all(later < earlier for earlier, later in zip(changes[1:], changes[2:]))
        again = solve_ocp(*args, sol.inputs, grid)
        assert again.sqp_passes == 1 and again.converged
        assert np.max(np.abs(again.inputs - sol.inputs)) < 1e-6


@pytest.fixture(scope="module")
def smoke_corpus():
    """Every solve of the 2 s smoke run, recorded with its row grid, and the seconds it took."""
    started = time.perf_counter()
    cfg = load_scenario(SMOKE)
    with recorded_solves() as solves:
        run_simulation(cfg, certify_scenario(cfg, spot_checks=False))
    return solves, time.perf_counter() - started


class TestSmokeCorpus:
    def test_replay_reproduces_every_solution_bit_for_bit(self, smoke_corpus):
        solves, _ = smoke_corpus
        assert len(solves) == 40  # 20 sampling steps, 2 followers
        for record in solves:
            got, want = record.replay(), record.solution
            assert got.inputs.tobytes() == want.inputs.tobytes()
            assert dataclasses.replace(got, inputs=None) == dataclasses.replace(want, inputs=None)

    def test_no_zero_slack_optimal_plan_breaks_its_own_rows(self, smoke_corpus):
        """Each returned plan's rows, evaluated at the plan's own trajectory.

        A plan reported ``Optimal`` with zero slack holds every row there, and
        ``converged`` says exactly that; smoke's solves all take one QP (a
        frozen-row pass loop once left 37 zero-slack plans breaking their own
        rows, by up to 1.8, every one logged ``Optimal``).
        """
        solves, recording_s = smoke_corpus
        started = time.perf_counter()
        passes = set()
        for record in solves:
            spec, x0, ff = record.args[0], record.args[2], record.args[4]
            sol = record.solution
            own = own_row_min(record.grid.rows(rollout(spec, x0, sol.inputs + ff), sol.inputs), sol.inputs)
            holds = sol.slack <= 1e-6 and own >= -1e-6
            assert sol.converged == holds
            if sol.status == OPTIMAL:
                assert holds, (record.args, own, sol.slack)
            passes.add(sol.sqp_passes)
        assert passes == {1}
        assert recording_s + time.perf_counter() - started < 1.0


class TestBindingErrorBoxRun:
    def test_every_plan_keeps_its_predicted_errors_in_the_tightened_box(self):
        """The smoke copy with ``ocp.error_box`` [6, 6, 4, 4, 1, 1] through the closed loop.

        Its trace differs from smoke's, so the error-box rows bind; every
        plan with finite slack keeps its predicted errors e_1..e_H inside the
        tightened box, since those rows stay hard in every pass.
        """
        doc = json.loads(SMOKE.read_text(encoding="utf-8"))
        doc["ocp"]["error_box"] = [6.0, 6.0, 4.0, 4.0, 1.0, 1.0]
        cfg = parse_scenario(json.dumps(doc))
        with recorded_solves() as solves:
            boxed = run_simulation(cfg, certify_scenario(cfg, spot_checks=False))
        assert len(solves) == 40 and not boxed.violations
        touching = 0
        for record in solves:
            spec, e0, s_seq, sol = record.args[0], record.args[1], record.args[3], record.solution
            if math.isfinite(sol.slack):
                errors = rollout(spec, e0, s_seq - spec.coupling * sol.inputs)[1:]
                excess = float(np.max(np.abs(errors) - spec.error_box))
                assert excess <= 1e-9, (record.args, excess)
                touching += excess > -1e-9
        assert touching > 0  # some plans ride the box

        plain_cfg = load_scenario(SMOKE)
        plain = run_simulation(plain_cfg, certify_scenario(plain_cfg, spot_checks=False))
        assert not np.array_equal(boxed.trace.data, plain.trace.data)


def random_rows(rng, count, steps=4):
    """``count`` random barrier rows of both groups on a horizon-5 chain with n = 3, d = 2, in random step order."""
    return BarrierRows(
        rng.integers(0, steps, size=count), rng.normal(size=(count, 2)), rng.normal(size=count),
        rng.integers(0, 2, size=count), rng.normal(size=(count, 6)),
    )


@pytest.fixture(scope="module")
def ablation_baseline_corpus():
    """Every solve of a 3 s ablation run with ``--baseline-margins``, recorded: some take a second QP."""
    cfg = load_scenario(ABLATION)
    with recorded_solves() as solves:
        run_simulation(cfg, certify_scenario(cfg, spot_checks=False), t_end=3.0, baseline_margins=True)
    return solves


class TestTeamBuild:
    @pytest.mark.parametrize("corpus", ["smoke_corpus", "ablation_baseline_corpus"])
    def test_run_qps_equal_one_agent_builds(self, corpus, request):
        """Every first QP a run's team build hands ``solve_ocp`` equals, bit for bit, the agent's QP
        built alone from its own rows at its warm start, and the one-agent assembly as first written;
        every second QP equals that assembly at the first plan's rows."""
        solves = request.getfixturevalue(corpus)
        solves = solves[0] if corpus == "smoke_corpus" else solves
        seconds = 0
        for record in solves:
            spec, e0, x0, s_seq, ff, v_prev, warm = record.args
            rows = record.grid.rows(rollout(spec, x0, warm + ff), warm)
            assert condensed_qp_differences(record.first, build(spec, e0, s_seq, v_prev, rows, warm)) == []
            assert condensed_qp_differences(record.first, reference_qp(spec, e0, s_seq, v_prev, rows, warm)) == []
            if len(record.qps) == 2:
                seconds += 1
                inputs = plan(spec, record.first.t_off, solve_qp(record.qps[0].qp, tol=record.qps[0].tol).z)
                inputs = inputs.reshape(warm.shape)
                own = record.grid.rows(rollout(spec, x0, inputs + ff), inputs)
                want = reference_qp(spec, e0, s_seq, v_prev, own, inputs)
                assert condensed_qp_differences(CondensedQp(record.qps[1].qp, want.t_off), want) == []
        assert seconds > 0 if corpus == "ablation_baseline_corpus" else seconds == 0

    def test_team_equals_the_formula_on_random_draws(self):
        """A team of three specs (couplings 1, 2, 3, one without a terminal set, all with an error
        box) on random (e0, s, v_prev, rows, linearization plan) draws: each agent's QP equals the
        one-agent assembly as first written, bit for bit, and its build alone; an agent handed no
        rows gets None, and the agent without a terminal set no cut."""
        box = TestCondensingCache.ERROR_BOX
        specs = [
            dataclasses.replace(make_spec(coupling=c, terminal_set=c != 2.0), error_box=box) for c in (1.0, 2.0, 3.0)
        ]
        team = QpTeam.stack(specs)
        rng = np.random.default_rng(44)
        cuts = set()
        for draw in range(200):
            e0, s_seq = rng.normal(size=(3, 6)) * 2.0, rng.normal(size=(3, 5, 2)) * 0.3
            v_prev, lin = rng.normal(size=(3, 2)), rng.normal(size=(3, 5, 2))
            blocks = [random_rows(rng, int(rng.integers(0, 8))) for _ in specs]
            if draw % 4 == 0:
                blocks[draw % 3] = None
            built = build_qp(team, e0, s_seq, v_prev, TeamRows.of(blocks, specs[0].dims), lin)
            for i, (spec, rows, got) in enumerate(zip(specs, blocks, built)):
                if rows is None:
                    assert got is None
                    continue
                want = reference_qp(spec, e0[i], s_seq[i], v_prev[i], rows, lin[i])
                assert condensed_qp_differences(got, want) == [], (draw, i)
                assert condensed_qp_differences(got, build(spec, e0[i], s_seq[i], v_prev[i], rows, lin[i])) == []
                n_rows = want.qp.b_in.size - n_slack(spec, want.qp)
                cuts.add((i, n_rows - 40 - 20 - rows.b.size))
        assert cuts == {(0, 1), (1, 0), (2, 1)}

    def test_team_without_rows_builds_nothing(self):
        specs = [make_spec(), make_spec(coupling=3.0)]
        none = TeamRows.of([None, None], specs[0].dims)
        z = np.zeros((2, 5, 2))
        assert build_qp(QpTeam.stack(specs), np.zeros((2, 6)), z, np.zeros((2, 2)), none, z) == [None, None]
