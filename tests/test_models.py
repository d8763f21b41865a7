import dataclasses
import math

import numpy as np
import pytest

from tubeform.errors import DimensionMismatch, ScenarioError
from tubeform.models import (
    AgentModel,
    Box,
    BrunovskyDims,
    DisturbanceConfig,
    DisturbanceStack,
    DriftTable,
    DriftTerm,
    Obstacle,
    chain_matrices,
)

from oracles import agent_disturbance, fine_step_index

DIMS = BrunovskyDims(n=3, d=2, followers=5)


def cubic_damped_drift(gain=1.0):
    """-gain * (x3 + 0.49 x1 + 1.12 x2 + 0.12 x1^3 - 0.25 tanh(0.6 x1)) per axis."""
    axes = []
    for ax in range(2):
        axes.append(
            (
                DriftTerm(form="state", coeff=1.0, order=3, axis=ax),
                DriftTerm(form="state", coeff=0.49, order=1, axis=ax),
                DriftTerm(form="state", coeff=1.12, order=2, axis=ax),
                DriftTerm(form="cubic", coeff=0.12, order=1, weights=(1.0, 0.0) if ax == 0 else (0.0, 1.0)),
                DriftTerm(form="tanh", coeff=-0.25, scale=0.6, order=1, axis=ax),
            )
        )
    return DriftTable.compile(DIMS, gain, tuple(axes))


def one_term(term):
    """A drift whose axis 0 is the single term (outer gain -1) and axis 1 is zero."""
    return DriftTable.compile(DIMS, -1.0, ((term,), ()))


def all_forms_drift():
    """Every term form, with cubic weights on order 2 and sq_axis != axis."""
    axes = (
        (
            DriftTerm(form="state", coeff=0.7, order=2, axis=1),
            DriftTerm(form="cubic", coeff=0.12, order=2, weights=(0.6, -0.8)),
            DriftTerm(form="tanh", coeff=-0.25, scale=0.6, order=3, axis=0),
        ),
        (
            DriftTerm(form="sin_t", coeff=-0.4, freq=0.8, phase=0.5),
            DriftTerm(form="sq_tanh", coeff=-0.15, order=1, sq_axis=1, axis=0, scale=1.3),
            DriftTerm(form="cubic", coeff=0.3, order=1, weights=(1.0, 1.0)),
        ),
    )
    return DriftTable.compile(DIMS, 1.7, axes)


class TestChainMatrices:
    def test_shapes_and_structure(self):
        a0, g = chain_matrices(DIMS)
        assert a0.shape == (6, 6) and g.shape == (6, 2)
        assert np.allclose(a0[0:2, 2:4], np.eye(2))
        assert np.allclose(a0[2:4, 4:6], np.eye(2))
        assert np.allclose(a0[4:6, :], 0.0)
        assert np.allclose(g[4:6], np.eye(2))
        assert np.linalg.norm(g, 2) == pytest.approx(1.0)

    def test_upshift_action(self):
        a0, g = chain_matrices(DIMS)
        x = np.arange(6.0)
        assert np.allclose(a0 @ x, np.concatenate([x[2:], np.zeros(2)]))


class TestDrift:
    def test_hand_value(self):
        drift = cubic_damped_drift()
        x = np.array([1.0, -2.0, 0.5, 0.0, 0.25, 1.0])
        expected0 = -(0.25 + 0.49 * 1.0 + 1.12 * 0.5 + 0.12 * 1.0 - 0.25 * math.tanh(0.6))
        expected1 = -(1.0 + 0.49 * -2.0 + 1.12 * 0.0 + 0.12 * -8.0 - 0.25 * math.tanh(-1.2))
        assert np.allclose(drift.value(x, 0.0), [expected0, expected1])

    def test_sinusoid_term_time_only(self):
        drift = one_term(DriftTerm(form="sin_t", coeff=-0.4, freq=0.8, phase=0.5))
        assert drift.value(np.zeros(6), 2.0)[0] == pytest.approx(-0.4 * math.sin(2.1))
        assert np.allclose(drift.jacobian(np.ones(6)), 0.0)

    def test_cross_coupling_term(self):
        term = DriftTerm(form="sq_tanh", coeff=-0.15, order=1, sq_axis=1, axis=0, scale=1.0)
        drift = one_term(term)
        x = np.array([0.5, 2.0, 0, 0, 0, 0.0])
        assert drift.value(x, 0.0)[0] == pytest.approx(-0.15 * 4.0 * math.tanh(0.5))

    @pytest.mark.parametrize(
        "term, expected",
        [
            (DriftTerm(form="state", coeff=0.7, order=2, axis=1), 0.7 * -1.5),
            (DriftTerm(form="cubic", coeff=0.12, order=2, weights=(0.6, -0.8)), 0.12 * 1.65**3),
            (DriftTerm(form="tanh", coeff=-0.25, scale=0.6, order=3, axis=0), -0.25 * math.tanh(1.2)),
        ],
        ids=["state", "cubic", "tanh"],
    )
    def test_single_term_hand_value(self, term, expected):
        x = np.array([9.0, 9.0, 0.75, -1.5, 2.0, 9.0])
        assert one_term(term).value(x, 0.3)[0] == pytest.approx(expected, rel=1e-14)

    def test_stack_matches_row_by_row(self):
        """One call on an (M, nd) or (K, M, nd) stack equals M single-state calls."""
        drift = all_forms_drift()
        xs = np.random.default_rng(4).normal(size=(2, 7, 6))
        stacked = drift.value(xs, 1.3)
        assert stacked.shape == (2, 7, 2)
        rows = np.array([[drift.value(x, 1.3) for x in block] for block in xs])
        np.testing.assert_allclose(stacked, rows, rtol=1e-14, atol=1e-15)

    def test_jacobian_matches_finite_differences(self):
        """The stacked Jacobian of every form against central differences."""
        drift = all_forms_drift()
        xs = np.random.default_rng(2).normal(size=(2, 7, 6))
        jac = drift.jacobian(xs)
        assert jac.shape == (2, 7, 2, 6)
        step = 1e-6
        for col in range(6):
            bump = np.zeros(6)
            bump[col] = step
            fd = (drift.value(xs + bump, 0.9) - drift.value(xs - bump, 0.9)) / (2 * step)
            np.testing.assert_allclose(jac[..., col], fd, rtol=0, atol=1e-7)

    def test_malformed_term_rejected(self):
        with pytest.raises(DimensionMismatch):
            one_term(DriftTerm(form="state", coeff=1.0, order=1, axis=2))
        with pytest.raises(DimensionMismatch):
            one_term(DriftTerm(form="tanh", coeff=1.0, order=4, axis=0))
        with pytest.raises(DimensionMismatch):
            one_term(DriftTerm(form="cubic", coeff=1.0, weights=(1.0,)))


class TestAgentModel:
    def make(self, bound=0.25, lipschitz=4.0):
        return AgentModel(
            id=1,
            drift=cubic_damped_drift(),
            drift_lipschitz=lipschitz,
            disturbance=DisturbanceConfig(
                "sinusoid", amp=(0.2, 0.15), freq=(0.9, 1.1), phase=(0.0, math.pi / 7)
            ),
            disturbance_bound=bound,
            operating_box=Box(lower=(-1.0,) * 6, upper=(1.0,) * 6),
        )

    def test_disturbance_bound_holds(self):
        self.make().check_disturbance_bound(30.0)

    def test_disturbance_bound_violated(self):
        with pytest.raises(ScenarioError):
            self.make(bound=0.1).check_disturbance_bound(30.0)

    def test_ball_disturbance_bound_is_exact(self):
        """A bound just below the ball radius fails, though no draw of any seed reaches it."""
        ball = DisturbanceConfig("ball", bound=0.2)
        model = dataclasses.replace(self.make(bound=0.2), disturbance=ball)
        model.check_disturbance_bound(30.0)
        tight = dataclasses.replace(model, disturbance_bound=0.2 * (1.0 - 1e-6))
        for seed in range(5):
            draws = [agent_disturbance(ball, 2, 1, seed, 0.01, 0.01 * j) for j in range(3000)]
            assert np.max(np.linalg.norm(draws, axis=1)) < tight.disturbance_bound
        with pytest.raises(ScenarioError, match="agent 1"):
            tight.check_disturbance_bound(30.0)

    def test_lipschitz_spot_check(self):
        rng = np.random.default_rng(0)
        self.make().check_lipschitz(rng)
        with pytest.raises(ScenarioError):
            self.make(lipschitz=0.2).check_lipschitz(np.random.default_rng(0))


def disturbance_configs(kind: str) -> list[DisturbanceConfig]:
    """Three configs of one kind, or alternating kinds, for the d = 2 stack tests."""
    sines = [
        DisturbanceConfig("sinusoid", amp=(0.2, 0.15), freq=(0.9, 1.1), phase=(0.0, math.pi / 7)),
        DisturbanceConfig("sinusoid", amp=(0.05, 0.0), freq=(3.7, 0.0), phase=(1.3, 0.0)),
        DisturbanceConfig("sinusoid", amp=(0.01, 0.3), freq=(0.2, 12.5), phase=(-0.4, 2.9)),
    ]
    balls = [DisturbanceConfig("ball", bound=0.1 * (a + 1)) for a in range(3)]
    return {"sine": sines, "ball": balls, "mixed": [balls[0], sines[0], balls[1], sines[1]]}[kind]


def reference(configs: list[DisturbanceConfig], seed: int, t: float) -> np.ndarray:
    """Row r is agent r's disturbance from its own formula, with fine steps of 0.01."""
    return np.stack([agent_disturbance(c, 2, r, seed, 0.01, t) for r, c in enumerate(configs)])


def stage_times(fine_steps: int, h: float = 0.01) -> list[float]:
    """The RK4 stage times of ``fine_steps`` substeps from t = 0.98, accumulated as in the world."""
    times, t = [], 0.98
    for _ in range(fine_steps):
        times += [t, t + 0.5 * h, t + h]
        t += h
    return times


class TestDisturbanceStack:
    @pytest.mark.parametrize("kind", ["sine", "ball", "mixed"])
    def test_stack_equals_per_model_calls(self, kind):
        """Bit-equal to each agent's own formula at the stage times: in order, shuffled, reversed."""
        configs = disturbance_configs(kind)
        times = stage_times(6)  # crosses the fine-step boundaries at 0.99, 1.0, ...
        shuffled = list(np.random.default_rng(0).permutation(times))
        stack = DisturbanceStack(configs, 2, seed=4, step_duration=0.01)
        for t in times + shuffled + times[::-1]:
            assert np.array_equal(stack(t), reference(configs, 4, t)), t

    def test_stage_at_step_end_reads_next_draw(self):
        """Fine step j's first stages read draw j; its last stage, at its end, reads draw j + 1."""
        ball = disturbance_configs("ball")[0]
        stack = DisturbanceStack([ball], 2, seed=4, step_duration=0.01)
        t = 0.98
        for j in range(98, 104):
            assert fine_step_index(t, 0.01) == fine_step_index(t + 0.005, 0.01) == j
            assert fine_step_index(t + 0.01, 0.01) == j + 1
            assert not np.array_equal(stack(t + 0.005), stack(t + 0.01))
            t += 0.01

    def test_rounded_step_times_read_their_own_draw(self):
        """t = k h in floating point can fall just below k h (0.29 / 0.01 < 29); it still reads draw k."""
        configs = disturbance_configs("ball")
        stack = DisturbanceStack(configs, 2, seed=4, step_duration=0.01)
        times = [k * 0.01 for k in range(101)]
        assert any(t / 0.01 < k for k, t in enumerate(times))
        for k, t in enumerate(times):
            assert fine_step_index(t, 0.01) == k
            assert np.array_equal(stack(t), reference(configs, 4, t)), t

    def test_ball_rows_draw_with_the_run_seed(self):
        """The ball rows draw with the stack's seed; the sinusoid rows do not depend on it."""
        configs = disturbance_configs("mixed")
        stack = DisturbanceStack(configs, 2, seed=9, step_duration=0.01)
        for t in stage_times(3):
            w, seeded, other = stack(t), reference(configs, 9, t), reference(configs, 4, t)
            for row, config in enumerate(configs):
                assert np.array_equal(w[row], seeded[row])
                if config.kind == "ball":
                    assert not np.array_equal(w[row], other[row])
                else:
                    assert np.array_equal(w[row], other[row])


class TestFormationAndObstacle:
    def test_effective_radius(self):
        assert Obstacle(center=(1.0, 1.0), radius=0.5, inflation=0.15).effective_radius == 0.65
