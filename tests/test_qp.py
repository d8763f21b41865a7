import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubeform.qp import INFEASIBLE, MAX_ITER, OPTIMAL, QpProblem, solve_qp

from oracles import dual_projected_gradient_qp, random_feasible_qp


def make_qp(h, g, a=None, b=None):
    n = len(g)
    return QpProblem(
        hessian=np.asarray(h, float),
        linear=np.asarray(g, float),
        a_in=np.asarray(a, float) if a is not None else np.zeros((0, n)),
        b_in=np.asarray(b, float) if b is not None else np.zeros(0),
    )


class TestBasics:
    def test_unconstrained(self):
        qp = make_qp(np.diag([2.0, 4.0]), [-2.0, -4.0])
        sol = solve_qp(qp)
        assert sol.status == OPTIMAL
        assert np.allclose(sol.z, [1.0, 1.0])

    def test_single_active_bound(self):
        # min |z|^2 s.t. z_1 >= 1 -> z = (1, 0), dual 2
        qp = make_qp(2.0 * np.eye(3), np.zeros(3), a=[[1.0, 0.0, 0.0]], b=[1.0])
        sol = solve_qp(qp)
        assert sol.status == OPTIMAL
        assert np.allclose(sol.z, [1.0, 0.0, 0.0], atol=1e-10)
        assert sol.duals[0] == pytest.approx(2.0, abs=1e-8)

    def test_inactive_constraint_ignored(self):
        qp = make_qp(np.eye(2), [1.0, 1.0], a=[[1.0, 0.0]], b=[-100.0])
        sol = solve_qp(qp)
        assert np.allclose(sol.z, [-1.0, -1.0], atol=1e-10)
        assert sol.duals[0] == 0.0

    def test_infeasible_certified(self):
        qp = make_qp(np.eye(1), [0.0], a=[[1.0], [-1.0]], b=[1.0, 0.0])
        assert solve_qp(qp).status == INFEASIBLE

    def test_objective_includes_constant(self):
        qp = make_qp(np.eye(1), [0.0])
        qp.constant = 7.0
        assert solve_qp(qp).objective == pytest.approx(7.0)


class TestKktCertificates:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 100_000), st.integers(1, 10), st.integers(0, 20))
    def test_random_instances(self, seed, n_vars, n_rows):
        rng = np.random.default_rng(seed)
        h, g, a, b = random_feasible_qp(rng, n_vars, n_rows)
        sol = solve_qp(QpProblem(hessian=h, linear=g, a_in=a, b_in=b))
        assert sol.status == OPTIMAL
        assert sol.stationarity < 1e-8
        assert sol.feasibility < 1e-8
        assert sol.complementarity < 1e-8
        if sol.duals.size:
            assert np.min(sol.duals) >= -1e-10

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            n_vars = int(rng.integers(2, 11))
            n_rows = int(rng.integers(1, 21))
            h, g, a, b = random_feasible_qp(rng, n_vars, n_rows)
            sol = solve_qp(QpProblem(hessian=h, linear=g, a_in=a, b_in=b))
            _, obj_oracle = dual_projected_gradient_qp(h, g, a, b, iters=100_000)
            assert sol.status == OPTIMAL
            assert sol.objective == pytest.approx(obj_oracle, abs=1e-6)

    def test_degenerate_duplicate_rows(self):
        qp = make_qp(
            np.eye(2), [0.0, 0.0],
            a=[[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]], b=[1.0, 1.0, 1.0],
        )
        sol = solve_qp(qp)
        assert sol.status == OPTIMAL
        assert sol.z[0] == pytest.approx(1.0, abs=1e-9)
