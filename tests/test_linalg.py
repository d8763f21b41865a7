import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from tubeform.errors import NonFiniteState, NotHurwitz, NotSymmetric
from tubeform.linalg import eig_sym, rk4_step, solve_continuous_lyapunov

from oracles import charpoly_eigvals_sym


class TestEigSym:
    def test_identity(self):
        w, v = eig_sym(np.eye(3))
        assert np.allclose(w, [1.0, 1.0, 1.0])
        assert np.allclose(v @ v.T, np.eye(3), atol=1e-12)

    def test_diagonal_sorted(self):
        w, _ = eig_sym(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0])

    def test_rank_one_shift(self):
        w, _ = eig_sym(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(w, [1.0, 3.0])

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            eig_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_eigenpair_residuals(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.normal(size=(5, 5))
            m = m + m.T
            w, v = eig_sym(m)
            scale = np.linalg.norm(m, 2)
            for k in range(5):
                assert np.linalg.norm(m @ v[:, k] - w[k] * v[:, k]) <= 1e-9 * scale

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 3), st.integers(0, 10_000))
    def test_matches_charpoly_roots(self, n, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, n))
        m = m + m.T
        w, _ = eig_sym(m)
        assert np.allclose(w, charpoly_eigvals_sym(m), atol=1e-8)


class TestLyapunov:
    def test_scalar(self):
        p = solve_continuous_lyapunov(np.array([[-1.0]]), np.array([[2.0]]))
        assert np.allclose(p, [[1.0]])

    def test_diagonal_decoupling(self):
        p = solve_continuous_lyapunov(-np.eye(2), 2.0 * np.eye(2))
        assert np.allclose(p, np.eye(2))

    def test_residual_and_quadrature_oracle(self):
        a = np.array([[0.0, 1.0], [-2.0, -3.0]])
        q = np.eye(2)
        p = solve_continuous_lyapunov(a, q)
        residual = np.linalg.norm(a.T @ p + p @ a + q, "fro")
        assert residual < 1e-10
        # independent route: P = integral of expm(A't) Q expm(At) dt
        p_quad = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                p_quad[i, j] = quad(
                    lambda t, i=i, j=j: (expm(a.T * t) @ q @ expm(a * t))[i, j],
                    0.0,
                    60.0,
                    limit=400,
                )[0]
        assert np.allclose(p, p_quad, atol=1e-8)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4)) - 4.0 * np.eye(4)
        p = solve_continuous_lyapunov(a, np.eye(4))
        assert np.max(np.abs(p - p.T)) < 1e-12

    def test_rejects_unstable(self):
        with pytest.raises(NotHurwitz):
            solve_continuous_lyapunov(np.array([[1.0]]), np.array([[1.0]]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_stable_residual(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 3))
        a = a - (np.max(np.linalg.eigvals(a).real) + 0.5) * np.eye(3)
        q = np.eye(3)
        p = solve_continuous_lyapunov(a, q)
        assert np.linalg.norm(a.T @ p + p @ a + q, "fro") <= 1e-9 * np.linalg.norm(q, "fro")
        assert np.min(np.linalg.eigvalsh(p)) > 0.0


class TestRk4:
    def test_zero_field(self):
        x0 = np.array([1.0, -2.0])
        assert np.array_equal(rk4_step(lambda x, t: np.zeros(2), x0, 0.0, 0.1), x0)

    def test_constant_field_exact(self):
        c = np.array([2.0, -1.0])
        out = rk4_step(lambda x, t: c, np.zeros(2), 0.0, 0.1)
        assert np.allclose(out, 0.1 * c, rtol=0.0, atol=0.0)

    def test_exponential(self):
        out = rk4_step(lambda x, t: x, np.array([1.0]), 0.0, 0.1)
        assert abs(out[0] - np.exp(0.1)) <= 1e-7

    def test_order_four(self):
        # halving h reduces the one-step error by at least 2^4 * 0.9
        errors = []
        for h in (0.1, 0.05, 0.025):
            out = rk4_step(lambda x, t: x, np.array([1.0]), 0.0, h)
            errors.append(abs(out[0] - np.exp(h)))
        assert errors[0] / errors[1] >= 2**4 * 0.9
        assert errors[1] / errors[2] >= 2**4 * 0.9

    def test_nonfinite_detected(self):
        with pytest.raises(NonFiniteState):
            rk4_step(lambda x, t: np.full_like(x, np.inf), np.array([1.0]), 0.0, 0.1)

    def test_nonfinite_row_named_by_its_own_time(self):
        """With one time per state, the message gives the earliest time of a broken state."""
        times = np.array([0.5, 0.3, 0.0, 0.3])  # the rows at t = 0.3 divide by zero
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteState, match=r"at t=0\.4$"):
                rk4_step(lambda x, t: x / (t[:, None] - 0.3), np.ones((4, 1)), times, 0.1)
