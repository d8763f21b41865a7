"""Small dense linear-algebra kernel: Hurwitz test, P^{-1/2}, Lyapunov solve, RK4.

Everything here operates on matrices of size <= ~12, so simple dense
algorithms (numpy's symmetric eigensolver, Kronecker vectorization) suffice.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteState, NotHurwitz, SingularSystem


def is_hurwitz(a: np.ndarray) -> bool:
    """True iff every eigenvalue of ``a`` has negative real part."""
    return bool(np.max(np.linalg.eigvals(a).real) < 0.0)


def sym_inv_sqrt(m: np.ndarray) -> np.ndarray:
    """P^{-1/2} for symmetric positive definite ``m`` via ``np.linalg.eigh``."""
    w, v = np.linalg.eigh(m)
    if w[0] <= 0.0:
        raise SingularSystem("matrix is not positive definite")
    return (v / np.sqrt(w)) @ v.T


def solve_continuous_lyapunov(acl: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve Acl^T P + P Acl = -Q for symmetric positive definite P.

    Uses Kronecker vectorization: (I (x) Acl^T + Acl^T (x) I) vec(P) = -vec(Q).
    The matrices here are at most ~10x10, so the dense (n^2 x n^2) solve is
    cheap. Raises NotHurwitz when Acl has an eigenvalue with Re >= 0 and
    SingularSystem when the Kronecker system cannot be solved.
    """
    acl = np.asarray(acl, dtype=float)
    q = np.asarray(q, dtype=float)
    n = acl.shape[0]
    if acl.shape != (n, n) or q.shape != (n, n):
        raise SingularSystem("Acl and Q must be square and equally sized")
    if not is_hurwitz(acl):
        raise NotHurwitz("Acl has an eigenvalue with nonnegative real part")

    eye = np.eye(n)
    k = np.kron(eye, acl.T) + np.kron(acl.T, eye)
    try:
        vec_p = np.linalg.solve(k, -q.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("Kronecker Lyapunov system is singular") from exc
    if not np.all(np.isfinite(vec_p)):
        raise SingularSystem("Kronecker Lyapunov solve produced non-finite values")
    p = vec_p.reshape(n, n)
    return 0.5 * (p + p.T)


def rk4_step(f, x: np.ndarray, t: float | np.ndarray, h: float) -> np.ndarray:
    """One classical Runge-Kutta 4 step of dx/dt = f(x, t); t is one time or one per state."""
    x = np.asarray(x, dtype=float)
    k1 = f(x, t)
    k2 = f(x + 0.5 * h * k1, t + 0.5 * h)
    k3 = f(x + 0.5 * h * k2, t + 0.5 * h)
    k4 = f(x + h * k3, t + h)
    out = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        bad = ~np.isfinite(out).reshape(*np.shape(t), -1).all(axis=-1)
        when = np.min(np.where(bad, t + h, np.inf))  # the earliest state that broke
        raise NonFiniteState(f"non-finite state after RK4 step at t={when:.6g}")
    return out
