"""Dense active-set solver for small strictly convex QPs.

Problems here have at most ~10 decision variables and ~60 inequality rows
(per-agent MPC subproblems), so a textbook dense dual active-set method
(Goldfarb-Idnani) is entirely adequate: it starts from the unconstrained
minimizer, adds one violated row at a time while keeping dual feasibility,
and certifies infeasibility exactly through a Farkas-type unbounded dual
step. Any dual-feasible start is valid, so it may also start from a guessed
active set, such as the one a neighbouring problem ended with.

    minimize 0.5 z' H z + g' z + const
    s.t.     A_in z >= b_in
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

OPTIMAL = "Optimal"
MAX_ITER = "MaxIter"
INFEASIBLE = "Infeasible"
MAX_ITERATIONS = 400  # active-set changes before a solve stops with MAX_ITER


@dataclass
class QpProblem:
    hessian: np.ndarray
    linear: np.ndarray
    a_in: np.ndarray
    b_in: np.ndarray
    constant: float = 0.0
    hessian_inv: np.ndarray | None = None  # the inverse of ``hessian`` when the caller has it

    def __post_init__(self):
        m = self.linear.shape[0]
        if self.hessian.shape != (m, m):
            raise DimensionMismatch("Hessian shape does not match linear term")
        if self.a_in.size and self.a_in.shape[1] != m:
            raise DimensionMismatch("inequality rows do not match variable count")

    def objective(self, z: np.ndarray) -> float:
        return float(0.5 * z @ self.hessian @ z + self.linear @ z + self.constant)


@dataclass
class QpSolution:
    z: np.ndarray
    duals: np.ndarray
    status: str
    iterations: int
    objective: float
    active: np.ndarray  # (rows,) bool: the rows active at the returned point


def kkt_residuals(qp: QpProblem, z: np.ndarray, duals: np.ndarray) -> tuple[float, float, float]:
    """The KKT residuals: max |H z + g - A' duals|, worst row violation, max |duals * slack|."""
    stat = qp.hessian @ z + qp.linear
    if qp.a_in.size:
        stat = stat - qp.a_in.T @ duals
        slack = qp.a_in @ z - qp.b_in
        feas = max(0.0, float(-np.min(slack)))
        comp = float(np.max(np.abs(duals * slack)))
    else:
        feas, comp = 0.0, 0.0
    return float(np.max(np.abs(stat))), feas, comp


def _equality_start(h_inv, z, a, b, guess, tol):
    """(z, duals, active, solves) from the ``guess`` rows held as equalities, or None.

    Drops the row of the most negative multiplier until none is negative.
    Rows the loop would treat as dependent (a pivot below ``tol`` |a|^2) or
    non-finite multipliers reject the guess.
    """
    rows = np.flatnonzero(guess)
    a_g = a[rows]
    step = h_inv @ a_g.T
    gram = a_g @ step
    try:
        pivots = np.diagonal(np.linalg.cholesky(gram)) ** 2
    except np.linalg.LinAlgError:
        return None
    if np.any(pivots <= tol * np.maximum(1.0, np.sum(a_g**2, axis=1))):
        return None
    rhs = b[rows] - a_g @ z
    duals = np.zeros(a.shape[0])
    keep = np.arange(rows.size)
    solves = 0
    while keep.size:
        solves += 1
        lam = np.linalg.solve(gram[np.ix_(keep, keep)], rhs[keep])
        if not np.all(np.isfinite(lam)):
            return None
        if np.min(lam) >= 0.0:
            duals[rows[keep]] = lam
            return z + step[:, keep] @ lam, duals, rows[keep].tolist(), solves
        keep = np.delete(keep, np.argmin(lam))
    return z, duals, [], solves


def _dual_active_set(h_inv, g, a, b, tol, guess=None):
    """Goldfarb-Idnani loop from the ``guess`` row mask or cold.

    Returns (z, duals, status, iterations, active); start-up solves count as iterations.
    """
    n_rows = a.shape[0]
    z = -h_inv @ g
    duals = np.zeros(n_rows)
    active: list[int] = []
    iterations = 0
    if guess is not None and np.any(guess):
        start = _equality_start(h_inv, z, a, b, guess, tol)
        if start is not None:
            z, duals, active, iterations = start
    while iterations < MAX_ITERATIONS:
        iterations += 1
        slack = a @ z - b if n_rows else np.zeros(0)
        if not n_rows or np.min(slack) >= -tol:
            return z, duals, OPTIMAL, iterations, active
        p = int(np.argmin(slack))
        # inner loop: take full/partial steps until row p becomes active
        lam_p = 0.0
        for _ in range(2 * n_rows + 2):
            a_p = a[p]
            if active:
                a_act = a[active]
                m_small = a_act @ h_inv @ a_act.T
                try:
                    r = np.linalg.solve(m_small, a_act @ (h_inv @ a_p))
                except np.linalg.LinAlgError:
                    r = np.linalg.lstsq(m_small, a_act @ (h_inv @ a_p), rcond=None)[0]
                step_dir = h_inv @ (a_p - a_act.T @ r)
            else:
                r = np.zeros(0)
                step_dir = h_inv @ a_p
            denom = float(a_p @ step_dir)
            s_p = float(a_p @ z - b[p])
            t_full = np.inf if denom <= tol * max(1.0, a_p @ a_p) else -s_p / denom
            t_partial = np.inf
            blocking = -1
            for idx, j in enumerate(active):
                if r[idx] > tol:
                    cand = duals[j] / r[idx]
                    if cand < t_partial:
                        t_partial = cand
                        blocking = idx
            t = min(t_full, t_partial)
            if not np.isfinite(t):
                return z, duals, INFEASIBLE, iterations, active  # Farkas-type certificate
            z = z + t * step_dir
            for idx, j in enumerate(active):
                duals[j] -= t * r[idx]
            lam_p += t
            if t_full <= t_partial:
                duals[p] = lam_p
                if p not in active:
                    active.append(p)
                break
            drop = active.pop(blocking)
            duals[drop] = 0.0
        else:
            return z, duals, MAX_ITER, iterations, active
    return z, duals, MAX_ITER, iterations, active


def solve_qp(
    qp: QpProblem, tol: float = 1e-10, active: np.ndarray | None = None
) -> QpSolution:
    """Solve a strictly convex QP by the dual active-set method.

    ``active`` is an optional (rows,) bool mask, a guess of the active set
    (typically a neighbouring problem's ``QpSolution.active``); a guess that
    gives no dual-feasible start falls back to the cold start. The returned
    ``active`` mask holds the rows active at the returned point.

    On OPTIMAL every row holds to within ``tol`` (the termination test),
    every multiplier is nonnegative and zero off the active set, and z
    minimizes the objective with the active rows held as equalities, up to
    roundoff. That roundoff scales with the multipliers: with well-scaled
    rows all three ``kkt_residuals`` stay below 1e-8, but where an exact-penalty
    slack weight of 1e6 binds, the multipliers reach that weight and the
    complementarity residual (a multiplier times the roundoff in its active
    row's slack) reaches a few 1e-4.
    INFEASIBLE is certified by an unbounded dual step (no primal point can
    satisfy the incoming row given the active set).
    """
    a = qp.a_in if qp.a_in.size else np.zeros((0, qp.linear.shape[0]))
    b = qp.b_in if qp.a_in.size else np.zeros(0)
    h_inv = np.linalg.inv(qp.hessian) if qp.hessian_inv is None else qp.hessian_inv
    z, duals, status, iterations, rows = _dual_active_set(
        h_inv, qp.linear, a, b, tol, active
    )
    mask = np.zeros(b.size, dtype=bool)
    mask[rows] = True
    return QpSolution(
        z=z, duals=duals, status=status, iterations=iterations, objective=qp.objective(z),
        active=mask,
    )
