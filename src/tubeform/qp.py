"""Dense active-set solver for small strictly convex QPs.

Problems here have at most ~10 decision variables and ~60 inequality rows
(per-agent MPC subproblems), so a textbook dense dual active-set method
(Goldfarb-Idnani) is entirely adequate: it starts from the unconstrained
minimizer, adds one violated row at a time while keeping dual feasibility,
and certifies infeasibility exactly through a Farkas-type unbounded dual
step.

    minimize 0.5 z' H z + g' z + const
    s.t.     A_in z >= b_in
"""

from __future__ import annotations

import functools
import math
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
    active: np.ndarray  # (rows,) bool: the rows active at the returned point
    problem: QpProblem

    @functools.cached_property
    def objective(self) -> float:
        """``problem.objective(z)``, formed on first read: a caller may keep only one QP's."""
        return self.problem.objective(self.z)


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


def _dual_active_set(h_inv, g, a, b, tol):
    """Goldfarb-Idnani loop from the unconstrained minimizer.

    Returns (z, duals, status, iterations, active).
    The scalar decisions (termination, ratio test, multiplier updates) run on
    Python floats, the active rows' multipliers held as a list beside
    ``active``: both are IEEE doubles, so every value is the one numpy scalars
    give. The incoming row's products ``h_inv @ a_p`` and ``a_p @ a_p`` are
    formed once per row.
    """
    n_rows = a.shape[0]
    z = -h_inv @ g
    active: list[int] = []
    lams: list[float] = []  # the active rows' multipliers, in ``active`` order
    iterations = 0

    def result(status):
        duals = np.zeros(n_rows)
        duals[active] = lams
        return z, duals, status, iterations, active

    while iterations < MAX_ITERATIONS:
        iterations += 1
        if not n_rows:
            return result(OPTIMAL)
        slack = a @ z - b
        p = int(slack.argmin())
        if slack[p] >= -tol:  # a NaN slack continues, as a NaN minimum would
            return result(OPTIMAL)
        a_p, b_p = a[p], b[p]
        h_a_p = h_inv @ a_p
        denom_tol = tol * max(1.0, a_p @ a_p)
        # inner loop: take full/partial steps until row p becomes active
        lam_p = 0.0
        for _ in range(2 * n_rows + 2):
            if active:
                a_act = a[active]
                m_small = a_act @ h_inv @ a_act.T
                try:
                    r = np.linalg.solve(m_small, a_act @ h_a_p)
                except np.linalg.LinAlgError:
                    r = np.linalg.lstsq(m_small, a_act @ h_a_p, rcond=None)[0]
                step_dir = h_inv @ (a_p - a_act.T @ r)
                r = r.tolist()
            else:
                r = []
                step_dir = h_a_p
            denom = float(a_p @ step_dir)
            s_p = float(a_p @ z - b_p)
            t_full = math.inf if denom <= denom_tol else -s_p / denom
            t_partial = math.inf
            blocking = -1
            for idx, r_j in enumerate(r):
                if r_j > tol:
                    cand = lams[idx] / r_j
                    if cand < t_partial:
                        t_partial = cand
                        blocking = idx
            t = min(t_full, t_partial)
            if not math.isfinite(t):
                return result(INFEASIBLE)  # Farkas-type certificate
            z = z + t * step_dir
            lams = [lam - t * r_j for lam, r_j in zip(lams, r)]
            lam_p += t
            if t_full <= t_partial:
                if p in active:
                    lams[active.index(p)] = lam_p
                else:
                    active.append(p)
                    lams.append(lam_p)
                break
            active.pop(blocking)
            lams.pop(blocking)
        else:
            return result(MAX_ITER)
    return result(MAX_ITER)


def solve_qp(qp: QpProblem, tol: float = 1e-10) -> QpSolution:
    """Solve a strictly convex QP by the dual active-set method.

    The returned ``active`` mask holds the rows active at the returned point.

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
    z, duals, status, iterations, rows = _dual_active_set(h_inv, qp.linear, a, b, tol)
    mask = np.zeros(b.size, dtype=bool)
    mask[rows] = True
    return QpSolution(
        z=z, duals=duals, status=status, iterations=iterations, active=mask, problem=qp
    )
