"""Per-agent finite-horizon optimal control problem in condensed form.

The prediction model is the synchronization-error chain driven by the
agent's own nominal input (through its graph coupling) and the neighbors'
predicted inputs as an exogenous term. Because the continuous model is a
polynomial chain, the one-step RK4 map coincides with the exact matrix
exponential for n <= 4, so the discretization below uses the truncated
series, which is exact.

The QP is condensed onto the input sequence. The terminal control law is
always substituted for the last input, so the free inputs are steps
0..H-2; the terminal ellipsoid enters as one supporting hyperplane at the
linearization plan's terminal error. Each barrier row a(x_l) . v_l + b(x_l)
is linearized at a plan in both its input and the nominal state x_l it
reaches (Nocedal & Wright, Numerical Optimization, 2nd ed., 2006, section
18.1): the row block carries each row's state gradient, and x_l responds to
the free inputs through constant blocks of the horizon map. The barrier
rows and the terminal cut are relaxed by an l1 exact penalty (ibid.,
section 17.2), so every QP has a solution unless its hard rows, the input
box and the error box, have none. ``solve_ocp`` solves one QP at the
shifted previous plan and a second one only where the first plan's own
rows are broken, real-time iteration (Diehl, Bock & Schloeder, SIAM J.
Control Optim. 43(5), 2005).

The chain recurrence over the horizon is one linear map, built once per
spec (``OcpSpec.horizon_maps``): the trajectory's response to its initial
state and to the per-step drive. ``rollout`` applies it to any stack of
initial states and drives, so nominal states, synchronization errors and
every reader's neighbor predictions come from the same two arrays.

The condensed QP is parametric too (``OcpSpec.condensing``): with the free
inputs z and one parameter vector p = (e0, drive sequence, previous input),
the full inputs, the errors, the cost and the hard rows (the input box and
the error box, one block) are fixed affine maps of (z, p), built once per
spec from one weighted least-squares stack, together with the Hessian and
its inverse for each slack count. p is fixed within a solve, so
``solve_ocp`` evaluates the maps at it once (``qp_parameters``); each
``build_qp`` call adds only its barrier rows and terminal cut. The barrier
rows arrive as one ``barrier.BarrierRows`` block (step, a, b, group, state
gradient) over every step and barrier kind: at the warm start from the
caller (in a run, the team's one evaluation), at a second linearization
from the agent's ``barrier.RowGrid``. Their steps are free inputs, so they
are scattered straight into z by fancy indexing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .barrier import BarrierRows, RowGrid
from .errors import DegenerateGradient, DimensionMismatch, RiccatiDiverged
from .models import BrunovskyDims, chain_matrices
from .qp import INFEASIBLE, QpProblem, solve_qp

QP_TOL = 1e-8
ROW_TOL = 1e-6  # a slack or an own-row shortfall above this makes a plan relaxed
RICCATI_TOL = 1e-10  # Frobenius step that ends the discrete Riccati iteration
RICCATI_MAX_ITER = 10_000
# exact-penalty weight per row group: 0 is obstacle rows, 1 inter-agent rows,
# the last entry the terminal cut. Violating an obstacle row is far more
# expensive than an inter-agent row, which outranks the terminal cut.
SLACK_PENALTY = (1e6, 3e4, 1e4)


def discretize_error_dynamics(dims: BrunovskyDims, ts: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact discrete maps (Ad, Bd) of the chain over one sampling period.

    Ad = sum_k (A0 Ts)^k / k!, Bd = sum_k A0^k G Ts^{k+1} / (k+1)!, both
    finite sums because A0 is nilpotent. The per-step exogenous term enters
    through the same Bd.
    """
    a0, g = chain_matrices(dims)
    nd = dims.nd
    ad = np.eye(nd)
    bd = g * ts
    power = np.eye(nd)
    for k in range(1, dims.n):
        power = power @ a0 * ts
        ad = ad + power / math.factorial(k)
        bd = bd + (power @ g) * ts / math.factorial(k + 1)
    return ad, bd


def terminal_ingredients(
    ad: np.ndarray, bd: np.ndarray, qr: np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Terminal gain and cost: the discrete Riccati equation by fixed-point iteration from Qr."""
    p = qr.copy()
    for _ in range(RICCATI_MAX_ITER):
        btp = bd.T @ p
        gain_term = np.linalg.solve(r + btp @ bd, btp @ ad)
        p_next = qr + ad.T @ p @ ad - ad.T @ p @ bd @ gain_term
        p_next = 0.5 * (p_next + p_next.T)
        if np.linalg.norm(p_next - p, "fro") <= RICCATI_TOL:
            p = p_next
            break
        p = p_next
    else:
        raise RiccatiDiverged("discrete Riccati iteration did not converge")
    btp = bd.T @ p
    return np.linalg.solve(r + btp @ bd, btp @ ad), p


def terminal_level(khat: np.ndarray, p: np.ndarray, input_bound: float) -> float:
    """The terminal-set level c_f: the largest value keeping the terminal law inside the
    (tightened) input box over the whole level set, halved for slack against the barrier rows."""
    if np.max(np.abs(khat)) <= 1e-300 or not np.isfinite(input_bound):
        return math.inf
    p_inv = np.linalg.inv(p)
    worst = max(float(row @ p_inv @ row) for row in khat)
    return math.inf if worst <= 1e-300 else 0.5 * input_bound**2 / worst


@dataclass(frozen=True)
class OcpSpec:
    """Weights, horizon, and terminal ingredients for one agent's OCP.

    The spec is immutable: the condensing structure derived from it is
    built on first use and kept (``condensing``).
    """

    dims: BrunovskyDims
    horizon: int
    qr: np.ndarray  # (nd, nd)
    r: np.ndarray  # (d, d)
    rdelta: np.ndarray  # (d, d)
    pr: np.ndarray  # (nd, nd)
    input_bound: float  # tightened per-axis bound on the nominal input
    terminal_gain: np.ndarray  # (d, nd)
    terminal_level: float
    coupling: float  # nu1 * d_i + nu2 * b_i0
    ad: np.ndarray
    bd: np.ndarray
    error_box: np.ndarray | None = None  # (nd,) tightened symmetric bounds

    @classmethod
    def design(
        cls, dims: BrunovskyDims, horizon: int, ts: float, qr: float, r: float, rdelta: float,
        couplings: list[float], input_bounds: list[float], error_boxes: list[np.ndarray | None],
    ) -> list[OcpSpec]:
        """Each agent's spec: the exact chain discretization over ``ts``, the weights as
        multiples of the identity, and the Riccati terminal ingredients for the input
        matrix -coupling Bd and the agent's tightened input bound.

        The Riccati solve depends on an agent only through its coupling, so it
        runs once per distinct coupling; the bound enters only the level. The
        specs share their arrays, all read-only.
        """
        ad, bd = discretize_error_dynamics(dims, ts)
        qr_m, r_m, rdelta_m = qr * np.eye(dims.nd), r * np.eye(dims.d), rdelta * np.eye(dims.d)
        riccati = {c: terminal_ingredients(ad, -c * bd, qr_m, r_m) for c in set(couplings)}
        for arr in (ad, bd, qr_m, r_m, rdelta_m, *(a for pair in riccati.values() for a in pair)):
            arr.setflags(write=False)
        return [
            cls(
                dims=dims, horizon=horizon, qr=qr_m, r=r_m, rdelta=rdelta_m, pr=riccati[c][1],
                input_bound=bound, terminal_gain=riccati[c][0],
                terminal_level=terminal_level(*riccati[c], bound), coupling=c, ad=ad, bd=bd,
                error_box=box,
            )
            for c, bound, box in zip(couplings, input_bounds, error_boxes)
        ]

    @functools.cached_property
    def horizon_maps(self) -> tuple[np.ndarray, np.ndarray]:
        """((H+1) nd, nd) and ((H+1) nd, H d) maps from x0 and the drive to the trajectory.

        Block l of the first is Ad^l; block (l, m) of the second is
        Ad^(l-1-m) Bd for m < l and zero otherwise.
        """
        h, nd, d = self.horizon, self.dims.nd, self.dims.d
        powers = [np.eye(nd)]
        for _ in range(h):
            powers.append(self.ad @ powers[-1])
        bz = np.zeros(((h + 1) * nd, h * d))
        for step in range(1, h + 1):
            for m in range(step):
                bz[step * nd : (step + 1) * nd, m * d : (m + 1) * d] = powers[step - 1 - m] @ self.bd
        free_map = np.vstack(powers)
        for arr in (free_map, bz):
            arr.setflags(write=False)
        return free_map, bz

    @functools.cached_property
    def condensing(self) -> _Condensing:
        """The spec-only part of the condensed QP, built on first use."""
        return _Condensing.build(self)


@dataclass
class OcpSolution:
    inputs: np.ndarray  # (H, d)
    objective: float
    iterations: int
    sqp_passes: int
    status: str
    slack: float = 0.0  # exact-penalty violation; inf when the QP itself failed
    converged: bool = False  # the plan holds the rows at its own trajectory with zero slack


@dataclass(frozen=True)
class _Condensing:
    """The condensed QP as fixed affine maps of the free inputs z and the parameter p.

    p = (e0, s flattened, v_prev) stacks everything a QP moves with apart
    from its rows and its linearization inputs. The arrays depend only on the
    spec and are read-only: ``build_qp`` hands some of them out in the
    problems it returns. The input box and the error box are one block of hard rows.
    """

    t_map: np.ndarray  # (H d, n_free): the full inputs are t_map z + t_par p
    t_par: np.ndarray  # (H d, n_p)
    e_map: np.ndarray  # (H nd, n_free): the errors at steps 1..H are e_map z + e_par p
    e_par: np.ndarray  # (H nd, n_p)
    e_term: np.ndarray  # (nd, H d): the terminal error's response to the full inputs
    x_free: np.ndarray  # (H-1, nd, n_free): the nominal state at steps 0..H-2, its response to z
    # cost 0.5 z' hess_f z + (lin_par p)' z + p' const_par p; entry s of ``hessians`` is
    # hess_f with s unit-curvature slacks appended, which keeps it SPD, and of
    # ``hessian_invs`` its inverse, block-diagonal too: each is handed to the solver as is
    hessians: tuple[np.ndarray, ...]
    hessian_invs: tuple[np.ndarray, ...]
    lin_par: np.ndarray  # (n_free, n_p)
    const_par: np.ndarray  # (n_p, n_p)
    # hard rows hard_a z + hard_par p >= hard_const: the input box per step and axis (v >= -bound,
    # then -v >= -bound), then the error box per step 1..H and finite entry (e <= bound, then e >= -bound)
    hard_a: np.ndarray
    hard_par: np.ndarray
    hard_const: np.ndarray

    @classmethod
    def build(cls, spec: OcpSpec) -> _Condensing:
        h, nd, d = spec.horizon, spec.dims.nd, spec.dims.d
        n_z, n_free = h * d, (h - 1) * d
        n_p = nd + n_z + d
        free_map, bz = (arr[nd:] for arr in spec.horizon_maps)  # steps 1..H
        e_full = -spec.coupling * bz  # the errors' response to the full inputs
        e_drive = np.hstack([free_map, bz, np.zeros((h * nd, d))])  # ... and to p

        # terminal law v_{H-1} = -Khat e_H, from e_{H-1} and s_{H-1} (H >= 2 is checked at parse)
        khat = spec.terminal_gain
        lhs = np.eye(d) - spec.coupling * (khat @ spec.bd)
        law = -np.linalg.solve(lhs, khat @ np.hstack([spec.ad, spec.bd]))
        row = slice((h - 2) * nd, (h - 1) * nd)
        s_last = np.eye(n_p)[nd + n_free : nd + n_z]  # the last drive s_{H-1} in p
        t_map = np.vstack([np.eye(n_free), law[:, :nd] @ e_full[row, :n_free]])
        t_par = np.vstack([np.zeros((n_free, n_p)), law @ np.vstack([e_drive[row], s_last])])
        e_map, e_par = e_full @ t_map, e_drive + e_full @ t_par

        # cost: |e0|_Qr^2 + sum_{l=1}^{H-1} |e_l|_Qr^2 + |e_H|_Pr^2 + sum |v_l|_R^2 + |dv_l|_Rd^2
        # with dv_0 = v_0 - v_prev: a least-squares stack of residuals m_z z + m_p p, weight w each
        c_e = np.kron(np.eye(h), spec.qr)
        c_e[-nd:, -nd:] = spec.pr
        d_mat = np.eye(n_z) - np.eye(n_z, k=-d)  # input differences v_l - v_{l-1}
        d_par = d_mat @ t_par
        d_par[:, -d:] -= np.eye(n_z, d)
        stack = [
            (e_map, e_par, c_e),
            (t_map, t_par, np.kron(np.eye(h), spec.r)),
            (d_mat @ t_map, d_par, np.kron(np.eye(h), spec.rdelta)),
            (np.zeros((nd, n_free)), np.eye(nd, n_p), spec.qr),
        ]
        hess_f = 2.0 * sum(m_z.T @ w @ m_z for m_z, _, w in stack)
        hess_f = 0.5 * (hess_f + hess_f.T)

        def with_slacks(block: np.ndarray, n_sig: int) -> np.ndarray:
            out = np.eye(n_free + n_sig)
            out[:n_free, :n_free] = block
            return out

        slack_counts = range(len(SLACK_PENALTY) + 1)
        hess_f_inv = np.linalg.inv(hess_f)
        # the hard rows sign (map z + par p) >= -bound per finite bound, sign 1 then -1: the
        # input box on the full inputs, then the error box on the negated errors
        error_box = np.inf if spec.error_box is None else spec.error_box
        bound = np.r_[np.full(n_z, spec.input_bound), np.broadcast_to(error_box, (h, nd)).ravel()]
        keep, sign = np.isfinite(bound), [[1.0], [-1.0]]
        parts = dict(
            t_map=t_map,
            t_par=t_par,
            e_map=e_map,
            e_par=e_par,
            e_term=e_full[-nd:],
            x_free=spec.horizon_maps[1].reshape(h + 1, nd, n_z)[: h - 1, :, :n_free],
            hessians=tuple(with_slacks(hess_f, n_sig) for n_sig in slack_counts),
            hessian_invs=tuple(with_slacks(hess_f_inv, n_sig) for n_sig in slack_counts),
            lin_par=2.0 * sum(m_z.T @ w @ m_p for m_z, m_p, w in stack),
            const_par=sum(m_p.T @ w @ m_p for _, m_p, w in stack),
            hard_a=np.kron(np.vstack([t_map, -e_map])[keep], sign),
            hard_par=np.kron(np.vstack([t_par, -e_par])[keep], sign),
            hard_const=np.repeat(-bound[keep], 2),
        )
        for value in parts.values():
            for arr in value if isinstance(value, tuple) else (value,):
                arr.setflags(write=False)
        return cls(**parts)


class QpParameters(NamedTuple):
    """What every QP of one solve shares: the condensing's maps at that solve's p.

    p = (e0, s flattened, v_prev) is fixed for a solve, so these are formed
    once per solve (``qp_parameters``); ``build_qp`` adds each QP's rows.
    """

    t_off: np.ndarray  # (H d,): the full inputs are t_map z + t_off
    e_off: np.ndarray  # (H nd,): the errors at steps 1..H are e_map z + e_off
    hard_b: np.ndarray  # the hard rows' right-hand sides hard_const - hard_par p
    linear: np.ndarray  # (n_free,) the cost's linear term lin_par p
    constant: float  # the cost's constant p' const_par p


def qp_parameters(
    spec: OcpSpec, e0: np.ndarray, s_seq: np.ndarray, v_prev: np.ndarray
) -> QpParameters:
    """One solve's ``QpParameters`` (offsets, hard right-hand sides and cost terms, each one
    product with p), from its initial error, drive sequence and previous input."""
    h, nd, d = spec.horizon, spec.dims.nd, spec.dims.d
    if e0.shape != (nd,) or s_seq.shape != (h, d):
        raise DimensionMismatch("bad e0 or exogenous sequence shape")
    cond = spec.condensing
    p = np.concatenate([e0, s_seq.reshape(-1), v_prev])
    return QpParameters(
        t_off=cond.t_par @ p,
        e_off=cond.e_par @ p,
        hard_b=cond.hard_const - cond.hard_par @ p,
        linear=cond.lin_par @ p,
        constant=float(p @ cond.const_par @ p),
    )


def build_qp(
    spec: OcpSpec, params: QpParameters, barrier_rows: BarrierRows, lin_inputs: np.ndarray
) -> QpProblem:
    """One linearized exact-penalty QP on the free inputs and the slacks.

    ``params`` holds everything a solve's QPs share; the full input stack
    of a QP solution ``z`` is ``condensing.t_map @ z[:n_free] +
    params.t_off``, and ``z[n_free:]`` are the slacks.

    ``lin_inputs`` (H, d) is the linearization plan and ``barrier_rows``
    the row block at its nominal trajectory: row r is ``a[r] . v_step[r] +
    b[r] >= 0`` with state gradient ``grad[r]``. Each row is linearized in
    the input and in the state it reaches: with x_step's response to the
    free inputs (``condensing.x_free``, constant blocks of the horizon map)
    the row reads a . v_step + grad . x_free[step] (z - z_lin) + b >= 0, so
    it equals the exact row at the linearization plan. The terminal error
    that plan reaches anchors the supporting-hyperplane row of the terminal
    ellipsoid.

    The rows ``a . z >= b`` are the hard block (the input box, then the
    error box), the barrier rows, the terminal cut and the slacks' signs, in
    that order. Barrier and terminal-set rows get one nonnegative slack
    variable per ``SLACK_PENALTY`` group in use, penalized linearly: a
    feasible problem still returns zero slack, an infeasible one returns the
    minimally violating plan. The hard block gets none.
    """
    h, nd, d = spec.horizon, spec.dims.nd, spec.dims.d
    cond = spec.condensing
    n_free = cond.t_map.shape[1]
    cut = None  # the terminal cut's (a, b) on the free inputs
    if math.isfinite(spec.terminal_level):
        blk = slice((h - 1) * nd, h * nd)
        e_ref = params.e_off[blk] + cond.e_term @ (lin_inputs.reshape(-1) - params.t_off)
        level = float(e_ref @ spec.pr @ e_ref)
        if level > 1e-12:
            y = e_ref * math.sqrt(spec.terminal_level / level)
            py = spec.pr @ y
            cut = -cond.e_map[blk].T @ py, float(py @ params.e_off[blk]) - spec.terminal_level

    groups = set(barrier_rows.group.tolist())
    if cut is not None:
        groups.add(len(SLACK_PENALTY) - 1)
    used = sorted(groups)  # one slack per penalty group in use, ascending: the cut's is last
    n_sig = len(used)

    m, n_hard = barrier_rows.b.size, cond.hard_a.shape[0]
    n_rows = n_hard + m + (cut is not None)
    a = np.zeros((n_rows + n_sig, n_free + n_sig))
    b = np.zeros(n_rows + n_sig)
    a[:n_hard, :n_free], b[:n_hard] = cond.hard_a, params.hard_b
    rows = n_hard + np.arange(m)
    through_state = np.matmul(barrier_rows.grad[:, None], cond.x_free[barrier_rows.step])[:, 0]
    a[n_hard : n_hard + m, :n_free] = through_state
    a[rows[:, None], barrier_rows.step[:, None] * d + np.arange(d)] += barrier_rows.a
    a[rows, n_free + np.array(used).searchsorted(barrier_rows.group)] = 1.0
    b[rows] = through_state @ lin_inputs.reshape(-1)[:n_free] - barrier_rows.b
    if cut is not None:
        a[n_rows - 1, :n_free], b[n_rows - 1] = cut
        a[n_rows - 1, -1] = 1.0
    a[n_rows:, n_free:] = np.eye(n_sig)  # slack nonnegativity
    return QpProblem(
        hessian=cond.hessians[n_sig],
        linear=np.concatenate([params.linear, [SLACK_PENALTY[g] for g in used]]),
        a_in=a,
        b_in=b,
        constant=params.constant,
        hessian_inv=cond.hessian_invs[n_sig],
    )


def rollout(spec: OcpSpec, x0: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """(..., H+1, nd) chain trajectories from (..., nd) ``x0`` under (..., H, d) per-step drives.

    The leading axes broadcast. Nominal states take ``inputs + ff_seq`` as
    the drive; synchronization errors take ``s_seq - coupling * inputs``.
    """
    free_map, bz = spec.horizon_maps
    flat = x0 @ free_map.T + drive.reshape(*drive.shape[:-2], -1) @ bz.T
    return flat.reshape(*flat.shape[:-1], spec.horizon + 1, spec.dims.nd)


def solve_ocp(
    spec: OcpSpec,
    e0: np.ndarray,
    x0_nominal: np.ndarray,
    s_seq: np.ndarray,
    ff_seq: np.ndarray,
    v_prev: np.ndarray,
    warm_inputs: np.ndarray,
    grid: RowGrid,
    rows: BarrierRows | None = None,
) -> OcpSolution:
    """At most two linearized QPs, each checked at the plan it returns (real-time iteration).

    The first QP is linearized at the warm start, the shifted previous plan:
    ``rows`` are the barrier rows with their state gradients at its nominal
    states (in a run, the agent's block of the team's ``RowGrid.team_rows``);
    without them, the agent's ``grid`` evaluates them at the warm start's
    rollout. ``build_qp`` linearizes them in the input and the state. A guard
    (``grid.guard``, the rows' values without their gradients) then
    evaluates the rows at the returned plan's own trajectory. The plan is
    kept when its QP needed no slack and it breaks no row by more than
    ``ROW_TOL``; otherwise one more QP is linearized at that plan, from
    ``grid.rows`` there. A second plan that still needs slack or breaks a
    row is returned ``Infeasible`` (relaxed) with its QP's finite slack. A
    guard that raises ``DegenerateGradient`` counts as a broken row; it
    leaves nothing to linearize at, so that plan is returned relaxed.
    ``converged`` is True exactly when the returned plan holds its own rows
    with zero slack, and ``sqp_passes`` counts the QPs, 1 or 2.

    The terminal law is always substituted for the last input. Barrier rows
    are enforced on the freely optimized inputs (steps 0..H-2); the last
    input is tied to the terminal law, whose barrier compatibility is an
    offline design property, so re-imposing the row there would only create
    artificial conflicts with far-from-terminal errors.

    Each QP is the exact-penalty QP, so it has a solution unless the hard
    rows (the input box and the error box) have none: then the solve has no
    plan, its slack is infinite and its status Infeasible, and the caller
    falls back.
    """
    h, d = spec.horizon, spec.dims.d
    t_map = spec.condensing.t_map
    n_free = t_map.shape[1]
    params = qp_parameters(spec, e0, s_seq, v_prev)
    inputs = warm_inputs.copy()
    if rows is None:
        rows = grid.rows(rollout(spec, x0_nominal, inputs + ff_seq), inputs)
    iterations = 0
    holds = False
    for passes in (1, 2):
        sol = solve_qp(build_qp(spec, params, rows, inputs), tol=QP_TOL)
        iterations += sol.iterations
        if sol.status == INFEASIBLE:  # the hard rows leave no plan: keep the linearization plan
            return OcpSolution(inputs, math.inf, iterations, passes, INFEASIBLE, math.inf)
        slack = float(sol.z[n_free:].max(initial=0.0))
        inputs = (t_map @ sol.z[:n_free] + params.t_off).reshape(h, d)
        states = rollout(spec, x0_nominal, inputs + ff_seq)
        try:
            own = grid.guard(states, inputs)  # the least row at the plan's own states
        except DegenerateGradient:
            break
        holds = slack <= ROW_TOL and own >= -ROW_TOL
        if holds or passes == 2:
            break
        rows = grid.rows(states, inputs)
    return OcpSolution(
        inputs=inputs,
        objective=sol.objective,
        iterations=iterations,
        sqp_passes=passes,
        status=sol.status if holds else INFEASIBLE,
        slack=slack,
        converged=holds,
    )
