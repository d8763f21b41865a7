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
its inverse for each slack count. ``build_qp`` builds a team's QPs in one
call from a ``QpTeam``, the specs' maps stacked on a leading agent axis:
the parameters are one product per map with the (N, n_p) stack of p, and
the terminal cuts, the barrier rows through the states they reach, their
right-hand sides and the slack columns are formed for every agent at once;
each agent's QP holds views of one zero-padded team array. The barrier
rows arrive as one ``barrier.TeamRows`` block (step, a, b, group, state
gradient, and each row's agent) over every step and barrier kind. In a
run, each step's one ``build_qp`` call at every agent's warm start, from
the team's one row evaluation, hands each ``solve_ocp`` call its first QP;
a second QP is ``build_qp`` on the agent's one-member team
(``OcpSpec.team``) and its ``barrier.RowGrid``'s rows at the first plan.
Each agent's products keep the one-agent operands' shapes and layout, so a
team's QPs equal the one-agent builds bit for bit; only the rows'
right-hand sides stay one matrix-vector product per agent, since such a
product rounds each row by its place in the matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .barrier import RowGrid, TeamRows
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
_PENALTIES = np.array(SLACK_PENALTY)


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

    @functools.cached_property
    def team(self) -> QpTeam:
        """This spec as a one-member ``QpTeam``, for ``build_qp`` on its agent alone, built on first use."""
        return QpTeam.stack([self])


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


class QpTeam(NamedTuple):
    """Several specs' condensing maps, each stacked on a leading agent axis, for ``build_qp``.

    Built once per run from the run's specs (``stack``); a spec's own
    one-member team (``OcpSpec.team``) builds its one-agent QPs. The specs
    share the dimensions, the horizon and the hard block's row count. Every
    stacked item keeps its spec's memory layout, so each agent's products
    with it are the one-agent products, bit for bit.
    """

    specs: tuple[OcpSpec, ...]
    t_par: np.ndarray  # (N, H d, n_p)
    e_par: np.ndarray  # (N, H nd, n_p)
    lin_par: np.ndarray  # (N, n_free, n_p)
    const_par: np.ndarray  # (N, n_p, n_p)
    hard_a: np.ndarray  # (N, hard rows, n_free)
    hard_par: np.ndarray  # (N, hard rows, n_p)
    hard_const: np.ndarray  # (N, hard rows)
    e_term: np.ndarray  # (N, nd, H d)
    cut_map: np.ndarray  # (N, nd, n_free): minus the terminal error's map on z; the cut is its transpose times P y
    pr: np.ndarray  # (N, nd, nd)
    level: np.ndarray  # (N,) the terminal levels, inf for no cut
    x_free: np.ndarray  # (N, H-1, nd, n_free)

    @classmethod
    def stack(cls, specs: list[OcpSpec]) -> QpTeam:
        """The specs' team, their condensings built where they are not yet."""
        conds = [spec.condensing for spec in specs]
        nd = specs[0].dims.nd
        term = slice(specs[0].horizon * nd - nd, None)
        fields = {
            name: np.stack([getattr(c, name) for c in conds])
            for name in ("t_par", "e_par", "lin_par", "const_par", "hard_a", "hard_par", "hard_const",
                         "e_term", "x_free")
        }
        return cls(
            specs=tuple(specs), **fields, cut_map=np.stack([-c.e_map[term] for c in conds]),
            pr=np.stack([spec.pr for spec in specs]), level=np.array([spec.terminal_level for spec in specs]),
        )


class CondensedQp(NamedTuple):
    """One agent's QP and its input offset: a solution z's full input stack is
    ``condensing.t_map @ z[:n_free] + t_off``, and ``z[n_free:]`` are the slacks."""

    qp: QpProblem
    t_off: np.ndarray  # (H d,)


def build_qp(
    team: QpTeam, e0: np.ndarray, s_seq: np.ndarray, v_prev: np.ndarray, barrier_rows: TeamRows,
    lin_inputs: np.ndarray,
) -> list[CondensedQp | None]:
    """Each agent's linearized exact-penalty QP on its free inputs and slacks, a team at a time.

    Agent i's parameter p = (e0[i], s_seq[i] flattened, v_prev[i]) fixes
    its offsets, hard right-hand sides and cost terms, one product per map
    over the (N, n_p) stack. ``lin_inputs[i]`` (H, d) is its linearization
    plan and ``barrier_rows[i]`` the row block at that plan's nominal
    trajectory (an agent without rows gets None): row r is ``a[r] .
    v_step[r] + b[r] >= 0`` with state gradient ``grad[r]``. Each row is
    linearized in the input and in the state it reaches: with x_step's
    response to the free inputs (``condensing.x_free``, constant blocks of
    the horizon map) the row reads a . v_step + grad . x_free[step] (z -
    z_lin) + b >= 0, so it equals the exact row at the linearization plan.
    The terminal error that plan reaches anchors the supporting-hyperplane
    row of the terminal ellipsoid.

    The rows ``a . z >= b`` are the hard block (the input box, then the
    error box), the barrier rows, the terminal cut and the slacks' signs, in
    that order. Barrier and terminal-set rows get one nonnegative slack
    variable per ``SLACK_PENALTY`` group in use, penalized linearly: a
    feasible problem still returns zero slack, an infeasible one returns the
    minimally violating plan. The hard block gets none. Every agent's rows
    go into one zero-padded team array, and its QP holds views of it. Only
    the barrier rows' right-hand sides are one product per agent: a
    matrix-vector product rounds each row by its place in the matrix.
    """
    n, h, dims = len(team.specs), team.specs[0].horizon, team.specs[0].dims
    nd, d = dims.nd, dims.d
    if e0.shape != (n, nd) or s_seq.shape != (n, h, d):
        raise DimensionMismatch("bad e0 or exogenous sequence shape")
    p = np.concatenate([e0, s_seq.reshape(n, -1), v_prev], axis=1)[..., None]
    t_off = (team.t_par @ p)[..., 0]
    e_last = (team.e_par @ p)[:, (h - 1) * nd :]  # the terminal error's offset
    constant = (p.swapaxes(1, 2) @ team.const_par @ p)[:, 0, 0].tolist()
    n_hard, n_free = team.hard_a.shape[1:]

    # the terminal cut: the ellipsoid's supporting hyperplane where the ray to the plan's terminal error leaves it
    e_ref = e_last + team.e_term @ (lin_inputs.reshape(n, -1) - t_off)[..., None]
    level = (e_ref.swapaxes(1, 2) @ team.pr @ e_ref)[:, 0, 0]
    cut = np.isfinite(team.level) & (level > 1e-12)
    py = team.pr @ (e_ref * np.sqrt(np.divide(team.level, level, out=np.zeros(n), where=cut))[:, None, None])
    cut_a = (team.cut_map.swapaxes(1, 2) @ py)[..., 0]
    cut_b = (py.swapaxes(1, 2) @ e_last)[:, 0, 0] - team.level

    # every agent's barrier rows, one block: the rows through the states they reach, then their inputs
    step, row_a, row_b, group, grad = barrier_rows.rows
    agent = barrier_rows.agent
    counts = np.bincount(agent, minlength=n)
    ends = np.cumsum(counts)
    through_state = np.matmul(grad[:, None], team.x_free[agent, step])[:, 0]
    lin_free = lin_inputs.reshape(n, -1)[:, :n_free]
    rhs = [through_state[end - m : end] @ free for m, end, free in zip(counts.tolist(), ends.tolist(), lin_free)]
    through_state.reshape(agent.size, h - 1, d)[np.arange(agent.size), step] += row_a

    # one slack per penalty group in use, ascending: the cut's is last
    uses = np.zeros((n, len(SLACK_PENALTY)), dtype=bool)
    uses[agent, group] = True
    uses[:, -1] = cut
    slot = np.cumsum(uses, axis=1) - 1
    n_sig = slot[:, -1] + 1
    n_rows = n_hard + counts + cut

    a = np.zeros((n, (n_rows + n_sig).max(), n_free + n_sig.max()))
    b = np.zeros(a.shape[:2])
    a[:, :n_hard, :n_free], b[:, :n_hard] = team.hard_a, team.hard_const - (team.hard_par @ p)[..., 0]
    row = n_hard + np.arange(agent.size) - (ends - counts)[agent]
    a[agent, row, :n_free] = through_state
    a[agent, row, n_free + slot[agent, group]] = 1.0
    b[agent, row] = np.concatenate(rhs) - row_b
    at = np.flatnonzero(cut)
    cut_row = n_rows[at] - 1
    a[at, cut_row, :n_free], b[at, cut_row] = cut_a[at], cut_b[at]
    a[at, cut_row, n_free + n_sig[at] - 1] = 1.0
    owner, groups = uses.nonzero()
    sig = slot[owner, groups]
    a[owner, n_rows[owner] + sig, n_free + sig] = 1.0  # slack nonnegativity
    linear = np.zeros((n, a.shape[2]))
    linear[:, :n_free], linear[owner, n_free + sig] = (team.lin_par @ p)[..., 0], _PENALTIES[groups]
    return [
        CondensedQp(
            QpProblem(
                hessian=spec.condensing.hessians[s],
                linear=linear[i, : n_free + s],
                a_in=a[i, : r + s, : n_free + s],
                b_in=b[i, : r + s],
                constant=constant[i],
                hessian_inv=spec.condensing.hessian_invs[s],
            ),
            t_off[i],
        ) if ok else None
        for i, (spec, ok, r, s) in enumerate(
            zip(team.specs, barrier_rows.evaluated.tolist(), n_rows.tolist(), n_sig.tolist())
        )
    ]


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
    first: CondensedQp | None = None,
) -> OcpSolution:
    """At most two linearized QPs, each checked at the plan it returns (real-time iteration).

    The first QP is linearized at the warm start, the shifted previous plan:
    ``first`` is that QP (in a run, the agent's entry of the team's one
    ``build_qp`` call, from its block of ``RowGrid.team_rows``); without it,
    the agent's ``grid`` evaluates the rows at the warm start's rollout and
    ``build_qp`` builds it for this agent alone. A guard (``grid.guard``,
    the rows' values without their gradients) then evaluates the rows at
    the returned plan's own trajectory. The plan is kept when its QP needed
    no slack and it breaks no row by more than ``ROW_TOL``; otherwise one
    more QP is linearized at that plan, from ``grid.rows`` there, built for
    this agent alone. A second plan that still needs slack or breaks a row is
    returned ``Infeasible`` (relaxed) with its QP's finite slack. A guard
    that raises ``DegenerateGradient`` counts as a broken row; it leaves
    nothing to linearize at, so that plan is returned relaxed.
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

    def alone(states: np.ndarray, inputs: np.ndarray) -> CondensedQp:
        rows = TeamRows.of([grid.rows(states, inputs)], spec.dims)
        return build_qp(spec.team, e0[None], s_seq[None], v_prev[None], rows, inputs[None])[0]

    inputs = warm_inputs.copy()
    condensed = alone(rollout(spec, x0_nominal, inputs + ff_seq), inputs) if first is None else first
    iterations = 0
    holds = False
    for passes in (1, 2):
        sol = solve_qp(condensed.qp, tol=QP_TOL)
        iterations += sol.iterations
        if sol.status == INFEASIBLE:  # the hard rows leave no plan: keep the linearization plan
            return OcpSolution(inputs, math.inf, iterations, passes, INFEASIBLE, math.inf)
        slack = float(sol.z[n_free:].max(initial=0.0))
        inputs = (t_map @ sol.z[:n_free] + condensed.t_off).reshape(h, d)
        states = rollout(spec, x0_nominal, inputs + ff_seq)
        try:
            own = grid.guard(states, inputs)  # the least row at the plan's own states
        except DegenerateGradient:
            break
        holds = slack <= ROW_TOL and own >= -ROW_TOL
        if holds or passes == 2:
            break
        condensed = alone(states, inputs)
    return OcpSolution(
        inputs=inputs,
        objective=sol.objective,
        iterations=iterations,
        sqp_passes=passes,
        status=sol.status if holds else INFEASIBLE,
        slack=slack,
        converged=holds,
    )
