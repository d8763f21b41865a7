"""Independent oracles used by the test suite.

These deliberately avoid the package's own code paths: the smallest
singular value by inverse power iteration, finite-difference stencils via
Fornberg weights, QP optima via projected gradient ascent on the dual, horizon
trajectories, OCP objectives and the condensed QP's affine maps via the
explicit step recurrence, barrier values from the position offset alone,
each agent's disturbance from its own per-agent formula, one fine-step
index at a time, the followers' world without the feedforward in the plant
form (x, xb) with each follower's own model, the leader relay from one
message-passing round per sampling step, trace CSV text from
``np.savetxt``, and SVG markup from a per-point loop over each series. The
dual active-set loop as first written (``reference_solve_qp``) is the
reference that the solver must match bit for bit, and ``recorded_solves``
copies every OCP solve a run makes, with its row grid and every QP it
solves, so a test can replay them.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple
from xml.sax.saxutils import escape

import numpy as np

from tubeform import ocp as tubeform_ocp
from tubeform import qp as tubeform_qp
from tubeform import sim as tubeform_sim
from tubeform.barrier import BarrierRows
from tubeform.svgplot import HEIGHT, MARGIN, WIDTH, SvgFigure, _ticks


def inverse_power_min_singular(m: np.ndarray, iters: int = 500, seed: int = 0) -> float:
    """Smallest singular value by inverse power iteration on M^T M."""
    rng = np.random.default_rng(seed)
    mtm = m.T @ m
    v = rng.normal(size=m.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        v = np.linalg.solve(mtm, v)
        v /= np.linalg.norm(v)
    return float(np.sqrt(v @ mtm @ v))


def fd_weights(order: int, offsets: np.ndarray) -> np.ndarray:
    """Finite-difference weights for the given derivative order at x=0.

    Classic Fornberg recursion; exact for polynomials up to degree
    len(offsets) - 1.
    """
    n = len(offsets)
    delta = np.zeros((order + 1, n, n))
    delta[0, 0, 0] = 1.0
    c1 = 1.0
    for j in range(1, n):
        c2 = 1.0
        for k in range(j):
            c3 = offsets[j] - offsets[k]
            c2 *= c3
            for m in range(min(j, order) + 1):
                delta[m, j, k] = (
                    offsets[j] * delta[m, j - 1, k]
                    - (m * delta[m - 1, j - 1, k] if m > 0 else 0.0)
                ) / c3
        for m in range(min(j, order) + 1):
            delta[m, j, j] = (
                c1
                / c2
                * ((m * delta[m - 1, j - 1, j - 1] if m > 0 else 0.0)
                   - offsets[j - 1] * delta[m, j - 1, j - 1])
            )
        c1 = c2
    return delta[order, n - 1, :]


def fd_derivative(fn, order: int, h: float = 0.05, points: int = 13) -> float:
    """k-th derivative of fn at 0 by central finite differences.

    With 13 points the stencil differentiates polynomials up to degree 12
    exactly, so for polynomial flows only roundoff remains.
    """
    half = points // 2
    offsets = np.arange(-half, half + 1, dtype=float)
    weights = fd_weights(order, offsets)
    values = np.array([fn(o * h) for o in offsets])
    return float(weights @ values) / h**order


def dual_projected_gradient_qp(
    hessian: np.ndarray,
    linear: np.ndarray,
    a_in: np.ndarray,
    b_in: np.ndarray,
    iters: int = 200_000,
    polish: bool = True,
) -> tuple[np.ndarray, float]:
    """Solve min 0.5 z'Hz + g'z s.t. A z >= b by projected gradient on the dual.

    The dual of the inequality-constrained QP is concave quadratic in the
    multipliers with the trivial projection lambda >= 0. After the gradient
    iterations, the identified active set is polished by one exact KKT solve.
    Returns (z, objective).
    """
    h_inv = np.linalg.inv(hessian)
    if a_in.size == 0:
        z = -h_inv @ linear
        return z, float(0.5 * z @ hessian @ z + linear @ z)
    m_dual = a_in @ h_inv @ a_in.T
    q_dual = b_in + a_in @ h_inv @ linear
    step = 1.0 / max(np.linalg.eigvalsh(m_dual).max(), 1e-12)
    lam = np.zeros(a_in.shape[0])
    for _ in range(iters):
        grad = q_dual - m_dual @ lam
        lam_next = np.maximum(0.0, lam + step * grad)
        if np.max(np.abs(lam_next - lam)) < 1e-14:
            lam = lam_next
            break
        lam = lam_next
    if polish:
        active = lam > 1e-9
        if np.any(active):
            a_act = a_in[active]
            kkt = np.block(
                [
                    [hessian, -a_act.T],
                    [a_act, np.zeros((a_act.shape[0], a_act.shape[0]))],
                ]
            )
            rhs = np.concatenate([-linear, b_in[active]])
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            z_try = sol[: hessian.shape[0]]
            lam_try = sol[hessian.shape[0]:]
            if np.min(a_in @ z_try - b_in) >= -1e-8 and np.min(lam_try) >= -1e-8:
                obj = float(0.5 * z_try @ hessian @ z_try + linear @ z_try)
                return z_try, obj
    z = h_inv @ (a_in.T @ lam - linear)
    return z, float(0.5 * z @ hessian @ z + linear @ z)


def random_feasible_qp(rng: np.random.Generator, n_vars: int, n_rows: int):
    """Random strictly convex QP with a guaranteed interior feasible point."""
    m = rng.normal(size=(n_vars, n_vars))
    hessian = m @ m.T + n_vars * np.eye(n_vars)
    linear = rng.normal(size=n_vars)
    a_in = rng.normal(size=(n_rows, n_vars))
    z_feas = rng.normal(size=n_vars)
    b_in = a_in @ z_feas - rng.uniform(0.1, 2.0, size=n_rows)
    return hessian, linear, a_in, b_in


def reference_dual_active_set(h_inv, g, a, b, tol):
    """The Goldfarb-Idnani loop as first written: numpy scalars, every product per inner step.

    Reads ``tubeform.qp.MAX_ITERATIONS`` at call time, so a test that patches
    the cap patches both loops. Returns (z, duals, status, iterations, active).
    """
    n_rows = a.shape[0]
    z = -h_inv @ g
    duals = np.zeros(n_rows)
    active: list[int] = []
    iterations = 0
    while iterations < tubeform_qp.MAX_ITERATIONS:
        iterations += 1
        slack = a @ z - b if n_rows else np.zeros(0)
        if not n_rows or np.min(slack) >= -tol:
            return z, duals, tubeform_qp.OPTIMAL, iterations, active
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
                return z, duals, tubeform_qp.INFEASIBLE, iterations, active
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
            return z, duals, tubeform_qp.MAX_ITER, iterations, active
    return z, duals, tubeform_qp.MAX_ITER, iterations, active


def reference_solve_qp(qp, tol: float = 1e-10):
    """``solve_qp`` through the reference loop: (z, duals, status, iterations, active mask)."""
    a = qp.a_in if qp.a_in.size else np.zeros((0, qp.linear.shape[0]))
    b = qp.b_in if qp.a_in.size else np.zeros(0)
    h_inv = np.linalg.inv(qp.hessian) if qp.hessian_inv is None else qp.hessian_inv
    z, duals, status, iterations, rows = reference_dual_active_set(h_inv, qp.linear, a, b, tol)
    mask = np.zeros(b.size, dtype=bool)
    mask[rows] = True
    return z, duals, status, iterations, mask


class RecordedQp(NamedTuple):
    """One ``solve_qp`` call of a run: its problem, a copy, and its tolerance."""

    qp: object
    tol: float


@dataclass
class RecordedSolve:
    """One ``solve_ocp`` call of a run.

    ``args`` are its positional arguments (spec, e0, x0_nominal, s_seq,
    ff_seq, v_prev, warm_inputs), the arrays copied; ``grid`` is the agent's
    ``RowGrid`` it was handed and ``rows`` the ``BarrierRows`` at its warm
    start, copied, None where the solve evaluated them itself; ``qps`` are
    the QPs it solved, and ``solution`` its ``OcpSolution``, None when it raised.
    """

    args: tuple
    grid: object
    rows: object
    qps: list[RecordedQp] = field(default_factory=list)
    solution: object = None

    def replay(self):
        """``solve_ocp`` again on the recorded arguments, grid and warm-start rows."""
        return tubeform_ocp.solve_ocp(*self.args, self.grid, self.rows)


@contextlib.contextmanager
def recorded_solves():
    """Record every ``solve_ocp`` call a run makes, and each QP it hands to ``solve_qp``.

    Yields the list the ``RecordedSolve`` records are appended to. The
    arguments, the warm-start rows and the problems are copied: the caller's
    arrays may be views of the run's own, as ``x0_nominal`` is of the trace's
    row at the step. The grid is kept as built, since every step builds its own.
    """
    records: list[RecordedSolve] = []
    solve_ocp, solve_qp = tubeform_sim.solve_ocp, tubeform_ocp.solve_qp

    def recording_ocp(spec, *arrays):
        *arrays, grid, rows = arrays
        copied = None if rows is None else BarrierRows(*(np.array(a) for a in rows))
        record = RecordedSolve((spec, *(np.array(a) for a in arrays)), grid, copied)
        records.append(record)
        record.solution = solve_ocp(spec, *arrays, grid, rows)
        return record.solution

    def recording_qp(qp, tol=1e-10):
        records[-1].qps.append(RecordedQp(copy.deepcopy(qp), tol))
        return solve_qp(qp, tol=tol)

    tubeform_sim.solve_ocp, tubeform_ocp.solve_qp = recording_ocp, recording_qp
    try:
        yield records
    finally:
        tubeform_sim.solve_ocp, tubeform_ocp.solve_qp = solve_ocp, solve_qp


def barrier_value(x_self: np.ndarray, x_other: np.ndarray, keep_out, d: int):
    """h = ||p_self - p_other||^2 - R^2 on the position blocks (first d entries) of two chains."""
    offset = np.asarray(x_self)[..., :d] - np.asarray(x_other)[..., :d]
    return np.sum(offset * offset, axis=-1) - np.square(keep_out)


def drift_product(table, x: np.ndarray, t) -> np.ndarray:
    """A ``DriftTable``'s drift at the states x, every factor of every term taken: the full product
    power (offset + tanh(v.x)) sin(freq t + phase), scattered; the power masked as the table masks
    it, a one-model table raising only its exponents 2 and 3."""
    ux, vx = (table.u @ x[..., None])[..., 0], (table.v @ x[..., None])[..., 0]
    if table.expo.ndim == 1:
        power = np.where(table.expo == 1.0, ux, 1.0)
        high = table.expo >= 2.0
        power[..., high] = ux[..., high] ** table.expo[high]
    else:
        power = ux**table.expo
    angle = table.freq * np.asarray(t)[..., None] + table.phase
    terms = power * (table.offset + np.tanh(vx)) * np.sin(angle)
    return (terms[..., None, :] @ table.scatter)[..., 0, :]


def fine_step_index(t: float, step_duration: float) -> int:
    """The fine-step index whose ball draw holds at time t, up to the clock's rounding."""
    return math.floor(t / step_duration + 1e-6)


def agent_disturbance(
    config, d: int, agent: int, seed: int, step_duration: float, t: float, *, block: int
):
    """One agent's (d,) disturbance at time t, from its ``DisturbanceConfig`` alone.

    A sinusoid is amp_k * sin(freq_k * t + phase_k) per axis. A ball draws
    fine-step index j as entry j % block of block j // block: the generator
    seeded with (seed, agent, j // block) gives the block's (block, d)
    normals, then its block uniforms, and index j scales its own normal to
    radius ``bound * U^(1/d)``. The norm is a plain sum of squares; the root
    is numpy's array power on the one uniform, since libm's scalar ``pow``
    differs from it in the last bit.
    """
    if config.kind == "sinusoid":
        return np.asarray(config.amp) * np.sin(np.asarray(config.freq) * t + np.asarray(config.phase))
    b, i = divmod(fine_step_index(t, step_duration), block)
    normals, uniforms = _ball_stream(seed, agent, b, block, d)
    vec, u = normals[i], uniforms[i : i + 1]
    nrm = math.sqrt(sum(x * x for x in vec.tolist()))
    if nrm == 0.0:
        return np.zeros(d)
    return vec * (config.bound * u ** (1.0 / d) / nrm)


@functools.lru_cache(maxsize=64)
def _ball_stream(seed: int, agent: int, b: int, block: int, d: int):
    """The generator stream of one ball block: (block, d) normals, then block uniforms."""
    rng = np.random.default_rng((seed, agent, b))
    normals, uniforms = rng.normal(size=(block, d)), rng.random(block)
    normals.setflags(write=False)
    uniforms.setflags(write=False)
    return normals, uniforms


def plant_derivative(world, state: np.ndarray, t: float, v0: np.ndarray, w: np.ndarray) -> np.ndarray:
    """d/dt of the followers' (N, 2, nd) true and nominal states without the feedforward, in the plant
    form: each follower's own model at its true state x, the held nominal input v0, the ancillary
    feedback -K (x - xb) and its disturbance w drive the true chain, v0 alone the nominal chain."""
    x, xb = state[:, 0], state[:, 1]
    own = np.array([drift.value(x_i, t) for drift, x_i in zip(world.cert.drifts[1:], x)])
    top = np.stack([own + v0 - (x - xb) @ world.gain.T + w, v0], axis=1)
    return np.concatenate([state[..., world.d :], top], axis=-1)


def relay_round(adjacency, b0, leader_state, previous, ages):
    """One synchronous round of the leader relay: the (N, nd) estimates and (N,) ages after it.

    A pinned agent copies the exact current leader state at age 0. Every
    other agent takes the freshest estimate held at the previous step by an
    agent it listens to, one step older: one sampling step of delay per hop.
    """
    estimates, new_ages = np.empty_like(previous), np.empty_like(ages)
    for i in range(len(b0)):
        if b0[i] > 0.0:
            estimates[i], new_ages[i] = leader_state, 0
        else:
            heard = [j for j in range(len(b0)) if adjacency[i, j] > 0.0]
            j = min(heard, key=lambda j: ages[j])
            estimates[i], new_ages[i] = previous[j], ages[j] + 1
    return estimates, new_ages


def chain_recurrence(ad: np.ndarray, bd: np.ndarray, x0: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """(H+1, nd) trajectory x_{l+1} = Ad x_l + Bd u_l from one x0 and an (H, d) drive."""
    out = [np.asarray(x0, dtype=float)]
    for u in drive:
        out.append(ad @ out[-1] + bd @ u)
    return np.stack(out)


def rollout_objective(spec, e0: np.ndarray, s_seq: np.ndarray, v_prev: np.ndarray, inputs: np.ndarray) -> float:
    """OCP objective of an input sequence, by stepping the error recurrence explicitly."""
    errors = chain_recurrence(spec.ad, spec.bd, e0, s_seq - spec.coupling * inputs)
    total = 0.0
    prev = v_prev
    for step in range(spec.horizon):
        total += float(errors[step] @ spec.qr @ errors[step])
        total += float(inputs[step] @ spec.r @ inputs[step])
        dv = inputs[step] - prev
        total += float(dv @ spec.rdelta @ dv)
        prev = inputs[step]
    total += float(errors[-1] @ spec.pr @ errors[-1])
    return total


class CondensedPlan(NamedTuple):
    """Affine maps of the free inputs z (steps 0..H-2) probed from the explicit recurrence."""

    t_map: np.ndarray  # (H d, n_free): the full inputs are t_map z + t_off
    t_off: np.ndarray  # (H d,)
    err_map: np.ndarray  # (H+1, nd, n_free): the errors at steps 0..H are err_map z + err_off
    err_off: np.ndarray  # (H+1, nd)


def condensed_plan(spec, e0: np.ndarray, s_seq: np.ndarray) -> CondensedPlan:
    """The plan's inputs and errors as affine maps of the free inputs, from ``chain_recurrence``.

    The last input follows the terminal law v_{H-1} = -Khat e_H, where e_H
    itself depends on v_{H-1}: that affine fixed point is found by probing the
    recurrence in v_{H-1} and solving one small linear system. Every map is
    then read off by evaluating the plan at z = 0 and at the unit vectors.
    """
    h, d = spec.horizon, spec.dims.d
    n_free = (h - 1) * d

    def errors(inputs):
        return chain_recurrence(spec.ad, spec.bd, e0, s_seq - spec.coupling * inputs)

    def plan(z):
        inputs = np.zeros((h, d))
        inputs[:-1] = z.reshape(h - 1, d)
        law0 = -spec.terminal_gain @ errors(inputs)[-1]  # the law's value at v_{H-1} = 0
        gain = np.empty((d, d))
        for j in range(d):
            inputs[-1] = np.eye(d)[j]
            gain[:, j] = -spec.terminal_gain @ errors(inputs)[-1] - law0
        inputs[-1] = np.linalg.solve(np.eye(d) - gain, law0)
        return inputs.reshape(-1), errors(inputs)

    t_off, err_off = plan(np.zeros(n_free))
    probes = [plan(unit) for unit in np.eye(n_free)]
    t_map = np.stack([v - t_off for v, _ in probes], axis=-1)
    err_map = np.stack([e - err_off for _, e in probes], axis=-1)
    return CondensedPlan(t_map, t_off, err_map, err_off)


class HardRowQp(NamedTuple):
    """min 0.5 z' hessian z + linear' z + constant s.t. a_in z >= b_in, z the free inputs."""

    hessian: np.ndarray
    linear: np.ndarray
    constant: float
    a_in: np.ndarray
    b_in: np.ndarray
    t_map: np.ndarray  # the full input stack is t_map @ z + t_off
    t_off: np.ndarray


def hard_row_qp(spec, e0, s_seq, v_prev, rows, lin_inputs) -> HardRowQp:
    """The OCP's QP on the free inputs with every row hard, from ``condensed_plan`` alone.

    The cost is the sum, step by step, of the quadratic terms that
    ``rollout_objective`` adds up, each an affine map of z with its weight.
    The rows, in ``build_qp``'s order, are the input box (per step and axis
    v >= -bound, then -v >= -bound), the error box (per step 1..H and finite
    entry, e <= bound, then e >= -bound), the barrier ``rows`` (``a . v_step +
    grad . (x_step - x_lin_step) + b >= 0``, the nominal states x from the
    explicit recurrence and x_lin those that ``lin_inputs`` reach) and the
    terminal ellipsoid's supporting hyperplane at the terminal error
    ``lin_inputs`` reach: the exact-penalty QP without its slack variables.
    """
    h, nd, d = spec.horizon, spec.dims.nd, spec.dims.d
    cp = condensed_plan(spec, e0, s_seq)
    n_free = cp.t_map.shape[1]
    v_map = cp.t_map.reshape(h, d, n_free)
    v_off = cp.t_off.reshape(h, d)
    prev_map, prev_off = np.zeros((d, n_free)), v_prev
    terms = []  # (map, offset, weight) per quadratic term
    for step in range(h + 1):
        terms.append((cp.err_map[step], cp.err_off[step], spec.pr if step == h else spec.qr))
    for step in range(h):
        terms.append((v_map[step], v_off[step], spec.r))
        terms.append((v_map[step] - prev_map, v_off[step] - prev_off, spec.rdelta))
        prev_map, prev_off = v_map[step], v_off[step]
    hessian = sum(2.0 * m.T @ w @ m for m, _, w in terms)
    linear = sum(2.0 * m.T @ w @ off for m, off, w in terms)
    constant = rollout_objective(spec, e0, s_seq, v_prev, v_off)

    a_in, b_in = [], []  # a . z >= b
    if np.isfinite(spec.input_bound):
        for step in range(h):
            for ax in range(d):
                for sign in (1.0, -1.0):
                    a_in.append(sign * v_map[step, ax])
                    b_in.append(-spec.input_bound - sign * v_off[step, ax])
    if spec.error_box is not None:
        for step in range(1, h + 1):
            for j in np.flatnonzero(np.isfinite(spec.error_box)):
                for sign in (-1.0, 1.0):
                    a_in.append(sign * cp.err_map[step, j])
                    b_in.append(-spec.error_box[j] - sign * cp.err_off[step, j])
    # a row linearized at ``lin_inputs`` in its state too: grad . (x_step - x_step at lin_inputs)
    x_off = chain_recurrence(spec.ad, spec.bd, np.zeros(nd), v_off - lin_inputs)
    x_map = np.stack(
        [chain_recurrence(spec.ad, spec.bd, np.zeros(nd), v_map[..., j]) for j in range(n_free)], axis=-1
    )
    for step, a, b, grad in zip(rows.step, rows.a, rows.b, rows.grad):
        a_in.append(a @ v_map[step] + grad @ x_map[step])
        b_in.append(-b - a @ v_off[step] - grad @ x_off[step])
    e_ref = chain_recurrence(spec.ad, spec.bd, e0, s_seq - spec.coupling * lin_inputs)[-1]
    level = float(e_ref @ spec.pr @ e_ref)
    if np.isfinite(spec.terminal_level) and level > 1e-12:
        py = spec.pr @ e_ref * np.sqrt(spec.terminal_level / level)
        a_in.append(-py @ cp.err_map[h])  # py . e_H <= terminal level
        b_in.append(py @ cp.err_off[h] - spec.terminal_level)
    a_in = np.reshape(a_in, (len(b_in), n_free))
    return HardRowQp(hessian, linear, constant, a_in, np.array(b_in), cp.t_map, cp.t_off)


def savetxt_trace(trace, path) -> None:
    """A trace's CSV as ``np.savetxt`` writes it under the metadata header, UTF-8."""
    lines = [f"# {k}: {v}" for k, v in sorted(trace.metadata.items())]
    lines.append(",".join(trace.columns))
    np.savetxt(path, trace.data, fmt="%.17g", delimiter=",", header="\n".join(lines),
               comments="", encoding="utf-8")


class ReferenceSvgFigure(SvgFigure):
    """``SvgFigure`` with the axis limits and the polylines taken point by point."""

    def _bump(self, x, y):
        for v in x:
            if math.isfinite(v):
                self._xlim[0] = min(self._xlim[0], v)
                self._xlim[1] = max(self._xlim[1], v)
        for v in y:
            if math.isfinite(v):
                self._ylim[0] = min(self._ylim[0], v)
                self._ylim[1] = max(self._ylim[1], v)

    def render(self) -> str:
        x0, x1, y0, y1, sx, sy = self._scales()

        def px(x):
            return MARGIN + (x - x0) * sx

        def py(y):
            return HEIGHT - MARGIN - (y - y0) * sy

        parts = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{escape(self.title)}</text>',
        ]
        for tx in _ticks(x0, x1):
            parts.append(
                f'<line x1="{px(tx):.2f}" y1="{py(y0):.2f}" x2="{px(tx):.2f}" '
                f'y2="{py(y1):.2f}" stroke="#dddddd" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{px(tx):.2f}" y="{HEIGHT - MARGIN + 18:.2f}" '
                f'text-anchor="middle" font-family="sans-serif" font-size="11">{tx:g}</text>'
            )
        for ty in _ticks(y0, y1):
            parts.append(
                f'<line x1="{px(x0):.2f}" y1="{py(ty):.2f}" x2="{px(x1):.2f}" '
                f'y2="{py(ty):.2f}" stroke="#dddddd" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{MARGIN - 8:.2f}" y="{py(ty) + 4:.2f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11">{ty:g}</text>'
            )
        parts.append(
            f'<rect x="{MARGIN}" y="{MARGIN}" '
            f'width="{WIDTH - 2 * MARGIN}" height="{HEIGHT - 2 * MARGIN}" '
            f'fill="none" stroke="#333333"/>'
        )
        for item in self._series:
            if item[0] == "line":
                _, xs, ys, color, dashed = item
                pts = " ".join(
                    f"{px(x):.2f},{py(y):.2f}"
                    for x, y in zip(xs, ys)
                    if math.isfinite(x) and math.isfinite(y)
                )
                dash = ' stroke-dasharray="6,4"' if dashed else ""
                parts.append(
                    f'<polyline points="{pts}" fill="none" stroke="{color}" '
                    f'stroke-width="1.5"{dash}/>'
                )
            elif item[0] == "circle":
                _, cx, cy, radius, color, fill, dashed = item
                dash = ' stroke-dasharray="5,4"' if dashed else ""
                parts.append(
                    f'<circle cx="{px(cx):.2f}" cy="{py(cy):.2f}" r="{radius * sx:.2f}" '
                    f'fill="{fill}" fill-opacity="0.25" stroke="{color}" '
                    f'stroke-width="1.5"{dash}/>'
                )
            elif item[0] == "hline":
                _, yv, color = item
                parts.append(
                    f'<line x1="{px(x0):.2f}" y1="{py(yv):.2f}" x2="{px(x1):.2f}" '
                    f'y2="{py(yv):.2f}" stroke="{color}" stroke-width="1.5" '
                    f'stroke-dasharray="2,3"/>'
                )
        parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT - 14}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{escape(self.xlabel)}</text>'
        )
        parts.append(
            f'<text x="16" y="{HEIGHT / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 16 {HEIGHT / 2:.1f})">{escape(self.ylabel)}</text>'
        )
        ly = MARGIN + 14
        for label, color in self._legend:
            parts.append(
                f'<line x1="{WIDTH - MARGIN - 150}" y1="{ly - 4}" '
                f'x2="{WIDTH - MARGIN - 126}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{WIDTH - MARGIN - 120}" y="{ly}" '
                f'font-family="sans-serif" font-size="11">{escape(label)}</text>'
            )
            ly += 16
        parts.append("</svg>")
        return "\n".join(parts)
