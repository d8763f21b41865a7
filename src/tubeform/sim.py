"""Closed-loop multi-agent simulation: certified control, fine integration, logging.

Each sampling step runs the synchronous round: measure, relay the leader
estimate, reconstruct neighbor plans, solve all local OCPs against the
previous step's broadcasts, broadcast the new plans, then integrate every
true and nominal plant over the sampling interval with RK4 substeps. The
ancillary feedback and the feedforward cancellation are applied
continuously; the nominal input is held.

The round is array algebra over one horizon map and one graph matrix, and
every quantity it exchanges is one array over the followers: the leader
estimates are one gather through the relay tree (built once per run), the
message board holds all agents' plans and one ``shift_plan`` call shifts
them, all readers' predictions of all agents are one ``rollout`` call, the
synchronization errors are -M q with the augmented Laplacian M, the
exogenous error drives are nu1 A applied to the shifted plans, and each
agent's eCBF rows reach its OCP as one ``BarrierRows`` block from one
``assemble_row`` call per SQP pass over its obstacles (constant chains) and
neighbors.

The nominal trajectories are persistent (never reset to measurements); each
agent's leader-feedforward signal is re-anchored to its current leader
estimate at every sampling instant and propagated through the disturbance-
free leader model within the interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .barrier import EcbfCoefficients, assemble_row
from .errors import CascadedInfeasibility, DegenerateGradient, NonFiniteState, ScenarioError
from .linalg import rk4_step
from .models import DriftTable, chain_derivative
from .ocp import (
    BarrierRows,
    OcpSpec,
    discretize_error_dynamics,
    rollout,
    solve_ocp,
    terminal_ingredients,
)
from .pipeline import CertificationResult
from .protocol import MessageBoard, initial_broadcast, relay_leader, relay_parents, shift_plan
from .scenario import ScenarioConfig, SimConfig, build_formation, build_graph, initial_states

STATUS_CODE = {"Optimal": 0.0, "MaxIter": 1.0, "Infeasible": 2.0}
# exact-penalty weights for relaxed solves: violating an obstacle row is far
# more expensive than an inter-agent row, which outranks the terminal cut
SLACK_PENALTY = (1e6, 3e4, 1e4)


@dataclass
class SafetyViolation:
    kind: str
    step: int
    t: float
    agent: int
    value: float


@dataclass
class SimTrace:
    """Column-complete fine-step log plus file metadata."""

    columns: list[str]
    data: np.ndarray
    metadata: dict[str, str]

    def col(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]

    def to_csv(self, path: str | Path) -> None:
        lines = [f"# {k}: {v}" for k, v in sorted(self.metadata.items())]
        lines.append(",".join(self.columns))
        header = "\n".join(lines)
        np.savetxt(path, self.data, fmt="%.17g", delimiter=",", header=header, comments="")

    @classmethod
    def from_csv(cls, path: str | Path) -> "SimTrace":
        metadata: dict[str, str] = {}
        columns: list[str] = []
        with open(path) as fh:
            for line in fh:
                line = line.rstrip("\n")
                if line.startswith("# "):
                    key, _, value = line[2:].partition(": ")
                    metadata[key] = value
                else:
                    columns = line.split(",")
                    break
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        if "t" not in columns or data.size == 0 or data.shape[1] != len(columns):
            raise ScenarioError(f"{path}: malformed trace CSV")
        return cls(columns=columns, data=data, metadata=metadata)


def apply_control(
    gain: np.ndarray,
    v_nominal: np.ndarray,
    x_true: np.ndarray,
    x_nominal: np.ndarray,
    leader_drift_value: np.ndarray | None,
    own_drift_value: np.ndarray | None,
    feedforward_on: bool = True,
) -> np.ndarray:
    """Held nominal input, continuous ancillary feedback, feedforward cancellation.

    The states and drift values are one agent's vectors or row-stacked agents.
    """
    u = v_nominal - (x_true - x_nominal) @ gain.T
    if feedforward_on:
        u = u + leader_drift_value - own_drift_value
    return u


class SimWorld:
    """Mutable closed-loop state of one run."""

    def __init__(self, cfg: ScenarioConfig, cert: CertificationResult, sim: SimConfig):
        self.cfg = cfg
        self.cert = cert
        self.sim = sim
        self.dims = cfg.dims
        self.graph = build_graph(cfg)
        self.formation = build_formation(cfg)
        self.models = cert.models
        self.n = cfg.dims.followers
        self.nd = cfg.dims.nd
        self.d = cfg.dims.d
        self.horizon = cfg.ocp.horizon

        self.gain = cert.tubes[0].lyap.gain
        self.p_mat = cert.tubes[0].lyap.p
        self.kappa = EcbfCoefficients.from_poles(cfg.barriers.kappa_poles)
        # every obstacle is the constant chain (center, 0, ..., 0) of the one barrier
        centers = np.array([o.center for o in cfg.obstacles], dtype=float).reshape(-1, self.d)
        self._obstacle_chains = np.pad(centers, ((0, 0), (0, self.nd - self.d)))
        self._obstacle_keep_out = np.array([o.effective_radius for o in cfg.obstacles])

        if sim.baseline_margins:
            missing = [t.agent for t in cert.tubes if t.baseline_r_ball is None]
            if missing:
                raise ScenarioError(
                    f"baseline margins requested but baseline radius infeasible "
                    f"for agents {missing}"
                )
            self.margin_radii = {t.agent: float(t.baseline_r_ball) for t in cert.tubes}
        else:
            self.margin_radii = dict(cert.margin_radii)
        margins = np.array([self.margin_radii[i + 1] for i in range(self.n)])
        self.radius_table = initial_broadcast(margins, self.graph)

        ad, bd = discretize_error_dynamics(cfg.dims, sim.ts)
        qr = cfg.ocp.qr * np.eye(self.nd)
        r_w = cfg.ocp.r * np.eye(self.d)
        rd_w = cfg.ocp.rdelta * np.eye(self.d)
        self.specs: list[OcpSpec] = []
        for i in range(self.n):
            coupling = self.graph.coupling(i)
            if coupling <= 0.0:
                raise ScenarioError(f"agent {i + 1} has no incoming information")
            khat, pr, c_f = terminal_ingredients(
                ad, -coupling * bd, qr, r_w, cert.tubes[i].input_bound
            )
            error_box = None
            if cfg.ocp.error_box is not None:
                tight = np.asarray(cfg.ocp.error_box) - self.margin_radii[i + 1]
                if np.any(tight <= 0.0):
                    raise ScenarioError("error box fully consumed by tube tightening")
                error_box = tight
            self.specs.append(
                OcpSpec(
                    dims=cfg.dims,
                    horizon=self.horizon,
                    ts=sim.ts,
                    qr=qr,
                    r=r_w,
                    rdelta=rd_w,
                    pr=pr,
                    input_bound=cert.tubes[i].input_bound,
                    terminal_gain=khat,
                    terminal_level=c_f,
                    coupling=coupling,
                    ad=ad,
                    bd=bd,
                    error_box=error_box,
                )
            )

        # The world ODE state, one row per chain: the leader, its nominal
        # (re-anchored each step), then per follower its true state, nominal
        # state and feedforward anchor. The named arrays are views into it.
        self.state = np.empty((2 + 3 * self.n, self.nd))
        self.x_leader = self.state[0]
        self.x_canon = self.state[1]
        self.x_true = self.state[2::3]
        self.x_nom = self.state[3::3]
        self.anchors = self.state[4::3]
        # rows of the true states per agent, leader first, each followed by its nominal
        self._agent_rows = np.r_[0, 2 : len(self.state) : 3]
        # the world reads the drift at every row but the followers' nominal
        # states: the leader's model at the leader, its nominal and the anchors,
        # each follower's own at its true state (rows 2::2 of the drift rows)
        self._drift_rows = np.delete(np.arange(len(self.state)), np.s_[3::3])
        model_of_row = np.zeros(len(self._drift_rows), dtype=int)
        model_of_row[2::2] = np.arange(1, self.n + 1)
        self._drift = DriftTable.stack([m.drift.table for m in self.models], model_of_row)
        states = initial_states(cfg)
        self.state[self._agent_rows] = states
        self.state[self._agent_rows + 1] = states  # nominal initialized at measurement
        self.anchors[:] = states[0]
        # at deployment every agent holds the true leader state at age 0
        self._relay_parent, _ = relay_parents(self.graph)
        self.estimates = self.anchors.copy()
        self.estimate_ages = np.zeros(self.n, dtype=int)
        self._terminal_gains = np.stack([spec.terminal_gain for spec in self.specs])
        self._pinned = (self.graph.b0 > 0.0)[:, None]
        self._pairs = np.triu_indices(self.n, 1)
        tube_r2 = np.array([tube.r**2 for tube in cert.tubes])
        self._occ_scale = np.r_[max(cert.leader.r_ball0, 1e-300) ** 2, np.maximum(tube_r2, 1e-300)]
        self._tube_limits = tube_r2 * (1.0 + 1e-6)
        self._margin_limits = margins * (1.0 + 1e-6)
        self.board = MessageBoard(self.n, self.horizon, self.d, self.nd)
        self.v_applied = np.zeros((self.n, self.d))
        self._drive_map = self.graph.nu1 * self.graph.adjacency
        self._offsets = self.formation.offsets.reshape(self.n + 1, self.nd)
        # (reader, sender) per directed edge, and the readers' one-step predictions
        # of their senders; at deployment these are the measurements themselves
        self._edges = np.nonzero(self.graph.adjacency > 0.0)
        self._prev_preds = self.x_true[self._edges[1]]
        self.infeasible_streak = [0] * self.n
        self.violations: list[SafetyViolation] = []

        if not sim.t_end > 0.0:
            raise ScenarioError(f"t_end must be positive (got {sim.t_end!r})")
        self.n_steps = int(round(sim.t_end / sim.ts))
        if abs(self.n_steps * sim.ts - sim.t_end) > 1e-9:
            raise ScenarioError("t_end must be an integer multiple of the sampling period")

        self._init_trace()

    # --- leader feedforward ---

    def _leader_ff_samples(self, anchors: np.ndarray, t0: float) -> np.ndarray:
        """(N, horizon, d) feedforward samples from the (N, nd) anchors, propagated as one stack."""
        drift = self.models[0].drift
        h = self.sim.ts / self.sim.fine_substeps
        samples = np.zeros((len(anchors), self.horizon, self.d))
        state = anchors
        t = t0

        def nominal(x, time):
            return chain_derivative(self.dims, x, drift(x, time))

        samples[:, 0] = drift(state, t)
        for l in range(1, self.horizon):
            for _ in range(self.sim.fine_substeps):
                state = rk4_step(nominal, state, t, h)
                t += h
            samples[:, l] = drift(state, t)
        return samples

    # --- per-step phases ---

    def _neighbor_data(self, k: int, ff_samples: np.ndarray):
        """Shifted plans, every reader's predictions and the exogenous error drives.

        All agents' last broadcasts are shifted in one call into ``shifted``
        (N, H, d), zeros at deployment. Row j is agent j's warm start and
        fallback plan and every reader's prediction of agent j's inputs. ``preds[i, j]`` (H+1, nd)
        is reader i's prediction of agent j's nominal states: the bare chain from
        x_j under the shifted plan plus reader i's leader feedforward (agent j's
        feedforward cancels its own nonlinearity); at deployment, x_j held.
        ``s_seqs`` (N, H, d) is nu1 A applied to ``shifted``.
        """
        h, n = self.horizon, self.n
        if k == 0:
            shifted = np.zeros((n, h, self.d))
            preds = np.broadcast_to(self.x_true[None, :, None], (n, n, h + 1, self.nd))
        else:
            shifted = shift_plan(*self.board.read(k), self._terminal_gains)
            # every spec shares the chain maps (same dims, period and horizon)
            preds = rollout(self.specs[0], self.x_true[None], shifted[None] + ff_samples[:, None])
            if not np.all(np.isfinite(preds)):
                raise NonFiniteState("neighbor rollout produced non-finite states")
        s_seqs = np.tensordot(self._drive_map, shifted, axes=1)
        return shifted, preds, s_seqs

    def _row_builder(self, i: int, k: int, ff_seq: np.ndarray, preds: np.ndarray, shifted: np.ndarray):
        """Barrier row block on the steps before the terminal law.

        One ``assemble_row`` call per pass evaluates a (step, obstacle +
        neighbor) grid; an obstacle cell is the constant center chain with
        keep-out radius + inflation, broadcast radius 0 and no top derivative.
        The active cells, in row-major order, are the rows: per step, the
        obstacles within the activation range (group 0) by index, then the
        neighbors (group 1) by index.
        """
        steps = self.horizon - 1  # the last input follows the terminal law
        nbrs = self.graph.neighbors(i) if k > 0 else []  # inter-agent rows removed at deployment
        n_obs = len(self._obstacle_chains)
        if not n_obs + len(nbrs):
            return lambda states: BarrierRows.empty(self.d)
        ff = ff_seq[:steps, None]
        obstacles = np.broadcast_to(self._obstacle_chains, (steps, n_obs, self.nd))
        x_other = np.concatenate([obstacles, preds[i, nbrs, :steps].swapaxes(0, 1)], axis=1)
        top_other = shifted[nbrs, :steps].swapaxes(0, 1) + ff
        top_exo = ff - np.concatenate([np.zeros((steps, n_obs, self.d)), top_other], axis=1)
        keep_out = np.r_[self._obstacle_keep_out, np.full(len(nbrs), self.cfg.barriers.d_safe)]
        radius_other = np.r_[np.zeros(n_obs), self.radius_table[i, nbrs]]
        margin_i = self.margin_radii[i + 1]
        group = np.repeat([0, 1], [n_obs, len(nbrs)])
        centers = self._obstacle_chains[:, : self.d]
        activation = self.cfg.barriers.activation_range

        def rows(states: np.ndarray) -> BarrierRows:
            xs = states[:steps, None]
            a, b = assemble_row(
                self.kappa, self.dims, xs, x_other, keep_out, margin_i, radius_other, top_exo
            )
            active = np.ones(b.shape, dtype=bool)
            active[:, :n_obs] = np.linalg.norm(xs[..., : self.d] - centers, axis=-1) <= activation
            step, col = np.nonzero(active)
            return BarrierRows(step, a[step, col], b[step, col], group[col])

        return rows

    def _solve_agent(self, i: int, k: int, e0, s_seq, ff_seq, preds, shifted):
        try:
            return solve_ocp(
                self.specs[i],
                e0,
                self.x_nom[i],
                s_seq,
                ff_seq,
                self.v_applied[i],
                shifted[i],
                row_builder=self._row_builder(i, k, ff_seq, preds, shifted),
                slack_penalty=SLACK_PENALTY,
            )
        except DegenerateGradient:
            return None

    def step(self, k: int) -> dict:
        """One sampling instant: measure, relay, predict, solve, broadcast, apply."""
        t_k = k * self.sim.ts
        if k > 0:
            self.estimates, self.estimate_ages = relay_leader(
                self._relay_parent, self.x_leader, self.estimates, self.estimate_ages
            )
        self.anchors[:] = self.estimates
        self.x_canon[:] = self.x_leader

        ff_samples = self._leader_ff_samples(self.anchors, t_k)
        shifted, preds, s_seqs = self._neighbor_data(k, ff_samples)

        # mean error of last step's one-step predictions over the directed edges
        readers, senders = self._edges
        dist = np.linalg.norm(self._prev_preds - self.x_true[senders], axis=1)
        pred_err = float(np.sum(dist)) / max(senders.size, 1)
        self._prev_preds = preds[readers, senders, 1]

        # synchronization errors (e^i_1, ..., e^i_n) of all followers
        e0s = self.graph.sync_errors(self.state[self._agent_rows] - self._offsets)
        solutions = [
            self._solve_agent(i, k, e0s[i], s_seqs[i], ff_samples[i], preds, shifted)
            for i in range(self.n)
        ]

        plans = np.zeros((self.n, self.horizon, self.d))
        terminal = np.zeros((self.n, self.nd))
        solver = np.zeros((self.n, 4))  # status, QP iterations, SQP passes, objective
        for i, sol in enumerate(solutions):
            if sol is None or not math.isfinite(sol.slack):
                # no usable plan at all: ride the shifted previous plan
                self.infeasible_streak[i] += 1
                if self.infeasible_streak[i] >= self.horizon:
                    raise CascadedInfeasibility(
                        f"agent {i + 1}: {self.infeasible_streak[i]} consecutive "
                        f"infeasible solves at step {k}"
                    )
                spec = self.specs[i]
                plans[i] = shifted[i]
                terminal[i] = rollout(spec, e0s[i], s_seqs[i] - spec.coupling * shifted[i])[-1]
                solver[i] = (2.0, 0.0, 0.0, math.inf)
            else:
                # a relaxed (nonzero-slack) solve still yields the minimally
                # violating plan, strictly better than blind plan shifting
                self.infeasible_streak[i] = 0
                plans[i], terminal[i] = sol.inputs, sol.errors[-1]
                solver[i] = (STATUS_CODE[sol.status], sol.iterations, sol.sqp_passes, sol.objective)
        self.board.post(k, plans, terminal)
        self.v_applied[:] = plans[:, 0]

        stats = {"plans": plans, "e0": e0s, "solver": solver, "pred_err": pred_err}
        self._integrate_interval(k, stats)
        return stats

    # --- fine integration ---

    def _world_derivative(self, state: np.ndarray, t: float, v0: np.ndarray) -> np.ndarray:
        """RHS of the world ODE (rows as in ``self.state``) during one sampling interval."""
        x, xb = state[2::3], state[3::3]
        drift = self._drift.value(state[self._drift_rows], t)
        own, f_anchor = drift[2::2], drift[3::2]
        w = np.stack([m.disturbance(t) for m in self.models[1:]])
        # pinned followers cancel toward the true leader, the others toward their anchor
        ff = np.where(self._pinned, drift[0], f_anchor)
        u = apply_control(self.gain, v0, x, xb, ff, own, self.sim.feedforward_on)
        top = np.empty((len(state), self.d))
        top[0] = drift[0] + self.models[0].disturbance(t)
        top[1] = drift[1]
        top[2::3] = own + u + w
        top[3::3] = v0 + f_anchor if self.sim.feedforward_on else v0
        top[4::3] = f_anchor
        return chain_derivative(self.dims, state, top)

    def _integrate_interval(self, k: int, stats: dict) -> None:
        h = self.sim.ts / self.sim.fine_substeps
        v0 = self.v_applied.copy()
        t = k * self.sim.ts

        def rhs(state, time):
            return self._world_derivative(state, time, v0)

        for m in range(self.sim.fine_substeps):
            self._log_row(k, k * self.sim.fine_substeps + m, t, stats, v0)
            self.state[:] = rk4_step(rhs, self.state, t, h)
            t += h
            self._check_safety(k, k * self.sim.fine_substeps + m + 1, t)
        if k == self.n_steps - 1:
            self._log_row(k, self.n_steps * self.sim.fine_substeps, t, stats, v0)

    # --- monitoring and logging ---

    def _clearances(self) -> tuple[float, float]:
        positions = self.x_true[:, : self.d]
        clr_obs = math.inf
        for obs in self.cfg.obstacles:
            dist = np.linalg.norm(positions - np.asarray(obs.center), axis=1)
            clr_obs = min(clr_obs, float(np.min(dist) - obs.radius))
        first, second = self._pairs
        gaps = np.linalg.norm(positions[first] - positions[second], axis=1)
        clr_pair = float(np.min(gaps)) - self.cfg.barriers.d_safe if gaps.size else math.inf
        return clr_obs, clr_pair

    def _deviations(self) -> tuple[np.ndarray, np.ndarray]:
        """True-minus-nominal deviations (N+1, nd), leader first, and V: |dev|^2, dev' P dev."""
        rows = self._agent_rows
        dev = self.state[rows] - self.state[rows + 1]
        v_vals = np.empty(self.n + 1)
        v_vals[0] = dev[0] @ dev[0]
        v_vals[1:] = np.sum((dev[1:] @ self.p_mat) * dev[1:], axis=1)
        return dev, v_vals

    def _check_safety(self, k: int, fine_idx: int, t: float) -> None:
        clr_obs, clr_pair = self._clearances()
        if clr_obs <= 0.0:
            self._record("obstacle_clearance", k, fine_idx, t, -1, clr_obs)
        if clr_pair <= 0.0:
            self._record("pairwise_clearance", k, fine_idx, t, -1, clr_pair)
        dev, v_vals = self._deviations()
        norms = np.linalg.norm(dev, axis=1)
        if norms[0] > self.cert.leader.r_ball0 * (1.0 + 1e-6):
            self._record("leader_tube", k, fine_idx, t, 0, float(norms[0]))
        tube_bad = v_vals[1:] > self._tube_limits
        margin_bad = norms[1:] > self._margin_limits
        for i in np.flatnonzero(tube_bad | margin_bad).tolist():
            if tube_bad[i]:
                self._record("tube", k, fine_idx, t, i + 1, float(v_vals[i + 1]))
            if margin_bad[i]:
                self._record("margin_radius", k, fine_idx, t, i + 1, float(norms[i + 1]))

    def _record(self, kind: str, k: int, fine_idx: int, t: float, agent: int, value: float):
        self.violations.append(
            SafetyViolation(kind=kind, step=fine_idx, t=t, agent=agent, value=value)
        )

    def _init_trace(self) -> None:
        n, d, h = self.n, self.d, self.horizon
        cols = ["t", "k"]
        blocks = [f"{p}{ax}" for p in range(1, self.dims.n + 1) for ax in range(d)]
        for a in range(n + 1):
            cols += [f"x{a}_{b}" for b in blocks]
            cols += [f"xb{a}_{b}" for b in blocks]
            cols += [f"dx{a}_{b}" for b in blocks]
        for i in range(1, n + 1):
            cols += [f"u{i}_{ax}" for ax in range(d)]
        cols += [f"V{a}" for a in range(n + 1)]
        cols += [f"occ{a}" for a in range(n + 1)]
        cols += ["clr_obs", "clr_pair"]
        for i in range(1, n + 1):
            cols += [f"ferr{i}_{ax}" for ax in range(d)]
        cols.append("ferr_stacked")
        for i in range(1, n + 1):
            cols += [f"e{i}_{b}" for b in blocks]
        for i in range(1, n + 1):
            cols += [f"plan{i}_{l}_{ax}" for l in range(h) for ax in range(d)]
        for i in range(1, n + 1):
            cols += [f"ocp{i}_status", f"ocp{i}_iters", f"ocp{i}_passes", f"ocp{i}_obj"]
        cols.append("pred_err")
        self.trace_columns = cols
        rows = self.n_steps * self.sim.fine_substeps + 1
        self.trace_data = np.zeros((rows, len(cols)))

    def _formation_errors(self) -> tuple[np.ndarray, float]:
        """Per-agent position offset error and the stacked norm."""
        leader_pos = self.x_leader[: self.d] - self.formation.offset(0, 1)
        errs = self.x_true[:, : self.d] - self.formation.offsets[1:, 0] - leader_pos
        return errs, float(np.sqrt(np.sum(errs**2)))

    def _log_row(self, k: int, fine_idx: int, t: float, stats: dict, v0: np.ndarray):
        row = np.zeros(len(self.trace_columns))
        pos = 0

        def put(values):
            nonlocal pos
            arr = np.ravel(values)
            row[pos : pos + arr.size] = arr
            pos += arr.size

        put([t, float(k)])
        dev, v_vals = self._deviations()
        rows = self._agent_rows
        put(np.stack([self.state[rows], self.state[rows + 1], dev], axis=1))
        put(v0)
        put(v_vals)
        put(v_vals / self._occ_scale)
        put(self._clearances())
        errs, stacked = self._formation_errors()
        put(errs)
        put([stacked])
        put(stats["e0"])
        put(stats["plans"])
        put(stats["solver"])
        put([stats["pred_err"]])
        self.trace_data[fine_idx] = row

    def run(self) -> "SimResult":
        for k in range(self.n_steps):
            self.step(k)
        metadata = {
            "scenario": self.cfg.name,
            "scenario_sha256": self.cert.scenario_sha256,
            "seed": str(self.sim.seed),
            "ts": repr(self.sim.ts),
            "fine_substeps": str(self.sim.fine_substeps),
            "d_safe": repr(self.cfg.barriers.d_safe),
            "bound": repr(self.cert.bound_cert.bound),
            "feedforward_on": str(int(self.sim.feedforward_on)),
            "baseline_margins": str(int(self.sim.baseline_margins)),
            "obstacles": ";".join(
                ",".join(map(str, (*o.center, o.radius, o.inflation))) for o in self.cfg.obstacles
            ),
            "margin_radii": ";".join(
                repr(self.margin_radii[i + 1]) for i in range(self.n)
            ),
        }
        trace = SimTrace(columns=self.trace_columns, data=self.trace_data, metadata=metadata)
        return SimResult(trace=trace, violations=list(self.violations), world=self)


@dataclass
class SimResult:
    trace: SimTrace
    violations: list[SafetyViolation]
    world: SimWorld


def run_simulation(
    cfg: ScenarioConfig, cert: CertificationResult, sim: SimConfig | None = None, **overrides
) -> SimResult:
    world = SimWorld(cfg, cert, sim or SimConfig.from_scenario(cfg, **overrides))
    return world.run()


def trace_metrics(trace: SimTrace, final_window: float = 5.0) -> dict:
    """Scalar metrics of one trace: clearances, errors, occupancy, solver stats."""
    t = trace.col("t")
    stacked = trace.col("ferr_stacked")
    tail = t >= t[-1] - final_window
    followers = sum(1 for c in trace.columns if c.startswith("u") and c.endswith("_0"))
    occ_cols = [c for c in trace.columns if c.startswith("occ")]
    status_cols = [c for c in trace.columns if c.endswith("_status")]
    # solver stats repeat on every fine row of a sampling step: count each once
    k = trace.col("k")
    step_rows = np.concatenate(([True], k[1:] != k[:-1]))
    iters_cols = [c for c in trace.columns if c.endswith("_iters")]
    metrics = {
        "t_end": float(t[-1]),
        "min_obstacle_clearance": float(np.min(trace.col("clr_obs"))),
        "min_pairwise_clearance": float(np.min(trace.col("clr_pair"))),
        "final_mean_stacked_error": float(np.mean(stacked[tail])),
        "max_stacked_error": float(np.max(stacked)),
        "bound": float(trace.metadata.get("bound", "nan")),
        "max_tube_occupancy": {
            c: float(np.max(trace.col(c))) for c in occ_cols
        },
        "relaxed_steps": int(
            sum(np.sum(trace.col(c)[step_rows] == 2.0) for c in status_cols)
        ),
        "mean_qp_iterations": float(
            np.mean([np.mean(trace.col(c)[step_rows]) for c in iters_cols]) if iters_cols else 0.0
        ),
        "followers": followers,
    }
    return metrics
