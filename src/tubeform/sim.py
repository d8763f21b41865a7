"""Closed-loop multi-agent simulation: certified control, fine integration, logging.

Each sampling step runs the synchronous round: measure, relay the leader
estimate, reconstruct neighbor plans, solve all local OCPs against the
previous step's broadcasts, broadcast the new plans, then integrate every
true and nominal plant over the sampling interval with RK4 substeps. The
ancillary feedback and the feedforward cancellation are applied
continuously; the nominal input is held. The nominal trajectories are
persistent (never reset to measurements); each agent's leader-feedforward
signal is re-anchored to its current leader estimate at every sampling
instant and propagated through the disturbance-free leader model.

The round is array algebra over one horizon map and one graph matrix: the
leader estimates are one gather through the relay tree, one ``shift_plan``
call shifts the message board's plans, one ``rollout`` call gives all
readers' predictions of all agents, the synchronization errors are -M q with
the augmented Laplacian M, the error drives are nu1 A on the shifted plans,
and each agent's eCBF rows are one ``BarrierRows`` block from one
``assemble_row`` call per SQP pass over its obstacles and neighbors.

The run records each state once: every RK4 substep writes all agents' true
and nominal states and the time into the trace's own rows, and every step
writes its held values into its interval's rows. One array pass at the end
of the run builds the safety violations and the state-derived columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .barrier import assemble_row
from .errors import CascadedInfeasibility, DegenerateGradient, NonFiniteState, ScenarioError
from .linalg import rk4_step
from .models import DisturbanceStack, DriftTable, chain_derivative
from .ocp import BarrierRows, OcpSpec, rollout, solve_ocp
from .pipeline import CertificationResult
from .protocol import MessageBoard, initial_broadcast, relay_leader, shift_plan
from .scenario import ScenarioConfig, SimConfig, initial_states

STATUS_CODE = {"Optimal": 0.0, "MaxIter": 1.0, "Infeasible": 2.0}


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
        if name not in self.columns:
            raise ScenarioError(f"trace has no column {name!r}")
        return self.data[:, self.columns.index(name)]

    def to_csv(self, path: str | Path) -> None:
        lines = [f"# {k}: {v}" for k, v in sorted(self.metadata.items())]
        lines.append(",".join(self.columns))
        header = "\n".join(lines)
        np.savetxt(path, self.data, fmt="%.17g", delimiter=",", header=header, comments="")

    @classmethod
    def from_csv(cls, path: str | Path) -> "SimTrace":
        metadata: dict[str, str] = {}
        with open(path) as fh:
            line = fh.readline()
            while line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition(": ")
                metadata[key] = value
                line = fh.readline()
            columns = line.rstrip("\n").split(",")
            start = fh.tell()
            if "t" in columns and fh.readline().strip():  # a header and a first row
                fh.seek(start)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
                if data.shape[1] == len(columns):
                    return cls(columns=columns, data=data, metadata=metadata)
        raise ScenarioError(f"{path}: malformed trace CSV")


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
        self.graph = cert.graph
        self.models = cert.models
        self.n = cfg.dims.followers
        self.nd = cfg.dims.nd
        self.d = cfg.dims.d
        self.horizon = cfg.ocp.horizon

        self.gain = cert.tubes[0].lyap.gain
        self.p_mat = cert.tubes[0].lyap.p
        self.kappa = cert.kappa
        # every obstacle is the constant chain (center, 0, ..., 0) of the one barrier
        centers = np.array([o.center for o in cfg.obstacles], dtype=float).reshape(-1, self.d)
        self._obstacle_chains = np.pad(centers, ((0, 0), (0, self.nd - self.d)))
        self._obstacle_keep_out = np.array([o.effective_radius for o in cfg.obstacles])

        # each follower's eCBF margin: its certificate's radius, or its no-feedforward radius
        if sim.baseline_margins:
            missing = [t.agent for t in cert.tubes if t.baseline_r_ball is None]
            if missing:
                raise ScenarioError(
                    f"baseline margins requested but baseline radius infeasible "
                    f"for agents {missing}"
                )
            self.margins = np.array([t.baseline_r_ball for t in cert.tubes], dtype=float)
        else:
            self.margins = np.array([t.margin_radius for t in cert.tubes], dtype=float)
        self.radius_table = initial_broadcast(self.margins, self.graph)

        error_boxes = [None] * self.n
        if cfg.ocp.error_box is not None:
            error_boxes = np.asarray(cfg.ocp.error_box) - self.margins[:, None]
            if np.any(error_boxes <= 0.0):
                raise ScenarioError("error box fully consumed by tube tightening")
        self.specs = [
            OcpSpec.design(
                cfg.dims, self.horizon, sim.ts, cfg.ocp.qr, cfg.ocp.r, cfg.ocp.rdelta,
                self.graph.m[i, i], cert.tubes[i].input_bound, error_boxes[i],
            )
            for i in range(self.n)
        ]

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
        self._drift = DriftTable.stack([m.drift for m in self.models], model_of_row)
        disturbances = [m.disturbance for m in self.models]
        step = sim.ts / sim.fine_substeps
        self._disturbance = DisturbanceStack(disturbances, self.d, sim.seed, step)
        states = initial_states(cfg)
        self.state[self._agent_rows] = states
        self.state[self._agent_rows + 1] = states  # nominal initialized at measurement
        self.anchors[:] = states[0]
        # at deployment every agent holds the true leader state at age 0
        self._relay_parent = self.graph.relay_tree[0]
        self.estimates = self.anchors.copy()
        self.estimate_ages = np.zeros(self.n, dtype=int)
        self._terminal_gains = np.stack([spec.terminal_gain for spec in self.specs])
        self._pinned = (self._relay_parent < 0)[:, None]
        tube_r2 = np.array([tube.r**2 for tube in cert.tubes])
        self._occ_scale = np.r_[max(cert.leader.r_ball0, 1e-300) ** 2, np.maximum(tube_r2, 1e-300)]
        # monitor limits: the leader tube, then (tube, margin) per follower
        limits = np.r_[cert.leader.r_ball0, np.column_stack([tube_r2, self.margins]).ravel()]
        self._limits = limits * (1.0 + 1e-6)
        self.board = MessageBoard(self.n, self.horizon, self.d, self.nd)
        self.v_applied = np.zeros((self.n, self.d))
        self._drive_map = self.graph.nu1 * self.graph.adjacency
        self._offsets = np.asarray(cfg.offsets, dtype=float).reshape(self.n + 1, self.nd)
        # (reader, sender) per directed edge, and the readers' one-step predictions
        # of their senders; at deployment these are the measurements themselves
        self._edges = np.nonzero(self.graph.adjacency > 0.0)
        self._prev_preds = self.x_true[self._edges[1]]
        self.infeasible_streak = [0] * self.n
        self.violations: list[SafetyViolation] = []
        self.leader_occupancy_peak = math.nan  # set by the end-of-run pass

        self.n_steps = int(round(sim.t_end / sim.ts))

        self._init_trace()

    # --- leader feedforward ---

    def _leader_ff_samples(self, anchors: np.ndarray, t0: float) -> np.ndarray:
        """(N, horizon, d) feedforward samples from the (N, nd) anchors, propagated as one stack."""
        drift = self.models[0].drift.value
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
        ff = ff_seq[:steps, None]
        obstacles = np.broadcast_to(self._obstacle_chains, (steps, n_obs, self.nd))
        x_other = np.concatenate([obstacles, preds[i, nbrs, :steps].swapaxes(0, 1)], axis=1)
        top_other = shifted[nbrs, :steps].swapaxes(0, 1) + ff
        top_exo = ff - np.concatenate([np.zeros((steps, n_obs, self.d)), top_other], axis=1)
        keep_out = np.r_[self._obstacle_keep_out, np.full(len(nbrs), self.cfg.barriers.d_safe)]
        radius_other = np.r_[np.zeros(n_obs), self.radius_table[i, nbrs]]
        margin_i = self.margins[i]
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

        # an agent without a plan rides its shifted previous plan, logged as a fallback
        plans = shifted.copy()
        solver = np.tile([2.0, 0.0, 0.0, math.inf], (self.n, 1))  # status, QP iters, passes, obj
        for i, spec in enumerate(self.specs):
            rows = self._row_builder(i, k, ff_samples[i], preds, shifted)
            try:
                sol = solve_ocp(
                    spec, e0s[i], self.x_nom[i], s_seqs[i], ff_samples[i], self.v_applied[i],
                    shifted[i], row_builder=rows,
                )
            except DegenerateGradient:
                sol = None
            if sol is None or not math.isfinite(sol.slack):
                self.infeasible_streak[i] += 1
                if self.infeasible_streak[i] >= self.horizon:
                    raise CascadedInfeasibility(
                        f"agent {i + 1}: {self.infeasible_streak[i]} consecutive "
                        f"infeasible solves at step {k}"
                    )
            else:
                # a relaxed (nonzero-slack) solve still yields the minimally
                # violating plan, strictly better than blind plan shifting
                self.infeasible_streak[i] = 0
                plans[i] = sol.inputs
                solver[i] = (STATUS_CODE[sol.status], sol.iterations, sol.sqp_passes, sol.objective)
        terminal = np.array([
            rollout(spec, e0s[i], s_seqs[i] - spec.coupling * plans[i])[-1]
            for i, spec in enumerate(self.specs)
        ])
        self.board.post(k, plans, terminal)
        self.v_applied[:] = plans[:, 0]

        stats = {"plans": plans, "e0": e0s, "solver": solver, "pred_err": pred_err}
        self._log_row(k, stats)
        self._integrate_interval(k)
        return stats

    # --- fine integration ---

    def _world_derivative(self, state: np.ndarray, t: float, v0: np.ndarray) -> np.ndarray:
        """RHS of the world ODE (rows as in ``self.state``) during one sampling interval."""
        x, xb = state[2::3], state[3::3]
        drift = self._drift.value(state[self._drift_rows], t)
        own, f_anchor = drift[2::2], drift[3::2]
        w = self._disturbance(t)  # leader first
        # pinned followers cancel toward the true leader, the others toward their anchor
        ff = np.where(self._pinned, drift[0], f_anchor)
        u = apply_control(self.gain, v0, x, xb, ff, own, self.sim.feedforward_on)
        top = np.empty((len(state), self.d))
        top[0] = drift[0] + w[0]
        top[1] = drift[1]
        top[2::3] = own + u + w[1:]
        top[3::3] = v0 + f_anchor if self.sim.feedforward_on else v0
        top[4::3] = f_anchor
        return chain_derivative(self.dims, state, top)

    def _integrate_interval(self, k: int) -> None:
        """Integrate one sampling interval, recording the world after every RK4 substep."""
        fs = self.sim.fine_substeps
        h = self.sim.ts / fs
        v0 = self.v_applied.copy()
        t = k * self.sim.ts

        def rhs(state, time):
            return self._world_derivative(state, time, v0)

        for j in range(k * fs + 1, (k + 1) * fs + 1):
            self.state[:] = rk4_step(rhs, self.state, t, h)
            t += h
            self._states[j, :, :2] = self.state[self._recorded]
            self._times[j] = t

    # --- the run's record: trace columns and safety monitors ---

    def _init_trace(self) -> None:
        """Trace columns and the trace array, one row per fine step, which records the run.

        During the loop, row j > 0 holds every agent's true and nominal state
        (leader first) and the time after RK4 substep j; row 0 holds the
        deployment state. ``_states`` (rows, N+1, x/xb/dx, nd) and ``_times``
        are views of those columns.
        """
        n, d, h = self.n, self.d, self.horizon
        blocks = [f"{p}{ax}" for p in range(1, self.dims.n + 1) for ax in range(d)]
        agents, followers = range(n + 1), range(1, n + 1)
        groups = {
            "t": ["t"], "k": ["k"],
            "states": [f"{s}{a}_{b}" for a in agents for s in ("x", "xb", "dx") for b in blocks],
            "u": [f"u{i}_{ax}" for i in followers for ax in range(d)],
            "derived": [f"{s}{a}" for s in ("V", "occ") for a in agents] + ["clr_obs", "clr_pair"]
            + [f"ferr{i}_{ax}" for i in followers for ax in range(d)] + ["ferr_stacked"],
            "held": [f"e{i}_{b}" for i in followers for b in blocks]
            + [f"plan{i}_{l}_{ax}" for i in followers for l in range(h) for ax in range(d)]
            + [f"ocp{i}_{s}" for i in followers for s in ("status", "iters", "passes", "obj")]
            + ["pred_err"],
        }
        self.trace_columns = [c for cols in groups.values() for c in cols]
        bounds = np.cumsum([0] + [len(cols) for cols in groups.values()])
        self._trace_cols = {g: slice(a, b) for g, a, b in zip(groups, bounds[:-1], bounds[1:])}
        rows = self.n_steps * self.sim.fine_substeps + 1
        self.trace_data = np.zeros((rows, len(self.trace_columns)))
        self._states = self.trace_data[:, self._trace_cols["states"]].reshape(rows, n + 1, 3, -1)
        self._times = self.trace_data[:, 0]
        self._recorded = np.stack([self._agent_rows, self._agent_rows + 1], axis=1)
        self._states[0, :, :2] = self.state[self._recorded]

    def _log_row(self, k: int, stats: dict) -> None:
        """Write step k's held values into its interval's rows (and the final row at the end)."""
        fs, cols = self.sim.fine_substeps, self._trace_cols
        rows = self.trace_data[k * fs : (k + 1) * fs + (k == self.n_steps - 1)]
        rows[:, cols["k"]] = k
        rows[:, cols["u"]] = self.v_applied.ravel()
        held = [stats["e0"], stats["plans"], stats["solver"], stats["pred_err"]]
        rows[:, cols["held"]] = np.concatenate([np.ravel(v) for v in held])

    def _check_safety(self) -> None:
        """The end-of-run pass over the recorded states: safety violations and derived columns.

        The monitors read the states and times as integrated, the deployment
        state (row 0) included. The trace then logs each sampling instant k at
        t = k ts with the leader nominal re-anchored to the leader (so a
        violation's ``t`` is the accumulated substep time, and the trace's
        leader deviation there is 0). ``leader_occupancy_peak`` keeps the
        leader tube's peak ||dx0||^2 / r_ball0^2 as integrated, which the
        trace's ``occ0`` misses at those instants.
        """
        fs, d, n = self.sim.fine_substeps, self.d, self.n
        states, rows = self._states, len(self._times)
        # read before the logged form overwrites them
        leader_dev = np.linalg.norm(states[:, 0, 0] - states[:, 0, 1], axis=-1)
        self.leader_occupancy_peak = float(np.max(leader_dev) ** 2 / self._occ_scale[0])
        times = self._times.copy()
        # the logged form: each sampling instant at k ts, its leader nominal re-anchored
        states[:-1:fs, 0, 1] = states[:-1:fs, 0, 0]
        self._times[:-1:fs] = np.arange(self.n_steps) * self.sim.ts
        x, dev = states[:, :, 0], states[:, :, 2]
        np.subtract(x, states[:, :, 1], out=dev)
        v_vals = np.empty((rows, n + 1))
        v_vals[:, 0] = (dev[:, 0, None, :] @ dev[:, 0, :, None])[:, 0, 0]
        pdev = dev[:, 1:] @ self.p_mat
        pdev *= dev[:, 1:]
        v_vals[:, 1:] = np.sum(pdev, axis=-1)

        positions = x[:, 1:, :d]
        centers = self._obstacle_chains[:, :d]
        radii = np.array([o.radius for o in self.cfg.obstacles])
        dist = np.linalg.norm(positions[:, :, None] - centers, axis=-1)
        clr_obs = np.min(dist.min(axis=1, initial=math.inf) - radii, axis=-1, initial=math.inf)
        first, second = np.triu_indices(n, 1)
        gaps = np.linalg.norm(positions[:, first] - positions[:, second], axis=-1)
        clr_pair = np.min(gaps, axis=-1, initial=math.inf) - self.cfg.barriers.d_safe
        leader_pos = x[:, 0, :d] - self._offsets[0, :d]
        errs = positions - self._offsets[1:, :d] - leader_pos[:, None]
        stacked = np.sqrt(np.sum(errs**2, axis=(1, 2)))

        self.trace_data[:, self._trace_cols["derived"]] = np.column_stack(
            [v_vals, v_vals / self._occ_scale, clr_obs, clr_pair, errs.reshape(rows, -1), stacked]
        )

        # one (fine step, slot) table: obstacle, pair, leader, then (tube, margin) per follower
        follower = np.stack([v_vals[:, 1:], np.linalg.norm(dev[:, 1:], axis=-1)], axis=-1)
        values = np.column_stack([clr_obs, clr_pair, leader_dev, follower.reshape(rows, 2 * n)])
        bad = np.column_stack([values[:, :2] <= 0.0, values[:, 2:] > self._limits])
        kinds = ["obstacle_clearance", "pairwise_clearance", "leader_tube"]
        kinds += ["tube", "margin_radius"] * n
        agents = [-1, -1, 0] + [i for i in range(1, n + 1) for _ in range(2)]
        step, slot = np.nonzero(bad)
        self.violations = [
            SafetyViolation(kinds[s], j, times[j].item(), agents[s], values[j, s].item())
            for j, s in zip(step.tolist(), slot.tolist())
        ]

    def run(self) -> "SimResult":
        for k in range(self.n_steps):
            self.step(k)
        self._check_safety()
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
            "margin_radii": ";".join(map(repr, self.margins.tolist())),
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
