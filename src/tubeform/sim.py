"""Closed-loop multi-agent simulation: certified control, fine integration, logging.

Each sampling step runs the synchronous round: measure, relay the leader
estimate, reconstruct neighbor plans, solve all local OCPs against the
previous step's broadcasts, broadcast the new plans, then integrate every
true and nominal plant over the sampling interval with RK4 substeps. The
ancillary feedback and the feedforward cancellation are applied
continuously; the nominal input is held.

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

from .barrier import (
    EcbfCoefficients,
    QuadraticBarrier,
    assemble_row,
    margin_obstacle,
    margin_pairwise,
)
from .errors import CascadedInfeasibility, DegenerateGradient, ScenarioError
from .graph import sync_error
from .linalg import rk4_step
from .models import chain_derivative
from .ocp import OcpSpec, discretize_error_dynamics, rollout_errors, solve_ocp, terminal_ingredients
from .pipeline import CertificationResult
from .protocol import (
    MessageBoard,
    PlanMessage,
    initial_broadcast,
    relay_leader,
    rollout_neighbor,
    shift_plan,
)
from .scenario import ScenarioConfig, build_formation, build_graph, initial_states

STATUS_CODE = {"Optimal": 0.0, "MaxIter": 1.0, "Infeasible": 2.0}
# exact-penalty weights for relaxed solves: violating an obstacle row is far
# more expensive than an inter-agent row, which outranks the terminal cut
SLACK_PENALTY = (1e6, 3e4, 1e4)


@dataclass(frozen=True)
class SimConfig:
    t_end: float
    ts: float
    fine_substeps: int
    seed: int
    feedforward_on: bool = True
    baseline_margins: bool = False

    @classmethod
    def from_scenario(cls, cfg: ScenarioConfig, **overrides) -> "SimConfig":
        base = dict(
            t_end=cfg.sim.t_end,
            ts=cfg.sim.ts,
            fine_substeps=cfg.sim.fine_substeps,
            seed=cfg.sim.seed,
            feedforward_on=cfg.sim.feedforward_on,
            baseline_margins=cfg.sim.baseline_margins,
        )
        base.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**base)


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
    """Held nominal input, continuous ancillary feedback, feedforward cancellation."""
    u = v_nominal - gain @ (x_true - x_nominal)
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
        self.obstacle_barriers = [
            QuadraticBarrier.for_obstacle(cfg.dims, o) for o in cfg.obstacles
        ]
        self.pair_barrier = QuadraticBarrier.for_pair(cfg.dims, cfg.barriers.d_safe)

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
        self.radius_tables = initial_broadcast(self.margin_radii, self.graph)

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
        states = initial_states(cfg)
        self.x_leader[:] = states[0]
        self.x_canon[:] = states[0]
        self.x_true[:] = states[1:]
        self.x_nom[:] = states[1:]  # nominal initialized at measurement
        self.anchors[:] = states[0]
        self.board = MessageBoard()
        self.estimates = None
        self.v_applied = np.zeros((self.n, self.d))
        self.prev_plans: list[PlanMessage | None] = [None] * self.n
        self.prev_predictions: dict[tuple[int, int], np.ndarray] = {}
        self.infeasible_streak = [0] * self.n
        self.violations: list[SafetyViolation] = []

        self.n_steps = int(round(sim.t_end / sim.ts))
        if abs(self.n_steps * sim.ts - sim.t_end) > 1e-9:
            raise ScenarioError("t_end must be an integer multiple of the sampling period")

        self._init_trace()

    # --- drift helpers ---

    def _leader_drift(self, x: np.ndarray, t: float) -> np.ndarray:
        return self.models[0].drift(x, t)

    def _leader_ff_samples(self, anchor: np.ndarray, t0: float) -> np.ndarray:
        """Feedforward samples over the horizon from a propagated anchor."""
        h = self.sim.ts / self.sim.fine_substeps
        samples = np.zeros((self.horizon, self.d))
        state = anchor
        t = t0

        def nominal(x, time):
            return chain_derivative(self.dims, x, self._leader_drift(x, time))

        for l in range(self.horizon):
            samples[l] = self._leader_drift(state, t)
            for _ in range(self.sim.fine_substeps):
                state = rk4_step(nominal, state, t, h)
                t += h
        return samples

    # --- per-step phases ---

    def _neighbor_data(self, k: int, ff_samples: np.ndarray):
        """Predicted neighbor inputs/states and the exogenous error drive."""
        h, d = self.horizon, self.d
        v_hats: list[dict[int, np.ndarray]] = [dict() for _ in range(self.n)]
        x_hats: list[dict[int, np.ndarray]] = [dict() for _ in range(self.n)]
        s_seqs = np.zeros((self.n, h, d))
        for i in range(self.n):
            for j in self.graph.neighbors(i):
                if k == 0:
                    v_hat = np.zeros((h, d))
                    x_hat = np.tile(self.x_true[j], (h + 1, 1))
                else:
                    msg = self.board.read(j + 1, k)
                    v_hat = shift_plan(msg, self.specs[j].terminal_gain)
                    x_hat = rollout_neighbor(self.specs[j], self.x_true[j], v_hat, ff_samples[i])
                v_hats[i][j] = v_hat
                x_hats[i][j] = x_hat
                s_seqs[i] += self.graph.nu1 * self.graph.adjacency[i, j] * v_hat
        return v_hats, x_hats, s_seqs

    def _sync_error_stacked(self, i: int) -> np.ndarray:
        out = np.zeros(self.nd)
        for p in range(1, self.dims.n + 1):
            table = {0: self.dims.block(self.x_leader, p)}
            for a in range(self.n):
                table[a + 1] = self.dims.block(self.x_true[a], p)
            out[(p - 1) * self.d : p * self.d] = sync_error(
                i, table, self.graph, self.formation, p
            )
        return out

    def _row_builder(self, i: int, k: int, ff_seq: np.ndarray, x_hats: dict[int, np.ndarray], v_hats: dict[int, np.ndarray]):
        margin_i = self.margin_radii[i + 1]
        activation = self.cfg.barriers.activation_range

        def rows(states: np.ndarray):
            out = []
            for l in range(self.horizon):
                xl = states[l]
                pos = xl[: self.d]
                for barrier in self.obstacle_barriers:
                    if np.linalg.norm(pos - np.asarray(barrier.center)) > activation:
                        continue
                    grad = barrier.gradient_self(xl)
                    margin = margin_obstacle(margin_i, grad)
                    row = assemble_row(
                        barrier, self.kappa, xl, None, margin, drift_top_self=ff_seq[l]
                    )
                    out.append((l, row.a, row.b, 0))
                if k == 0:
                    continue  # inter-agent rows removed at deployment
                for j, x_hat in x_hats.items():
                    xjl = x_hat[l]
                    grad_i = self.pair_barrier.gradient_self(xl, xjl)
                    grad_j = self.pair_barrier.gradient_other(xl, xjl)
                    margin = margin_pairwise(
                        margin_i, self.radius_tables[i + 1][j + 1], grad_i, grad_j
                    )
                    row = assemble_row(
                        self.pair_barrier,
                        self.kappa,
                        xl,
                        xjl,
                        margin,
                        drift_top_self=ff_seq[l],
                        top_other=v_hats[j][l] + ff_seq[l],
                    )
                    out.append((l, row.a, row.b, 1))
            return out

        return rows

    def _solve_agent(self, i: int, k: int, e0, s_seq, ff_seq, warm, x_hats, v_hats):
        try:
            return solve_ocp(
                self.specs[i],
                e0,
                self.x_nom[i],
                s_seq,
                ff_seq,
                self.v_applied[i],
                warm,
                row_builder=self._row_builder(i, k, ff_seq, x_hats, v_hats),
                slack_penalty=SLACK_PENALTY,
            )
        except DegenerateGradient:
            return None

    def step(self, k: int) -> dict:
        """One sampling instant: measure, relay, predict, solve, broadcast, apply."""
        t_k = k * self.sim.ts
        self.estimates = relay_leader(
            self.graph, self.x_leader, self.estimates if k > 0 else None
        )
        for i in range(self.n):
            self.anchors[i] = self.estimates[i + 1].value
        self.x_canon[:] = self.x_leader

        ff_samples = np.stack(
            [self._leader_ff_samples(self.anchors[i], t_k) for i in range(self.n)]
        )
        v_hats, x_hats, s_seqs = self._neighbor_data(k, ff_samples)

        pred_err = 0.0
        count = 0
        for (i, j), pred in self.prev_predictions.items():
            pred_err += float(np.linalg.norm(pred - self.x_true[j]))
            count += 1
        pred_err = pred_err / count if count else 0.0
        self.prev_predictions = {
            (i, j): x_hats[i][j][1].copy() for i in range(self.n) for j in x_hats[i]
        }

        e0s = [self._sync_error_stacked(i) for i in range(self.n)]
        warms = []
        for i in range(self.n):
            if self.prev_plans[i] is None:
                warms.append(np.zeros((self.horizon, self.d)))
            else:
                warms.append(shift_plan(self.prev_plans[i], self.specs[i].terminal_gain))

        solutions = [
            self._solve_agent(
                i, k, e0s[i], s_seqs[i], ff_samples[i], warms[i], x_hats[i], v_hats[i]
            )
            for i in range(self.n)
        ]

        stats = {"status": [], "iters": [], "passes": [], "obj": [], "pred_err": pred_err}
        plans = np.zeros((self.n, self.horizon, self.d))
        for i, sol in enumerate(solutions):
            if sol is None or not math.isfinite(sol.slack):
                # no usable plan at all: ride the shifted previous plan
                self.infeasible_streak[i] += 1
                if self.infeasible_streak[i] >= self.horizon:
                    raise CascadedInfeasibility(
                        f"agent {i + 1}: {self.infeasible_streak[i]} consecutive "
                        f"infeasible solves at step {k}"
                    )
                inputs = warms[i]
                errors = rollout_errors(self.specs[i], e0s[i], s_seqs[i], inputs)
                stats["status"].append(2.0)
                stats["iters"].append(0.0)
                stats["passes"].append(0.0)
                stats["obj"].append(math.inf)
            else:
                # a relaxed (nonzero-slack) solve still yields the minimally
                # violating plan, strictly better than blind plan shifting
                self.infeasible_streak[i] = 0
                inputs = sol.inputs
                errors = sol.errors
                stats["status"].append(STATUS_CODE[sol.status])
                stats["iters"].append(float(sol.iterations))
                stats["passes"].append(float(sol.sqp_passes))
                stats["obj"].append(sol.objective)
            plans[i] = inputs
            msg = PlanMessage(
                sender=i + 1, stamp=k, inputs=inputs.copy(), terminal_error=errors[-1].copy()
            )
            self.board.post(msg)
            self.prev_plans[i] = msg
            self.v_applied[i] = inputs[0]

        stats["plans"] = plans
        stats["e0"] = np.asarray(e0s)
        self._integrate_interval(k, stats)
        return stats

    # --- fine integration ---

    def _world_derivative(self, state: np.ndarray, t: float, v0: np.ndarray) -> np.ndarray:
        """RHS of the world ODE (rows as in ``self.state``) during one sampling interval."""
        out = np.empty_like(state)
        xl, canon = state[0], state[1]
        w0 = self.models[0].disturbance(t)
        out[0] = chain_derivative(self.dims, xl, self._leader_drift(xl, t) + w0)
        out[1] = chain_derivative(self.dims, canon, self._leader_drift(canon, t))
        for i in range(self.n):
            row = 2 + 3 * i
            x, xb, anchor = state[row], state[row + 1], state[row + 2]
            pinned = self.graph.b0[i] > 0.0
            ff_state = xl if (pinned and self.sim.feedforward_on) else anchor
            leader_val = self._leader_drift(ff_state, t) if self.sim.feedforward_on else None
            own_val = self.models[i + 1].drift(x, t) if self.sim.feedforward_on else None
            u = apply_control(
                self.gain, v0[i], x, xb, leader_val, own_val, self.sim.feedforward_on
            )
            w = self.models[i + 1].disturbance(t)
            out[row] = chain_derivative(self.dims, x, self.models[i + 1].drift(x, t) + u + w)
            nominal_top = v0[i] + (
                self._leader_drift(anchor, t) if self.sim.feedforward_on else 0.0
            )
            out[row + 1] = chain_derivative(self.dims, xb, nominal_top)
            out[row + 2] = chain_derivative(self.dims, anchor, self._leader_drift(anchor, t))
        return out

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
        clr_pair = math.inf
        for i in range(self.n):
            for j in range(i + 1, self.n):
                dist = float(np.linalg.norm(positions[i] - positions[j]))
                clr_pair = min(clr_pair, dist - self.cfg.barriers.d_safe)
        return clr_obs, clr_pair

    def _check_safety(self, k: int, fine_idx: int, t: float) -> None:
        clr_obs, clr_pair = self._clearances()
        if clr_obs <= 0.0:
            self._record("obstacle_clearance", k, fine_idx, t, -1, clr_obs)
        if clr_pair <= 0.0:
            self._record("pairwise_clearance", k, fine_idx, t, -1, clr_pair)
        dev0 = float(np.linalg.norm(self.x_leader - self.x_canon))
        if dev0 > self.cert.leader.r_ball0 * (1.0 + 1e-6):
            self._record("leader_tube", k, fine_idx, t, 0, dev0)
        for i in range(self.n):
            dx = self.x_true[i] - self.x_nom[i]
            v_val = float(dx @ self.p_mat @ dx)
            if v_val > self.cert.tubes[i].r ** 2 * (1.0 + 1e-6):
                self._record("tube", k, fine_idx, t, i + 1, v_val)
            if float(np.linalg.norm(dx)) > self.margin_radii[i + 1] * (1.0 + 1e-6):
                self._record("margin_radius", k, fine_idx, t, i + 1, float(np.linalg.norm(dx)))

    def _record(self, kind: str, k: int, fine_idx: int, t: float, agent: int, value: float):
        self.violations.append(
            SafetyViolation(kind=kind, step=fine_idx, t=t, agent=agent, value=value)
        )

    def _init_trace(self) -> None:
        n, nd, d, h = self.n, self.nd, self.d, self.horizon
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
        errs = np.zeros((self.n, self.d))
        for i in range(self.n):
            errs[i] = self.x_true[i][: self.d] - self.formation.offset(i + 1, 1) - leader_pos
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
        dev0 = self.x_leader - self.x_canon
        put(self.x_leader)
        put(self.x_canon)
        put(dev0)
        devs = []
        for i in range(self.n):
            dx = self.x_true[i] - self.x_nom[i]
            devs.append(dx)
            put(self.x_true[i])
            put(self.x_nom[i])
            put(dx)
        put(v0)
        v0_leader = float(dev0 @ dev0)
        v_vals = [v0_leader] + [float(dx @ self.p_mat @ dx) for dx in devs]
        put(v_vals)
        r0 = max(self.cert.leader.r_ball0, 1e-300)
        occ = [v0_leader / r0**2] + [
            v_vals[i + 1] / max(self.cert.tubes[i].r ** 2, 1e-300) for i in range(self.n)
        ]
        put(occ)
        put(self._clearances())
        errs, stacked = self._formation_errors()
        put(errs)
        put([stacked])
        put(stats["e0"])
        put(stats["plans"])
        for i in range(self.n):
            put([stats["status"][i], stats["iters"][i], stats["passes"][i], stats["obj"][i]])
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
                f"{o.center[0]},{o.center[1]},{o.radius},{o.inflation}"
                for o in self.cfg.obstacles
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

    @property
    def safe(self) -> bool:
        return not self.violations


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
            np.mean([np.mean(trace.col(c)) for c in iters_cols]) if iters_cols else 0.0
        ),
        "followers": followers,
    }
    return metrics
