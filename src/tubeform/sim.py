"""Closed-loop multi-agent simulation: certified control, fine integration, logging.

Each sampling step runs the synchronous round: measure, read the relayed
leader estimate, reconstruct neighbor plans, solve all local OCPs against the
previous step's broadcasts, broadcast the new plans, then integrate every
true and nominal plant over the sampling interval with RK4 substeps. The
ancillary feedback and the feedforward cancellation are applied
continuously; the nominal input is held. The nominal trajectories are
persistent (never reset to measurements); each agent's leader-feedforward
signal is re-anchored to its current leader estimate at every sampling
instant and propagated through the disturbance-free leader model.

The leader takes no input, so its trajectory, every step's relayed estimates
and every step's feedforward samples are fixed before the first solve.
``SimWorld.leader_plan`` computes them once per run, on first use: the leader
integrated alone with the world's substeps and disturbance draws, the relayed
estimates as one gather of its samples by the certificate's hop counts (one
step of delay per hop), and one propagation of each distinct (step, hop count)
anchor, gathered per follower. Step k reads slice k. The controller still
sees only step k's causal relayed estimates; computing them ahead is a batch
on the simulator's side. The leader, its feedforward and the world advance
through one sampling period with the same RK4 substeps (``SimWorld._substeps``).

The world holds the last broadcast, ``plans`` (N, H, d) and ``terminal``
(N, nd), zeros at deployment; step k reads step k-1's, then replaces them and
holds ``plans[:, 0]`` over its interval. The round is array algebra over one
horizon map and one graph matrix: one ``shift_plan`` call shifts the last
broadcast's plans, one ``rollout`` call gives all readers' predictions of all
agents, the synchronization errors are -M q with the augmented Laplacian M,
the error drives are nu1 A on the shifted plans, and each agent's eCBF rows
are one ``barrier.RowGrid`` per step over its obstacles and neighbors
(``SimWorld._row_grid``), whose ``rows`` each SQP pass calls.

The trace's state rows are the run's one record of states. The leader pass
fills the leader's rows and the times; step k measures every agent at row
k fs, and its interval writes the followers' RK4 substeps into the rows they
reach. With the feedforward, a follower's deviation obeys dx' = Acl dx +
G (cancel + w - anchor) and its nominal xb' = A0 xb + G (v0 + anchor), read in
RK4 call order from the leader pass's exogenous record: the drift cancelled
toward (the true leader's if pinned, else the anchor's), the anchor's drift
and the disturbance. An interval is then one product with a linear map of
(dx, xb, v0, records), built once per run by a ``_substeps`` walk over the
identity; no follower drift is evaluated. Every step writes its held values
into its interval's rows. One array pass at the end of the run builds the
safety violations and the state-derived columns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .barrier import RowGrid
from .certify import error_box_tightening
from .errors import CascadedInfeasibility, DegenerateGradient, NonFiniteState, ScenarioError
from .linalg import rk4_step
from .models import DisturbanceStack, DriftTable, chain_derivative
from .ocp import SQP_MAX_PASSES, OcpSpec, rollout, solve_ocp
from .pipeline import CertificationResult
from .protocol import initial_broadcast, relayed_estimates, shift_plan
from .scenario import ScenarioConfig, SimConfig, initial_states

STATUS_CODE = {"Optimal": 0.0, "MaxIter": 1.0, "Infeasible": 2.0}
FINAL_WINDOW_S = 5.0  # the trailing seconds that final_mean_stacked_error averages
WRITE_BLOCK_BYTES = 1 << 18  # the trace writer's temporaries stay near this size


@dataclass
class SafetyViolation:
    """One violated monitor slot at one fine step. ``other`` is the obstacle's index for
    ``obstacle_clearance``, the other follower's id for ``pairwise_clearance``, else None."""

    kind: str
    step: int
    t: float
    agent: int
    value: float
    other: int | None


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
        """The bytes of ``np.savetxt(fmt="%.17g", delimiter=",")`` under the metadata header, UTF-8.

        A row's cells from the split column on are formatted only where some
        cell there differs from the previous row's: elsewhere the previous
        row's text is reused. The split is the most common start of the rows'
        repeated suffixes (the held columns, in a run's trace). Lines go to
        the file a block at a time.
        """
        data = np.asarray(self.data, dtype=np.float64)
        rows, cols = data.shape
        block = max(1, WRITE_BLOCK_BYTES // (24 * cols))  # rows per block, at most 24 chars a cell
        starts = _repeated_suffix_starts(data, block)
        split = int(np.argmax(np.bincount(starts[1:], minlength=cols + 1)))
        head_fmt = ",".join(["%.17g"] * split)
        tail_fmt = "," * (0 < split < cols) + ",".join(["%.17g"] * (cols - split)) + "\n"
        fresh = starts > split
        fresh[:1] = True
        header = [f"# {k}: {v}" for k, v in sorted(self.metadata.items())] + [",".join(self.columns)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(header) + "\n")
            for a in range(0, rows, block):
                lines = []
                for r, head in enumerate(data[a : a + block, :split].tolist(), a):
                    if fresh[r]:
                        tail = tail_fmt % tuple(data[r, split:].tolist())
                    lines.append(head_fmt % tuple(head) + tail)
                fh.write("".join(lines))

    @classmethod
    def from_csv(cls, path: str | Path, keep: Callable[[str], bool] | None = None) -> "SimTrace":
        """The trace in ``path``; with ``keep``, only the columns it accepts, in file order.

        Every data row must hold one cell per header column, as ``np.loadtxt``
        sees a line (text from ``#`` on is a comment, an empty line is no
        row): one comma count per line checks that before any cell is parsed,
        whatever ``keep`` selects. Only the kept columns' cells are parsed.
        ``report`` keeps what its figures and ``trace_metrics`` read (89 of
        paper's 246 columns), so a non-numeric cell in a column it never reads
        no longer fails it; every other caller parses every cell.
        """
        metadata: dict[str, str] = {}
        with open(path, encoding="utf-8") as fh:
            line = fh.readline()
            while line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition(": ")
                metadata[key] = value
                line = fh.readline()
            columns = line.rstrip("\n").split(",")
            start = fh.tell()
            if "t" in columns and fh.readline().strip():  # a header and a first row
                fh.seek(start)
                rows = (text.partition("#")[0].rstrip("\n") for text in fh)
                if {row.count(",") for row in rows if row} == {len(columns) - 1}:
                    fh.seek(start)
                    use = [j for j, name in enumerate(columns) if keep is None or keep(name)]
                    data = np.loadtxt(fh, delimiter=",", ndmin=2, usecols=use)
                    return cls(columns=[columns[j] for j in use], data=data, metadata=metadata)
        raise ScenarioError(f"{path}: malformed trace CSV")


def _repeated_suffix_starts(data: np.ndarray, block: int) -> np.ndarray:
    """Per row, the first column of its longest suffix equal bit for bit to the previous row's.

    Row 0 has no previous row: its start is the column count. The int64 view
    keeps -0.0 apart from 0.0. Rows are compared ``block`` at a time.
    """
    bits = data.view(np.int64)
    rows, cols = bits.shape
    starts = np.full(rows, cols)
    for a in range(1, rows, block):
        b = min(a + block, rows)
        changed = bits[a:b] != bits[a - 1 : b - 1]
        last = cols - np.argmax(changed[:, ::-1], axis=1)  # one past the last changed cell
        starts[a:b] = np.where(changed.any(axis=1), last, 0)
    return starts


def trace_layout(cfg: ScenarioConfig, sim: SimConfig, key: str) -> tuple[dict, int]:
    """A run's trace columns by group, in file order, and its rows, one per fine step and one more.

    Refuses, naming ``key``, a t_end whose trace no array can hold: numpy
    allocates no array of more bytes than ``np.intp`` counts, however much
    memory is free. ``certify`` checks the scenario's t_end with it, and every
    run its own.
    """
    n, d, h = cfg.dims.followers, cfg.dims.d, cfg.ocp.horizon
    blocks = [f"{p}{ax}" for p in range(1, cfg.dims.n + 1) for ax in range(d)]
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
    rows = int(round(sim.t_end / sim.ts)) * sim.fine_substeps + 1
    if rows * sum(map(len, groups.values())) * 8 > np.iinfo(np.intp).max:
        problem = "must be short enough for its trace to fit one array"
        raise ScenarioError(f"{key} {problem} (got {sim.t_end!r})")
    return groups, rows


class LeaderPlan(NamedTuple):
    """The exogenous inputs of one run, led by the sampling step k; the RK4 stages in call order."""

    ff_samples: np.ndarray  # (steps, N, H, d) each follower's feedforward from its relayed estimate
    exogenous: np.ndarray  # (steps, 4 fs, 3, N, d) per stage: cancel, anchor drift, disturbance


class SimWorld:
    """Mutable closed-loop state of one run."""

    def __init__(self, cfg: ScenarioConfig, cert: CertificationResult, sim: SimConfig):
        self.cfg = cfg
        self.cert = cert
        self.sim = sim
        self.dims = cfg.dims
        self.graph = cert.graph
        self.n = cfg.dims.followers
        self.nd = cfg.dims.nd
        self.d = cfg.dims.d
        self.horizon = cfg.ocp.horizon

        self.gain = cert.pair.gain
        self.p_mat = cert.pair.p
        self.kappa = cert.kappa
        # every obstacle is the constant chain (center, 0, ..., 0) of the one barrier
        centers = np.array([o.center for o in cfg.obstacles], dtype=float).reshape(-1, self.d)
        self._obstacle_chains = np.pad(centers, ((0, 0), (0, self.nd - self.d)))
        self._obstacle_keep_out = np.array([o.effective_radius for o in cfg.obstacles])

        # each follower's eCBF margin: its certificate's radius, or its no-feedforward radius
        tubes = cert.tubes
        if sim.baseline_margins:
            missing = tubes.id[np.isnan(tubes.baseline_r_ball)].tolist()
            if missing:
                raise ScenarioError(
                    f"baseline margins requested but baseline radius infeasible "
                    f"for agents {missing}"
                )
            self.margins = tubes.baseline_r_ball
        else:
            self.margins = tubes.margin_radius
        self.radius_table = initial_broadcast(self.margins, self.graph)

        # certify checked the box against the certified margins, this run checks its own
        error_boxes = error_box_tightening(cfg.ocp.error_box, self.margins, tubes.id)
        self.specs = OcpSpec.design(
            cfg.dims, self.horizon, sim.ts, cfg.ocp.qr, cfg.ocp.r, cfg.ocp.rdelta,
            self.graph.m.diagonal().tolist(), tubes.input_bound_tightened.tolist(), error_boxes,
        )

        self._drift = DriftTable.stack(cert.drifts, np.arange(1, self.n + 1))
        self._terminal_gains = np.stack([spec.terminal_gain for spec in self.specs])
        tube_r2 = tubes.r**2
        self._occ_scale = np.r_[max(cert.leader.r_ball0**2, 1e-300), np.maximum(tube_r2, 1e-300)]
        # monitor limits: the leader tube, then (tube, margin) per follower
        limits = np.r_[cert.leader.r_ball0, np.column_stack([tube_r2, self.margins]).ravel()]
        self._limits = limits * (1.0 + 1e-6)
        # the last broadcast: every agent's plan and terminal error
        self.plans = np.zeros((self.n, self.horizon, self.d))
        self.terminal = np.zeros((self.n, self.nd))
        self._drive_map = self.graph.nu1 * self.graph.adjacency
        self._offsets = np.asarray(cfg.offsets, dtype=float).reshape(self.n + 1, self.nd)
        # (reader, sender) per directed edge
        self._edges = np.nonzero(self.graph.adjacency > 0.0)
        self.infeasible_streak = [0] * self.n
        self.capped_solves, self.capped_own_row_failures = np.zeros(self.n, int), np.zeros(self.n, int)
        self.violations: list[SafetyViolation] = []
        self.leader_occupancy_peak = math.nan  # set by the end-of-run pass

        self.n_steps = int(round(sim.t_end / sim.ts))

        self._init_trace()
        # the readers' one-step predictions of their senders; at deployment, the measurements
        self._prev_preds = self._states[0, 1:, 0][self._edges[1]]

    # --- leader feedforward ---

    @functools.cached_property
    def leader_plan(self) -> LeaderPlan:
        """The leader, its followers' feedforward and every RK4 stage's exogenous record, once per run.

        One ``_substeps`` walk over the step starts gives the run's (steps, 4 fs) RK4 stage times in
        call order, and one ``DisturbanceStack.evaluate`` call every agent's disturbance there, the
        followers' into slot 2 of ``exogenous``. The leader is integrated alone into the trace's
        leader rows and times with the world's substeps and drift arithmetic, each stage adding its
        own disturbance and writing its drift into slot 0. One ``_leader_ff_samples``
        call propagates each distinct (step, hop count) anchor from its own start time,
        bit-equal per row to propagating every (step, follower) anchor. Its first period gives
        the leader's nominal (hop count 0: a rooted graph pins one) and the anchors' stage
        drifts, gathered per follower into slot 1 and, for the followers not pinned, slot 0.
        """
        ts, n_steps, fs, nd, d = self.sim.ts, self.n_steps, self.sim.fine_substeps, self.nd, self.d
        step_starts, times = np.arange(n_steps) * ts, []  # times: per RK4 stage, in call order
        for _ in self._substeps(lambda x, t: times.append(t) or x, np.empty((n_steps, 0)), step_starts):
            pass
        configs = [section.disturbance for section in (self.cfg.leader, *self.cfg.agents)]
        disturbance = DisturbanceStack(configs, d, self.sim.seed, ts / fs)
        w = disturbance.evaluate(np.stack(times, axis=1))  # (steps, 4 fs, N+1, d)
        # the row-stack path, for speed: a one-row stack's value beats the leader's own table's
        drift = DriftTable.stack(self.cert.drifts, np.zeros(1, int))
        rows = self._states[:, 0]  # the leader's (x, xb, dx) per fine step
        exogenous = np.empty((n_steps, 4 * fs, 3, self.n, d))
        exogenous[:, :, 2] = w[:, :, 1:]
        stages = zip(exogenous.reshape(-1, 3, self.n, d), w[:, :, :1].reshape(-1, 1, d))

        def rhs(x, time):
            f = drift.value(x, time)
            slots, own = next(stages)
            slots[0] = f[0]
            return chain_derivative(self.dims, x, f + own)

        x = rows[:1, 0]
        for k in range(n_steps):
            for j, (x, t) in enumerate(self._substeps(rhs, x, k * ts), k * fs + 1):
                rows[j, 0], self._times[j] = x[0], t
        hop_counts, column = np.unique(self.cert.tubes.hops, return_inverse=True)
        hops = len(hop_counts)
        estimates = relayed_estimates(rows[:-1:fs, 0], hop_counts)  # (steps, hop counts, nd)
        record = np.empty((fs, n_steps * hops, nd)), np.empty((4 * fs, n_steps * hops, d))
        ff = self._leader_ff_samples(estimates.reshape(-1, nd), np.repeat(step_starts, hops), record)
        ff = ff.reshape(n_steps, hops, self.horizon, d)[:, column]
        rows[1:, 1] = record[0][:, ::hops].swapaxes(0, 1).reshape(-1, nd)
        exogenous[:, :, 1] = record[1].reshape(4 * fs, n_steps, hops, d).swapaxes(0, 1)[:, :, column]
        relayed = self.cert.tubes.hops > 0
        exogenous[:, :, 0, relayed] = exogenous[:, :, 1, relayed]
        return LeaderPlan(ff, exogenous)

    def _leader_ff_samples(self, anchors: np.ndarray, t0: float | np.ndarray, record=None) -> np.ndarray:
        """(R, horizon, d) feedforward from the (R, nd) anchors, from t0 or one t0 per anchor; a ``record``
        of (fs, R, nd) and (4 fs, R, d) gets the first period's substeps and stage drifts, in call order."""
        drift = self.cert.drifts[0].value
        samples = np.zeros((len(anchors), self.horizon, self.d))
        states, stages = map(iter, record or ((), ()))  # past the record, a write lands on itself
        state = anchors
        t = t0

        def nominal(x, time):
            top = drift(x, time)
            next(stages, top)[...] = top
            return chain_derivative(self.dims, x, top)

        samples[:, 0] = drift(state, t)
        for l in range(1, self.horizon):
            for state, t in self._substeps(nominal, state, t):
                next(states, state)[...] = state
            samples[:, l] = drift(state, t)
        return samples

    def _substeps(self, f, x: np.ndarray, t: float | np.ndarray):
        """One sampling period of RK4 substeps of dx/dt = f(x, t): yields (x, t) after each."""
        h = self.sim.ts / self.sim.fine_substeps
        for _ in range(self.sim.fine_substeps):
            x = rk4_step(f, x, t, h)
            t = t + h
            yield x, t

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
        x = self._states[k * self.sim.fine_substeps, 1:, 0]  # the followers' measurements
        if k == 0:
            shifted = np.zeros((n, h, self.d))
            preds = np.broadcast_to(x[None, :, None], (n, n, h + 1, self.nd))
        else:
            shifted = shift_plan(self.plans, self.terminal, self._terminal_gains)
            # every spec shares the chain maps (same dims, period and horizon)
            preds = rollout(self.specs[0], x[None], shifted[None] + ff_samples[:, None])
            if not np.all(np.isfinite(preds)):
                raise NonFiniteState("neighbor rollout produced non-finite states")
        s_seqs = np.tensordot(self._drive_map, shifted, axes=1)
        return shifted, preds, s_seqs

    def _row_grid(self, i: int, k: int, ff_seq: np.ndarray, preds: np.ndarray, shifted: np.ndarray):
        """Agent i's eCBF row grid at step k, over the steps before the terminal law.

        The cells are the obstacles, then agent i's neighbors, none at
        deployment (k = 0). A neighbor cell's chain is reader i's prediction of
        it, its top derivative its shifted plan plus i's feedforward, and its
        radius the broadcast radius table's entry.
        """
        steps = self.horizon - 1  # the last input follows the terminal law
        nbrs = self.graph.neighbors(i) if k > 0 else []
        n_obs = len(self._obstacle_chains)
        ff = ff_seq[:steps, None]
        obstacles = np.broadcast_to(self._obstacle_chains, (steps, n_obs, self.nd))
        x_other = np.concatenate([obstacles, preds[i, nbrs, :steps].swapaxes(0, 1)], axis=1)
        top_other = shifted[nbrs, :steps].swapaxes(0, 1) + ff
        top_exo = ff - np.concatenate([np.zeros((steps, n_obs, self.d)), top_other], axis=1)
        keep_out = np.concatenate([self._obstacle_keep_out, np.full(len(nbrs), self.cfg.barriers.d_safe)])
        radius_other = np.concatenate([np.zeros(n_obs), self.radius_table[i, nbrs]])
        return RowGrid(
            self.kappa, self.dims, x_other, top_exo, keep_out, self.margins[i], radius_other,
            np.repeat([0, 1], [n_obs, len(nbrs)]), self._obstacle_chains[:, : self.d],
            self.cfg.barriers.activation_range,
        )

    @staticmethod
    def _breaks_own_rows(grid: RowGrid, states: np.ndarray, inputs: np.ndarray) -> bool:
        """Whether a plan's eCBF rows a . v_step + b at its own ``states`` are degenerate or below -1e-6."""
        try:
            rows = grid.rows(states)
        except DegenerateGradient:
            return True
        return np.min(np.sum(rows.a * inputs[rows.step], axis=1) + rows.b, initial=math.inf) < -1e-6

    def step(self, k: int) -> dict:
        """One sampling instant: measure, read the leader plan, predict, solve, broadcast, apply."""
        ff_samples = self.leader_plan.ff_samples[k]
        shifted, preds, s_seqs = self._neighbor_data(k, ff_samples)
        measured = self._states[k * self.sim.fine_substeps, :, :2]  # every agent's (x, xb) at k ts

        # mean error of last step's one-step predictions over the directed edges
        readers, senders = self._edges
        dist = np.linalg.norm(self._prev_preds - measured[1:, 0][senders], axis=1)
        pred_err = float(np.sum(dist)) / max(senders.size, 1)
        self._prev_preds = preds[readers, senders, 1]

        # synchronization errors (e^i_1, ..., e^i_n) of all followers
        e0s = self.graph.sync_errors(measured[:, 0] - self._offsets)

        # an agent without a plan rides its shifted previous plan, logged as a fallback
        plans = shifted.copy()
        solver = np.tile([2.0, 0.0, 0.0, math.inf], (self.n, 1))  # status, QP iters, passes, obj
        for i, spec in enumerate(self.specs):
            grid = self._row_grid(i, k, ff_samples[i], preds, shifted)
            try:
                sol = solve_ocp(
                    spec, e0s[i], measured[i + 1, 1], s_seqs[i], ff_samples[i], self.plans[i, 0],
                    shifted[i], row_builder=grid.rows,
                )
            except DegenerateGradient:
                sol = None
            if sol is not None and sol.sqp_passes == SQP_MAX_PASSES and not sol.converged:
                self.capped_solves[i] += 1
                if sol.slack <= 1e-6:
                    states = rollout(spec, measured[i + 1, 1], sol.inputs + ff_samples[i])
                    self.capped_own_row_failures[i] += self._breaks_own_rows(grid, states, sol.inputs)
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
        # every broadcast plan's terminal error, through the chain maps every spec shares
        drives = s_seqs - self.graph.m.diagonal()[:, None, None] * plans
        terminal = rollout(self.specs[0], e0s, drives)[:, -1]
        # broadcast: a non-finite plan or terminal error leaves the previous broadcast in place
        bad = ~(np.isfinite(plans).all(axis=(1, 2)) & np.isfinite(terminal).all(axis=1))
        if bad.any():
            raise NonFiniteState(f"agent {np.argmax(bad) + 1}: plan carries non-finite values")
        self.plans, self.terminal = plans, terminal

        stats = {"plans": plans, "e0": e0s, "solver": solver, "pred_err": pred_err}
        self._log_row(k, stats)
        self._integrate_interval(k)
        return stats

    # --- fine integration ---

    def _world_derivative(self, state: np.ndarray, t: float, v0: np.ndarray, stages) -> np.ndarray:
        """RHS of the world ODE without the feedforward on the followers' (N, 2, nd) true and nominal
        states, reading the disturbance of the next RK4 stage record of ``stages``: the own drift, the
        held nominal input, the ancillary feedback and w drive the true state, the held input the nominal."""
        w = next(stages)[2]
        x, xb = state[:, 0], state[:, 1]
        u = v0 - (x - xb) @ self.gain.T
        return chain_derivative(self.dims, state, np.stack([self._drift.value(x, t) + u + w, v0], axis=1))

    def _deviation_walk(self, params: np.ndarray, t0: float) -> np.ndarray:
        """(fs, rows, 2, nd): (dx, xb) after each RK4 substep of dx' = Acl dx + G drive,
        xb' = A0 xb + G (v0 + anchor) from t0, per ``params`` row: the start (dx, xb), v0,
        then per stage in call order drive = cancel + w - anchor and the anchor drift."""
        nd, d, fs = self.nd, self.d, self.sim.fine_substeps
        v0 = params[:, 2 * nd : 2 * nd + d]
        stages = iter(params[:, 2 * nd + d :].reshape(len(params), 2, 4 * fs, d).transpose(2, 1, 0, 3))

        def rhs(z, t):
            drive, anchor = next(stages)
            return chain_derivative(self.dims, z, np.stack([drive - z[:, 0] @ self.gain.T, v0 + anchor], 1))

        return np.array([z for z, _ in self._substeps(rhs, params[:, : 2 * nd].reshape(-1, 2, nd), t0)])

    @functools.cached_property
    def _interval_maps(self) -> np.ndarray:
        """(P, fs 2 nd): ``_deviation_walk`` as a linear map of its P parameters, walked over the identity."""
        p = 2 * self.nd + self.d + 8 * self.sim.fine_substeps * self.d
        return self._deviation_walk(np.eye(p), 0.0).swapaxes(0, 1).reshape(p, -1)

    def _integrate_interval(self, k: int) -> None:
        """Integrate one sampling interval from the followers' row k fs into the rows its RK4 substeps reach,
        the stages reading the leader pass's records in call order (k2 and k3 share a time, not a state).
        With the feedforward: one product with ``_interval_maps``, walked if non-finite (rk4_step names t)."""
        fs, ts = self.sim.fine_substeps, self.sim.ts
        rows = self._states[k * fs : (k + 1) * fs + 1, 1:, :2]
        if not self.sim.feedforward_on:
            stages = iter(self.leader_plan.exogenous[k])
            rhs = functools.partial(self._world_derivative, v0=self.plans[:, 0], stages=stages)
            rows[1:] = [state for state, _ in self._substeps(rhs, rows[0], k * ts)]
            return
        cancel, anchor, w = self.leader_plan.exogenous[k].transpose(1, 2, 0, 3).reshape(3, self.n, -1)
        dx, xb = rows[0, :, 0] - rows[0, :, 1], rows[0, :, 1]
        params = np.concatenate([dx, xb, self.plans[:, 0], cancel + w - anchor, anchor], axis=1)
        dev = (params @ self._interval_maps).reshape(self.n, fs, 2, self.nd).swapaxes(0, 1)
        if not np.all(np.isfinite(dev)):
            dev = self._deviation_walk(params, k * ts)
        rows[1:, :, 1] = dev[:, :, 1]
        rows[1:, :, 0] = rows[1:, :, 1] + dev[:, :, 0]

    # --- the run's record: trace columns and safety monitors ---

    def _init_trace(self) -> None:
        """Trace columns and the trace array, one row per fine step, which records the run.

        Row j > 0 holds every agent's true and nominal state (leader first, from
        the leader pass) and the time after RK4 substep j; row 0 holds the
        deployment state. ``_states`` (rows, N+1, x/xb/dx, nd) and ``_times``
        are views of those columns.
        """
        n = self.n
        groups, rows = trace_layout(self.cfg, self.sim, "t_end")
        self.trace_columns = [c for cols in groups.values() for c in cols]
        bounds = np.cumsum([0] + [len(cols) for cols in groups.values()])
        self._trace_cols = {g: slice(a, b) for g, a, b in zip(groups, bounds[:-1], bounds[1:])}
        try:
            self.trace_data = np.zeros((rows, len(self.trace_columns)))
        except MemoryError as exc:
            raise MemoryError(f"{exc} (t_end {self.sim.t_end:g} is too long to record)") from None
        self._states = self.trace_data[:, self._trace_cols["states"]].reshape(rows, n + 1, 3, -1)
        self._times = self.trace_data[:, 0]
        self._states[0, :, :2] = initial_states(self.cfg)[:, None]

    def _log_row(self, k: int, stats: dict) -> None:
        """Write step k's held values into its interval's rows (and the final row at the end)."""
        fs, cols = self.sim.fine_substeps, self._trace_cols
        rows = self.trace_data[k * fs : (k + 1) * fs + (k == self.n_steps - 1)]
        rows[:, cols["k"]] = k
        rows[:, cols["u"]] = self.plans[:, 0].ravel()
        held = [stats["e0"], stats["plans"], stats["solver"], stats["pred_err"]]
        rows[:, cols["held"]] = np.concatenate([np.ravel(v) for v in held])

    def _check_safety(self) -> None:
        """The end-of-run pass over the recorded states: safety violations and derived columns.

        The monitors read the states and times as integrated, the deployment
        state (row 0) included. The trace then logs each sampling instant k,
        the final one k = n_steps included, at t = k ts with the leader nominal
        re-anchored to the leader (so a violation's ``t`` is the accumulated
        substep time, and the trace's leader deviation there is 0).
        ``leader_occupancy_peak`` keeps the leader tube's peak
        ||dx0||^2 / r_ball0^2 as integrated, which the trace's ``occ0`` misses
        at those instants.
        """
        fs, d, n = self.sim.fine_substeps, self.d, self.n
        states, rows = self._states, len(self._times)
        # read before the logged form overwrites them
        leader_dev = np.linalg.norm(states[:, 0, 0] - states[:, 0, 1], axis=-1)
        self.leader_occupancy_peak = float(np.max(leader_dev) ** 2 / self._occ_scale[0])
        times = self._times.copy()
        # the logged form: each sampling instant at k ts, its leader nominal re-anchored
        states[::fs, 0, 1] = states[::fs, 0, 0]
        self._times[::fs] = np.arange(self.n_steps + 1) * self.sim.ts
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
        agent_clr = np.min(dist - radii, axis=-1, initial=math.inf)  # (rows, N)
        clr_obs = np.min(agent_clr, axis=-1)
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

        def violation(j: int, s: int) -> SafetyViolation:
            """Slot s at fine step j, naming the follower nearest an obstacle and that
            obstacle, the closest pair (lower id first), or the slot's agent."""
            if s == 0:
                i = int(np.argmin(agent_clr[j]))
                agent, other = i + 1, int(np.argmin(dist[j, i] - radii))
            elif s == 1:
                g = np.argmin(gaps[j])
                agent, other = int(first[g]) + 1, int(second[g]) + 1
            else:  # the leader's tube, then each follower's two slots
                agent, other = (s - 1) // 2, None
            return SafetyViolation(kinds[s], j, times[j].item(), agent, values[j, s].item(), other)

        step, slot = np.nonzero(bad)
        self.violations = [violation(j, s) for j, s in zip(step.tolist(), slot.tolist())]

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


def trace_metrics(trace: SimTrace) -> dict:
    """Scalar metrics of one trace: clearances, errors, occupancy, solver stats."""
    t = trace.col("t")
    stacked = trace.col("ferr_stacked")
    tail = t >= t[-1] - FINAL_WINDOW_S
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
        "max_margin_fraction": _margin_fractions(trace, followers),
        "max_interval_dip": {
            kind: _max_interval_dip(trace, col)
            for kind, col in (("obstacle", "clr_obs"), ("pairwise", "clr_pair"))
        },
    }
    return metrics


def _max_interval_dip(trace: SimTrace, col: str) -> dict | None:
    """The barrier's worst dip inside a sampling interval: the largest clr(t_k) minus the
    minimum of clr over the interval's rows k fs .. (k+1) fs, with its step k; null for an
    absent (inf) clearance or a trace without ``fine_substeps``."""
    clr, fs = trace.col(col), int(trace.metadata.get("fine_substeps", 0))
    if fs < 1 or len(clr) <= fs or not np.all(np.isfinite(clr)):
        return None
    intervals = np.lib.stride_tricks.sliding_window_view(clr, fs + 1)[::fs]
    dips = intervals[:, 0] - intervals.min(axis=1)
    k = int(np.argmax(dips))
    return {"dip": float(dips[k]), "step": k}


def _margin_fractions(trace: SimTrace, followers: int) -> dict[str, float | None]:
    """Per follower, the run maximum of ||dx_i|| / margin_i; null without ``margin_radii``."""
    radii = trace.metadata.get("margin_radii")
    if not radii:  # a trace written before the metadata existed
        return {str(i): None for i in range(1, followers + 1)}
    fractions = {}
    for i, margin in enumerate(map(float, radii.split(";")), 1):
        cols = [j for j, c in enumerate(trace.columns) if c.startswith(f"dx{i}_")]
        fractions[str(i)] = float(np.max(np.linalg.norm(trace.data[:, cols], axis=1)) / max(margin, 1e-300))
    return fractions
