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
integrated alone with the world's substeps and disturbance draws, its drift's
time factors evaluated in one call over every stage time, the relayed
estimates as one gather of its samples by the certificate's hop counts (one
step of delay per hop), and one propagation of that (steps, hop counts) grid
of anchors, each stage's time factors evaluated once per step, gathered per
follower. Step k reads slice k. The controller still
sees only step k's causal relayed estimates; computing them ahead is a batch
on the simulator's side. The leader, its feedforward and the world advance
through one sampling period with the same RK4 substeps (``SimWorld._substeps``).

The world holds the last broadcast, ``plans`` (N, H, d) and ``terminal``
(N, nd), zeros at deployment; step k reads step k-1's, then replaces them and
holds ``plans[:, 0]`` over its interval. The round is array algebra over one
horizon map and one graph matrix: one ``shift_plan`` call shifts the last
broadcast's plans, one ``rollout`` call gives all readers' predictions of all
agents, the synchronization errors are -M q with the augmented Laplacian M,
the error drives are nu1 A on the shifted plans, and the team's eCBF rows
are one ``barrier.RowGrid`` per step with a leading agent axis, over each
agent's obstacles and, after deployment, every other follower
(``SimWorld._team_grid``): the certificate's protected pairs are every
ordered follower pair, graph neighbors or not, so a pair cell reads the
reader's prediction of that follower, and the radius table broadcast once
holds every follower's radius. One rollout of all shifted plans and one
``RowGrid.team_rows`` call give every agent's rows at its warm start
(``SimWorld._warm_rows``); each agent's ``solve_ocp`` receives its block and
its own grid, whose ``guard`` checks the plans it returns and whose ``rows``
linearize a second QP. What a grid's cells hold besides the predicted chains
and tops is fixed for the run, one team table built at construction. Two
things are out of scope and
unmeasured: a margin for the error of the neighbor predictions (a neighbor
may deviate from its shifted broadcast), and rows from sensed, rather than
broadcast, neighbor positions.

The trace's state rows are the run's one record of states. The leader pass
fills the leader's rows and the times; step k measures every agent at row
k fs, and its interval writes the followers' RK4 substeps into the rows they
reach. A follower's deviation obeys dx' = Acl dx + G drive and its nominal
xb' = A0 xb + G (v0 + anchor), read per RK4 stage from the leader pass's
record. With the feedforward, drive = (cancel + w) - anchor, cancelling toward
the true leader's drift if pinned, else the anchor's, and an interval is one
product with a linear map of (dx, xb, v0, record) built once per run by a
``_substeps`` walk over the identity. Without it, drive = w + f_i(xb + dx),
anchor = 0, and that walk integrates each interval. Every step writes its
held values into its interval's rows. One array pass at the end of the run
builds the safety violations and the state-derived columns.
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
from .ocp import ROW_TOL, OcpSpec, rollout, solve_ocp
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
    exogenous: np.ndarray  # (steps, N, 2 4 fs d) every stage's drive, then every stage's anchor drift


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
        self.radius_table = initial_broadcast(self.margins, cert.protected)
        self._init_cells()

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

    def _init_cells(self) -> None:
        """The per-run team eCBF cell table: (others, keep-outs, other radii, groups), one row per agent,
        at deployment (the obstacles only) and after it (the obstacles, then every follower the agent
        keeps a pair row against, the certificate's protected pairs: all the others, by index), and the
        team grid's obstacle cells, their constant chains and zero tops over the free steps."""
        n, steps, n_obs = self.n, self.horizon - 1, len(self._obstacle_keep_out)
        self._obstacle_cells = np.broadcast_to(self._obstacle_chains, (n, steps, n_obs, self.nd))
        self._obstacle_tops = np.zeros((n, steps, n_obs, self.d))

        def cells(others: np.ndarray) -> tuple:
            keep_out = np.full((n, n_obs + others.shape[1]), self.cfg.barriers.d_safe)
            keep_out[:, :n_obs] = self._obstacle_keep_out
            radius_other = np.zeros(keep_out.shape)
            radius_other[:, n_obs:] = self.radius_table[np.arange(n)[:, None], others]
            group = np.broadcast_to(np.repeat([0, 1], [n_obs, others.shape[1]]), keep_out.shape)
            return others, keep_out, radius_other, group

        readers, others = self.cert.protected.T
        others = np.stack([others[readers == i] for i in range(n)])
        self._cells = cells(others[:, :0]), cells(others)

    # --- leader feedforward ---

    @functools.cached_property
    def leader_plan(self) -> LeaderPlan:
        """The leader, its followers' feedforward and every interval's stage inputs, once per run.

        One ``_substeps`` walk over the step starts gives the run's (steps, 4 fs) RK4 stage times in
        call order; one ``DisturbanceStack.evaluate`` call gives every agent's disturbance there, the
        followers' into the drives, and one ``DriftTable.sines`` call the leader's time factors. The
        leader is integrated alone into the trace's leader rows and times with the world's substeps
        and drift arithmetic, each stage adding its own disturbance. One ``_leader_ff_samples`` call
        propagates the (steps, hop counts) grid of relayed anchors from the (steps, 1) step starts,
        bit-equal per anchor to propagating every (step, follower) anchor. Its first period gives the
        leader's nominal (the hop-0 column: a rooted graph pins one), written straight into the trace's
        leader rows, and the anchors' stage drifts.
        With the feedforward, these fill the anchor blocks per follower and each drive becomes
        (cancel + w) - anchor in place, cancelling toward the leader's stage drift if pinned, else the
        anchor's; without it, the drive stays w and the anchor drift 0.
        """
        ts, n_steps, fs, nd, d = self.sim.ts, self.n_steps, self.sim.fine_substeps, self.nd, self.d
        step_starts, times = np.arange(n_steps) * ts, []  # times: per RK4 stage, in call order
        for _ in self._substeps(lambda x, t: times.append(t) or x, np.empty((n_steps, 0)), step_starts):
            pass
        times = np.stack(times, axis=1)  # (steps, 4 fs)
        configs = [section.disturbance for section in (self.cfg.leader, *self.cfg.agents)]
        disturbance = DisturbanceStack(configs, d, self.sim.seed, ts / fs)
        w = disturbance.evaluate(times)  # (steps, 4 fs, N+1, d)
        exogenous = np.zeros((n_steps, self.n, 2, 4 * fs, d))
        drive, anchor = exogenous[:, :, 0], exogenous[:, :, 1]  # (steps, N, 4 fs, d) each
        drive[...] = w[:, :, 1:].swapaxes(1, 2)
        own = w[:, :, :1].reshape(-1, 1, d).copy()  # the leader's own, per stage in call order
        del w  # before the time factors: the drives hold the followers' disturbances
        # the row-stack path, for speed: a one-row stack's value beats the leader's own table's
        drift = DriftTable.stack(self.cert.drifts, np.zeros(1, int))
        sines = drift.sines(times.reshape(-1, 1))  # (4 fs steps, 1, K), in call order
        rows = self._states[:, 0]  # the leader's (x, xb, dx) per fine step
        leader_drifts = np.empty((n_steps, 4 * fs, d))
        stages = zip(leader_drifts.reshape(-1, d), own, sines)

        def rhs(x, _):
            slot, w, factors = next(stages)
            f = drift.at(x, factors)
            slot[...] = f[0]
            return chain_derivative(self.dims, x, f + w)

        x = rows[:1, 0]
        for k in range(n_steps):
            for j, (x, t) in enumerate(self._substeps(rhs, x, k * ts), k * fs + 1):
                rows[j, 0], self._times[j] = x[0], t
        del own, stages, sines
        hop_counts, column = np.unique(self.cert.tubes.hops, return_inverse=True)
        estimates = relayed_estimates(rows[:-1:fs, 0], hop_counts)  # (steps, hop counts, nd)
        substeps = [rows[j::fs, 1] for j in range(1, fs + 1)]  # views: substep j of every step
        record = substeps, np.empty((4 * fs, *estimates.shape[:2], d))
        ff = self._leader_ff_samples(estimates, step_starts[:, None], record)[:, column]
        if self.sim.feedforward_on:
            stage_drifts = record[1].swapaxes(0, 1)  # (steps, 4 fs, hop counts, d)
            for i, (c, relayed) in enumerate(zip(column, self.cert.tubes.hops > 0)):
                anchor[:, i] = stage_drifts[:, :, c]
                drive[:, i] += anchor[:, i] if relayed else leader_drifts  # cancel + w
            drive -= anchor
        return LeaderPlan(ff, exogenous.reshape(n_steps, self.n, -1))

    def _leader_ff_samples(self, anchors: np.ndarray, t0: float | np.ndarray, record=None) -> np.ndarray:
        """(..., horizon, d) feedforward from the (..., nd) anchors, from t0 or from times t0 that broadcast
        against their rows; each stage evaluates its time factors once, at t0's shape. For an (R, H, nd)
        anchor grid, a ``record`` of fs (R, nd) slots and a (4 fs, R, H, d) array gets the first period's
        substeps of anchor column 0 and every stage drift, in call order."""
        drift = self.cert.drifts[0].value
        samples = np.zeros((*anchors.shape[:-1], self.horizon, self.d))
        states, stages = map(iter, record or ((), ()))  # past the record, a write lands on itself
        state = anchors
        t = t0

        def nominal(x, time):
            top = drift(x, time)
            next(stages, top)[...] = top
            return chain_derivative(self.dims, x, top)

        samples[..., 0, :] = drift(state, t)
        for l in range(1, self.horizon):
            for state, t in self._substeps(nominal, state, t):
                next(states, state[..., 0, :])[...] = state[..., 0, :]
            samples[..., l, :] = drift(state, t)
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

    def _team_grid(self, k: int, ff_samples: np.ndarray, preds: np.ndarray, shifted: np.ndarray) -> RowGrid:
        """The team's eCBF row grid at step k, over the steps before the terminal law.

        Agent i's cells are the obstacles, then every other follower that it
        keeps a pair row against, none at deployment (k = 0). A pair cell's
        chain is reader i's prediction of it, its top derivative its shifted
        plan plus i's feedforward, and its radius the broadcast radius table's
        entry. Everything but the predicted chains and tops comes from the
        per-run ``_cells`` table.
        """
        steps = self.horizon - 1  # the last input follows the terminal law
        others, keep_out, radius_other, group = self._cells[k > 0]
        ff = ff_samples[:, :steps, None]
        x_pairs = preds[np.arange(self.n)[:, None], others, :steps].swapaxes(1, 2)
        x_other = np.concatenate([self._obstacle_cells, x_pairs], axis=2)
        top_other = shifted[others, :steps].swapaxes(1, 2) + ff
        top_exo = ff - np.concatenate([self._obstacle_tops, top_other], axis=2)
        return RowGrid(
            self.kappa, self.dims, x_other, top_exo, keep_out, self.margins, radius_other, group,
            self.cfg.barriers.activation_range,
        )

    def _warm_rows(self, k: int, ff_samples: np.ndarray, preds: np.ndarray, shifted: np.ndarray) -> tuple:
        """Step k's team grid and every agent's rows at its warm start, the shifted plan.

        One rollout of all shifted plans from the followers' nominal states,
        each x0 as a (1, nd) row so that every agent's product stays a
        matrix-vector product, and one ``RowGrid.team_rows`` call: bit for bit
        each agent's ``rows`` at its own rollout. An agent with a zero position
        offset to a cell has None.
        """
        x0 = self._states[k * self.sim.fine_substeps, 1:, 1, None]  # (N, 1, nd)
        states = rollout(self.specs[0], x0, (shifted + ff_samples)[:, None])[:, 0]
        grid = self._team_grid(k, ff_samples, preds, shifted)
        return grid, grid.team_rows(states, shifted)

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
        grid, warm_rows = self._warm_rows(k, ff_samples, preds, shifted)
        for i, spec in enumerate(self.specs):
            try:
                sol = solve_ocp(
                    spec, e0s[i], measured[i + 1, 1], s_seqs[i], ff_samples[i], self.plans[i, 0],
                    shifted[i], grid.agent(i), warm_rows[i],
                )
            except DegenerateGradient:
                sol = None
            if sol is not None:  # the solves that took the second QP, and the zero-slack relaxed ones
                self.capped_solves[i] += sol.sqp_passes == 2
                self.capped_own_row_failures[i] += not sol.converged and sol.slack <= ROW_TOL
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

    def _deviation_walk(self, params: np.ndarray, t0: float) -> np.ndarray:
        """(fs, rows, 2, nd): (dx, xb) after each RK4 substep of dx' = Acl dx + G drive,
        xb' = A0 xb + G (v0 + anchor) from t0, per ``params`` row: the start (dx, xb), v0, then
        every stage's drive and every stage's anchor drift, in call order. Without the feedforward,
        each stage's drive also takes the followers' own drift at x = xb + dx, one N-row call."""
        nd, d, fs = self.nd, self.d, self.sim.fine_substeps
        v0 = params[:, 2 * nd : 2 * nd + d]
        stages = iter(params[:, 2 * nd + d :].reshape(len(params), 2, 4 * fs, d).transpose(2, 1, 0, 3))

        def rhs(z, t):
            drive, anchor = next(stages)
            if not self.sim.feedforward_on:
                drive = drive + self._drift.value(z[:, 1] + z[:, 0], t)
            return chain_derivative(self.dims, z, np.stack([drive - z[:, 0] @ self.gain.T, v0 + anchor], 1))

        return np.array([z for z, _ in self._substeps(rhs, params[:, : 2 * nd].reshape(-1, 2, nd), t0)])

    @functools.cached_property
    def _interval_maps(self) -> np.ndarray:
        """(P, fs 2 nd): ``_deviation_walk``, with the feedforward, as a linear map of its P parameters."""
        p = 2 * self.nd + self.d + 8 * self.sim.fine_substeps * self.d
        return self._deviation_walk(np.eye(p), 0.0).swapaxes(0, 1).reshape(p, -1)

    def _integrate_interval(self, k: int) -> None:
        """Integrate one sampling interval from the followers' row k fs into the rows its RK4 substeps reach,
        the stages reading step k's inputs from the leader pass in call order (k2 and k3 share a time, not a
        state). With the feedforward, one product with ``_interval_maps``; without it, or if the product is
        non-finite (so rk4_step names the substep's t), ``_deviation_walk``."""
        fs = self.sim.fine_substeps
        rows = self._states[k * fs : (k + 1) * fs + 1, 1:, :2]
        dx, xb = rows[0, :, 0] - rows[0, :, 1], rows[0, :, 1]
        params = np.concatenate([dx, xb, self.plans[:, 0], self.leader_plan.exogenous[k]], axis=1)
        if self.sim.feedforward_on:
            dev = (params @ self._interval_maps).reshape(self.n, fs, 2, self.nd).swapaxes(0, 1)
        if not self.sim.feedforward_on or not np.all(np.isfinite(dev)):
            dev = self._deviation_walk(params, k * self.sim.ts)
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
