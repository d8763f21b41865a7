import dataclasses
import functools
import json
import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import tubeform.sim
from tubeform import models, ocp
from tubeform.barrier import BarrierRows, assemble_row
from tubeform.cli import REPORT_COLUMNS, main
from tubeform.errors import DegenerateGradient, NonFiniteState, ScenarioError
from tubeform.graph import CommGraph
from tubeform.linalg import rk4_step
from tubeform.models import BALL_BLOCK, DisturbanceStack, chain_derivative
from tubeform.ocp import OcpSpec, rollout
from tubeform.pipeline import certify_scenario
from tubeform.protocol import relayed_estimates, shift_plan
from tubeform.scenario import initial_states, load_scenario, parse_scenario
from tubeform.sim import (
    FINAL_WINDOW_S,
    LeaderPlan,
    SimConfig,
    SimTrace,
    SimWorld,
    _repeated_suffix_starts,
    run_simulation,
    trace_metrics,
)

from oracles import agent_disturbance, chain_recurrence, plant_derivative, recorded_solves, savetxt_trace

SMOKE = "scenarios/smoke_scenario.json"
PAPER = "scenarios/paper_scenario.json"
ABLATION = "scenarios/ablation_scenario.json"


def equilibrium_doc():
    """Static leader, zero disturbances, followers parked on their slots."""
    doc = json.loads(open(SMOKE).read())
    zero_dist = {"kind": "sinusoid", "amp": [0.0, 0.0], "freq": [0.0, 0.0], "phase": [0.0, 0.0]}
    doc["leader"]["dynamics"]["axes"] = [[], []]
    doc["leader"]["dynamics"]["outer_gain"] = 1.0
    doc["leader"]["disturbance"] = zero_dist
    doc["leader"]["disturbance_bound"] = 0.0
    doc["leader"]["lipschitz"] = 0.0
    # a drift-free leader needs a declared stabilizing component for its
    # nominal-deviation Lyapunov pair; poles (-1,-2,-3) per axis
    doc["leader"]["tube"]["stabilizer"] = [
        [6.0, 0.0, 11.0, 0.0, 6.0, 0.0],
        [0.0, 6.0, 0.0, 11.0, 0.0, 6.0],
    ]
    doc["obstacles"] = []
    for agent in doc["agents"]:
        agent["dynamics"]["axes"] = [[], []]
        agent["disturbance"] = zero_dist
        agent["disturbance_bound"] = 0.0
        agent["lipschitz"] = 0.0
    doc["initial_states"]["leader"] = [0.0] * 6
    doc["initial_states"]["followers"] = [
        [-1.2, 0.8, 0, 0, 0, 0],
        [1.2, 0.8, 0, 0, 0, 0],
    ]
    doc["sim"]["t_end"] = 1.0
    return doc


class TestEquilibrium:
    def test_zero_error_preserved(self):
        cfg = parse_scenario(json.dumps(equilibrium_doc()))
        cert = certify_scenario(cfg, spot_checks=False)
        result = run_simulation(cfg, cert)
        assert not result.violations
        assert float(np.max(result.trace.col("ferr_stacked"))) <= 1e-9

    def test_metrics_of_static_run(self):
        doc = equilibrium_doc()
        doc["obstacles"] = [{"center": [5.0, 0.0], "radius": 1.0, "inflation": 0.1}]
        cfg = parse_scenario(json.dumps(doc))
        cert = certify_scenario(cfg, spot_checks=False)
        result = run_simulation(cfg, cert)
        m = trace_metrics(result.trace)
        assert m["final_mean_stacked_error"] <= 1e-9
        # clearance = geometric distance - physical radius / - d_safe
        d1 = math.hypot(5.0 - 1.2, 0.8)
        assert m["min_obstacle_clearance"] == pytest.approx(d1 - 1.0, abs=1e-6)
        assert m["min_pairwise_clearance"] == pytest.approx(2.4 - 0.25, abs=1e-6)


class TestSingleAgentObstacle:
    def test_head_on_clearance_positive(self):
        doc = equilibrium_doc()
        doc["dims"]["followers"] = 1
        doc["agents"] = doc["agents"][:1]
        doc["graph"] = {"adjacency": [[0.0]], "b0": [1.0], "nu1": 1.0, "nu2": 1.0}
        doc["formation"]["offsets"] = [
            [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[3.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        ]
        # slightly off-axis so the dodge direction is well defined
        doc["obstacles"] = [{"center": [1.5, 0.15], "radius": 0.4, "inflation": 0.1}]
        doc["initial_states"]["followers"] = [[0.0, 0.0, 0.0, 0.0, 0.0, 0.0]]
        doc["sim"]["t_end"] = 12.0
        cfg = parse_scenario(json.dumps(doc))
        cert = certify_scenario(cfg, spot_checks=False)
        result = run_simulation(cfg, cert)
        assert float(np.min(result.trace.col("clr_obs"))) > 0.0
        # and the agent actually made it to the far side
        assert result.trace.col("x1_10")[-1] > 2.0


def own_disturbance(world, agent, t):
    """Agent ``agent``'s disturbance at time t from its own formula, as the run seeds and steps it."""
    sim = world.sim
    step = sim.ts / sim.fine_substeps
    config = (world.cfg.leader, *world.cfg.agents)[agent].disturbance
    return agent_disturbance(config, world.d, agent, sim.seed, step, t, block=BALL_BLOCK)


def leader_oracle(world, steps):
    """(steps + 1, nd) leader states at k ts, integrated here with ``rk4_step``, the leader's
    own drift and its disturbance formula, the clock restarting at k ts as the world's does."""
    ts, fs = world.sim.ts, world.sim.fine_substeps

    def leader_rhs(x, t):
        top = world.cert.drifts[0].value(x, t) + own_disturbance(world, 0, t)
        return chain_derivative(world.dims, x, top)

    states = [initial_states(world.cfg)[0]]
    for k in range(steps):
        x, t = states[-1], k * ts
        for _ in range(fs):
            x, t = rk4_step(leader_rhs, x, t, ts / fs), t + ts / fs
        states.append(x)
    return np.array(states)


def followers_at(world, k):
    """The followers' (N, 2, nd) true and nominal states at k ts: row k fs of the world's record."""
    return world._states[k * world.sim.fine_substeps, 1:, :2]


def leader_samples(world):
    """The (steps, nd) leader's true state at each step's k ts, from the world's record."""
    return world._states[: -1 : world.sim.fine_substeps, 0, 0]


def anchor_rhs(world):
    """The RK4 right-hand side of an anchor: the leader's chain under its own drift, no disturbance."""
    f0 = world.cert.drifts[0].value
    return lambda x, t: chain_derivative(world.dims, x, f0(x, t))


def rk4_interval(world, k, rhs, z):
    """(fs, ...) states after each substep of interval k by ``rk4_step`` from z, the clock restarting
    at k ts and accumulating as the world's does."""
    h, t, states = world.sim.ts / world.sim.fine_substeps, k * world.sim.ts, []
    for _ in range(world.sim.fine_substeps):
        z, t = rk4_step(rhs, z, t, h), t + h
        states.append(z)
    return np.array(states)


def disturbances(world, t):
    """The followers' (N, d) disturbances at t, each from its own formula."""
    return np.array([own_disturbance(world, i + 1, t) for i in range(world.n)])


class TestDeviationDynamics:
    @staticmethod
    def stepped_world(feedforward_on):
        cfg = load_scenario(SMOKE)
        cert = certify_scenario(cfg, spot_checks=False)
        world = SimWorld(cfg, cert, SimConfig.from_scenario(cfg, feedforward_on=feedforward_on))
        for k in range(3):
            world.step(k)
        return world, cert.pair.acl

    def test_closed_loop_matches_linear_form(self):
        """With the feedforward on, step 2's fine-integrated deviations match an independent
        ``rk4_step`` integration of the certified linear form within 1e-9:
        d(dx)/dt = Acl dx + G (leader-drift mismatch + w), integrated beside the leader and step
        2's anchors, the mismatch being the leader model at the true leader (pinned) or at the
        anchor (relayed) minus the model at the anchor."""
        world, acl = self.stepped_world(True)
        ts, fs, n = world.sim.ts, world.sim.fine_substeps, world.n
        _, g_sel = models.chain_matrices(world.dims)
        f0 = world.cert.drifts[0].value
        leader = leader_oracle(world, 3)
        pinned = (world.graph.b0 > 0)[:, None]
        mismatches = []

        def rhs(z, t):
            """The leader, the N anchors and the N deviations, stacked (1 + 2N, nd)."""
            x0, anchors, dx = z[0], z[1 : n + 1], z[n + 1 :]
            f_anchor = f0(anchors, t)
            mismatches.append(np.where(pinned, f0(x0, t), f_anchor) - f_anchor)
            w = np.array([own_disturbance(world, i + 1, t) for i in range(n)])
            out = np.empty_like(z)
            out[0] = chain_derivative(world.dims, x0, f0(x0, t) + own_disturbance(world, 0, t))
            out[1 : n + 1] = chain_derivative(world.dims, anchors, f_anchor)
            out[n + 1 :] = dx @ acl.T + (mismatches[-1] + w) @ g_sel.T
            return out

        start = followers_at(world, 2)
        z = np.vstack([leader[2], relayed_estimates(leader, world.cert.tubes.hops)[2], start[:, 0] - start[:, 1]])
        t = 2 * ts
        for j in range(2 * fs + 1, 3 * fs + 1):
            z, t = rk4_step(rhs, z, t, ts / fs), t + ts / fs
            dx = world._states[j, 1:, 0] - world._states[j, 1:, 1]
            assert np.max(np.abs(dx)) > 1e-6  # the deviations are really there
            assert np.max(np.abs(dx - z[n + 1 :])) < 1e-9
        mismatch = np.abs(mismatches)
        assert np.max(mismatch[:, pinned[:, 0]]) > 1e-6  # the leader's tube is there
        assert np.max(mismatch[:, ~pinned[:, 0]]) == 0.0

    def test_feedforward_off_matches_linear_form(self):
        """Without feedforward the own drift is not cancelled and the nominal ignores the leader:
        step 2's fine-integrated (dx, xb) match an ``rk4_step`` integration of d(dx)/dt =
        Acl dx + G (f_i(x) + w), xb' = A0 xb + G v0 with each follower's own model and disturbance
        formula within 1e-14 (5.1e-17 here)."""
        world, acl = self.stepped_world(False)
        a0, g = models.chain_matrices(world.dims)
        k, fs, v0 = 2, world.sim.fine_substeps, world.plans[:, 0]
        drives = []

        def rhs(z, t):
            dx, xb = z[:, 0], z[:, 1]
            own = [drift.value(x, t) for drift, x in zip(world.cert.drifts[1:], xb + dx)]
            drives.append(np.array(own) + disturbances(world, t))
            return np.stack([dx @ acl.T + drives[-1] @ g.T, xb @ a0.T + v0 @ g.T], axis=1)

        start = followers_at(world, k)
        expected = rk4_interval(world, k, rhs, np.stack([start[:, 0] - start[:, 1], start[:, 1]], axis=1))
        rows = world._states[k * fs + 1 : (k + 1) * fs + 1, 1:]
        got = np.stack([rows[:, :, 0] - rows[:, :, 1], rows[:, :, 1]], axis=2)
        assert np.max(np.abs(drives)) > 1e-3  # the uncancelled term is really there
        assert np.max(np.abs(got - expected)) < 1e-14

    def test_feedforward_off_interval_matches_the_plant_form(self):
        """Without feedforward, step 2's fine-integrated (x, xb) match an ``rk4_step`` integration of
        the plant form in (x, xb), ``oracles.plant_derivative``, from the same row within 1e-14
        (1.7e-16 here)."""
        world, _ = self.stepped_world(False)
        k, fs, v0 = 2, world.sim.fine_substeps, world.plans[:, 0]
        expected = rk4_interval(
            world, k, lambda state, t: plant_derivative(world, state, t, v0, disturbances(world, t)),
            followers_at(world, k),
        )
        got = world._states[k * fs + 1 : (k + 1) * fs + 1, 1:, :2]
        assert np.max(np.abs(got - expected)) < 1e-14


def smoke_trace(doc=None):
    """The trace of a 2 s smoke run, or of a run of the scenario document ``doc``."""
    cfg = parse_scenario(json.dumps(doc)) if doc else load_scenario(SMOKE)
    cert = certify_scenario(cfg, spot_checks=False)
    return run_simulation(cfg, cert, SimConfig.from_scenario(cfg, t_end=2.0)).trace


def trace_block(trace, prefix):
    """The trace columns whose names start with ``prefix``, side by side."""
    return trace.data[:, [c.startswith(prefix) for c in trace.columns]]


class TestFeedforwardCancellation:
    """On smoke, follower 1 is pinned and follower 2 relayed. A follower's deviation dx_i
    sees its own disturbance and, when pinned, the leader's tube, but never the plans."""

    def test_relayed_estimates_do_not_reach_the_deviations(self, monkeypatch):
        """The relayed (non-pinned) estimates of the leader plan, offset by 0.7, and their
        feedforward, propagated from the offset estimates, move the plans but no deviation."""
        real = tubeform.sim.relayed_estimates

        def offset(leader, hops):
            return real(leader, hops) + 0.7 * (hops > 0)[:, None]

        stock = smoke_trace()
        monkeypatch.setattr(tubeform.sim, "relayed_estimates", offset)
        moved = smoke_trace()
        assert np.max(np.abs(trace_block(moved, "plan") - trace_block(stock, "plan"))) > 1.0
        for prefix in ("dx1_", "dx2_"):
            gap = trace_block(moved, prefix) - trace_block(stock, prefix)
            assert np.max(np.abs(gap)) <= 1e-12, prefix

    def test_leader_disturbance_reaches_the_pinned_deviation_only(self):
        doc = json.loads(open(SMOKE).read())
        doc["leader"]["disturbance"]["amp"] = [0.0, 0.0]
        stock, calm = smoke_trace(), smoke_trace(doc)
        pinned = trace_block(calm, "dx1_") - trace_block(stock, "dx1_")
        relayed = trace_block(calm, "dx2_") - trace_block(stock, "dx2_")
        assert np.max(np.abs(pinned)) > 1e-6
        assert np.max(np.abs(relayed)) <= 1e-12


class TestLeaderFeedforward:
    def test_stacked_anchors_match_per_anchor_calls(self):
        cfg = load_scenario(SMOKE)
        cert = certify_scenario(cfg, spot_checks=False)
        world = SimWorld(cfg, cert, SimConfig.from_scenario(cfg))
        rng = np.random.default_rng(3)
        anchors = initial_states(cfg)[0] + 0.3 * rng.normal(size=(4, world.nd))
        stacked = world._leader_ff_samples(anchors, 0.7)
        assert stacked.shape == (4, world.horizon, world.d)
        for i, anchor in enumerate(anchors):
            single = world._leader_ff_samples(anchor[None], 0.7)[0]
            np.testing.assert_allclose(stacked[i], single, rtol=1e-13, atol=1e-13)
        # the first sample is the leader drift at the anchor itself
        np.testing.assert_allclose(
            stacked[:, 0], world.cert.drifts[0].value(anchors, 0.7), rtol=0, atol=0
        )


def ball_smoke_doc():
    """The smoke scenario with every agent's disturbance a seeded ball of its declared bound."""
    doc = json.loads(open(SMOKE).read())
    for section in [doc["leader"], *doc["agents"]]:
        section["disturbance"] = {"kind": "ball", "bound": section["disturbance_bound"]}
    return doc


class TestLeaderPlan:
    @pytest.mark.parametrize("ball", [False, True], ids=["smoke", "ball"])
    def test_every_step_matches_a_direct_integration_and_propagation(self, ball):
        """The leader pass fills the trace's leader rows. At every step k, the final instant
        included, the leader is an independent RK4 integration of it at k ts, and bit for bit
        its feedforward is ``_leader_ff_samples`` from its estimates at k ts, and its nominal
        over step k is the leader's drift-only chain from k ts."""
        cfg = parse_scenario(json.dumps(ball_smoke_doc())) if ball else load_scenario(SMOKE)
        cert = certify_scenario(cfg, spot_checks=False)
        world = SimWorld(cfg, cert, SimConfig.from_scenario(cfg))
        plan, rows = world.leader_plan, world._states[:, 0]
        fs, h = cfg.sim.fine_substeps, cfg.sim.ts / cfg.sim.fine_substeps
        assert plan.ff_samples.shape == (world.n_steps, world.n, world.horizon, world.d)
        oracle = leader_oracle(world, world.n_steps)
        np.testing.assert_allclose(rows[::fs, 0], oracle, rtol=1e-12, atol=1e-12)
        estimates = relayed_estimates(leader_samples(world), cert.tubes.hops)
        for k in range(world.n_steps):
            direct = world._leader_ff_samples(estimates[k], k * cfg.sim.ts)
            assert np.array_equal(plan.ff_samples[k], direct), k
            x, t = rows[k * fs, 0], k * cfg.sim.ts
            for j in range(k * fs + 1, (k + 1) * fs + 1):
                x, t = rk4_step(anchor_rhs(world), x, t, h), t + h
                assert np.array_equal(rows[j, 1], x), j

    def test_one_propagation_per_run(self, monkeypatch):
        """A run gathers every step's relayed estimates and propagates their feedforward, once each."""
        cfg = load_scenario(SMOKE)
        world = SimWorld(cfg, certify_scenario(cfg, spot_checks=False), SimConfig.from_scenario(cfg))
        calls = {"ff": 0, "relay": 0}
        propagate, relay = world._leader_ff_samples, tubeform.sim.relayed_estimates

        def counting_ff(*args):
            calls["ff"] += 1
            return propagate(*args)

        def counting_relay(*args):
            calls["relay"] += 1
            return relay(*args)

        monkeypatch.setattr(world, "_leader_ff_samples", counting_ff)
        monkeypatch.setattr(tubeform.sim, "relayed_estimates", counting_relay)
        world.run()
        assert calls == {"ff": 1, "relay": 1}


def pinned_smoke_cfg():
    """The smoke scenario with both followers pinned to the leader."""
    doc = json.loads(open(SMOKE).read())
    doc["graph"]["b0"] = [1.0, 1.0]
    return parse_scenario(json.dumps(doc))


class TestFeedforwardPerHopCount:
    @pytest.mark.parametrize(
        "scenario, distinct",
        [("smoke", 2), ("smoke_pinned", 1), ("ablation", 1)],
    )
    def test_one_row_per_step_and_hop_count(self, monkeypatch, scenario, distinct):
        """The plan propagates one (steps, hop counts) grid of anchors, and every follower's
        feedforward equals propagating every (step, follower) anchor as its own row, bit for bit:
        the all-pinned teams propagate one anchor per step instead of one per follower."""
        cfg = {"smoke": lambda: load_scenario(SMOKE), "smoke_pinned": pinned_smoke_cfg,
               "ablation": lambda: load_scenario(ABLATION)}[scenario]()
        cert = certify_scenario(cfg, spot_checks=False)
        world = SimWorld(cfg, cert, SimConfig.from_scenario(cfg, t_end=2.0))
        assert len(set(cert.tubes.hops.tolist())) == distinct
        grids = []
        propagate = world._leader_ff_samples

        def counting(anchors, t0, *record):
            grids.append(anchors.shape[:-1])
            return propagate(anchors, t0, *record)

        monkeypatch.setattr(world, "_leader_ff_samples", counting)
        plan = world.leader_plan
        assert grids == [(world.n_steps, distinct)]
        starts = np.repeat(np.arange(world.n_steps) * cfg.sim.ts, world.n)
        estimates = relayed_estimates(leader_samples(world), cert.tubes.hops)
        every = propagate(estimates.reshape(-1, world.nd), starts)
        assert np.array_equal(plan.ff_samples, every.reshape(plan.ff_samples.shape))


def stage_inputs(world, k):
    """Step k's record as a writable (N, 2, 4 fs, d) view: per follower, every stage's drive, then
    every stage's anchor drift."""
    return world.leader_plan.exogenous[k].reshape(world.n, 2, 4 * world.sim.fine_substeps, world.d)


class TestStageRecords:
    def test_world_reads_the_anchor_drifts_of_a_direct_replay_in_call_order(self):
        """On smoke (follower 1 pinned, follower 2 relayed one hop), step k's record holds, per RK4
        stage of a direct ``rk4_step`` replay, bit for bit: in each follower's anchor block the
        leader model at its anchor's stage states; in its drive block (cancel + w) - anchor, the
        cancel being the true leader's drift for follower 1 and its anchor drift for follower 2,
        and w its disturbance at the stage time. The world's interval consumes those 4 fs stages
        in call order: an ``rk4_step`` replay of the deviation form that reads them so reproduces
        it, and swapping one substep's k2 and k3 stages, which share a stage time but not a drift
        (so no table keyed by stage time could hold them), changes it."""
        cfg = load_scenario(SMOKE)
        world = SimWorld(cfg, certify_scenario(cfg, spot_checks=False), SimConfig.from_scenario(cfg))
        assert world.cert.tubes.hops.tolist() == [0, 1]
        plan, fs, k = world.leader_plan, cfg.sim.fine_substeps, 3
        f0, h = world.cert.drifts[0].value, cfg.sim.ts / fs
        stack = DisturbanceStack([s.disturbance for s in (cfg.leader, *cfg.agents)], world.d, cfg.sim.seed, h)
        assert plan.exogenous.shape == (world.n_steps, world.n, 8 * fs * world.d)
        record = stage_inputs(world, k)

        def replay(x0, disturbed):
            """Step k of the leader's chain from x0, with the leader's own disturbance or none:
            the drifts and times at every RK4 stage."""
            drifts, times = [], []

            def rhs(x, t):
                drifts.append(f0(x, t))
                times.append(t)
                top = drifts[-1] + stack.evaluate(t)[0] if disturbed else drifts[-1]
                return chain_derivative(world.dims, x, top)

            x, t = x0, k * cfg.sim.ts
            for _ in range(fs):
                x, t = rk4_step(rhs, x, t, h), t + h
            return np.array(drifts), times

        samples = leader_samples(world)
        anchors = [replay(x0, False) for x0 in relayed_estimates(samples, world.cert.tubes.hops)[k]]
        leader, times = replay(samples[k], True)
        w = np.array([stack.evaluate(t)[1:] for t in times])
        for i, cancel in enumerate([leader, anchors[1][0]]):  # follower 1 is pinned, follower 2 relayed
            anchor, anchor_times = anchors[i]
            assert anchor_times == times
            assert np.array_equal(record[i, 1], anchor), i
            assert np.array_equal(record[i, 0], (cancel + w[:, i]) - anchor), i
        stage_times, stage_drifts = np.reshape(times, (fs, 4)), anchors[1][0].reshape(fs, 4, world.d)
        assert np.array_equal(stage_times[:, 1], stage_times[:, 2])
        assert np.all(np.any(stage_drifts[:, 1] != stage_drifts[:, 2], axis=-1))

        # the world's interval consumes those 4 fs stages in call order: a replay that reads them
        # so reproduces it, and swapping one substep's k2 and k3 stages changes it
        for step in range(k + 1):
            world.step(step)
        rows = world._states[k * fs : (k + 1) * fs + 1, 1:, :2].copy()

        def replayed(inputs):
            """Interval k's (x, xb) from row k fs by ``rk4_step`` on dx' = Acl dx + G drive,
            xb' = A0 xb + G (v0 + anchor), the (N, 2, 4 fs, d) stage inputs read in call order."""
            stages, v0 = iter(inputs.transpose(2, 1, 0, 3)), world.plans[:, 0]

            def rhs(z, t):
                drive, anchor = next(stages)
                top = np.stack([drive - z[:, 0] @ world.gain.T, v0 + anchor], axis=1)
                return chain_derivative(world.dims, z, top)

            z = [np.stack([rows[0, :, 0] - rows[0, :, 1], rows[0, :, 1]], axis=1)]
            for _ in range(fs):
                z.append(rk4_step(rhs, z[-1], 0.0, h))
            z = np.array(z)
            return np.stack([z[:, :, 1] + z[:, :, 0], z[:, :, 1]], axis=2)

        assert np.max(np.abs(replayed(record) - rows)) < 1e-14  # 2.2e-16 here
        swapped = record.copy()
        swapped[:, :, [5, 6]] = record[:, :, [6, 5]]  # the second substep's k2 and k3
        record[...] = swapped
        world._integrate_interval(k)
        moved = world._states[k * fs : (k + 1) * fs + 1, 1:, :2]
        assert np.array_equal(moved[:2], rows[:2])
        assert np.max(np.abs(moved[2:] - rows[2:])) > 1e-13  # 6.0e-13 here
        assert np.max(np.abs(replayed(swapped) - moved)) < 1e-14

    @pytest.mark.parametrize("ball", [False, True], ids=["smoke", "ball"])
    def test_feedforward_off_record_holds_the_disturbances_and_no_anchor_drift(self, ball):
        """With the feedforward off, every step's anchor blocks are 0 and its drive blocks hold the
        followers' disturbances at a direct ``_substeps`` walk's stage times, bit for bit."""
        cfg = parse_scenario(json.dumps(ball_smoke_doc())) if ball else load_scenario(SMOKE)
        cert = certify_scenario(cfg, spot_checks=False)
        world = SimWorld(cfg, cert, SimConfig.from_scenario(cfg, feedforward_on=False))
        h = cfg.sim.ts / cfg.sim.fine_substeps
        stack = DisturbanceStack([s.disturbance for s in (cfg.leader, *cfg.agents)], world.d, cfg.sim.seed, h)
        for k in range(world.n_steps):
            times = []
            for _ in world._substeps(lambda x, t: times.append(t) or x, np.zeros(1), k * cfg.sim.ts):
                pass
            record = stage_inputs(world, k)
            assert np.array_equal(record[:, 0], np.swapaxes([stack.evaluate(t)[1:] for t in times], 0, 1)), k
            assert np.array_equal(record[:, 1], np.zeros_like(record[:, 1])), k


class TestIntervalMaps:
    """With the feedforward on, a sampling interval of the followers is one product with
    ``SimWorld._interval_maps``, built once per run by one walk over the identity."""

    @staticmethod
    def planted_world(path, k, seed):
        """A world whose interval k starts from random (x, xb), holds a random v0 and reads random
        stage records."""
        cfg = load_scenario(path)
        cert = certify_scenario(cfg, spot_checks=False)
        world = SimWorld(cfg, cert, SimConfig.from_scenario(cfg, t_end=1.0))
        rng, fs, n, d = np.random.default_rng(seed), cfg.sim.fine_substeps, world.n, world.d
        world._states[k * fs, 1:, :2] = rng.normal(size=(n, 2, world.nd))
        world.plans[:, 0] = rng.normal(size=(n, d))
        world.leader_plan = LeaderPlan(None, rng.normal(size=(world.n_steps, n, 8 * fs * d)))
        return world

    @staticmethod
    def deviation_oracle(world, k):
        """(fs, N, 2, nd) (dx, xb) after each substep of interval k by ``rk4_step``, each stage reading
        its inputs in call order: dx' = Acl dx + G drive, xb' = A0 xb + G (v0 + anchor)."""
        a0, g = models.chain_matrices(world.dims)
        acl, v0 = world.cert.pair.acl, world.plans[:, 0]
        stages, h = iter(stage_inputs(world, k).transpose(2, 1, 0, 3)), world.sim.ts / world.sim.fine_substeps

        def rhs(z, t):
            drive, anchor = next(stages)
            return np.stack([z[:, 0] @ acl.T + drive @ g.T, z[:, 1] @ a0.T + (v0 + anchor) @ g.T], 1)

        start = world._states[k * world.sim.fine_substeps, 1:, :2]
        z = [np.stack([start[:, 0] - start[:, 1], start[:, 1]], axis=1)]
        for _ in range(world.sim.fine_substeps):
            z.append(rk4_step(rhs, z[-1], 0.0, h))
        return np.array(z[1:])

    @pytest.mark.parametrize("path", [SMOKE, PAPER])
    def test_interval_matches_rk4_on_the_deviation_form(self, path):
        """Random (dx, xb), v0 and stage inputs on smoke's 2 and paper's 5 followers: every substep
        row's xb and dx = x - xb within 1e-13 of the oracle (at most 2.7e-15 here)."""
        k = 3
        world = self.planted_world(path, k, seed=len(path))
        expected = self.deviation_oracle(world, k)
        world._integrate_interval(k)
        fs = world.sim.fine_substeps
        rows = world._states[k * fs + 1 : (k + 1) * fs + 1, 1:]
        got = np.stack([rows[..., 0, :] - rows[..., 1, :], rows[..., 1, :]], axis=2)
        assert np.max(np.abs(expected)) > 1.0
        assert np.max(np.abs(got - expected)) < 1e-13

    def test_zero_deviation_and_drive_keep_the_deviation_exactly_zero(self):
        """x = xb at the start and every drive 0 (each cancel equal to its anchor, no disturbance), as in
        an undisturbed run: x stays bit-equal to xb while both move."""
        k, world = 2, self.planted_world(SMOKE, 2, seed=4)
        fs = world.sim.fine_substeps
        world._states[k * fs, 1:, 0] = world._states[k * fs, 1:, 1]
        stage_inputs(world, k)[:, 0] = 0.0
        world._integrate_interval(k)
        rows = world._states[k * fs : (k + 1) * fs + 1, 1:]
        assert np.array_equal(rows[..., 0, :], rows[..., 1, :])
        assert np.max(np.abs(rows[1:, :, 1] - rows[:1, :, 1])) > 1e-3  # the nominal moved

    def test_a_run_evaluates_no_follower_drift(self):
        """With the feedforward on, a smoke run never calls the followers' own drift table."""
        cfg = load_scenario(SMOKE)
        world = SimWorld(cfg, certify_scenario(cfg, spot_checks=False), SimConfig.from_scenario(cfg, t_end=0.5))
        world._drift = SimpleNamespace(value=lambda *args: pytest.fail("a follower's own drift was evaluated"))
        assert world.run().trace.data.shape[0] == 51

    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
    def test_an_infinite_stage_record_names_its_substep(self):
        """An inf in substep 6's k3 inputs (and another in substep 9's) raises rk4_step's error at
        substep 6's time, accumulated from k ts as ``_substeps`` does. The inf times the maps' zeros
        is NaN, so numpy warns."""
        k, world = 3, self.planted_world(SMOKE, 3, seed=5)
        stage_inputs(world, k)[1, 0, 4 * 5 + 2] = np.inf  # follower 2's drive
        stage_inputs(world, k)[0, 1, 4 * 8] = np.inf  # follower 1's anchor drift
        h, t = world.sim.ts / world.sim.fine_substeps, k * world.sim.ts
        for _ in range(6):
            t = t + h
        with pytest.raises(NonFiniteState, match=re.escape(f"non-finite state after RK4 step at t={t:.6g}")):
            world._integrate_interval(k)


class TestSolveCounts:
    def test_capped_counts_read_the_returned_solutions(self):
        """Over a 3 s ablation run with ``--baseline-margins``, each follower's ``capped_solves``
        counts its solves that took the second QP, and ``capped_own_row_failures`` those returned
        relaxed with zero slack, whose plan still breaks its own rows; both occur there."""
        cfg = load_scenario(ABLATION)
        cert = certify_scenario(cfg, spot_checks=False)
        with recorded_solves() as solves:
            world = run_simulation(cfg, cert, t_end=3.0, baseline_margins=True).world
        second, own_row = np.zeros(world.n, int), np.zeros(world.n, int)
        for index, record in enumerate(solves):
            sol, i = record.solution, index % world.n
            second[i] += sol.sqp_passes == 2
            if sol.status == "Infeasible" and sol.slack <= 1e-6:
                spec, x0, ff = record.args[0], record.args[2], record.args[4]
                rows = record.grid.rows(rollout(spec, x0, sol.inputs + ff), sol.inputs)
                assert np.min(np.sum(rows.a * sol.inputs[rows.step], axis=1) + rows.b) < -1e-6
                own_row[i] += 1
        assert world.capped_solves.tolist() == second.tolist() and second.sum() > 0
        assert world.capped_own_row_failures.tolist() == own_row.tolist() and own_row.sum() > 0


class TestStateRecord:
    def test_each_solve_starts_from_its_step_row_of_the_trace(self):
        """Over a smoke run, solve (k, i) reads the trace's row k fs: its nominal state is bit for
        bit the row's xb{i} cells, and its synchronization error -M (q_i - q_0) from the row's x
        cells, q_a being agent a's state minus its formation offset."""
        cfg = load_scenario(SMOKE)
        cert = certify_scenario(cfg, spot_checks=False)
        with recorded_solves() as solves:
            trace = run_simulation(cfg, cert, SimConfig.from_scenario(cfg)).trace
        fs, n, nd = cfg.sim.fine_substeps, cfg.dims.followers, cfg.dims.nd
        blocks = [f"{p}{ax}" for p in range(1, cfg.dims.n + 1) for ax in range(cfg.dims.d)]
        steps = round(cfg.sim.t_end / cfg.sim.ts)
        assert len(solves) == steps * n
        offsets = np.reshape(cfg.offsets, (n + 1, nd))
        x_cells, xb_cells = (
            [[trace.columns.index(f"{role}{a}_{b}") for b in blocks] for a in range(n + 1)]
            for role in ("x", "xb")
        )
        for k in range(steps):
            row = trace.data[k * fs]
            q = row[x_cells] - offsets
            e0s = -cert.graph.m @ (q[1:] - q[0])
            for i in range(n):
                _, e0, x0_nominal, *_ = solves[k * n + i].args
                assert np.array_equal(x0_nominal, row[xb_cells[i + 1]]), (k, i)
                assert np.array_equal(e0, e0s[i]), (k, i)


class TestDisturbancePerStageTime:
    @staticmethod
    def counted_ball_world(monkeypatch):
        """A ball smoke world, and the times of every ``DisturbanceStack.evaluate`` call."""
        cfg = parse_scenario(json.dumps(ball_smoke_doc()))
        world = SimWorld(cfg, certify_scenario(cfg, spot_checks=False), SimConfig.from_scenario(cfg))
        calls = []
        evaluate = DisturbanceStack.evaluate
        monkeypatch.setattr(
            DisturbanceStack, "evaluate", lambda stack, t: calls.append(np.copy(t)) or evaluate(stack, t)
        )
        return world, calls

    def test_each_stage_time_evaluated_once_per_run(self, monkeypatch):
        """A run makes one ``evaluate`` call, over its (steps, 4 fs) RK4 stage times: row k is a
        direct ``_substeps`` walk's stage times from k ts, in call order."""
        world, calls = self.counted_ball_world(monkeypatch)
        world.run()
        fs, steps = world.sim.fine_substeps, world.n_steps
        assert len(calls) == 1 and calls[0].shape == (steps, 4 * fs)
        for k in range(steps):
            walked = []
            for _ in world._substeps(lambda x, t: walked.append(t) or x, np.zeros(1), k * world.sim.ts):
                pass
            assert np.array_equal(calls[0][k], walked), k
        # k2 and k3 share a time, and a substep's k4 time is the next one's k1
        stages = calls[0].reshape(steps, fs, 4)
        assert np.array_equal(stages[:, :, 1], stages[:, :, 2])
        assert np.array_equal(stages[:, 1:, 0], stages[:, :-1, 3])

    def test_run_after_the_leader_pass_makes_no_disturbance_call(self, monkeypatch):
        """Once ``leader_plan`` is built, the world reads its disturbances from the record only."""
        world, calls = self.counted_ball_world(monkeypatch)
        world.leader_plan
        assert len(calls) == 1
        world.run()
        assert len(calls) == 1


class TestWorldDrift:
    def test_team_call_matches_per_model_calls(self):
        """The one stacked drift call of the world RHS, N rows, equals one call of each
        follower's own model on its true state."""
        cfg = load_scenario(PAPER)
        cert = certify_scenario(cfg, spot_checks=False)
        world = SimWorld(cfg, cert, SimConfig.from_scenario(cfg))
        for step in range(10):
            world.step(step)
        t, x = 10.37 * cfg.sim.ts, followers_at(world, 10)[:, 0]
        team = world._drift.value(x, t)
        assert team.shape == (world.n, world.d)
        for i, drift in enumerate(world.cert.drifts[1:]):
            alone = drift.value(x[i], t)
            np.testing.assert_allclose(team[i], alone, rtol=1e-14, atol=1e-14)


def oracle_rows(world, i, k, ff_seq, preds, shifted, states, inputs):
    """One assemble_row call per (step, obstacle) and (step, other follower) cell within the
    activation range of the state, at the plan ``inputs``; no follower cells at k = 0."""
    margin_i, d = world.margins[i], world.d
    out = []
    for l in range(world.horizon - 1):
        xl = states[l]
        cells = []
        for obstacle in world.cfg.obstacles:
            chain = np.zeros(world.nd)
            chain[:d] = obstacle.center
            cells.append((chain, obstacle.effective_radius, 0.0, ff_seq[l], 0))
        for j in range(world.n) if k > 0 else []:
            if j != i:
                top_exo = ff_seq[l] - (shifted[j][l] + ff_seq[l])
                cells.append((preds[i, j, l], world.cfg.barriers.d_safe, world.margins[j], top_exo, 1))
        for chain, keep_out, radius_other, top_exo, group in cells:
            if np.linalg.norm(xl[:d] - chain[:d]) > world.cfg.barriers.activation_range:
                continue
            a, b, grad = assemble_row(
                world.kappa, world.dims, xl, chain, keep_out, margin_i, radius_other, top_exo, inputs[l]
            )
            out.append((l, a, b, group, grad))
    return out


def assert_rows_match_oracle(world, i, k, ff, preds, shifted, states, inputs):
    """Agent i's grid rows at ``states`` and ``inputs`` are the oracle's, in its order; returns them."""
    rows = world._team_grid(k, ff, preds, shifted).agent(i).rows(states, inputs)
    expected = oracle_rows(world, i, k, ff[i], preds, shifted, states, inputs)
    assert list(zip(rows.step.tolist(), rows.group.tolist())) == [(r[0], r[3]) for r in expected]
    assert np.all(rows.step < world.horizon - 1)
    ref_a = np.reshape([r[1] for r in expected], (-1, world.d))
    np.testing.assert_allclose(rows.a, ref_a, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(rows.b, [r[2] for r in expected], rtol=1e-12, atol=1e-12)
    ref_grad = np.reshape([r[4] for r in expected], (-1, world.nd))
    np.testing.assert_allclose(rows.grad, ref_grad, rtol=1e-12, atol=1e-12)
    return rows


def assert_rows_equal(got, want):
    """Two ``BarrierRows`` blocks, bit for bit in every field."""
    for name in BarrierRows._fields:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


def assert_team_rows_are_agent_rows(world, k, ff, preds, shifted):
    """Step k's one team evaluation at the warm starts (``_warm_rows``) is, bit for bit, each
    agent's own grid's rows at its own rollout of its shifted plan; returns the team's rows."""
    grid, team = world._warm_rows(k, ff, preds, shifted)
    assert len(team) == world.n
    for i in range(world.n):
        states = rollout(world.specs[i], followers_at(world, k)[i, 1], shifted[i] + ff[i])
        assert_rows_equal(team[i], grid.agent(i).rows(states, shifted[i]))
    return team


@pytest.fixture(scope="module")
def paper_mid_run():
    """The paper world after 20 steps, with step 20's feedforward, shifted plans and predictions."""
    cfg = load_scenario(PAPER)
    cert = certify_scenario(cfg, spot_checks=False)
    world = SimWorld(cfg, cert, SimConfig.from_scenario(cfg))
    k = 20
    for step in range(k):
        world.step(step)
    ff = world.leader_plan.ff_samples[k]
    shifted, preds, _ = world._neighbor_data(k, ff)
    return world, k, ff, shifted, preds


def smoke_without_obstacles(doc):
    doc["obstacles"] = []


def smoke_with_one_free_step(doc):
    doc["ocp"]["horizon"] = 2


def smoke_with_one_follower(doc):
    """The one-follower, obstacle-free copy the CI builds: a grid without any cell."""
    doc["dims"]["followers"] = 1
    doc["agents"] = doc["agents"][:1]
    doc["graph"].update(adjacency=[[0.0]], b0=[1.0])
    doc["formation"]["offsets"] = doc["formation"]["offsets"][:2]
    doc["obstacles"] = []
    doc["initial_states"]["followers"] = doc["initial_states"]["followers"][:1]


class TestRowBuilder:
    def test_stacked_rows_match_per_row_oracle(self, paper_mid_run):
        """Mid-run paper state: agent 1 has one obstacle in range and one out."""
        world, k, ff, shifted, preds = paper_mid_run
        kept = filtered = 0
        for i in range(world.n):
            warm = shift_plan(world.plans[i], world.terminal[i], world.specs[i].terminal_gain)
            np.testing.assert_array_equal(shifted[i], warm)
            states = rollout(world.specs[i], followers_at(world, k)[i, 1], warm + ff[i])
            rows = assert_rows_match_oracle(world, i, k, ff, preds, shifted, states, warm)
            n_obstacle = int(np.sum(rows.group == 0))
            kept += n_obstacle
            filtered += (world.horizon - 1) * len(world.cfg.obstacles) - n_obstacle
        assert kept > 0 and filtered > 0  # the activation range really selects

    def test_team_rows_are_each_agents_rows_mid_run(self, paper_mid_run):
        """Paper at k = 20: the team's rows, obstacle and pair rows both, are every agent's own."""
        world, k, ff, shifted, preds = paper_mid_run
        team = assert_team_rows_are_agent_rows(world, k, ff, preds, shifted)
        groups = set(np.concatenate([rows.group for rows in team]).tolist())
        assert groups == {0, 1}

    def test_team_rows_are_each_agents_rows_at_deployment(self, paper_mid_run):
        """Paper at k = 0: obstacle cells only, the team's rows every agent's own."""
        cfg, cert = paper_mid_run[0].cfg, paper_mid_run[0].cert
        world = SimWorld(cfg, cert, SimConfig.from_scenario(cfg))
        ff = world.leader_plan.ff_samples[0]
        shifted, preds, _ = world._neighbor_data(0, ff)
        team = assert_team_rows_are_agent_rows(world, 0, ff, preds, shifted)
        assert sum(rows.b.size for rows in team) > 0
        assert all(rows.group.tolist() == [0] * rows.b.size for rows in team)

    def test_neighbor_radii_are_the_radius_table_entries(self):
        """After deployment each agent has a pair cell for every other follower, graph neighbor
        or not, in index order, carrying d_safe and that follower's broadcast radius: a paper
        copy whose followers' margins all differ."""
        doc = json.loads(open(PAPER).read())
        margins = [0.10, 0.11, 0.12, 0.13, 0.14]
        for agent, margin in zip(doc["agents"], margins):
            agent["margin_radius"] = margin
        cfg = parse_scenario(json.dumps(doc))
        world = SimWorld(cfg, certify_scenario(cfg, spot_checks=False), SimConfig.from_scenario(cfg))
        world.step(0)
        ff = world.leader_plan.ff_samples[1]
        shifted, preds, _ = world._neighbor_data(1, ff)
        n_obs = len(cfg.obstacles)
        for i in range(world.n):
            nbrs = [j for j in range(world.n) if j != i]
            grid = world._team_grid(1, ff, preds, shifted).agent(i)
            assert grid.x_other.shape == (world.horizon - 1, n_obs + len(nbrs), world.nd)
            assert grid.radius_other[n_obs:].tolist() == world.radius_table[i, nbrs].tolist()
            assert grid.radius_other[n_obs:].tolist() == world.margins[nbrs].tolist()
            assert grid.keep_out[n_obs:].tolist() == [cfg.barriers.d_safe] * len(nbrs)
            assert grid.group.tolist() == [0] * n_obs + [1] * len(nbrs)
            assert grid.margin == world.margins[i] == margins[i]

    def test_deployment_grid_holds_only_obstacle_cells(self, paper_mid_run):
        cfg, cert = paper_mid_run[0].cfg, paper_mid_run[0].cert
        world = SimWorld(cfg, cert, SimConfig.from_scenario(cfg))
        ff = world.leader_plan.ff_samples[0]
        shifted, preds, _ = world._neighbor_data(0, ff)
        for i in range(world.n):
            grid = world._team_grid(0, ff, preds, shifted).agent(i)
            assert grid.group.tolist() == [0] * len(cfg.obstacles)
            assert grid.radius_other.tolist() == [0.0] * len(cfg.obstacles)

    @pytest.mark.parametrize(
        "edit", [smoke_without_obstacles, smoke_with_one_free_step, smoke_with_one_follower]
    )
    def test_degenerate_grids_certify_run_and_match_oracle(self, edit, tmp_path):
        """Grids with no obstacle cells, one step, or no neighbor cells: the copy certifies
        and runs with exit 0, and each of the first steps' grids gives the oracle's rows, the
        team's rows bit for bit each agent's own (the one-follower copy's grid has no cell)."""
        doc = json.loads(open(SMOKE).read())
        edit(doc)
        scenario, cert_path = tmp_path / "scenario.json", tmp_path / "cert.json"
        scenario.write_text(json.dumps(doc))
        assert main(["certify", str(scenario), "-o", str(cert_path)]) == 0
        run = ["run", str(scenario), "--cert", str(cert_path), "-o", str(tmp_path / "run")]
        assert main(run + ["--t-end", "1"]) == 0
        cfg = load_scenario(scenario)
        world = SimWorld(cfg, certify_scenario(cfg, spot_checks=False), SimConfig.from_scenario(cfg))
        for k in range(3):
            ff = world.leader_plan.ff_samples[k]
            shifted, preds, _ = world._neighbor_data(k, ff)
            for i in range(world.n):
                states = rollout(world.specs[i], followers_at(world, k)[i, 1], shifted[i] + ff[i])
                assert_rows_match_oracle(world, i, k, ff, preds, shifted, states, shifted[i])
            assert_team_rows_are_agent_rows(world, k, ff, preds, shifted)
            world.step(k)

    @pytest.mark.parametrize("activation_range", [5.0, -1.0])
    def test_zero_obstacle_offset_raises(self, activation_range):
        """A state on an obstacle center is degenerate even where the cell is out of range. In the
        team grid only that agent's rows are: it gets None, the other agent its own rows, bit for
        bit, and no warning is raised."""
        cfg = load_scenario(SMOKE)
        cfg = dataclasses.replace(
            cfg, barriers=dataclasses.replace(cfg.barriers, activation_range=activation_range)
        )
        cert = certify_scenario(cfg, spot_checks=False)
        world = SimWorld(cfg, cert, SimConfig.from_scenario(cfg))
        ff = world.leader_plan.ff_samples[0]
        shifted, preds, _ = world._neighbor_data(0, ff)
        team = world._team_grid(0, ff, preds, shifted)  # obstacles only at deployment
        grid = team.agent(0)
        states, inputs = np.ones((world.horizon + 1, world.nd)), np.ones((world.horizon, world.d))
        assert grid.rows(states, inputs).step.size == (world.horizon - 1) * (activation_range > 0)
        team_states = np.stack([states, 2.0 * states])
        team_inputs = np.stack([inputs, inputs])
        states[2, : world.d] = cfg.obstacles[0].center
        with pytest.raises(DegenerateGradient):
            grid.rows(states, inputs)

        team_states[0] = states
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = team.team_rows(team_states, team_inputs)
        assert rows[0] is None
        assert_rows_equal(rows[1], team.agent(1).rows(team_states[1], team_inputs[1]))
        assert rows[1].step.size == (world.horizon - 1) * (activation_range > 0)

    def test_agent_on_an_obstacle_center_gets_one_raising_solve(self, monkeypatch):
        """A smoke copy deploying follower 1 on the obstacle's center: step 0 still makes one
        ``solve_ocp`` call per agent; agent 1's, handed no warm-start rows, raises
        ``DegenerateGradient`` and falls back, and agent 2's is handed its own rows."""
        doc = json.loads(open(SMOKE).read())
        doc["initial_states"]["followers"][0][:2] = doc["obstacles"][0]["center"]
        cfg = parse_scenario(json.dumps(doc))
        world = SimWorld(cfg, certify_scenario(cfg, spot_checks=False), SimConfig.from_scenario(cfg))
        real_solve, calls = tubeform.sim.solve_ocp, []

        def recording(spec, *args):
            try:
                sol = real_solve(spec, *args)
            except DegenerateGradient:
                calls.append((spec, args[-1], None))
                raise
            calls.append((spec, args[-1], sol))
            return sol

        monkeypatch.setattr(tubeform.sim, "solve_ocp", recording)
        ff = world.leader_plan.ff_samples[0]
        shifted, preds, _ = world._neighbor_data(0, ff)
        states = rollout(world.specs[1], followers_at(world, 0)[1, 1], shifted[1] + ff[1])
        own = world._team_grid(0, ff, preds, shifted).agent(1).rows(states, shifted[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = world.step(0)
        assert [spec for spec, _, _ in calls] == world.specs
        (_, rows_1, sol_1), (_, rows_2, sol_2) = calls
        assert rows_1 is None and sol_1 is None
        assert_rows_equal(rows_2, own)
        assert sol_2 is not None and world.infeasible_streak == [1, 0]
        assert stats["solver"][0].tolist() == [2.0, 0.0, 0.0, math.inf]


class TestNeighborPredictions:
    def test_stacked_predictions_match_per_edge_oracle(self):
        """Mid-run paper world: preds[i, j] is the chain recurrence from agent j's
        measured state under its shifted plan plus reader i's feedforward, for
        every directed edge; the exogenous drives are the neighbor sums."""
        cfg = load_scenario(PAPER)
        cert = certify_scenario(cfg, spot_checks=False)
        world = SimWorld(cfg, cert, SimConfig.from_scenario(cfg))
        k = 20
        for step in range(k):
            world.step(step)
        ff = world.leader_plan.ff_samples[k]
        shifted, preds, s_seqs = world._neighbor_data(k, ff)
        spec = world.specs[0]
        edges = [(i, j) for i in range(world.n) for j in np.flatnonzero(world.graph.adjacency[i] > 0.0)]
        assert len(edges) == np.count_nonzero(world.graph.adjacency)
        for i, j in edges:
            ref = chain_recurrence(spec.ad, spec.bd, followers_at(world, k)[j, 0], shifted[j] + ff[i])
            np.testing.assert_allclose(preds[i, j], ref, rtol=1e-12, atol=1e-12)
        g = world.graph
        for i in range(world.n):
            ref = sum(g.nu1 * g.adjacency[i, j] * shifted[j] for j in np.flatnonzero(g.adjacency[i] > 0.0))
            np.testing.assert_allclose(s_seqs[i], ref, rtol=1e-12, atol=1e-15)

    def test_non_finite_prediction_raises(self):
        cfg = load_scenario(SMOKE)
        cert = certify_scenario(cfg, spot_checks=False)
        world = SimWorld(cfg, cert, SimConfig.from_scenario(cfg))
        world.step(0)
        ff = np.zeros((world.n, world.horizon, world.d))
        ff[1, 2, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteState):
            world._neighbor_data(1, ff)


class TestOcpDesign:
    @pytest.mark.parametrize(
        "scenario, couplings", [(PAPER, [2, 2, 2, 2, 1]), (ABLATION, [2, 3, 3, 3, 2])]
    )
    def test_one_riccati_solve_per_distinct_coupling(self, monkeypatch, scenario, couplings):
        """A world solves the Riccati equation once per distinct coupling, and every spec's
        terminal gain, cost and level equal a fresh per-agent design bit for bit."""
        cfg = load_scenario(scenario)
        cert = certify_scenario(cfg, spot_checks=False)
        solve = ocp.terminal_ingredients
        calls = []
        monkeypatch.setattr(ocp, "terminal_ingredients", lambda *a: calls.append(a[1]) or solve(*a))
        world = SimWorld(cfg, cert, SimConfig.from_scenario(cfg))
        monkeypatch.undo()
        assert world.graph.m.diagonal().tolist() == couplings
        assert len(calls) == 2
        for i, spec in enumerate(world.specs):
            (fresh,) = OcpSpec.design(
                cfg.dims, cfg.ocp.horizon, cfg.sim.ts, cfg.ocp.qr, cfg.ocp.r, cfg.ocp.rdelta,
                [couplings[i]], [cert.tubes.input_bound_tightened[i]], [None],
            )
            assert np.array_equal(spec.terminal_gain, fresh.terminal_gain)
            assert np.array_equal(spec.pr, fresh.pr)
            assert spec.terminal_level.hex() == fresh.terminal_level.hex()
            assert not (spec.terminal_gain.flags.writeable or spec.pr.flags.writeable)


class TestDisturbanceDraws:
    def test_each_ball_draw_made_once(self, monkeypatch):
        """A 1 s ball copy of smoke draws each (agent, block) once in the loop.

        The 100 substeps read indices 0..100: the last RK4 stage of the last
        substep, at t = 1.0, reads index 100. With blocks of 16 indices those
        are blocks 0..6, so the leader pass and the world together make
        3 agents x 7 blocks = 21 draws; one draw per stage would be
        3 agents x 100 substeps x 4 stages = 1,200 calls.
        """
        doc = json.loads(open(SMOKE).read())
        for section in [doc["leader"], *doc["agents"]]:
            section["disturbance"] = {"kind": "ball", "bound": section["disturbance_bound"]}
        cfg = parse_scenario(json.dumps(doc))
        cert = certify_scenario(cfg, spot_checks=False)
        draw = DisturbanceStack.draw
        calls = []

        def counting(stack, row, block):
            calls.append((row, block))
            return draw(stack, row, block)

        monkeypatch.setattr(models, "BALL_BLOCK", 16)
        monkeypatch.setattr(DisturbanceStack, "draw", counting)
        run_simulation(cfg, cert, SimConfig.from_scenario(cfg, t_end=1.0))
        assert len(calls) == 3 * 7
        assert sorted(calls) == [(a, b) for a in range(3) for b in range(7)]

    @pytest.mark.parametrize("ts, substeps", [(0.1, 10), (0.05, 7)])
    def test_stage_times_read_their_documented_index_to_3000_s(self, ts, substeps):
        """Every RK4 stage time of the world's clock, walked to 3,000 s, maps to its index.

        Substep m of step k reads index k fs + m at its first three stages and
        k fs + m + 1 at its last. The clock restarts at k ts and adds h per
        substep, so its times drift below the boundaries as t grows: a 1e-12
        tolerance mapped 32.05999999999999 (ts 0.1) to 3205, not 3206.
        """
        steps = int(round(3000.0 / ts))
        world = SimpleNamespace(sim=SimpleNamespace(ts=ts, fine_substeps=substeps))
        stages = []

        def record(x, t):
            stages.append(t)
            return np.zeros_like(x)

        k = np.arange(steps)
        for _ in SimWorld._substeps(world, record, np.zeros((steps, 1)), k * ts):
            pass
        stack = DisturbanceStack([], 2, seed=0, step_duration=ts / substeps)
        times = np.reshape(stages, (substeps, 4, steps))
        first = k * substeps + np.arange(substeps)[:, None]  # (substep m, step k)
        expected = first[:, None] + np.array([0, 0, 0, 1])[:, None]
        np.testing.assert_array_equal(stack.index(times), expected)
        assert np.any(times[:, 3] / (ts / substeps) < expected[:, 3])  # the clock does drift


class TestLeaderRelay:
    def test_one_graph_per_run(self, tmp_path, monkeypatch):
        """One ``run`` (recertify, then the world) walks the leader BFS once and builds M once;
        the world's graph is the certificate's graph."""
        certificate = tmp_path / "cert.json"
        assert main(["certify", PAPER, "-o", str(certificate)]) == 0
        built = {"m": [], "hops": []}
        for name, calls in built.items():
            real = CommGraph.__dict__[name].func

            def counting(g, real=real, calls=calls):
                calls.append(g)
                return real(g)

            prop = functools.cached_property(counting)
            prop.__set_name__(CommGraph, name)
            monkeypatch.setattr(CommGraph, name, prop)
        worlds = []
        real_run = SimWorld.run

        def recording(world):
            worlds.append(world)
            return real_run(world)

        monkeypatch.setattr(SimWorld, "run", recording)
        argv = ["run", PAPER, "--cert", str(certificate), "-o", str(tmp_path / "o")]
        assert main(argv + ["--t-end", "0.5"]) == 0
        (world,) = worlds
        assert len(built["hops"]) == len(built["m"]) == 1
        assert built["hops"][0] is built["m"][0] is world.graph is world.cert.graph
        # the path graph pins agent 1 only: at the last step, k = 4, agent i's anchor is
        # the leader sample from i - 1 steps ago, and its feedforward propagates from there
        plan, hops, samples = world.leader_plan, world.cert.tubes.hops, leader_samples(world)
        assert hops.tolist() == [0, 1, 2, 3, 4]
        assert np.array_equal(relayed_estimates(samples, hops)[4], samples[[4, 3, 2, 1, 0]])
        direct = world._leader_ff_samples(samples[[4, 3, 2, 1, 0]], 4 * world.sim.ts)
        assert np.array_equal(plan.ff_samples[4], direct)


class TestShiftedPlans:
    def test_one_shift_per_agent_per_step(self, monkeypatch):
        cfg = load_scenario(SMOKE)
        cert = certify_scenario(cfg, spot_checks=False)
        world = SimWorld(cfg, cert, SimConfig.from_scenario(cfg, t_end=0.5))
        calls = []

        def counting(inputs, terminal, gains):
            last = inputs is world.plans and terminal is world.terminal
            calls.append((k, last, len(inputs)))
            return shift_plan(inputs, terminal, gains)

        monkeypatch.setattr(tubeform.sim, "shift_plan", counting)
        for k in range(world.n_steps):
            world.step(k)
        # nothing to shift at deployment, then one call per step shifting the last broadcast
        assert calls == [(k, True, world.n) for k in range(1, world.n_steps)]

    def test_failed_solve_falls_back_to_shifted_plan(self, monkeypatch):
        """Agent 1's solve raises once mid-run: it posts its shifted previous plan."""
        cfg = load_scenario(SMOKE)
        cert = certify_scenario(cfg, spot_checks=False)
        world = SimWorld(cfg, cert, SimConfig.from_scenario(cfg))
        k_fail = 10
        agent_one = world.specs[0]
        real_solve = tubeform.sim.solve_ocp
        solves = []

        def flaky(spec, *args, **kwargs):
            if spec is agent_one:
                solves.append(spec)
                if len(solves) == k_fail + 1:
                    raise DegenerateGradient("injected failure")
            return real_solve(spec, *args, **kwargs)

        monkeypatch.setattr(tubeform.sim, "solve_ocp", flaky)
        for k in range(k_fail):
            world.step(k)
        assert world.infeasible_streak == [0, 0]
        no_ff = np.zeros((world.n, world.horizon, world.d))
        shifted, _, _ = world._neighbor_data(k_fail, no_ff)
        for j in range(world.n):
            warm = shift_plan(world.plans[j], world.terminal[j], world.specs[j].terminal_gain)
            np.testing.assert_array_equal(shifted[j], warm)
        s_seq = np.zeros_like(shifted[0])
        for j in np.flatnonzero(world.graph.adjacency[0] > 0.0):
            s_seq += world.graph.nu1 * world.graph.adjacency[0, j] * shifted[j]

        stats = world.step(k_fail)
        inputs, terminal = world.plans, world.terminal
        np.testing.assert_array_equal(inputs[0], shifted[0])
        errors = chain_recurrence(
            agent_one.ad, agent_one.bd, stats["e0"][0], s_seq - agent_one.coupling * shifted[0]
        )
        np.testing.assert_allclose(terminal[0], errors[-1], rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(world.plans[0, 0], shifted[0][0])
        assert world.infeasible_streak == [1, 0]

        world.step(k_fail + 1)
        assert world.infeasible_streak == [0, 0]
        status = world.trace_data[:, world.trace_columns.index("ocp1_status")]
        steps = world.trace_data[:, world.trace_columns.index("k")]
        assert np.sum(steps == k_fail) == cfg.sim.fine_substeps
        assert np.all(status[steps == k_fail] == 2.0)
        assert np.all(status[steps == k_fail + 1] != 2.0)


class TestBroadcast:
    @pytest.mark.parametrize("field", ["inputs", "terminal"])
    def test_non_finite_broadcast_names_agent(self, field, monkeypatch):
        """A NaN in agent 2's new plan, or one reaching its terminal error, raises naming
        agent 2, and the previous broadcast stays in place."""
        cfg = load_scenario(SMOKE)
        cert = certify_scenario(cfg, spot_checks=False)
        world = SimWorld(cfg, cert, SimConfig.from_scenario(cfg))
        world.step(0)
        plans, terminal = world.plans, world.terminal
        kept = plans.copy(), terminal.copy()
        real_solve, real_rollout = tubeform.sim.solve_ocp, tubeform.sim.rollout

        def nan_plan(spec, *args, **kwargs):
            sol = real_solve(spec, *args, **kwargs)
            if spec is world.specs[1]:
                sol = dataclasses.replace(sol, inputs=np.full_like(sol.inputs, np.nan))
            return sol

        def nan_terminal(spec, x0, drive):
            out = real_rollout(spec, x0, drive)
            if np.shape(x0) == (world.n, world.nd):  # the broadcast's errors, not the predictions
                out[1, -1, 0] = np.nan
            return out

        if field == "inputs":
            monkeypatch.setattr(tubeform.sim, "solve_ocp", nan_plan)
        else:
            monkeypatch.setattr(tubeform.sim, "rollout", nan_terminal)
        with pytest.raises(NonFiniteState, match="^agent 2: plan carries non-finite values$"):
            world.step(1)
        assert world.plans is plans and world.terminal is terminal
        np.testing.assert_array_equal(world.plans, kept[0])
        np.testing.assert_array_equal(world.terminal, kept[1])
        assert np.all(np.isfinite(world.plans)) and np.any(world.plans != 0.0)


class TestDeterminism:
    def test_bit_identical_short_runs(self):
        cfg = load_scenario(SMOKE)
        cert = certify_scenario(cfg, spot_checks=False)
        a = run_simulation(cfg, cert)
        b = run_simulation(cfg, cert)
        assert np.array_equal(a.trace.data, b.trace.data)


class TestTubeMonitoring:
    def test_smoke_occupancy_bounded(self):
        cfg = load_scenario(SMOKE)
        cert = certify_scenario(cfg, spot_checks=False)
        result = run_simulation(cfg, cert)
        m = trace_metrics(result.trace)
        for col, val in m["max_tube_occupancy"].items():
            assert val <= 1.0 + 1e-6, col

    @staticmethod
    def forced_doc(kind: str) -> dict:
        """A short smoke copy whose geometry or declarations trip the ``kind`` monitor."""
        doc = json.loads(open(SMOKE).read())
        doc["sim"]["t_end"] = 1.0
        if kind == "obstacle_clearance":  # follower 1 starts inside the obstacle
            doc["obstacles"][0]["center"] = [0.6, -0.3]
        elif kind == "pairwise_clearance":  # the followers start closer than d_safe
            doc["barriers"]["d_safe"] = 2.0
        elif kind == "leader_tube":
            doc["leader"]["tube"]["r_ball"] = 1e-9
        elif kind == "tube":  # certified without the disturbance spot check
            doc["leader"]["tube"]["r_ball"] = 1e-9  # the leader tube enters w_eff
            for agent in doc["agents"]:
                agent["disturbance_bound"] = 1e-9
        else:
            for agent in doc["agents"]:
                agent["margin_radius"] = 1e-9
        return doc

    @pytest.mark.parametrize(
        "kind", ["obstacle_clearance", "pairwise_clearance", "leader_tube", "tube", "margin_radius"]
    )
    def test_margin_violation_recorded(self, kind):
        """Each monitor trips on a broken declaration, at the values the trace logs."""
        cfg = parse_scenario(json.dumps(self.forced_doc(kind)))
        cert = certify_scenario(cfg, spot_checks=False)
        result = run_simulation(cfg, cert)
        trace = result.trace
        steps = [v.step for v in result.violations]
        assert steps == sorted(steps)
        hits = [v for v in result.violations if v.kind == kind]
        assert hits
        for v in hits:
            if kind == "obstacle_clearance":
                assert v.value == trace.col("clr_obs")[v.step]
            elif kind == "pairwise_clearance":
                assert v.value == trace.col("clr_pair")[v.step]
            elif kind == "tube":
                assert v.value == trace.col(f"V{v.agent}")[v.step]
            elif kind == "margin_radius":
                dx = [j for j, c in enumerate(trace.columns) if c.startswith(f"dx{v.agent}_")]
                assert v.value == np.linalg.norm(trace.data[v.step : v.step + 1, dx], axis=1)[0]
        if kind == "leader_tube":
            # the monitor sees the leader nominal before the sampling instant
            # re-anchors it; the trace logs it after, where the deviation is 0
            assert any(v.step == 10 and v.value > 0.0 for v in hits)
            assert trace.col("V0")[10] == 0.0
            # the summary's pre-anchor peak is the monitor's, above the trace's occ0
            peak = max(v.value for v in hits) ** 2 / cert.leader.r_ball0**2
            assert result.world.leader_occupancy_peak == pytest.approx(peak, rel=1e-12)
            assert result.world.leader_occupancy_peak > np.max(trace.col("occ0"))

    @pytest.mark.parametrize("kind", ["obstacle_clearance", "pairwise_clearance"])
    def test_deployment_state_checked(self, kind):
        """A start that already breaks a clearance is reported at fine step 0, t = 0."""
        cfg = parse_scenario(json.dumps(self.forced_doc(kind)))
        result = run_simulation(cfg, certify_scenario(cfg, spot_checks=False))
        first = result.violations[0]
        assert (first.kind, first.step, first.t, first.agent) == (kind, 0, 0.0, 1)

    def test_clearance_violations_name_the_agent(self):
        """A 1 s paper copy that deploys follower 4 inside an obstacle and followers 3 and 5
        closer than d_safe: each clearance violation names the follower nearest an obstacle
        and that obstacle, or the closest pair's ids (lower first), as an independent argmin
        over the trace's positions gives them; the tube and margin slots name no other."""
        doc = json.loads(open(PAPER).read())
        doc["sim"]["t_end"] = 1.0
        doc["obstacles"][0]["center"] = [-0.45, -0.65]
        doc["initial_states"]["followers"][4][:2] = [0.6, 0.4]
        cfg = parse_scenario(json.dumps(doc))
        result = run_simulation(cfg, certify_scenario(cfg, spot_checks=False))
        trace = result.trace
        pos = np.stack([trace_block(trace, f"x{i}_1") for i in range(1, cfg.dims.followers + 1)], 1)
        centers = np.array([o.center for o in cfg.obstacles])
        radii = np.array([o.radius for o in cfg.obstacles])
        named = {}
        for v in result.violations:
            p = pos[v.step]
            if v.kind == "obstacle_clearance":
                cells = [(i, o) for i in range(len(p)) for o in range(len(centers))]
                clearance = [np.linalg.norm(p[i] - centers[o]) - radii[o] for i, o in cells]
                i, o = cells[int(np.argmin(clearance))]
                assert (v.agent, v.other) == (i + 1, o)
            elif v.kind == "pairwise_clearance":
                pairs = [(i, j) for i in range(len(p)) for j in range(i + 1, len(p))]
                gaps = [np.linalg.norm(p[i] - p[j]) for i, j in pairs]
                i, j = pairs[int(np.argmin(gaps))]
                assert (v.agent, v.other) == (i + 1, j + 1)
            else:
                assert v.other is None
            named.setdefault(v.kind, (v.agent, v.other))
        assert named["obstacle_clearance"] == (4, 0) and named["pairwise_clearance"] == (3, 5)

    def test_ball_paper_copy_keeps_every_pair_apart(self):
        """The paper scenario with every disturbance a seeded ball of its declared bound, seed 0,
        as the benchmark builds its ball workload: a 2 s run violates no pairwise clearance."""
        doc = json.loads(open(PAPER).read())
        for section in [doc["leader"], *doc["agents"]]:
            section["disturbance"] = {"kind": "ball", "bound": section["disturbance_bound"]}
        doc["sim"]["seed"] = 0
        doc["name"] = f"{doc['name']}_ball"
        cfg = parse_scenario(json.dumps(doc))
        result = run_simulation(cfg, certify_scenario(cfg), SimConfig.from_scenario(cfg, t_end=2.0))
        assert [v for v in result.violations if v.kind == "pairwise_clearance"] == []

    @pytest.mark.xfail(
        strict=True, reason="the nominal team loop diverges on a long path (ROADMAP item 25)"
    )
    def test_obstacle_free_paper_copy_settles_within_the_bound(self):
        """The paper scenario with no obstacles, run for 30 s: over t in [20, 30] s the
        stacked formation error stays within the certified ``formation_error_bound``."""
        doc = json.loads(open(PAPER).read())
        doc["obstacles"] = []
        cfg = parse_scenario(json.dumps(doc))
        cert = certify_scenario(cfg)
        result = run_simulation(cfg, cert, SimConfig.from_scenario(cfg, t_end=30.0))
        t = result.trace.col("t")
        late = result.trace.col("ferr_stacked")[(t >= 20.0) & (t <= 30.0)]
        assert late.size and float(np.max(late)) <= cert.bound_cert.bound


class TestTraceMetrics:
    @staticmethod
    def synthetic_trace():
        # two followers, three sampling steps of two fine rows plus the final
        # row; agent 1 is relaxed at step 0, agent 2 at steps 0 and 2; agent 1
        # takes 10/20/30 QP iterations per step, agent 2 always 4
        columns = ["t", "k", "ferr_stacked", "clr_obs", "clr_pair", "u1_0", "u2_0",
                   "ocp1_status", "ocp1_iters", "ocp2_status", "ocp2_iters"]
        k = np.array([0, 0, 1, 1, 2, 2, 2], dtype=float)
        data = np.zeros((k.size, len(columns)))
        data[:, 0] = 0.05 * np.arange(k.size)
        data[:, 1] = k
        data[:, columns.index("ocp1_status")] = np.where(k == 0, 2.0, 0.0)
        data[:, columns.index("ocp2_status")] = np.where(k == 1, 1.0, 2.0)
        data[:, columns.index("ocp1_iters")] = 10.0 * (k + 1.0)
        data[:, columns.index("ocp2_iters")] = 4.0
        return SimTrace(columns=columns, data=data, metadata={})

    def test_relaxed_steps_counted_once_per_sampling_step(self):
        assert trace_metrics(self.synthetic_trace())["relaxed_steps"] == 3

    def test_mean_qp_iterations_counted_once_per_sampling_step(self):
        # per fine row, the final step's extra row would give agent 1 150/7
        mean = trace_metrics(self.synthetic_trace())["mean_qp_iterations"]
        assert mean == pytest.approx((20.0 + 4.0) / 2, abs=1e-12)

    @staticmethod
    def looped_dips(trace, fs):
        """Per barrier kind, the largest clr(t_k) - min(clr over rows k fs .. (k+1) fs) and its k."""
        dips = {}
        for kind, col in (("obstacle", "clr_obs"), ("pairwise", "clr_pair")):
            clr = trace.col(col).tolist()
            best = None
            for k in range((len(clr) - 1) // fs):
                dip = clr[k * fs] - min(clr[k * fs : (k + 1) * fs + 1])
                if best is None or dip > best["dip"]:
                    best = {"dip": dip, "step": k}
            dips[kind] = best
        return dips

    def test_max_interval_dip_matches_a_plain_loop(self):
        """Random clearances on the synthetic trace's three steps of two fine rows."""
        trace = self.synthetic_trace()
        trace.metadata["fine_substeps"] = "2"
        trace.data[:, 3:5] = np.random.default_rng(5).normal(size=(len(trace.data), 2))
        assert trace_metrics(trace)["max_interval_dip"] == self.looped_dips(trace, 2)

    def test_max_interval_dip_null_without_column_or_substeps(self):
        """An inf clearance column (no obstacle, one follower) or a trace without
        ``fine_substeps`` metadata gives null."""
        trace = self.synthetic_trace()
        trace.data[:, 3] = 0.5 + np.arange(len(trace.data))
        trace.data[:, 4] = np.inf
        assert trace_metrics(trace)["max_interval_dip"] == {"obstacle": None, "pairwise": None}
        trace.metadata["fine_substeps"] = "2"
        dips = trace_metrics(trace)["max_interval_dip"]
        assert dips == {"obstacle": {"dip": 0.0, "step": 0}, "pairwise": None}

    def test_paper_interval_dips_match_a_plain_loop(self, paper):
        cfg, _, result, _ = paper
        dips = trace_metrics(result.trace)["max_interval_dip"]
        assert dips == self.looped_dips(result.trace, cfg.sim.fine_substeps)
        assert all(dip["dip"] > 0.0 for dip in dips.values())


    def test_final_instant_logged_like_every_other(self, paper):
        """The paper trace's last row is the final sampling instant: t = 30.0 exactly and
        the leader nominal re-anchored, so the last 5 s window holds 501 rows."""
        cfg, _, result, _ = paper
        trace, fs = result.trace, cfg.sim.fine_substeps
        t = trace.col("t")
        steps = int(round(cfg.sim.t_end / cfg.sim.ts))
        np.testing.assert_array_equal(t[::fs], np.arange(steps + 1) * cfg.sim.ts)
        assert t[-1] == 30.0
        assert trace.col("V0")[-1] == 0.0
        assert all(trace.col(c)[-1] == 0.0 for c in trace.columns if c.startswith("dx0_"))
        window = t >= t[-1] - FINAL_WINDOW_S
        assert np.count_nonzero(window) == 501
        metrics = trace_metrics(trace)
        assert metrics["t_end"] == 30.0
        assert metrics["final_mean_stacked_error"] == np.mean(trace.col("ferr_stacked")[-501:])


class TestTraceRoundTrip:
    @pytest.fixture(scope="class")
    def smoke_csv(self, tmp_path_factory):
        """A smoke run's trace and the CSV it wrote."""
        cfg = load_scenario(SMOKE)
        trace = run_simulation(cfg, certify_scenario(cfg, spot_checks=False)).trace
        path = tmp_path_factory.mktemp("round_trip") / "trace.csv"
        trace.to_csv(path)
        return trace, path

    def test_csv_round_trip(self, smoke_csv):
        trace, path = smoke_csv
        back = SimTrace.from_csv(path)
        assert back.columns == trace.columns
        assert np.allclose(back.data, trace.data, rtol=0, atol=0)
        assert back.metadata["scenario"] == "smoke_scenario"

    @pytest.mark.parametrize(
        "keep", [REPORT_COLUMNS, lambda name: name.startswith(("xb", "plan2_"))]
    )
    def test_selection_is_the_full_read_in_part(self, smoke_csv, keep):
        """The kept columns in file order, with the full read's metadata and bits."""
        full = SimTrace.from_csv(smoke_csv[1])
        part = SimTrace.from_csv(smoke_csv[1], keep)
        assert part.columns == [name for name in full.columns if keep(name)]
        assert 0 < len(part.columns) < len(full.columns)
        assert part.metadata == full.metadata
        picked = full.data[:, [full.columns.index(name) for name in part.columns]]
        np.testing.assert_array_equal(part.data.view(np.int64), picked.view(np.int64))

    def test_unloaded_column_is_missing(self, smoke_csv):
        part = SimTrace.from_csv(smoke_csv[1], REPORT_COLUMNS)
        assert "xb1_10" in smoke_csv[0].columns
        with pytest.raises(ScenarioError) as unloaded:
            part.col("xb1_10")
        with pytest.raises(ScenarioError) as absent:
            smoke_csv[0].col("xb1_99")
        assert str(unloaded.value) == "trace has no column 'xb1_10'"
        assert str(absent.value) == str(unloaded.value).replace("xb1_10", "xb1_99")


class TestTraceWriter:
    """``SimTrace.to_csv`` writes ``np.savetxt``'s bytes, whatever repeats between rows."""

    @staticmethod
    def assert_savetxt_bytes(trace, tmp_path):
        trace.to_csv(tmp_path / "new.csv")
        savetxt_trace(trace, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @staticmethod
    def held_trace(rows=7, held=5):
        """Two columns that change every row, then ``held`` that change every third row."""
        columns = ["t", "x"] + [f"h{j}" for j in range(held)]
        data = np.empty((rows, len(columns)))
        data[:, 0] = 0.1 * np.arange(rows)
        data[:, 1] = np.sqrt(np.arange(rows) + 0.5)
        data[:, 2:] = np.arange(rows)[:, None] // 3 + np.arange(held) / 7.0
        return SimTrace(columns=columns, data=data, metadata={"scenario": "held", "ts": "0.1"})

    def test_smoke_run(self, tmp_path):
        cfg = load_scenario(SMOKE)
        self.assert_savetxt_bytes(run_simulation(cfg, certify_scenario(cfg, spot_checks=False)).trace,
                                  tmp_path)

    def test_one_substep_per_step_repeats_no_suffix(self, tmp_path):
        cfg = load_scenario(SMOKE)
        cert = certify_scenario(cfg, spot_checks=False)
        trace = run_simulation(cfg, cert, t_end=2.0, fine_substeps=1).trace
        # every step's held values differ from the last; the final row repeats the last step's
        starts = _repeated_suffix_starts(trace.data, 8)
        assert np.all(starts[:-1] == len(trace.columns)) and starts[-1] < len(trace.columns)
        self.assert_savetxt_bytes(trace, tmp_path)

    def test_suffix_that_differs_only_in_the_sign_of_a_zero(self, tmp_path):
        trace = self.held_trace()
        trace.data[:, 4] = 0.0
        trace.data[1, 4] = -0.0  # rows 0-2 hold one suffix, but for this zero's sign
        starts = _repeated_suffix_starts(trace.data, 2)
        assert starts.tolist() == [7, 5, 5, 7, 2, 2, 7]
        self.assert_savetxt_bytes(trace, tmp_path)
        assert (tmp_path / "new.csv").read_text().splitlines()[4].split(",")[4] == "-0"

    def test_nan_and_inf_cells(self, tmp_path):
        trace = self.held_trace(rows=10)
        trace.data[:, 3] = np.inf
        trace.data[3:6, 5] = -np.inf
        trace.data[::2, 6] = np.nan
        trace.data[4, 1] = np.nan
        trace.data[5, 0] = -np.inf
        self.assert_savetxt_bytes(trace, tmp_path)

    def test_single_row(self, tmp_path):
        self.assert_savetxt_bytes(self.held_trace(rows=1), tmp_path)

    def test_rows_that_repeat_in_full(self, tmp_path):
        trace = self.held_trace(rows=9)
        trace.data[:, :2] = trace.data[:, 2:4]
        assert _repeated_suffix_starts(trace.data, 4).tolist() == [7, 0, 0, 7, 0, 0, 7, 0, 0]
        self.assert_savetxt_bytes(trace, tmp_path)

    def test_metadata_written_as_utf8(self, tmp_path):
        trace = self.held_trace()
        trace.metadata["scenario"] = "smoke_Ω"
        self.assert_savetxt_bytes(trace, tmp_path)
        assert SimTrace.from_csv(tmp_path / "new.csv").metadata["scenario"] == "smoke_Ω"
