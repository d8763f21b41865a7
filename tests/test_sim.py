import dataclasses
import functools
import json
import math

import numpy as np
import pytest

import tubeform.sim
from tubeform.barrier import assemble_row
from tubeform.cli import main
from tubeform.errors import DegenerateGradient, NonFiniteState
from tubeform.graph import CommGraph
from tubeform.models import DisturbanceStack
from tubeform.ocp import rollout
from tubeform.pipeline import certify_scenario
from tubeform.protocol import shift_plan
from tubeform.scenario import load_scenario, parse_scenario
from tubeform.sim import (
    SimConfig,
    SimTrace,
    SimWorld,
    apply_control,
    run_simulation,
    trace_metrics,
)

from oracles import agent_disturbance, chain_recurrence

SMOKE = "scenarios/smoke_scenario.json"
PAPER = "scenarios/paper_scenario.json"


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


class TestApplyControl:
    def test_identity_cancellation(self):
        gain = np.ones((2, 6))
        x = np.zeros(6)
        f_val = np.array([1.7, -0.3])
        u = apply_control(gain, np.zeros(2), x, x, f_val, f_val, True)
        assert np.allclose(u, 0.0)

    def test_feedforward_off(self):
        gain = np.eye(2, 6)
        x = np.ones(6)
        xb = np.zeros(6)
        v = np.array([0.5, -0.5])
        u = apply_control(gain, v, x, xb, None, None, False)
        assert np.allclose(u, v - gain @ (x - xb))


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
    return agent_disturbance(world.models[agent].disturbance, world.d, agent, sim.seed, step, t)


class TestDeviationDynamics:
    @staticmethod
    def stepped_world(feedforward_on):
        cfg = load_scenario(SMOKE)
        cert = certify_scenario(cfg, spot_checks=False)
        world = SimWorld(cfg, cert, SimConfig.from_scenario(cfg, feedforward_on=feedforward_on))
        for k in range(3):
            world.step(k)
        return world, cert.tubes[0].lyap.acl, 3 * cfg.sim.ts

    @staticmethod
    def deviation_rates(world, t):
        """Per follower: (state, dx, d(dx)/dt, anchor) read off the world ODE."""
        state = world.state.ravel()
        deriv = world._world_derivative(world.state, t, world.v_applied).ravel()
        nd = world.nd
        for i in range(world.n):
            xo = 2 * nd + i * 3 * nd
            x = state[xo : xo + nd]
            dx = x - state[xo + nd : xo + 2 * nd]
            ddx = deriv[xo : xo + nd] - deriv[xo + nd : xo + 2 * nd]
            yield i, x, dx, ddx, state[xo + 2 * nd : xo + 3 * nd]

    def test_closed_loop_matches_linear_form(self):
        """Fine-integrated deviation dynamics match the certified linear form:
        d(dx)/dt = Acl dx + G (leader-drift mismatch + w)."""
        world, acl, t = self.stepped_world(True)
        nd = world.nd
        g_sel = np.zeros((nd, 2))
        g_sel[-2:] = np.eye(2)
        for i, _, dx, ddx, anchor in self.deviation_rates(world, t):
            pinned = world.graph.b0[i] > 0
            ff_state = world.state[0] if pinned else anchor
            leader = world.models[0].drift.value
            mismatch = leader(ff_state, t) - leader(anchor, t)
            w = own_disturbance(world, i + 1, t)
            expected = acl @ dx + g_sel @ (mismatch + w)
            assert np.max(np.abs(ddx - expected)) < 1e-9

    def test_feedforward_off_matches_linear_form(self):
        """Without feedforward the own drift is not cancelled and the nominal
        ignores the leader: d(dx)/dt = Acl dx + G (f_i(x) + w)."""
        world, acl, t = self.stepped_world(False)
        nd = world.nd
        g_sel = np.zeros((nd, 2))
        g_sel[-2:] = np.eye(2)
        for i, x, dx, ddx, _ in self.deviation_rates(world, t):
            drive = world.models[i + 1].drift.value(x, t) + own_disturbance(world, i + 1, t)
            assert np.max(np.abs(drive)) > 1e-3  # the uncancelled term is really there
            expected = acl @ dx + g_sel @ drive
            assert np.max(np.abs(ddx - expected)) < 1e-9


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
        real = tubeform.sim.relay_leader

        def offset(parent, *args):
            estimates, ages = real(parent, *args)
            return estimates + 0.7 * (parent >= 0)[:, None], ages

        stock = smoke_trace()
        monkeypatch.setattr(tubeform.sim, "relay_leader", offset)
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
        anchors = world.x_leader + 0.3 * rng.normal(size=(4, world.nd))
        stacked = world._leader_ff_samples(anchors, 0.7)
        assert stacked.shape == (4, world.horizon, world.d)
        for i, anchor in enumerate(anchors):
            single = world._leader_ff_samples(anchor[None], 0.7)[0]
            np.testing.assert_allclose(stacked[i], single, rtol=1e-13, atol=1e-13)
        # the first sample is the leader drift at the anchor itself
        np.testing.assert_allclose(
            stacked[:, 0], world.models[0].drift.value(anchors, 0.7), rtol=0, atol=0
        )


class TestWorldDrift:
    def test_team_call_matches_per_model_calls(self):
        """The one stacked drift call of the world RHS equals one call per row's
        model: the leader's on the leader, its nominal and the anchors, each
        follower's own on its true state."""
        cfg = load_scenario(PAPER)
        cert = certify_scenario(cfg, spot_checks=False)
        world = SimWorld(cfg, cert, SimConfig.from_scenario(cfg))
        for step in range(10):
            world.step(step)
        t = 10.37 * cfg.sim.ts
        team = world._drift.value(world.state[world._drift_rows], t)
        leader = world.models[0].drift.value
        expected = np.empty_like(team)
        expected[[0, 1]] = leader(world.state[[0, 1]], t)
        expected[3::2] = leader(world.anchors, t)
        for i, model in enumerate(world.models[1:]):
            expected[2 + 2 * i] = model.drift.value(world.x_true[i], t)
        np.testing.assert_allclose(team, expected, rtol=1e-14, atol=1e-14)


def oracle_rows(world, i, k, ff_seq, preds, shifted, states):
    """One assemble_row call per (step, obstacle) and (step, neighbor) row."""
    margin_i = world.margins[i]
    out = []
    for l in range(world.horizon - 1):
        xl = states[l]
        for obstacle in world.cfg.obstacles:
            dist = np.linalg.norm(xl[: world.d] - np.asarray(obstacle.center))
            if dist > world.cfg.barriers.activation_range:
                continue
            chain = np.zeros(world.nd)
            chain[: world.d] = obstacle.center
            a, b = assemble_row(
                world.kappa, world.dims, xl, chain, obstacle.effective_radius,
                margin_i, 0.0, ff_seq[l],
            )
            out.append((l, a, b, 0))
        for j in world.graph.neighbors(i):
            a, b = assemble_row(
                world.kappa, world.dims, xl, preds[i, j, l], world.cfg.barriers.d_safe,
                margin_i, world.radius_table[i, j], ff_seq[l] - (shifted[j][l] + ff_seq[l]),
            )
            out.append((l, a, b, 1))
    return out


class TestRowBuilder:
    def test_stacked_rows_match_per_row_oracle(self):
        """Mid-run paper state: agent 1 has one obstacle in range and one out."""
        cfg = load_scenario(PAPER)
        cert = certify_scenario(cfg, spot_checks=False)
        world = SimWorld(cfg, cert, SimConfig.from_scenario(cfg))
        k = 20
        for step in range(k):
            world.step(step)
        ff = world._leader_ff_samples(world.anchors, k * cfg.sim.ts)
        shifted, preds, _ = world._neighbor_data(k, ff)
        kept = filtered = 0
        inputs, terminal = world.board.read(k)
        for i in range(world.n):
            warm = shift_plan(inputs[i], terminal[i], world.specs[i].terminal_gain)
            np.testing.assert_array_equal(shifted[i], warm)
            states = rollout(world.specs[i], world.x_nom[i], warm + ff[i])
            rows = world._row_builder(i, k, ff[i], preds, shifted)(states)
            expected = oracle_rows(world, i, k, ff[i], preds, shifted, states)
            assert list(zip(rows.step.tolist(), rows.group.tolist())) == [
                (r[0], r[3]) for r in expected
            ]
            assert np.all(rows.step < world.horizon - 1)
            ref_a = np.reshape([r[1] for r in expected], (-1, world.d))
            np.testing.assert_allclose(rows.a, ref_a, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(rows.b, [r[2] for r in expected], rtol=1e-12, atol=1e-12)
            n_obstacle = int(np.sum(rows.group == 0))
            kept += n_obstacle
            filtered += (world.horizon - 1) * len(cfg.obstacles) - n_obstacle
        assert kept > 0 and filtered > 0  # the activation range really selects

    @pytest.mark.parametrize("activation_range", [5.0, -1.0])
    def test_zero_obstacle_offset_raises(self, activation_range):
        """A state on an obstacle center is degenerate even where the cell is out of range."""
        cfg = load_scenario(SMOKE)
        cfg = dataclasses.replace(
            cfg, barriers=dataclasses.replace(cfg.barriers, activation_range=activation_range)
        )
        cert = certify_scenario(cfg, spot_checks=False)
        world = SimWorld(cfg, cert, SimConfig.from_scenario(cfg))
        ff = world._leader_ff_samples(world.anchors, 0.0)
        shifted, preds, _ = world._neighbor_data(0, ff)
        rows = world._row_builder(0, 0, ff[0], preds, shifted)  # obstacles only at deployment
        states = np.ones((world.horizon + 1, world.nd))
        assert rows(states).step.size == (world.horizon - 1) * (activation_range > 0)
        states[2, : world.d] = cfg.obstacles[0].center
        with pytest.raises(DegenerateGradient):
            rows(states)


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
        ff = world._leader_ff_samples(world.anchors, k * cfg.sim.ts)
        shifted, preds, s_seqs = world._neighbor_data(k, ff)
        spec = world.specs[0]
        edges = [(i, j) for i in range(world.n) for j in world.graph.neighbors(i)]
        assert len(edges) == np.count_nonzero(world.graph.adjacency)
        for i, j in edges:
            ref = chain_recurrence(spec.ad, spec.bd, world.x_true[j], shifted[j] + ff[i])
            np.testing.assert_allclose(preds[i, j], ref, rtol=1e-12, atol=1e-12)
        g = world.graph
        for i in range(world.n):
            ref = sum(g.nu1 * g.adjacency[i, j] * shifted[j] for j in g.neighbors(i))
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


class TestDisturbanceDraws:
    def test_each_ball_draw_made_once(self, monkeypatch):
        """A 1 s ball copy of smoke draws each (agent, fine-step index) once in the loop.

        The 100 substeps read indices 0..100: the last RK4 stage of the last
        substep, at t = 1.0, reads index 100. One draw per stage would be
        3 agents x 100 substeps x 4 stages = 1,200 calls.
        """
        doc = json.loads(open(SMOKE).read())
        for section in [doc["leader"], *doc["agents"]]:
            section["disturbance"] = {"kind": "ball", "bound": section["disturbance_bound"]}
        cfg = parse_scenario(json.dumps(doc))
        cert = certify_scenario(cfg, spot_checks=False)
        draw = DisturbanceStack.draw
        calls = []

        def counting(stack, row, j):
            calls.append((row, j))
            return draw(stack, row, j)

        monkeypatch.setattr(DisturbanceStack, "draw", counting)
        run_simulation(cfg, cert, SimConfig.from_scenario(cfg, t_end=1.0))
        assert len(calls) == 3 * 101
        assert sorted(calls) == [(a, j) for a in range(3) for j in range(101)]


class TestLeaderRelay:
    def test_one_graph_per_run(self, tmp_path, monkeypatch):
        """One ``run`` (recertify, then the world) walks the leader BFS once and builds M once;
        the world's graph is the certificate's graph."""
        certificate = tmp_path / "cert.json"
        assert main(["certify", PAPER, "-o", str(certificate)]) == 0
        built = {"m": [], "relay_tree": []}
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
        assert len(built["relay_tree"]) == len(built["m"]) == 1
        assert built["relay_tree"][0] is built["m"][0] is world.graph is world.cert.graph
        # the path graph pins agent 1 only: agent i's anchor is i - 1 steps old
        assert world.estimate_ages.tolist() == [0, 1, 2, 3, 4]


class TestShiftedPlans:
    def test_one_shift_per_agent_per_step(self, monkeypatch):
        cfg = load_scenario(SMOKE)
        cert = certify_scenario(cfg, spot_checks=False)
        world = SimWorld(cfg, cert, SimConfig.from_scenario(cfg, t_end=0.5))
        calls = []

        def counting(inputs, terminal, gains):
            calls.append((world.board.stamp, len(inputs)))
            return shift_plan(inputs, terminal, gains)

        monkeypatch.setattr(tubeform.sim, "shift_plan", counting)
        world.run()
        # nothing to shift at deployment, then one call per step shifting each broadcast once
        assert calls == [(k, world.n) for k in range(world.n_steps - 1)]

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
        inputs, terminal = world.board.read(k_fail)
        for j in range(world.n):
            warm = shift_plan(inputs[j], terminal[j], world.specs[j].terminal_gain)
            np.testing.assert_array_equal(shifted[j], warm)
        s_seq = np.zeros_like(shifted[0])
        for j in world.graph.neighbors(0):
            s_seq += world.graph.nu1 * world.graph.adjacency[0, j] * shifted[j]

        stats = world.step(k_fail)
        inputs, terminal = world.board.read(k_fail + 1)
        assert world.board.stamp == k_fail
        np.testing.assert_array_equal(inputs[0], shifted[0])
        errors = chain_recurrence(
            agent_one.ad, agent_one.bd, stats["e0"][0], s_seq - agent_one.coupling * shifted[0]
        )
        np.testing.assert_allclose(terminal[0], errors[-1], rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(world.v_applied[0], shifted[0][0])
        assert world.infeasible_streak == [1, 0]

        world.step(k_fail + 1)
        assert world.infeasible_streak == [0, 0]
        status = world.trace_data[:, world.trace_columns.index("ocp1_status")]
        steps = world.trace_data[:, world.trace_columns.index("k")]
        assert np.sum(steps == k_fail) == cfg.sim.fine_substeps
        assert np.all(status[steps == k_fail] == 2.0)
        assert np.all(status[steps == k_fail + 1] != 2.0)


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
        assert (first.kind, first.step, first.t) == (kind, 0, 0.0)


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


class TestTraceRoundTrip:
    def test_csv_round_trip(self, tmp_path):
        cfg = load_scenario(SMOKE)
        cert = certify_scenario(cfg, spot_checks=False)
        result = run_simulation(cfg, cert)
        path = tmp_path / "trace.csv"
        result.trace.to_csv(path)
        from tubeform.sim import SimTrace

        back = SimTrace.from_csv(path)
        assert back.columns == result.trace.columns
        assert np.allclose(back.data, result.trace.data, rtol=0, atol=0)
        assert back.metadata["scenario"] == "smoke_scenario"
