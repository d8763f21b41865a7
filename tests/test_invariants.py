"""Cross-module invariants: communication accounting, broadcast pass-through,
prediction quality, and the remaining CLI exit codes."""

import json

import numpy as np
import pytest

import tubeform.sim
from tubeform.cli import main
from tubeform.pipeline import certify_scenario
from tubeform.protocol import initial_broadcast, shift_plan
from tubeform.scenario import build_graph, load_scenario, parse_scenario
from tubeform.sim import run_simulation

SMOKE = "scenarios/smoke_scenario.json"
PAPER = "scenarios/paper_scenario.json"
ABLATION = "scenarios/ablation_scenario.json"


class TestCommunicationAccounting:
    def test_one_plan_message_per_agent_per_step(self, monkeypatch):
        """Every step broadcasts one plan per agent, and the next step shifts each once."""
        cfg = load_scenario(SMOKE)
        cert = certify_scenario(cfg, spot_checks=False)
        senders = []

        def counting(inputs, terminal, gains):
            senders.append(len(inputs))
            return shift_plan(inputs, terminal, gains)

        monkeypatch.setattr(tubeform.sim, "shift_plan", counting)
        result = run_simulation(cfg, cert)
        steps = int(round(cfg.sim.t_end / cfg.sim.ts))
        # steps 1 .. steps-1 read the broadcasts of steps 0 .. steps-2; the last is never read
        assert senders == [cfg.dims.followers] * (steps - 1)
        assert result.world.plans.shape == (cfg.dims.followers, cfg.ocp.horizon, cfg.dims.d)

    def test_radius_tables_equal_certificate_outputs(self):
        """Over the certificate's protected pairs, every ordered follower pair, the table holds
        the sender's certified margin, and zero on the diagonal."""
        cfg = load_scenario(PAPER)
        cert = certify_scenario(cfg, spot_checks=False)
        g = build_graph(cfg)
        table = initial_broadcast(cert.tubes.margin_radius, cert.protected)
        assert len(cert.protected) == g.n_followers * (g.n_followers - 1)
        for i in range(g.n_followers):
            for j in range(g.n_followers):
                expected = cert.tubes.margin_radius[j] if j != i else 0.0
                assert table[i, j] == expected

    def test_paper_zbars_match_explicit_sums(self):
        cfg = load_scenario(PAPER)
        cert = certify_scenario(cfg, spot_checks=False)
        g = build_graph(cfg)
        radii = cert.tubes.margin_radius
        r0 = cert.leader.r_ball0
        for i in range(g.n_followers):
            manual = (g.nu1 * np.sum(g.adjacency[i]) + g.nu2 * g.b0[i]) * radii[i]
            for j in np.flatnonzero(g.adjacency[i] > 0.0):
                manual += g.nu1 * g.adjacency[i, j] * radii[j]
            manual += g.nu2 * g.b0[i] * r0
            assert abs(cert.bound_cert.zbars[i] - manual) < 1e-12


class TestNeighborPredictionQuality:
    def test_prediction_error_decays(self):
        """Mean one-step neighbor prediction error in the last second is below
        the first second's (plans converge in steady state)."""
        doc = json.loads(open(ABLATION).read())
        doc["sim"]["t_end"] = 8.0
        cfg = parse_scenario(json.dumps(doc))
        cert = certify_scenario(cfg, spot_checks=False)
        result = run_simulation(cfg, cert)
        t = result.trace.col("t")
        pred = result.trace.col("pred_err")
        early = pred[(t >= 0.2) & (t < 1.2)]
        late = pred[t >= t[-1] - 1.0]
        assert float(np.mean(late)) < float(np.mean(early))


class TestTraceCompleteness:
    def test_no_nans_and_rectangular(self):
        cfg = load_scenario(SMOKE)
        cert = certify_scenario(cfg, spot_checks=False)
        result = run_simulation(cfg, cert)
        data = result.trace.data
        assert data.shape == (
            int(round(cfg.sim.t_end / cfg.sim.ts)) * cfg.sim.fine_substeps + 1,
            len(result.trace.columns),
        )
        finite = data[:, [i for i, c in enumerate(result.trace.columns)
                          if not c.endswith("_obj")]]
        assert np.all(np.isfinite(finite))


class TestRunExitCodes:
    def test_safety_violation_exit_3(self, tmp_path, capsys):
        doc = json.loads(open(SMOKE).read())
        for agent in doc["agents"]:
            agent["margin_radius"] = 1e-9  # impossible declared deviation bound
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(doc))
        cert = tmp_path / "cert.json"
        assert main(["certify", str(scen), "-o", str(cert)]) == 0
        code = main(["run", str(scen), "--cert", str(cert), "-o", str(tmp_path / "o")])
        assert code == 3
        assert "margin_radius" in capsys.readouterr().err

    def test_nonfinite_world_state_exit_1(self, tmp_path, capsys):
        # with the feedforward off nothing cancels agent 1's own drift, and a
        # huge unstable drift term overflows the world state within 0.5 s
        doc = json.loads(open(SMOKE).read())
        agent = doc["agents"][0]
        agent["dynamics"]["axes"][0].append(
            {"form": "state", "coeff": 1e9, "order": 3, "axis": 0}
        )
        agent["lipschitz"] = 2.1e7
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(doc))
        cert = tmp_path / "cert.json"
        assert main(["certify", str(scen), "-o", str(cert)]) == 0
        argv = ["run", str(scen), "--cert", str(cert), "-o", str(tmp_path / "o"),
                "--t-end", "0.5", "--toggle-feedforward"]
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(argv)
        assert code == 1
        err = capsys.readouterr().err
        assert "non-finite" in err
        assert "t=0.16" in err

    def test_cascaded_infeasibility_exit_4(self, tmp_path):
        # an error-state box far too tight stays hard even in relaxed solves,
        # so every solve fails and the fallback plan is exhausted
        doc = json.loads(open(SMOKE).read())
        doc["ocp"]["error_box"] = [0.2, 0.2, 0.3, 0.3, 0.5, 0.5]
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(doc))
        cert = tmp_path / "cert.json"
        assert main(["certify", str(scen), "-o", str(cert)]) == 0
        code = main(["run", str(scen), "--cert", str(cert), "-o", str(tmp_path / "o")])
        assert code == 4
