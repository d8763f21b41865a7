import json
import math
import os
import subprocess
import sys
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

import tubeform.sim
from tubeform import cli, scenario
from tubeform.cli import main
from tubeform.errors import DegenerateGradient, ScenarioError
from tubeform.pipeline import _matches, certify_scenario, check_certificate, load_certificate
from tubeform.sim import SimTrace

from test_sim import equilibrium_doc

SMOKE = Path("scenarios/smoke_scenario.json")


@pytest.fixture(scope="module")
def certified(tmp_path_factory):
    out = tmp_path_factory.mktemp("certified")
    cert = out / "cert.json"
    assert main(["certify", str(SMOKE), "-o", str(cert)]) == 0
    return cert


@pytest.fixture
def hash_calls(monkeypatch):
    """The configs of every ``scenario_hash`` call made through a tubeform module."""
    calls = []
    real = scenario.scenario_hash

    def counting(cfg):
        calls.append(cfg)
        return real(cfg)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("tubeform") and hasattr(
            module, "scenario_hash"
        ):
            monkeypatch.setattr(module, "scenario_hash", counting)
    return calls


@pytest.fixture(scope="module")
def run_dir(certified, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert main(["run", str(SMOKE), "--cert", str(certified), "-o", str(out)]) == 0
    return out


class TestCertify:
    def test_certificate_contents(self, certified):
        doc = json.loads(certified.read_text())
        assert doc["sv_min"] > 0.0
        assert len(doc["agents"]) == 2
        for agent in doc["agents"]:
            assert agent["lyapunov_residual"] < 1e-9
            assert agent["r_ball"] > 0.0
        assert doc["scenario_sha256"]

    def test_certificate_key_order(self, certified):
        """Each section keeps its key order, so certificates written before still load and check."""
        doc = json.loads(certified.read_text())
        assert list(doc) == [
            "scenario_name", "scenario_sha256", "sv_min", "formation_error_bound", "leader",
            "agents",
        ]
        assert list(doc["leader"]) == [
            "mode", "rho0", "r_ball", "lyapunov_residual", "lambda_min_p", "lambda_max_p", "p",
        ]
        for agent in doc["agents"]:
            assert list(agent) == [
                "id", "hops", "w_bar_used", "w_eff", "r", "r_ball", "margin_radius",
                "margin_mode", "input_eta", "input_bound_tightened", "baseline_r",
                "baseline_r_ball", "zbar", "lyapunov_residual", "lambda_min_p", "lambda_max_p",
                "lambda_min_q", "gain", "p", "q",
            ]

    def test_deeply_nested_scenario_exit_1(self, certified, tmp_path, capsys):
        """A scenario nested past the JSON parser's depth exits 1 at certify and at run,
        with one error line and no output."""
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        out = tmp_path / "c" / "cert.json"
        assert main(["certify", str(deep), "-o", str(out)]) == 1
        error = "error: scenario: nested deeper than the JSON parser allows\n"
        assert capsys.readouterr().err == error
        assert not out.parent.exists()
        assert main(["run", str(deep), "--cert", str(certified), "-o", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == error
        assert not (tmp_path / "o").exists()

    def test_rootless_graph_exit_2(self, tmp_path, capsys):
        doc = json.loads(SMOKE.read_text())
        doc["graph"]["b0"] = [0.0, 0.0]
        doc["graph"]["adjacency"] = [[0.0, 0.0], [0.0, 0.0]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["certify", str(bad), "-o", str(tmp_path / "c.json")]) == 2
        assert "GraphNotRooted" in capsys.readouterr().err

    def test_infeasible_leader_tube_exit_2(self, tmp_path, capsys):
        doc = json.loads(SMOKE.read_text())
        doc["leader"]["tube"] = {"mode": "lyapunov", "residual_lipschitz": 1e6}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["certify", str(bad), "-o", str(tmp_path / "c.json")]) == 2
        assert "InfeasibleLeaderTube" in capsys.readouterr().err

    def test_creates_missing_output_directory(self, tmp_path):
        cert = tmp_path / "out" / "nested" / "cert.json"
        assert main(["certify", str(SMOKE), "-o", str(cert)]) == 0
        assert json.loads(cert.read_text())["scenario_sha256"]

    def test_parse_error_exit_1(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{ nope")
        assert main(["certify", str(bad), "-o", str(tmp_path / "c.json")]) == 1

    def test_binary_scenario_exit_1(self, tmp_path, capsys):
        """A scenario that is not UTF-8 text exits 1 naming the file, and writes nothing."""
        bad = tmp_path / "binary.json"
        bad.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe\x00")
        out = tmp_path / "c" / "cert.json"
        assert main(["certify", str(bad), "-o", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8 text")
        assert not out.parent.exists()

    @pytest.mark.parametrize(
        "section, key, value, path",
        [
            (("obstacles", 0), "center", [0.0, 0.9, 0.0], "obstacles[0].center"),
            (("obstacles", 0), "center", [0.9], "obstacles[0].center"),
            (("agents", 0, "disturbance"), "amp", [0.01] * 3, "agents[0].disturbance.amp"),
            (("agents", 0, "operating_box"), "lower", [-4.0, -4.0], "agents[0].operating_box.lower"),
            (("leader", "operating_box"), "upper", [4.0] * 5, "leader.operating_box.upper"),
            (("ocp",), "error_box", [5.0] * 3, "ocp.error_box"),
            ((), "graph", {"adjacency": [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
                           "b0": [1.0, 0.0, 0.0]}, "graph.adjacency"),
            ((), "graph", {"adjacency": [[0.0]], "b0": [1.0]}, "graph.adjacency"),
            (("graph",), "adjacency", [[0.0, 1.0], [1.0, 0.0, 0.0]], "graph.adjacency[1]"),
            (("graph",), "b0", [1.0, 0.0, 0.0], "graph.b0"),
            (("barriers",), "kappa_poles", [-1.5, -2.5], "barriers.kappa_poles"),
            (("gains",), "poles", [-2.0, -3.0], "gains.poles"),
            (("gains",), "lyapunov_q", [1.0, 1.0], "gains.lyapunov_q"),
        ],
        ids=[
            "center-3", "center-1", "amp-3", "agent-box-2", "leader-box-5", "error-box-3",
            "adjacency-3x3", "adjacency-1x1", "adjacency-row-3", "b0-3", "kappa-poles-2",
            "gains-poles-2", "lyapunov-q-2",
        ],
    )
    def test_wrong_vector_length_exit_1(self, tmp_path, capsys, section, key, value, path):
        """A vector whose length disagrees with d or nd fails at parse time, naming its path."""
        doc = json.loads(SMOKE.read_text())
        node = doc
        for step in section:
            node = node[step]
        node[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["certify", str(bad), "-o", str(tmp_path / "c.json")]) == 1
        err = capsys.readouterr().err
        assert f"{path}: expected" in err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("sim", "ts", -0.1),
            ("sim", "ts", 0.0),
            ("ocp", "horizon", 2.5),
            ("ocp", "horizon", "5"),
            ("barriers", "d_safe", -1.0),
            ("barriers", "d_safe", 0.0),
            ("sim", "fine_substeps", 10.5),
            ("sim", "fine_substeps", "10"),
        ],
        ids=["ts-negative", "ts-zero", "horizon-fraction", "horizon-string", "d-safe-negative",
             "d-safe-zero", "substeps-fraction", "substeps-string"],
    )
    def test_invalid_scalar_exit_1(self, tmp_path, capsys, section, key, value):
        """An out-of-range or non-integer scalar fails at certify, naming its path."""
        doc = json.loads(SMOKE.read_text())
        doc[section][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["certify", str(bad), "-o", str(tmp_path / "c.json")]) == 1
        assert f"{section}.{key}: must be" in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()

    def test_non_hurwitz_gain_poles_exit_2(self, tmp_path, capsys):
        """Pole placement with a pole in the right half-plane fails at certify time."""
        doc = json.loads(SMOKE.read_text())
        doc["gains"]["poles"] = [1.0, -3.0, -4.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["certify", str(bad), "-o", str(tmp_path / "c.json")]) == 2
        assert "NotHurwitz" in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()

    def test_error_box_consumed_by_margins_exit_2(self, certified, tmp_path, capsys):
        """An error box no wider than a certified margin is refused at certify, naming the
        entry, the agent and both values; run recertifies and stops before any output."""
        doc = json.loads(SMOKE.read_text())
        doc["ocp"]["error_box"] = [0.01] * 6
        scen = tmp_path / "ebox.json"
        scen.write_text(json.dumps(doc))
        out = tmp_path / "c" / "cert.json"
        assert main(["certify", str(scen), "-o", str(out)]) == 2
        infeasible = (
            "infeasible: EmptyTightenedSet: ocp.error_box[0] 0.01 does not exceed "
            "agent 1's margin 0.05\n"
        )
        assert capsys.readouterr().err == infeasible
        assert not out.parent.exists()
        cert_doc = json.loads(certified.read_text())
        cert_doc["scenario_sha256"] = scenario.load_scenario(scen).sha256
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(cert_doc))
        assert main(["run", str(scen), "--cert", str(cert), "-o", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == infeasible
        assert not (tmp_path / "o").exists()

    def test_error_box_consumed_by_baseline_margins_exit_2(self, tmp_path, capsys):
        """The baseline margins are checked at run: a box that the certified margins leave
        and a baseline radius consumes exits 2 before any output."""
        doc = json.loads(SMOKE.read_text())
        doc["ocp"]["error_box"] = [1.0] * 6
        scen = tmp_path / "ebox.json"
        scen.write_text(json.dumps(doc))
        cert = tmp_path / "cert.json"
        assert main(["certify", str(scen), "-o", str(cert)]) == 0
        capsys.readouterr()
        out = tmp_path / "o"
        assert main(["run", str(scen), "--cert", str(cert), "-o", str(out), "--baseline-margins"]) == 2
        assert capsys.readouterr().err == (
            "infeasible: EmptyTightenedSet: ocp.error_box[0] 1 does not exceed "
            "agent 2's margin 2.94024\n"
        )
        assert not out.exists()

    @pytest.mark.xfail(
        strict=True, reason="certify never checks the deployment state (ROADMAP item 15)"
    )
    def test_follower_deployed_inside_an_obstacle_exit_2(self, tmp_path, capsys):
        """A smoke copy that deploys follower 1 inside obstacle 0 is refused at certify, in
        one stderr line naming both, before any certificate is written; today it certifies
        and its run exits 3 at fine step 0."""
        doc = json.loads(SMOKE.read_text())
        doc["obstacles"][0]["center"] = [0.6, -0.3]
        doc["sim"]["t_end"] = 1.0
        scen = tmp_path / "inside.json"
        scen.write_text(json.dumps(doc))
        cert = tmp_path / "cert.json"
        assert main(["certify", str(scen), "-o", str(cert)]) == 2
        assert not cert.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "agent 1" in err[0] and "obstacle 0" in err[0]

    def test_input_bound_consumed_by_margin_exit_2(self, certified, tmp_path, capsys):
        """An input bound no wider than an ancillary margin is refused at certify, naming the
        entry, the agent and both values; run recertifies and stops before any output."""
        scen = _smoke_copy(tmp_path, lambda doc: doc["ocp"].update(input_bound=30.0))
        out = tmp_path / "c" / "cert.json"
        assert main(["certify", str(scen), "-o", str(out)]) == 2
        infeasible = (
            "infeasible: EmptyTightenedSet: ocp.input_bound 30 does not exceed "
            "agent 2's ancillary margin 43.5515\n"
        )
        assert capsys.readouterr().err == infeasible
        assert not out.parent.exists()
        cert_doc = json.loads(certified.read_text())
        cert_doc["scenario_sha256"] = scenario.load_scenario(scen).sha256
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(cert_doc))
        assert main(["run", str(scen), "--cert", str(cert), "-o", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == infeasible
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "edit, refusal",
        [
            (
                lambda doc: doc["agents"][0].update(lipschitz=0.01),
                "error: agent 1: drift violates declared Lipschitz bound (0.0167484 > 0.01)\n",
            ),
            (
                lambda doc: doc["agents"][1].update(disturbance_bound=1e-4),
                "error: agent 2: disturbance reaches 0.0131348, declared bound 0.0001\n",
            ),
        ],
        ids=["lipschitz", "disturbance-bound"],
    )
    def test_spot_check_refusal_exit_1(self, tmp_path, capsys, edit, refusal):
        """A declared constant the spot checks disprove exits 1, naming the agent and both
        values, and writes no certificate."""
        out = tmp_path / "c" / "cert.json"
        assert main(["certify", str(_smoke_copy(tmp_path, edit)), "-o", str(out)]) == 1
        assert capsys.readouterr().err == refusal
        assert not out.parent.exists()

    def test_non_hurwitz_kappa_poles_exit_2(self, tmp_path, capsys):
        """eCBF poles that give a non-positive class-kappa coefficient fail at certify time."""
        doc = json.loads(SMOKE.read_text())
        doc["barriers"]["kappa_poles"] = [1.5, -2.5, -3.5]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["certify", str(bad), "-o", str(tmp_path / "c.json")]) == 2
        assert "NotHurwitz" in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()


def _strict_json(text: str):
    """Parse as RFC 8259 JSON: ``Infinity``, ``-Infinity`` and ``NaN`` are rejected."""

    def reject(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=reject)


def one_follower_obstacle_free(tmp_path: Path) -> Path:
    """A smoke copy with one follower, pinned to the leader, and no obstacles."""
    doc = json.loads(SMOKE.read_text())
    doc["dims"]["followers"] = 1
    doc["agents"] = doc["agents"][:1]
    doc["graph"]["adjacency"] = [[0.0]]
    doc["graph"]["b0"] = [1.0]
    doc["formation"]["offsets"] = doc["formation"]["offsets"][:2]
    doc["obstacles"] = []
    doc["initial_states"]["followers"] = doc["initial_states"]["followers"][:1]
    path = tmp_path / "solo.json"
    path.write_text(json.dumps(doc))
    return path


class TestRun:
    def test_outputs_exist(self, run_dir):
        assert (run_dir / "trace.csv").exists()
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["min_obstacle_clearance"] > 0.0
        assert summary["violations"] == []
        # read before re-anchoring, so never below what the trace logs
        assert summary["max_leader_occupancy_pre_anchor"] >= summary["max_tube_occupancy"]["occ0"]

    def test_capped_solves_are_counted_in_summary(self, run_dir):
        """Per follower, smoke's solves that hit the SQP pass cap unconverged, and of those the
        zero-slack plans that break their own eCBF rows (ROADMAP item 1), as integers."""
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["capped_solves"] == {"1": 19, "2": 19}
        assert summary["capped_own_row_failures"] == {"1": 18, "2": 19}
        counts = [*summary["capped_solves"].values(), *summary["capped_own_row_failures"].values()]
        assert all(type(count) is int for count in counts)

    @pytest.mark.parametrize(
        "kind, named, other",
        [("obstacle_clearance", "obstacle 0", 0), ("pairwise_clearance", "other agent 2", 2)],
    )
    def test_clearance_violation_names_the_other_party(self, tmp_path, capsys, kind, named, other):
        """A smoke copy that deploys follower 1 inside the obstacle, or follower 2 0.1 from
        follower 1, exits 3 at fine step 0; the stderr line and the summary name the obstacle
        or the other agent."""
        doc = json.loads(SMOKE.read_text())
        if kind == "obstacle_clearance":
            doc["obstacles"][0]["center"] = [0.6, -0.3]
        else:
            doc["initial_states"]["followers"][1][:2] = [0.5, -0.4]
        scenario, cert, out = tmp_path / "copy.json", tmp_path / "cert.json", tmp_path / "run"
        scenario.write_text(json.dumps(doc))
        assert main(["certify", str(scenario), "-o", str(cert)]) == 0
        capsys.readouterr()
        run = ["run", str(scenario), "--cert", str(cert), "-o", str(out), "--t-end", "0.2"]
        assert main(run) == 3
        line = f"safety violation: {kind} at fine step 0 (t=0.000, agent 1, {named})\n"
        assert capsys.readouterr().err == line
        first = json.loads((out / "summary.json").read_text())["violations"][0]
        assert (first["kind"], first["fine_step"], first["agent"], first["other"]) == (
            kind, 0, 1, other
        )

    def test_truncated_run(self, certified, tmp_path):
        out = tmp_path / "short"
        assert main(
            ["run", str(SMOKE), "--cert", str(certified), "-o", str(out), "--t-end", "0.5"]
        ) == 0
        lines = (out / "trace.csv").read_text().splitlines()
        data_lines = [l for l in lines if not l.startswith("#")][1:]
        assert len(data_lines) == 5 * 10 + 1  # five sampling steps of ten substeps

    def test_seed_keeps_scenario_hash(self, certified, tmp_path):
        """A reseeded run's trace names the scenario file its certificate names."""
        out = tmp_path / "seeded"
        argv = ["run", str(SMOKE), "--cert", str(certified), "-o", str(out)]
        assert main(argv + ["--seed", "7", "--t-end", "0.2"]) == 0
        trace = SimTrace.from_csv(out / "trace.csv")
        assert trace.metadata["seed"] == "7"
        cert_hash = json.loads(certified.read_text())["scenario_sha256"]
        assert trace.metadata["scenario_sha256"] == cert_hash

    def test_run_hashes_the_scenario_once(self, certified, tmp_path, hash_calls):
        """The hash checked against the certificate is the one certification records."""
        argv = ["run", str(SMOKE), "--cert", str(certified), "-o", str(tmp_path / "o")]
        assert main(argv + ["--t-end", "0.2"]) == 0
        assert len(hash_calls) == 1

    def test_reseeded_run_hashes_the_scenario_once(self, certified, tmp_path, hash_calls):
        """--seed is a run setting: the scenario is neither copied nor hashed again."""
        argv = ["run", str(SMOKE), "--cert", str(certified), "-o", str(tmp_path / "o")]
        assert main(argv + ["--seed", "5", "--t-end", "0.2"]) == 0
        assert len(hash_calls) == 1

    @pytest.mark.parametrize("disturbance", ["sinusoid", "ball"])
    def test_negative_seed_exit_1(self, tmp_path, capsys, disturbance):
        """--seed is checked by the sim.seed entry before the run makes any output."""
        doc = json.loads(SMOKE.read_text())
        if disturbance == "ball":
            for section in [doc["leader"], *doc["agents"]]:
                section["disturbance"] = {"kind": "ball", "bound": section["disturbance_bound"]}
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(doc))
        cert = tmp_path / "cert.json"
        assert main(["certify", str(scen), "-o", str(cert)]) == 0
        capsys.readouterr()
        argv = ["run", str(scen), "--cert", str(cert), "-o", str(tmp_path / "o")]
        assert main(argv + ["--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be non-negative (got -1)\n"
        assert not (tmp_path / "o").exists()

    def test_hash_mismatch_exits_before_certification(self, certified, tmp_path, capsys, monkeypatch):
        doc = json.loads(SMOKE.read_text())
        doc["name"] = "renamed"
        scen = tmp_path / "renamed.json"
        scen.write_text(json.dumps(doc))

        def certify(*args, **kwargs):
            raise AssertionError("recertified a scenario its certificate does not match")

        monkeypatch.setattr(cli, "certify_scenario", certify)
        argv = ["run", str(scen), "--cert", str(certified), "-o", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "hash mismatch" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("t_end", ["-1", "0"])
    def test_nonpositive_t_end_exit_1(self, certified, tmp_path, capsys, t_end):
        argv = ["run", str(SMOKE), "--cert", str(certified), "-o", str(tmp_path / "o")]
        assert main(argv + ["--t-end", t_end]) == 1
        assert "t_end must be positive" in capsys.readouterr().err
        assert not (tmp_path / "o" / "trace.csv").exists()

    def test_nonpositive_scenario_t_end_exit_1(self, tmp_path, capsys):
        """A scenario's t_end is checked at certify, by the entry that checks --t-end."""
        doc = json.loads(SMOKE.read_text())
        doc["sim"]["t_end"] = 0.0
        scen = tmp_path / "zero.json"
        scen.write_text(json.dumps(doc))
        cert = tmp_path / "cert.json"
        assert main(["certify", str(scen), "-o", str(cert)]) == 1
        assert "sim.t_end: must be positive" in capsys.readouterr().err
        assert not cert.exists()

    def test_t_end_off_the_sampling_grid_exit_1(self, certified, tmp_path, capsys):
        argv = ["run", str(SMOKE), "--cert", str(certified), "-o", str(tmp_path / "o")]
        assert main(argv + ["--t-end", "0.55"]) == 1
        assert "t_end must be an integer multiple of the sampling period" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_binary_certificate_exit_1(self, tmp_path, capsys):
        """A certificate that is not UTF-8 text exits 1 naming the file, with no output directory."""
        cert = tmp_path / "cert.json"
        cert.write_bytes(b"\xff\xfe{}")
        out = tmp_path / "o"
        assert main(["run", str(SMOKE), "--cert", str(cert), "-o", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cert}: not UTF-8 text")
        assert not out.exists()

    def test_deeply_nested_certificate_exit_1(self, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        cert.write_text("[" * 100_000 + "]" * 100_000)
        error = "certificate: nested deeper than the JSON parser allows"
        with pytest.raises(ScenarioError, match=f"^{error}$"):
            load_certificate(cert)
        assert main(["run", str(SMOKE), "--cert", str(cert), "-o", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (tmp_path / "o").exists()

    def test_non_object_certificate_exit_1(self, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        cert.write_text("[]")
        assert main(["run", str(SMOKE), "--cert", str(cert), "-o", str(tmp_path / "o")]) == 1
        assert "certificate: expected a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda doc: doc["agents"][1].update(margin_radius=123.0), "agents[1].margin_radius"),
            (lambda doc: doc.update(formation_error_bound=-5.0), "formation_error_bound"),
            (lambda doc: doc.pop("agents"), "missing agents[0].id"),
            (lambda doc: doc["agents"][0]["gain"][0].__setitem__(0, 1.5), "agents[0].gain"),
            (lambda doc: doc["agents"][1]["p"].pop(), "agents[1].p"),
            (lambda doc: doc["agents"][0].update(r=1.0), "agents[0].r"),
            (
                lambda doc: doc["agents"][1].update(input_bound_tightened=0.5),
                "agents[1].input_bound_tightened",
            ),
            (lambda doc: doc["agents"][0].update(baseline_r_ball=None), "agents[0].baseline_r_ball"),
            (lambda doc: doc["leader"].update(r_ball=0.5), "leader.r_ball"),
            (lambda doc: doc["agents"][1].update(hops=0), "agents[1].hops is 0, recertified 1"),
            # entries a run does not consume are part of the certificate too
            (lambda doc: doc.update(sv_min="x"), "sv_min is 'x', recertified 0.38"),
            (lambda doc: doc.update(scenario_name={"a": 1}), "scenario_name is {'a': 1}"),
            (lambda doc: doc["agents"][0].update(w_eff=float("nan")), "agents[0].w_eff is nan"),
            (lambda doc: doc["agents"][1].update(zbar="big"), "agents[1].zbar is 'big'"),
            (lambda doc: doc["agents"][0].update(q=[[1]]), "agents[0].q[0] is [1], recertified [1.0, 0.0"),
            (lambda doc: doc["agents"][0].update(id=7), "agents[0].id is 7, recertified 1"),
            (lambda doc: doc["leader"].update(p=None), "missing leader.p[0]"),
            (
                lambda doc: doc["agents"][1].update(margin_mode="certified"),
                "agents[1].margin_mode is 'certified', recertified 'declared'",
            ),
            (lambda doc: doc.update(note="extra"), "unknown entry note"),
            (
                lambda doc: doc["agents"][0].update(lyapunov_residual=1.0),
                "agents[0].lyapunov_residual is 1.0",
            ),
        ],
        ids=[
            "margin_radius", "formation_error_bound", "no_agents", "gain", "p_shape", "r",
            "input_bound_tightened", "baseline_r_ball", "leader_r_ball", "hops",
            "sv_min", "scenario_name", "w_eff", "zbar", "q", "id", "leader_p", "margin_mode",
            "extra_key", "lyapunov_residual",
        ],
    )
    def test_edited_certificate_exit_1(self, certified, tmp_path, capsys, edit, field):
        argv, out = _edited_certificate(edit)(certified, tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: certificate: ") and err.count("\n") == 1, err
        assert field in err
        assert not out.exists()

    def test_stale_certificate_exit_1(self, certified, tmp_path, capsys):
        doc = json.loads(SMOKE.read_text())
        doc["sim"]["seed"] = 999
        changed = tmp_path / "changed.json"
        changed.write_text(json.dumps(doc))
        assert main(
            ["run", str(changed), "--cert", str(certified), "-o", str(tmp_path / "o")]
        ) == 1
        assert "hash" in capsys.readouterr().err

    def test_recertification_infeasible_exit_2(self, certified, tmp_path, capsys):
        """A certificate whose hash matches a scenario that no longer certifies: run
        recertifies, exits 2 as certify does, and makes no output directory."""
        doc = json.loads(SMOKE.read_text())
        doc["barriers"]["kappa_poles"] = [1.0, -2.0, -3.0]
        scen = tmp_path / "kappa.json"
        scen.write_text(json.dumps(doc))
        assert main(["certify", str(scen), "-o", str(tmp_path / "refused.json")]) == 2
        infeasible = "infeasible: NotHurwitz: kappa coefficients must be positive\n"
        assert capsys.readouterr().err == infeasible
        cert_doc = json.loads(certified.read_text())
        cert_doc["scenario_sha256"] = scenario.load_scenario(scen).sha256
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(cert_doc))
        assert main(["run", str(scen), "--cert", str(cert), "-o", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == infeasible
        assert not (tmp_path / "o").exists()

    def test_cascaded_infeasibility_exit_4(self, certified, tmp_path, capsys, monkeypatch):
        """Every solve of agent 1 raises: after H = 5 fallbacks in a row the run exits 4."""
        real_solve = tubeform.sim.solve_ocp
        agent_one = []

        def failing(spec, *args, **kwargs):
            if not agent_one:
                agent_one.append(spec)  # the run's first solve is agent 1's
            if spec is agent_one[0]:
                raise DegenerateGradient("injected failure")
            return real_solve(spec, *args, **kwargs)

        monkeypatch.setattr(tubeform.sim, "solve_ocp", failing)
        assert main(["run", str(SMOKE), "--cert", str(certified), "-o", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err == (
            "cascaded infeasibility: agent 1: 5 consecutive infeasible solves at step 4\n"
        )

    def test_seed_reaches_disturbances(self, tmp_path):
        doc = json.loads(SMOKE.read_text())
        for section in [doc["leader"], *doc["agents"]]:
            section["disturbance"] = {"kind": "ball", "bound": section["disturbance_bound"]}
        scen = tmp_path / "ball.json"
        scen.write_text(json.dumps(doc))
        cert = tmp_path / "cert.json"
        assert main(["certify", str(scen), "-o", str(cert)]) == 0

        def run(name, *flags):
            out = tmp_path / name
            argv = ["run", str(scen), "--cert", str(cert), "-o", str(out), "--t-end", "0.5"]
            assert main(argv + list(flags)) == 0
            return out / "trace.csv"

        own_seed = str(doc["sim"]["seed"])
        plain = run("plain")
        assert run("own", "--seed", own_seed).read_bytes() == plain.read_bytes()
        seeded = run("a", "--seed", "7")
        assert run("b", "--seed", "7").read_bytes() == seeded.read_bytes()
        other = SimTrace.from_csv(run("c", "--seed", "8"))
        assert not np.array_equal(SimTrace.from_csv(seeded).data, other.data)

    def test_unwritable_output_exit_1(self, certified, tmp_path, capsys):
        """An output directory that cannot be made, then outputs that cannot be written."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        args = ["run", str(SMOKE), "--cert", str(certified), "--t-end", "0.5", "-o"]
        assert main(args + [str(blocker / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        (tmp_path / "out" / "summary.json").mkdir(parents=True)
        assert main(args + [str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_absent_clearances_are_null_in_strict_json_summary(self, tmp_path):
        """One follower and no obstacles: the summary writes both clearances as null, so
        a strict JSON parser reads it; the trace keeps them as inf. A zero leader radius
        and zero certified margins give an occupancy and margin fractions of 0.0."""
        scen = one_follower_obstacle_free(tmp_path)
        cert = tmp_path / "cert.json"
        assert main(["certify", str(scen), "-o", str(cert)]) == 0
        run = tmp_path / "run"
        assert main(["run", str(scen), "--cert", str(cert), "-o", str(run), "--t-end", "2"]) == 0
        summary = _strict_json((run / "summary.json").read_text())
        assert summary["min_obstacle_clearance"] is None
        assert summary["min_pairwise_clearance"] is None
        trace = SimTrace.from_csv(run / "trace.csv")
        assert np.all(np.isinf(trace.col("clr_obs"))) and np.all(np.isinf(trace.col("clr_pair")))

        still = json.loads(SMOKE.read_text())  # the leader undisturbed, its tube of radius 0
        still["leader"].update(disturbance={"kind": "ball", "bound": 0}, disturbance_bound=0)
        still["leader"]["tube"]["r_ball"] = 0
        parked = equilibrium_doc()  # no disturbance anywhere: the certified margins are 0
        for agent in parked["agents"]:
            del agent["margin_radius"]
        for name, doc in (("still_leader", still), ("zero_margins", parked)):
            scen, cert, run = (tmp_path / name / leaf for leaf in ("scen.json", "cert.json", "run"))
            scen.parent.mkdir()
            scen.write_text(json.dumps(doc))
            assert main(["certify", str(scen), "-o", str(cert)]) == 0
            assert main(["run", str(scen), "--cert", str(cert), "-o", str(run)]) == 0
            summary = _strict_json((run / "summary.json").read_text())
            if name == "still_leader":
                occ0 = summary["max_tube_occupancy"]["occ0"]
                assert occ0 == summary["max_leader_occupancy_pre_anchor"] == 0.0
            else:
                assert summary["max_margin_fraction"] == {"1": 0.0, "2": 0.0}

    def test_determinism_byte_identical(self, certified, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(
                ["run", str(SMOKE), "--cert", str(certified), "-o", str(out)]
            ) == 0
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()

    def test_margin_headroom_in_summary(self, tmp_path):
        """Per follower: the margin's origin and the run maximum of ||dx_i|| / margin_i,
        against the trace's deviation columns and the certificate's radii."""
        doc = json.loads(SMOKE.read_text())
        del doc["agents"][0]["margin_radius"]  # follower 1 takes its certified radius
        scen = tmp_path / "certified.json"
        scen.write_text(json.dumps(doc))
        cert = tmp_path / "cert.json"
        assert main(["certify", str(scen), "-o", str(cert)]) == 0
        followers = json.loads(cert.read_text())["agents"]
        for flag, key, modes in (
            ([], "margin_radius", ["certified", "declared"]),
            (["--baseline-margins"], "baseline_r_ball", ["baseline", "baseline"]),
        ):
            run = tmp_path / key
            argv = ["run", str(scen), "--cert", str(cert), "-o", str(run), "--t-end", "1"]
            assert main(argv + flag) == 0
            summary = json.loads((run / "summary.json").read_text())
            trace = SimTrace.from_csv(run / "trace.csv")
            assert summary["margin_mode"] == {"1": modes[0], "2": modes[1]}
            for agent in ("1", "2"):
                dx = trace.data[:, [c.startswith(f"dx{agent}_") for c in trace.columns]]
                assert dx.shape[1] == 6 and np.max(np.abs(dx)) > 0.0
                expected = np.max(np.linalg.norm(dx, axis=1)) / followers[int(agent) - 1][key]
                assert summary["max_margin_fraction"][agent] == pytest.approx(expected, rel=1e-12)

    def test_trace_without_margin_radii_gives_null_fractions(self, run_dir, tmp_path):
        trace = SimTrace.from_csv(run_dir / "trace.csv")
        del trace.metadata["margin_radii"]
        assert tubeform.sim.trace_metrics(trace)["max_margin_fraction"] == {"1": None, "2": None}
        trace.to_csv(tmp_path / "old.csv")
        assert main(["report", str(tmp_path / "old.csv"), "-o", str(tmp_path / "report")]) == 0

    def test_non_ascii_name_under_c_locale(self, tmp_path):
        """A scenario named with a non-ASCII character runs under an ASCII locale and
        writes the bytes a UTF-8 run writes."""
        doc = json.loads(SMOKE.read_text())
        doc["name"] = "smoke_Ω"
        scen = tmp_path / "smoke_Ω.json"
        scen.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        cert = tmp_path / "cert.json"
        assert main(["certify", str(scen), "-o", str(cert)]) == 0
        argv = ["run", str(scen), "--cert", str(cert), "--t-end", "1", "-o"]
        assert main(argv + [str(tmp_path / "utf8")]) == 0
        env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG", "PYTHON"))}
        env.update(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "tubeform.cli", *argv, str(tmp_path / "c")],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        utf8 = (tmp_path / "utf8" / "trace.csv").read_bytes()
        assert (tmp_path / "c" / "trace.csv").read_bytes() == utf8
        assert "# scenario: smoke_Ω\n".encode("utf-8") in utf8

    def test_non_ascii_name_certifies_under_c_locale(self, tmp_path):
        """Under an ASCII locale, certify escapes the name on stdout and writes the UTF-8
        certificate's bytes; a run's non-ASCII output path goes to stdout as its own bytes."""
        doc = json.loads(SMOKE.read_text())
        doc["name"] = "smoke_Ω"
        scen = tmp_path / "smoke_Ω.json"
        scen.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        assert main(["certify", str(scen), "-o", str(tmp_path / "utf8.json")]) == 0
        env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG", "PYTHON"))}
        env.update(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=str(Path(cli.__file__).parents[1]))

        def tubeform(*argv):
            cmd = [sys.executable, "-m", "tubeform.cli", *map(str, argv)]
            return subprocess.run(cmd, env=env, capture_output=True)

        proc = tubeform("certify", scen, "-o", tmp_path / "c.json")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(b"certified smoke_\\u03a9: sv_min=")
        assert (tmp_path / "c.json").read_bytes() == (tmp_path / "utf8.json").read_bytes()
        out = tmp_path / "run_Ω"
        proc = tubeform("run", scen, "--cert", tmp_path / "c.json", "--t-end", "0.2", "-o", out)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(f"trace written to {out / 'trace.csv'}\n".encode("utf-8"))

    def test_run_too_long_to_record_exit_1(self, certified, tmp_path, capsys):
        """A run whose trace cannot be allocated exits 1 with one error line and no output."""
        out = tmp_path / "o"
        assert main(["run", str(SMOKE), "--cert", str(certified), "-o", str(out), "--t-end", "1e12"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1, err
        assert not out.exists()


def _smoke_copy(tmp_path: Path, edit) -> Path:
    doc = json.loads(SMOKE.read_text())
    edit(doc)
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(doc))
    return path


def _edited_certificate(edit):
    """A run of smoke with its certificate edited by ``edit``: (argv, output directory)."""

    def case(certified, tmp_path):
        doc = json.loads(certified.read_text())
        edit(doc)
        cert = tmp_path / "edited.json"
        cert.write_text(json.dumps(doc))
        return ["run", str(SMOKE), "--cert", str(cert), "-o", str(tmp_path / "o")], tmp_path / "o"

    return case


def _certify_copy(edit):
    """Certify of a smoke copy edited by ``edit``: (argv, certificate path)."""

    def case(certified, tmp_path):
        cert = tmp_path / "cert.json"
        return ["certify", str(_smoke_copy(tmp_path, edit)), "-o", str(cert)], cert

    return case


def _run(edit, *flags):
    """A run with ``flags`` of smoke, or of a smoke copy edited by ``edit`` and certified:
    (argv, output directory)."""

    def case(certified, tmp_path):
        scen, cert = SMOKE, certified
        if edit is not None:
            scen, cert = _smoke_copy(tmp_path, edit), tmp_path / "cert.json"
            assert main(["certify", str(scen), "-o", str(cert)]) == 0
        return ["run", str(scen), "--cert", str(cert), "-o", str(tmp_path / "o"), *flags], tmp_path / "o"

    return case


def _scale(doc, factor):
    """``doc`` with every number multiplied by ``factor``."""
    if isinstance(doc, dict):
        return {key: _scale(value, factor) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_scale(value, factor) for value in doc]
    return doc * factor if type(doc) in (int, float) else doc


CONTRACT = {  # case: (argv and output of the refused command, what its error line names)
    # one edit of the smoke certificate per kind of value
    "string": (_edited_certificate(lambda doc: doc["leader"].update(mode="lyapunov")), "leader.mode"),
    "number": (
        _edited_certificate(lambda doc: doc.update(sv_min=doc["sv_min"] * (1 + 2e-9))),
        "sv_min is 0.38",
    ),
    "int": (_edited_certificate(lambda doc: doc["agents"][1].update(hops=2)), "agents[1].hops is 2"),
    "matrix": (
        _edited_certificate(lambda doc: doc["agents"][0]["gain"][1].__setitem__(4, 7.0)),
        "agents[0].gain[1] is [",
    ),
    "matrix_row_length": (
        _edited_certificate(lambda doc: doc["agents"][1]["q"][5].pop()), "agents[1].q[5] is ["
    ),
    "null": (
        _edited_certificate(lambda doc: doc["agents"][0].update(baseline_r=None)),
        "agents[0].baseline_r is None",
    ),
    "bool": (_edited_certificate(lambda doc: doc["agents"][1].update(id=True)), "agents[1].id is True"),
    "missing_key": (
        _edited_certificate(lambda doc: doc["agents"][1].pop("zbar")), "missing agents[1].zbar"
    ),
    "extra_key": (
        _edited_certificate(lambda doc: doc["leader"].update(note=1)), "unknown entry leader.note"
    ),
    "longer_list": (
        _edited_certificate(lambda doc: doc["agents"].append(doc["agents"][1])),
        "unknown entry agents[2]",
    ),
    "shorter_list": (_edited_certificate(lambda doc: doc["agents"].pop()), "missing agents[1].id"),
    # scenarios whose certificate a run could not use, and runs that cannot be recorded
    "input_bound_1e300": (
        _certify_copy(lambda doc: doc["ocp"].update(input_bound=1e300)),
        "ocp.input_bound: must be at most 1e154 (got 1e+300)",
    ),
    # a trace of more bytes than np.intp counts: no array can hold it, whatever memory is free
    "sim_t_end_1e15": (
        _certify_copy(lambda doc: doc["sim"].update(t_end=1e15)),
        "sim.t_end: must be short enough for its trace to fit one array (got 1000000000000000.0)",
    ),
    "sim_t_end_1e300": (
        _certify_copy(lambda doc: doc["sim"].update(t_end=1e300)),
        "sim.t_end: must be short enough for its trace to fit one array (got 1e+300)",
    ),
    "run_t_end_1e300": (
        _run(None, "--t-end", "1e300"),
        "t_end must be short enough for its trace to fit one array (got 1e+300)",
    ),
    "sim_t_end_below_one_step": (
        _certify_copy(lambda doc: doc["sim"].update(t_end=1e-12)),
        "sim.t_end: must be at least one sampling period (got 1e-12)",
    ),
    "run_t_end_below_one_step": (
        _run(None, "--t-end", "1e-12"), "t_end must be at least one sampling period (got 1e-12)"
    ),
}


class TestContract:
    @pytest.mark.parametrize("case, named", CONTRACT.values(), ids=CONTRACT)
    def test_refused_with_one_error_line_and_no_output(self, certified, tmp_path, capsys, case, named):
        argv, output = case(certified, tmp_path)
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code in range(5) and "Traceback" not in err
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
        assert named in err
        assert not output.exists()

    @pytest.fixture(scope="class")
    def recertified(self):
        return certify_scenario(scenario.load_scenario(SMOKE), spot_checks=False)

    def test_every_number_within_1e9_relative_is_accepted(self, certified, recertified):
        doc = json.loads(certified.read_text())
        check_certificate(_scale(doc, 1 + 9e-10), recertified)
        with pytest.raises(ScenarioError, match=r"^certificate: sv_min is "):
            check_certificate(_scale(doc, 1 + 1.1e-9), recertified)

    @pytest.mark.parametrize("value, accepted", [(0.0, True), (1e-12, True), (1.1e-12, False), (-1e-13, False)])
    def test_round_off_residuals_are_equal(self, certified, recertified, value, accepted):
        """Two lyapunov_residual values at most 1e-12 count as equal; the floor is no absolute slack."""
        doc = json.loads(certified.read_text())
        doc["agents"][1]["lyapunov_residual"] = value
        if accepted:
            check_certificate(doc, recertified)
        else:
            with pytest.raises(ScenarioError, match=r"^certificate: agents\[1\]\.lyapunov_residual is "):
                check_certificate(doc, recertified)

    @pytest.mark.parametrize(
        "got, want, equal",
        [
            (math.inf, math.inf, True),
            ([1.0, -math.inf], [1.0, -math.inf], True),
            (1, 1.0, True),
            (1.0 + 1e-12, 1, True),
            (1, 1.0 + 1e-12, False),  # an integer must be equal
            (math.inf, -math.inf, False),
            (1e300, math.inf, False),
            (math.inf, 1e300, False),
            (math.nan, math.nan, False),
            (True, 1.0, False),
            ([1.0, True], [1.0, 1.0], False),
            (10**400, 1.0, False),
            ([1.0], 1.0, False),
            ("1.0", 1.0, False),
            (None, "certified", False),
            ("certified", "certified", True),
            (None, None, True),
        ],
    )
    def test_matches(self, got, want, equal):
        assert _matches(got, want, -1.0) is equal


class TestReport:
    def test_single_trace_report(self, run_dir, tmp_path):
        out = tmp_path / "report"
        assert main(["report", str(run_dir / "trace.csv"), "-o", str(out)]) == 0
        for name in ("trajectories", "formation_errors", "clearances", "tube_occupancy"):
            svg = out / f"{name}.svg"
            assert svg.exists()
            minidom.parseString(svg.read_text())  # well-formed XML
        assert (out / "metrics.csv").read_text().startswith("metric,")

    def test_two_trace_overlay(self, certified, run_dir, tmp_path):
        second = tmp_path / "second"
        assert main(
            ["run", str(SMOKE), "--cert", str(certified), "-o", str(second), "--seed", "7"]
        ) == 0
        out = tmp_path / "cmp"
        assert main(
            ["report", str(run_dir / "trace.csv"), str(second / "trace.csv"), "-o", str(out)]
        ) == 0
        content = (out / "clearances.svg").read_text()
        minidom.parseString(content)
        rows = (out / "metrics.csv").read_text().splitlines()
        assert rows[0].count(",") == 2  # metric + two labelled runs

    def test_unwritable_output_exit_1(self, run_dir, tmp_path, capsys):
        """An output directory that cannot be made, then a metrics file that cannot be written."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        trace = str(run_dir / "trace.csv")
        assert main(["report", trace, "-o", str(blocker / "report")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        (tmp_path / "report" / "metrics.csv").mkdir(parents=True)
        assert main(["report", trace, "-o", str(tmp_path / "report")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_one_axis_scenario_pipeline(self, tmp_path):
        """certify, run and report a d = 1 variant of the smoke scenario."""
        doc = json.loads(SMOKE.read_text())
        doc["name"] = "smoke_one_axis"
        doc["dims"]["d"] = 1
        for section in [doc["leader"], *doc["agents"]]:
            section["dynamics"]["axes"] = section["dynamics"]["axes"][:1]
            for key in ("amp", "freq", "phase"):
                section["disturbance"][key] = section["disturbance"][key][:1]
            section["disturbance_bound"] = section["disturbance"]["amp"][0]
            for key in ("lower", "upper"):
                section["operating_box"][key] = section["operating_box"][key][::2]
        doc["formation"]["offsets"] = [
            [order[:1] for order in agent] for agent in doc["formation"]["offsets"]
        ]
        doc["obstacles"] = [{"center": [3.0], "radius": 0.3, "inflation": 0.05}]
        doc["initial_states"] = {
            "leader": [0.2, 0.0, 0.0],
            "followers": [[-0.6, 0.0, 0.0], [0.6, 0.0, 0.0]],  # already in formation order
        }
        scenario = tmp_path / "one_axis.json"
        scenario.write_text(json.dumps(doc))
        cert = tmp_path / "cert.json"
        assert main(["certify", str(scenario), "-o", str(cert)]) == 0
        run = tmp_path / "run"
        assert main(
            ["run", str(scenario), "--cert", str(cert), "-o", str(run), "--t-end", "1"]
        ) == 0
        assert SimTrace.from_csv(run / "trace.csv").metadata["obstacles"] == "3.0,0.3,0.05"
        out = tmp_path / "report"
        assert main(["report", str(run / "trace.csv"), "-o", str(out)]) == 0
        for name in ("trajectories", "formation_errors", "clearances", "tube_occupancy"):
            minidom.parseString((out / f"{name}.svg").read_text())
        assert (out / "metrics.csv").read_text().startswith("metric,")

    def test_three_traces_exit_1(self, run_dir, tmp_path, capsys):
        """More than two traces exit 1 before any trace is read, with no output directory."""
        out = tmp_path / "report"
        missing = str(tmp_path / "missing.csv")  # never opened
        for traces in ([str(run_dir / "trace.csv")] * 3, [missing] * 4):
            assert main(["report", *traces, "-o", str(out)]) == 1
            err = capsys.readouterr().err
            assert err == f"error: report takes one or two traces (got {len(traces)})\n"
            assert not out.exists()

    def test_missing_column_exit_1(self, tmp_path, capsys):
        """A well-formed trace without the report's columns exits 1 naming the first one missing."""
        trace = tmp_path / "short.csv"
        trace.write_text("t,k\n0,0\n0.01,0\n")
        out = tmp_path / "report"
        assert main(["report", str(trace), "-o", str(out)]) == 1
        assert capsys.readouterr().err == "error: trace has no column 'ferr_stacked'\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_malformed_trace_exit_1(self, tmp_path, capsys):
        """A header without a "t" column, or with no rows after it, fails without a warning."""
        bad = tmp_path / "bad.csv"
        for text in ("not,a,trace\n", "# seed: 0\nt,k\n", ""):
            bad.write_text(text)
            assert main(["report", str(bad), "-o", str(tmp_path / "r")]) == 1
            assert capsys.readouterr().err == f"error: {bad}: malformed trace CSV\n"
            assert not (tmp_path / "r").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("edit", ["one_long", "one_short", "all_long"])
    def test_ragged_trace_exit_1(self, run_dir, tmp_path, capsys, edit):
        """A data row with a cell more or less than the header fails as malformed, whichever
        columns are read: report reads only some, and a full read refuses it the same way."""
        lines = (run_dir / "trace.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        first = next(j for j, line in enumerate(lines) if not line.startswith("# ")) + 1
        rows = range(first, len(lines)) if edit == "all_long" else [first + 3]
        for j in rows:
            cells = lines[j].rstrip("\n").split(",")
            cells = cells[:-1] if edit == "one_short" else cells + ["0"]
            lines[j] = ",".join(cells) + "\n"
        bad = tmp_path / "ragged.csv"
        bad.write_text("".join(lines), encoding="utf-8")
        assert main(["report", str(bad), "-o", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == f"error: {bad}: malformed trace CSV\n"
        assert not (tmp_path / "r").exists()
        with pytest.raises(ScenarioError, match="malformed trace CSV"):
            SimTrace.from_csv(bad)

    @staticmethod
    def edit_cell(trace_path, out_path, column, value="abc", row=5):
        """A copy of a trace with one data cell replaced."""
        lines = trace_path.read_text(encoding="utf-8").splitlines(keepends=True)
        head = next(j for j, line in enumerate(lines) if not line.startswith("# "))
        cells = lines[head + 1 + row].rstrip("\n").split(",")
        cells[lines[head].rstrip("\n").split(",").index(column)] = value
        lines[head + 1 + row] = ",".join(cells) + "\n"
        out_path.write_text("".join(lines), encoding="utf-8")
        return out_path

    def test_non_numeric_cell(self, run_dir, tmp_path, capsys):
        """A non-numeric cell in a column report reads exits 1 naming it; one in a column it
        never reads does not reach an output and is not parsed."""
        read = self.edit_cell(run_dir / "trace.csv", tmp_path / "read.csv", "clr_obs")
        assert main(["report", str(read), "-o", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err.startswith("error: could not convert string 'abc'")
        assert not (tmp_path / "r").exists()
        unread = self.edit_cell(run_dir / "trace.csv", tmp_path / "unread.csv", "xb1_10")
        assert main(["report", str(unread), "-o", str(tmp_path / "u")]) == 0
        assert (tmp_path / "u" / "metrics.csv").exists()
        with pytest.raises(ValueError, match="could not convert string 'abc'"):
            SimTrace.from_csv(unread)


def report_bytes(trace_paths, out) -> dict[str, bytes]:
    assert main(["report", *map(str, trace_paths), "-o", str(out)]) == 0
    return {name.name: name.read_bytes() for name in sorted(out.iterdir())}


class TestReportColumns:
    """``report`` parses only the columns its figures and ``trace_metrics`` read."""

    @staticmethod
    def assert_same_report(trace_paths, tmp_path, monkeypatch) -> list[SimTrace]:
        """Report bytes equal those of a report that reads every column; the traces the
        selective report parsed."""
        read, parsed = SimTrace.from_csv.__func__, []

        def recording(cls, path, keep=None):
            parsed.append(read(cls, path, keep))
            return parsed[-1]

        monkeypatch.setattr(SimTrace, "from_csv", classmethod(recording))
        selective = report_bytes(trace_paths, tmp_path / "selective")
        full_read = classmethod(lambda cls, path, keep=None: read(cls, path))
        monkeypatch.setattr(SimTrace, "from_csv", full_read)
        assert selective == report_bytes(trace_paths, tmp_path / "full")
        assert len(selective) == 5 and len(parsed) == len(trace_paths)
        return parsed

    def test_paper_parses_under_half_the_columns(self, paper, tmp_path, monkeypatch):
        trace = tmp_path / "trace.csv"
        paper[2].trace.to_csv(trace)
        (parsed,) = self.assert_same_report([trace], tmp_path, monkeypatch)
        assert 0 < 2 * len(parsed.columns) < len(paper[2].trace.columns)
        assert parsed.data.shape == (len(paper[2].trace.data), len(parsed.columns))

    def test_ablation_overlay(self, ablation_pair, tmp_path, monkeypatch):
        traces = [tmp_path / "ff.csv", tmp_path / "baseline.csv"]
        for result, path in zip(ablation_pair[2:], traces):
            result.trace.to_csv(path)
        self.assert_same_report(traces, tmp_path, monkeypatch)

    def test_trace_without_margin_radii(self, run_dir, tmp_path, monkeypatch):
        trace = SimTrace.from_csv(run_dir / "trace.csv")
        del trace.metadata["margin_radii"]
        trace.to_csv(tmp_path / "old.csv")
        self.assert_same_report([tmp_path / "old.csv"], tmp_path, monkeypatch)
