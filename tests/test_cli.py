import json
import sys
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

import tubeform.sim
from tubeform import cli, scenario
from tubeform.cli import main
from tubeform.errors import DegenerateGradient
from tubeform.sim import SimTrace

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

    def test_non_hurwitz_kappa_poles_exit_2(self, tmp_path, capsys):
        """eCBF poles that give a non-positive class-kappa coefficient fail at certify time."""
        doc = json.loads(SMOKE.read_text())
        doc["barriers"]["kappa_poles"] = [1.5, -2.5, -3.5]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["certify", str(bad), "-o", str(tmp_path / "c.json")]) == 2
        assert "NotHurwitz" in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()


class TestRun:
    def test_outputs_exist(self, run_dir):
        assert (run_dir / "trace.csv").exists()
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["min_obstacle_clearance"] > 0.0
        assert summary["violations"] == []
        # read before re-anchoring, so never below what the trace logs
        assert summary["max_leader_occupancy_pre_anchor"] >= summary["max_tube_occupancy"]["occ0"]

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
            (lambda doc: doc.pop("agents"), "missing agents[0].r"),
            (lambda doc: doc["agents"][0]["gain"][0].__setitem__(0, 1.5), "agents[0].gain"),
            (lambda doc: doc["agents"][1]["p"].pop(), "agents[1].p"),
        ],
        ids=["margin_radius", "formation_error_bound", "no_agents", "gain", "p_shape"],
    )
    def test_edited_certificate_exit_1(self, certified, tmp_path, capsys, edit, field):
        doc = json.loads(certified.read_text())
        edit(doc)
        cert = tmp_path / "edited.json"
        cert.write_text(json.dumps(doc))
        assert main(["run", str(SMOKE), "--cert", str(cert), "-o", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert field in err
        assert not (tmp_path / "o").exists()

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

    def test_determinism_byte_identical(self, certified, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(
                ["run", str(SMOKE), "--cert", str(certified), "-o", str(out)]
            ) == 0
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()


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
