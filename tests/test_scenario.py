import json

import numpy as np
import pytest

from tubeform.errors import ScenarioError
from tubeform.pipeline import certify_scenario
from tubeform.scenario import (
    dumps_scenario,
    load_scenario,
    parse_scenario,
    scenario_hash,
    scenario_to_dict,
)

PAPER = "scenarios/paper_scenario.json"
SMOKE = "scenarios/smoke_scenario.json"


class TestParsing:
    def test_paper_scenario_parses(self):
        cfg = load_scenario(PAPER)
        assert cfg.dims.n == 3 and cfg.dims.d == 2 and cfg.dims.followers == 5
        assert cfg.ocp.horizon == 5
        assert cfg.sim.ts == 0.1
        assert cfg.sim.t_end == 30.0
        assert len(cfg.obstacles) == 2
        assert cfg.obstacles[0].center == (1.0, 1.0)
        assert cfg.obstacles[0].effective_radius == pytest.approx(0.65)
        assert cfg.initial_leader == (3.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert cfg.offsets[1][0] == (-9.0, 2.0)

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(ScenarioError, match=r"line \d+"):
            parse_scenario('{\n "name": "x",\n BROKEN\n}')

    def test_semantic_error_carries_path(self):
        doc = json.loads(open(SMOKE).read())
        del doc["agents"][0]["dynamics"]
        with pytest.raises(ScenarioError, match=r"agents\[0\]"):
            parse_scenario(json.dumps(doc))

    def test_wrong_offsets_shape(self):
        doc = json.loads(open(SMOKE).read())
        doc["formation"]["offsets"] = doc["formation"]["offsets"][:-1]
        with pytest.raises(ScenarioError, match="offsets"):
            parse_scenario(json.dumps(doc))

    def test_sampling_validation(self):
        doc = json.loads(open(SMOKE).read())
        doc["agents"][0]["disturbance"]["freq"] = [40.0, 40.0]
        with pytest.raises(ScenarioError, match="fine step"):
            parse_scenario(json.dumps(doc))

    def test_unknown_term_form(self):
        doc = json.loads(open(SMOKE).read())
        doc["agents"][0]["dynamics"]["axes"][0].append({"form": "exp", "coeff": 1.0})
        with pytest.raises(ScenarioError):
            parse_scenario(json.dumps(doc))


class TestRoundTrip:
    @pytest.mark.parametrize("path", [PAPER, SMOKE, "scenarios/ablation_scenario.json"])
    def test_parse_serialize_parse(self, path):
        cfg = load_scenario(path)
        again = parse_scenario(dumps_scenario(cfg))
        assert again == cfg
        assert scenario_hash(again) == scenario_hash(cfg)

    def test_hash_sensitivity(self):
        cfg = load_scenario(SMOKE)
        doc = scenario_to_dict(cfg)
        doc["sim"]["seed"] = 123
        other = parse_scenario(json.dumps(doc))
        assert scenario_hash(other) != scenario_hash(cfg)


class TestSpotChecks:
    def test_paper_scenario_passes_validation(self):
        cfg = load_scenario(PAPER)
        certify_scenario(cfg, spot_checks=True)  # disturbance + Lipschitz checks

    def test_lipschitz_violation_detected(self):
        doc = json.loads(open(SMOKE).read())
        doc["agents"][0]["lipschitz"] = 1e-6
        doc["agents"][0]["dynamics"]["axes"][0].append(
            {"form": "state", "coeff": 5.0, "order": 1, "axis": 0}
        )
        cfg = parse_scenario(json.dumps(doc))
        with pytest.raises(ScenarioError, match="Lipschitz"):
            certify_scenario(cfg, spot_checks=True)

    def test_disturbance_bound_violation_detected(self):
        doc = json.loads(open(SMOKE).read())
        doc["agents"][0]["disturbance_bound"] = 1e-6
        cfg = parse_scenario(json.dumps(doc))
        with pytest.raises(ScenarioError, match="disturbance"):
            certify_scenario(cfg, spot_checks=True)


class TestEstimateMode:
    def test_estimate_small_dims(self):
        doc = json.loads(open(SMOKE).read())
        doc["dims"] = {"n": 1, "d": 1, "followers": 1}
        doc["agents"] = [
            {
                "id": 1,
                "dynamics": {
                    "outer_gain": 1.0,
                    "axes": [[{"form": "state", "coeff": 0.5, "order": 1, "axis": 0}]],
                },
                "disturbance": {"kind": "sinusoid", "amp": [0.01], "freq": [0.5], "phase": [0.0]},
                "disturbance_bound": 0.01,
                "lipschitz": "estimate",
                "operating_box": {"lower": [-1.0], "upper": [1.0]},
            }
        ]
        doc["leader"]["dynamics"]["axes"] = [
            [
                {"form": "state", "coeff": 1.0, "order": 1, "axis": 0},
            ]
        ]
        doc["leader"]["disturbance"] = {"kind": "sinusoid", "amp": [0.01], "freq": [0.5], "phase": [0.0]}
        doc["leader"]["disturbance_bound"] = 0.01
        doc["leader"]["operating_box"] = {"lower": [-1.0], "upper": [1.0]}
        doc["graph"] = {"adjacency": [[0.0]], "b0": [1.0], "nu1": 1.0, "nu2": 1.0}
        doc["formation"]["offsets"] = [[[0.0]], [[1.0]]]
        doc["obstacles"] = []
        doc["barriers"]["kappa_poles"] = [-1.5]  # one eCBF pole per chain order
        doc["gains"]["poles"] = [-2.0]  # one closed-loop pole per chain order
        doc["initial_states"] = {"leader": [0.0], "followers": [[0.5]]}
        cfg = parse_scenario(json.dumps(doc))
        from tubeform.scenario import build_agent_model

        model = build_agent_model(cfg, 1)
        # |d/dx (-0.5 x)| = 0.5, times the 1.25 safety factor
        assert model.drift_lipschitz == pytest.approx(0.625)
