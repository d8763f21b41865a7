import copy
import json
from pathlib import Path

import numpy as np
import pytest

from tubeform.cli import main
from tubeform.errors import ScenarioError
from tubeform.pipeline import certify_scenario
from tubeform.scenario import (
    SCENARIO,
    Section,
    dumps_scenario,
    load_scenario,
    parse_scenario,
    scenario_hash,
    scenario_to_dict,
)

PAPER = "scenarios/paper_scenario.json"
SMOKE = "scenarios/smoke_scenario.json"
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


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

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("smoke", "2e33f3c893f72084551d3054bb54890a83986a95439777864aa67b92b629b6d1"),
            ("paper", "77f2d22215e57e8f9b3c84989189e3fcf5e5a2a6f544469c731edfc3184429b7"),
            ("ablation", "be39f9f9f9adaab4d0b865b87f6d718f0221bb2eb21a13220666875f1dd80574"),
        ],
    )
    def test_shipped_hashes_pinned(self, name, digest):
        """Certificates name these hashes; a parser change must not move them."""
        assert scenario_hash(load_scenario(SCENARIOS / f"{name}_scenario.json")) == digest

    def test_ball_round_trip(self):
        """A ball is written with empty sinusoid arrays, and those parse back."""
        doc = json.loads(open(SMOKE).read())
        for section in [doc["leader"], *doc["agents"]]:
            section["disturbance"] = {"kind": "ball", "bound": section["disturbance_bound"]}
        cfg = parse_scenario(json.dumps(doc))
        written = scenario_to_dict(cfg)["leader"]["disturbance"]
        assert written["amp"] == [] and written["bound"] > 0.0
        assert parse_scenario(dumps_scenario(cfg)) == cfg

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


def _schema_docs() -> list[dict]:
    """The smoke scenario with every optional entry given, and a copy on the other tags."""
    doc = scenario_to_dict(load_scenario(SCENARIOS / "smoke_scenario.json"))
    d, nd = doc["dims"]["d"], doc["dims"]["n"] * doc["dims"]["d"]
    doc["leader"]["tube"]["stabilizer"] = [[0.0] * nd for _ in range(d)]
    doc["gains"]["matrix"] = [[1.0] * nd for _ in range(d)]
    doc["gains"]["lyapunov_q"] = [1.0] * nd
    doc["ocp"]["error_box"] = [100.0] * nd
    other = copy.deepcopy(doc)
    for section in [other["leader"], *other["agents"]]:
        section["disturbance"] = {"kind": "ball", "bound": section["disturbance_bound"]}
    cubic = {"form": "cubic", "coeff": 1.0, "weights": [1.0] * d}
    other["leader"]["dynamics"]["axes"][0][0] = cubic
    other["gains"]["mode"] = "lqr"
    return [doc, other]


SCHEMA_DOCS = _schema_docs()
WRONG_TYPE = {float: "x", int: 1.5, bool: "no", str: 1}


def _dotted(steps: tuple) -> str:
    return "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in steps)[1:]


def _table_cases(section: Section, node: dict, steps: tuple = ()):
    """(id, steps, value): a wrong type, sign and shape for each entry of ``node``."""
    for f in section.fields:
        if f.key not in node or (f.when and node[f.when[0]] not in f.when[1]):
            continue
        here = steps + (f.key,)
        tag = f"<{node[f.when[0]]}>" if f.when else ""
        leaf, first = here, node[f.key]
        while len(leaf) - len(here) < len(f.shape) and first:
            leaf, first = leaf + (0,), first[0]
        if len(leaf) - len(here) == len(f.shape):  # the entry has a first value
            if isinstance(f.kind, Section):
                yield f"{_dotted(leaf)}-type", leaf, 1
                yield from _table_cases(f.kind, first, leaf)
            else:
                literal = isinstance(f.kind, tuple)
                yield f"{_dotted(leaf)}{tag}-type", leaf, "bogus" if literal else WRONG_TYPE[f.kind]
                if f.checks:  # every check in the table rejects -1
                    yield f"{_dotted(leaf)}{tag}-sign", leaf, -1
        if f.shape and f.shape[0] is not None:
            value = node[f.key]
            yield f"{_dotted(here)}{tag}-shape", here, [*value, value[0] if value else 0.0]


SCHEMA_CASES = {}
for _index, _doc in enumerate(SCHEMA_DOCS):
    for _id, _steps, _value in _table_cases(SCENARIO, _doc):
        SCHEMA_CASES.setdefault(_id, (_index, _steps, _value))
# "estimate" is a string like any other: a follower's Lipschitz constant is a declared number
SCHEMA_CASES["agents[0].lipschitz-estimate"] = (0, ("agents", 0, "lipschitz"), "estimate")


class TestSchema:
    @pytest.mark.parametrize("index", range(len(SCHEMA_DOCS)))
    def test_schema_documents_parse(self, index):
        parse_scenario(json.dumps(SCHEMA_DOCS[index]))

    @pytest.mark.parametrize(
        "index, steps, value", list(SCHEMA_CASES.values()), ids=list(SCHEMA_CASES)
    )
    def test_table_entry_rejects(self, tmp_path, capsys, index, steps, value):
        """Each table entry rejects a wrong type, sign or shape at certify, naming its path."""
        doc = copy.deepcopy(SCHEMA_DOCS[index])
        node = doc
        for step in steps[:-1]:
            node = node[step]
        node[steps[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["certify", str(bad), "-o", str(tmp_path / "c.json")]) == 1
        assert f"error: {_dotted(steps)}: " in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize(
        "steps, value, message",
        [
            (("graph", "adjacency", 0, 0), 1.0, "graph: adjacency must have a zero diagonal"),
            (
                ("leader", "operating_box", "lower", 0),
                1e9,
                "leader.operating_box: box has lower bound above upper bound",
            ),
        ],
        ids=["adjacency-diagonal", "box-lower-above-upper"],
    )
    def test_condition_across_entries_rejects(self, tmp_path, capsys, steps, value, message):
        """A condition across the entries of a section fails certify, naming the section."""
        doc = json.loads(open(SMOKE).read())
        node = doc
        for step in steps[:-1]:
            node = node[step]
        node[steps[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["certify", str(bad), "-o", str(tmp_path / "c.json")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "c.json").exists()

    def test_integer_beyond_float_range_named(self):
        doc = json.loads(open(SMOKE).read())
        doc["sim"]["ts"] = 10**400
        with pytest.raises(ScenarioError, match=r"^sim\.ts: must be a finite number"):
            parse_scenario(json.dumps(doc))

    def test_unknown_key_named(self):
        doc = json.loads(open(SMOKE).read())
        doc["obstacle"] = doc.pop("obstacles")
        with pytest.raises(ScenarioError, match=r"^obstacle: unknown key"):
            parse_scenario(json.dumps(doc))
        doc = json.loads(open(SMOKE).read())
        doc["agents"][1]["dynamics"]["axes"][0][0]["ordr"] = 2
        path = r"^agents\[1\]\.dynamics\.axes\[0\]\[0\]\.ordr: unknown key"
        with pytest.raises(ScenarioError, match=path):
            parse_scenario(json.dumps(doc))
