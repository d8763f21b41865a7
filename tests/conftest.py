import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tubeform.pipeline import certify_scenario  # noqa: E402
from tubeform.scenario import load_scenario  # noqa: E402
from tubeform.sim import run_simulation  # noqa: E402

PAPER = Path(__file__).resolve().parents[1] / "scenarios" / "paper_scenario.json"
ABLATION = PAPER.with_name("ablation_scenario.json")


@pytest.fixture(scope="session")
def paper():
    """The paper scenario certified and run once per session: (cfg, cert, result, wall)."""
    cfg = load_scenario(PAPER)
    cert = certify_scenario(cfg)
    start = time.perf_counter()
    result = run_simulation(cfg, cert)
    wall = time.perf_counter() - start
    return cfg, cert, result, wall


@pytest.fixture(scope="session")
def ablation_pair():
    """The ablation scenario certified once and run in both margin modes:
    (cfg, cert, feedforward result, baseline-margins result)."""
    cfg = load_scenario(ABLATION)
    cert = certify_scenario(cfg)
    ff = run_simulation(cfg, cert)
    baseline = run_simulation(cfg, cert, baseline_margins=True)
    return cfg, cert, ff, baseline
