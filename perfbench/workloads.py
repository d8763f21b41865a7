"""The benchmark's workloads: which scenario, which run flags, which gates.

Each workload is one closed-loop pipeline, ``certify`` -> ``run`` ->
``report``, with one client. Only ``ablation-ball`` depends on the seed: its
scenario is generated per seed, with the seed written into ``sim.seed``,
because ``tubeform run --seed`` only reaches the trace metadata (the
disturbance models are built from the scenario's ``sim.seed`` at
certification).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str  # relative to the checkout root
    run_flags: tuple[str, ...]
    gate_error_bound: bool  # final stacked error must stay within the certified bound
    ball: bool = False  # regenerate with seeded "ball" disturbances

    def prepare(self, root: Path, seed: int, workdir: Path) -> Path:
        """Scenario file for this seed (generated into ``workdir`` if needed)."""
        source = root / self.scenario
        if not self.ball:
            return source
        doc = json.loads(source.read_text())
        for section in [doc["leader"], *doc["agents"]]:
            section["disturbance"] = {"kind": "ball", "bound": section["disturbance_bound"]}
        doc["sim"]["seed"] = seed
        doc["name"] = f"{doc['name']}_ball"
        path = workdir / "scenario.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        return path


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper", "scenarios/paper_scenario.json", (), gate_error_bound=True),
        Workload(
            "ablation-baseline",
            "scenarios/ablation_scenario.json",
            ("--baseline-margins",),
            gate_error_bound=False,
        ),
        Workload(
            "ablation-ball",
            "scenarios/ablation_scenario.json",
            (),
            gate_error_bound=True,
            ball=True,
        ),
    )
}
