#!/usr/bin/env python3
"""Regenerate the shipped scenario files.

Keeps every value the reference setup prescribes (dynamics tables,
disturbances, obstacle geometry, offsets, initial states) and fills the
design-time constants (Lipschitz bounds, operating boxes, margin radii,
input boxes) with the numbers recorded here, which were tuned against the
acceptance suite. Run from the repository root:

    python scripts/make_scenarios.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tubeform.models import Box, BrunovskyDims, DriftTable  # noqa: E402
from tubeform.scenario import DYNAMICS, walk  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
PI = math.pi


def term(form, coeff, **kw):
    out = {"form": form, "coeff": coeff}
    out.update(kw)
    return out


def per_axis_linear(ax, c1, c2):
    return [
        term("state", 1.0, order=3, axis=ax),
        term("state", c1, order=1, axis=ax),
        term("state", c2, order=2, axis=ax),
    ]


def max_jacobian_norm(dims, outer_gain, axes_terms, box):
    """Tight numeric bound on the drift Lipschitz constant over the box.

    The term forms depend on the position block only (plus constant taps on
    higher blocks), so a dense grid over the position block suffices.
    """
    dynamics = walk(DYNAMICS, {"outer_gain": outer_gain, "axes": axes_terms}, "dynamics", dims)
    drift = DriftTable.compile(dims, dynamics.outer_gain, dynamics.axes)
    xs = np.linspace(box.lower[0], box.upper[0], 121)
    ys = np.linspace(box.lower[1], box.upper[1], 121)
    probes = np.tile(box.center, (len(xs) * len(ys), 1))
    probes[:, 0], probes[:, 1] = np.repeat(xs, len(ys)), np.tile(ys, len(xs))
    return float(np.max(np.linalg.norm(drift.jacobian(probes), 2, axis=(-2, -1))))


def write(name, doc):
    path = ROOT / "scenarios" / f"{name}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")


def paper_scenario():
    dims = BrunovskyDims(n=3, d=2, followers=5)
    follower_box = {
        "lower": [-12.5, -4.0, -6.0, -6.0, -8.0, -8.0],
        "upper": [12.5, 6.0, 6.0, 6.0, 8.0, 8.0],
    }
    box_obj = Box(
        lower=(follower_box["lower"][0], follower_box["lower"][1], -6, -6, -8, -8),
        upper=(follower_box["upper"][0], follower_box["upper"][1], 6, 6, 8, 8),
    )
    leader_box = {
        "lower": [-1.3, -1.3, -1.1, -1.1, -1.0, -1.0],
        "upper": [1.3, 1.3, 1.1, 1.1, 1.0, 1.0],
    }

    leader_axes = [
        per_axis_linear(0, 0.36, 0.84)
        + [term("cubic", 0.15, order=1, weights=[1.0, 0.0]), term("sin_t", -0.4, freq=0.8, phase=0.0)],
        per_axis_linear(1, 0.36, 0.84)
        + [term("cubic", 0.15, order=1, weights=[0.0, 1.0]), term("sin_t", -0.4, freq=0.8, phase=PI / 2)],
    ]

    agent_axes = {
        1: [
            per_axis_linear(0, 0.49, 1.12)
            + [term("cubic", 0.12, order=1, weights=[1.0, 0.0]), term("tanh", -0.25, scale=0.6, order=1, axis=0)],
            per_axis_linear(1, 0.49, 1.12)
            + [term("cubic", 0.12, order=1, weights=[0.0, 1.0]), term("tanh", -0.25, scale=0.6, order=1, axis=1)],
        ],
        2: [
            per_axis_linear(0, 0.36, 0.84)
            + [term("cubic", 0.18, order=1, weights=[1.0, 0.0]),
               term("sq_tanh", -0.15, order=1, sq_axis=1, axis=0, scale=1.0)],
            per_axis_linear(1, 0.36, 0.84)
            + [term("cubic", 0.18, order=1, weights=[0.0, 1.0]),
               term("sq_tanh", -0.15, order=1, sq_axis=0, axis=1, scale=1.0)],
        ],
        3: [
            [term("state", 1.0, order=3, axis=0),
             term("tanh", 0.25, scale=1.0, order=1, axis=0),
             term("tanh", 0.9, scale=1.0, order=2, axis=0),
             term("sin_t", -0.20, freq=0.7, phase=0.0)],
            [term("state", 1.0, order=3, axis=1),
             term("tanh", 0.25, scale=1.0, order=1, axis=1),
             term("tanh", 0.9, scale=1.0, order=2, axis=1),
             term("sin_t", -0.20, freq=0.9, phase=PI / 3)],
        ],
        4: [
            per_axis_linear(0, 0.4225, 0.975)
            + [term("cubic", 0.08, order=1, weights=[1.0, 1.0])],
            per_axis_linear(1, 0.4225, 0.975)
            + [term("cubic", -0.08, order=1, weights=[1.0, -1.0])],
        ],
        5: [
            per_axis_linear(0, 0.3025, 0.88)
            + [term("cubic", 0.15, order=1, weights=[1.0, 0.0]), term("tanh", -0.20, scale=0.5, order=1, axis=0)],
            per_axis_linear(1, 0.3025, 0.88)
            + [term("cubic", 0.15, order=1, weights=[0.0, 1.0]), term("tanh", -0.20, scale=0.5, order=1, axis=1)],
        ],
    }

    disturbances = {
        1: {"amp": [0.20, 0.15], "freq": [0.9, 1.1], "phase": [0.0, PI / 7]},
        2: {"amp": [0.18, 0.18], "freq": [1.1, 0.8], "phase": [0.3, -PI / 5]},
        3: {"amp": [0.18, 0.18], "freq": [1.1, 0.8], "phase": [0.3, -PI / 5]},
        4: {"amp": [0.12, 0.12], "freq": [0.6, 0.6], "phase": [0.0, PI / 2]},
        5: {"amp": [0.22, 0.20], "freq": [0.9, 1.0], "phase": [PI / 8, 0.0]},
    }
    dist_bounds = {
        1: math.hypot(0.20, 0.15),
        2: math.hypot(0.18, 0.18),
        3: math.hypot(0.18, 0.18),
        4: 0.12,  # common frequency, quarter phase: constant norm
        5: math.hypot(0.22, 0.20),
    }

    agents = []
    for aid in range(1, 6):
        lipschitz = max_jacobian_norm(dims, 1.0, agent_axes[aid], box_obj) * 1.02
        agents.append(
            {
                "id": aid,
                "dynamics": {"outer_gain": 1.0, "axes": agent_axes[aid]},
                "disturbance": {"kind": "sinusoid", **disturbances[aid]},
                "disturbance_bound": dist_bounds[aid],
                "lipschitz": round(lipschitz, 3),
                "operating_box": follower_box,
                "margin_radius": 0.12,
            }
        )

    leader_lip = (
        max_jacobian_norm(
            dims, 5.0, leader_axes,
            Box(lower=tuple(leader_box["lower"]), upper=tuple(leader_box["upper"])),
        )
        * 1.02
    )

    adjacency = [[0.0] * 5 for _ in range(5)]
    for i in range(4):
        adjacency[i][i + 1] = 1.0
        adjacency[i + 1][i] = 1.0

    offsets = [[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]
    for off in ([-9.0, 2.0], [-6.0, 2.0], [0.0, 2.0], [6.0, 2.0], [9.0, 2.0]):
        offsets.append([off, [0.0, 0.0], [0.0, 0.0]])

    doc = {
        "name": "paper_scenario",
        "dims": {"n": 3, "d": 2, "followers": 5},
        "leader": {
            "dynamics": {"outer_gain": 5.0, "axes": leader_axes},
            "disturbance": {
                "kind": "sinusoid",
                "amp": [0.20, 0.25],
                "freq": [0.9, 1.1],
                "phase": [0.0, -PI / 7],
            },
            "disturbance_bound": math.hypot(0.20, 0.25),
            "lipschitz": round(leader_lip, 3),
            "operating_box": leader_box,
            "rate_bound": 0.8,
            "tube": {"mode": "declared", "r_ball": 0.05},
        },
        "agents": agents,
        "graph": {"adjacency": adjacency, "b0": [1.0, 0.0, 0.0, 0.0, 0.0], "nu1": 1.0, "nu2": 1.0},
        "formation": {"offsets": offsets},
        "obstacles": [
            {"center": [1.0, 1.0], "radius": 0.50, "inflation": 0.15},
            {"center": [-1.5, 0.5], "radius": 0.65, "inflation": 0.15},
        ],
        "gains": {"mode": "poles", "poles": [-2.0, -3.0, -4.0]},
        "ocp": {"horizon": 5, "qr": 1.0, "r": 0.1, "rdelta": 0.01, "input_bound": 2500.0},
        "barriers": {"kappa_poles": [-1.5, -2.5, -3.5], "d_safe": 0.3, "activation_range": 5.0},
        "sim": {"t_end": 30.0, "ts": 0.1, "fine_substeps": 10, "seed": 0},
        "initial_states": {
            "leader": [3.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            "followers": [
                [1.0, -0.5, 0.0, 0.0, 0.0, 0.0],
                [-0.8, 0.4, 0.0, 0.0, 0.0, 0.0],
                [0.6, 0.6, 0.0, 0.0, 0.0, 0.0],
                [-0.5, -0.7, 0.0, 0.0, 0.0, 0.0],
                [0.7, 0.0, 0.0, 0.0, 0.0, 0.0],
            ],
        },
    }
    write("paper_scenario", doc)


def ablation_scenario():
    """Variant tuned so every agent's no-feedforward baseline tube is feasible."""
    dims = BrunovskyDims(n=3, d=2, followers=5)
    box = {
        "lower": [-6.0, -3.0, -3.0, -3.0, -4.0, -4.0],
        "upper": [6.0, 4.0, 3.0, 3.0, 4.0, 4.0],
    }
    box_obj = Box(lower=tuple(box["lower"]), upper=tuple(box["upper"]))

    def follower_axes(a, b, c, scale):
        return [
            per_axis_linear(0, a, b) + [term("tanh", c, scale=scale, order=1, axis=0)],
            per_axis_linear(1, a, b) + [term("tanh", c, scale=scale, order=1, axis=1)],
        ]

    gains_ka = {1: 0.012, 2: 0.011, 3: 0.013, 4: 0.012, 5: 0.0115}
    shape = {
        1: (0.30, 0.60, -0.10, 1.0),
        2: (0.25, 0.55, 0.08, 0.8),
        3: (0.35, 0.65, -0.12, 1.2),
        4: (0.28, 0.58, 0.10, 0.9),
        5: (0.32, 0.62, -0.09, 1.1),
    }

    agents = []
    for aid in range(1, 6):
        axes = follower_axes(*shape[aid])
        lip = max_jacobian_norm(dims, gains_ka[aid], axes, box_obj) * 1.02
        agents.append(
            {
                "id": aid,
                "dynamics": {"outer_gain": gains_ka[aid], "axes": axes},
                "disturbance": {
                    "kind": "sinusoid",
                    "amp": [0.010, 0.010],
                    "freq": [0.9, 1.1],
                    "phase": [0.1 * aid, -0.07 * aid],
                },
                "disturbance_bound": math.hypot(0.010, 0.010),
                "lipschitz": round(lip, 5),
                "operating_box": box,
                "margin_radius": 0.05,
            }
        )

    leader_axes = [
        per_axis_linear(0, 0.5, 1.2) + [term("sin_t", -0.2, freq=0.4, phase=0.0)],
        per_axis_linear(1, 0.5, 1.2) + [term("sin_t", -0.2, freq=0.4, phase=PI / 2)],
    ]
    leader_box = {
        "lower": [-1.5, -1.5, -1.0, -1.0, -1.0, -1.0],
        "upper": [1.5, 1.5, 1.0, 1.0, 1.0, 1.0],
    }
    leader_lip = (
        max_jacobian_norm(
            dims, 1.0, leader_axes,
            Box(lower=tuple(leader_box["lower"]), upper=tuple(leader_box["upper"])),
        )
        * 1.02
    )

    adjacency = [[0.0] * 5 for _ in range(5)]
    for i in range(4):
        adjacency[i][i + 1] = 1.0
        adjacency[i + 1][i] = 1.0

    offsets = [[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]
    # slot spacing 2.0 sits inside the baseline-margin keep-out (~2.3), so the
    # baseline-margins run cannot fully close the formation: the ordering
    # comparison has a strict, persistent gap
    for off in ([-4.0, 1.6], [-2.0, 1.6], [0.0, 1.6], [2.0, 1.6], [4.0, 1.6]):
        offsets.append([off, [0.0, 0.0], [0.0, 0.0]])

    doc = {
        "name": "ablation_scenario",
        "dims": {"n": 3, "d": 2, "followers": 5},
        "leader": {
            "dynamics": {"outer_gain": 1.0, "axes": leader_axes},
            "disturbance": {
                "kind": "sinusoid",
                "amp": [0.010, 0.010],
                "freq": [0.5, 0.6],
                "phase": [0.0, 1.0],
            },
            "disturbance_bound": math.hypot(0.010, 0.010),
            "lipschitz": round(leader_lip, 4),
            "operating_box": leader_box,
            "rate_bound": 0.2,
            "tube": {"mode": "declared", "r_ball": 0.01},
        },
        "agents": agents,
        # all followers pinned: no relay staleness allowance, so the baseline
        # radii stay comparable across agents and the margin ablation is clean
        "graph": {"adjacency": adjacency, "b0": [1.0, 1.0, 1.0, 1.0, 1.0], "nu1": 1.0, "nu2": 1.0},
        "formation": {"offsets": offsets},
        "obstacles": [
            {"center": [0.7, 0.7], "radius": 0.35, "inflation": 0.10},
            {"center": [-1.0, 0.4], "radius": 0.45, "inflation": 0.10},
        ],
        "gains": {"mode": "poles", "poles": [-2.0, -3.0, -4.0]},
        "ocp": {"horizon": 5, "qr": 1.0, "r": 1.0, "rdelta": 0.2, "input_bound": 150.0},
        "barriers": {"kappa_poles": [-1.5, -2.5, -3.5], "d_safe": 0.3, "activation_range": 5.0},
        "sim": {"t_end": 30.0, "ts": 0.1, "fine_substeps": 10, "seed": 0},
        # starts sit on a loose arc below the obstacle band, ordered like the
        # slots but spaced wider (2.6) than the slots (2.0): closing the
        # formation forces the pair distances through the baseline keep-out,
        # so the margin comparison is strict rather than a tie at t=0
        "initial_states": {
            "leader": [0.5, 0.0, 0.0, 0.0, 0.0, 0.0],
            "followers": [
                [-5.2, -0.60, 0.0, 0.0, 0.0, 0.0],
                [-2.6, -0.75, 0.0, 0.0, 0.0, 0.0],
                [0.0, -0.60, 0.0, 0.0, 0.0, 0.0],
                [2.6, -0.75, 0.0, 0.0, 0.0, 0.0],
                [5.2, -0.60, 0.0, 0.0, 0.0, 0.0],
            ],
        },
    }
    write("ablation_scenario", doc)


def smoke_scenario():
    """Two followers, short horizon; used by the CLI tests."""
    box = {
        "lower": [-4.0, -4.0, -2.0, -2.0, -2.0, -2.0],
        "upper": [4.0, 4.0, 2.0, 2.0, 2.0, 2.0],
    }
    axes = [
        per_axis_linear(0, 0.3, 0.6),
        per_axis_linear(1, 0.3, 0.6),
    ]
    leader_axes = [
        per_axis_linear(0, 0.5, 1.2) + [term("sin_t", -0.1, freq=0.4, phase=0.0)],
        per_axis_linear(1, 0.5, 1.2) + [term("sin_t", -0.1, freq=0.4, phase=PI / 2)],
    ]
    agents = [
        {
            "id": aid,
            "dynamics": {"outer_gain": 0.02, "axes": axes},
            "disturbance": {
                "kind": "sinusoid",
                "amp": [0.01, 0.01],
                "freq": [0.9, 1.1],
                "phase": [0.0, 0.5],
            },
            "disturbance_bound": math.hypot(0.01, 0.01),
            "lipschitz": 0.05,
            "operating_box": box,
            "margin_radius": 0.05,
        }
        for aid in (1, 2)
    ]
    doc = {
        "name": "smoke_scenario",
        "dims": {"n": 3, "d": 2, "followers": 2},
        "leader": {
            "dynamics": {"outer_gain": 1.0, "axes": leader_axes},
            "disturbance": {
                "kind": "sinusoid",
                "amp": [0.01, 0.01],
                "freq": [0.5, 0.6],
                "phase": [0.0, 1.0],
            },
            "disturbance_bound": math.hypot(0.01, 0.01),
            "lipschitz": 1.7,
            "operating_box": box,
            "rate_bound": 0.2,
            "tube": {"mode": "declared", "r_ball": 0.01},
        },
        "agents": agents,
        "graph": {"adjacency": [[0.0, 1.0], [1.0, 0.0]], "b0": [1.0, 0.0], "nu1": 1.0, "nu2": 1.0},
        "formation": {
            "offsets": [
                [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                [[-1.2, 0.8], [0.0, 0.0], [0.0, 0.0]],
                [[1.2, 0.8], [0.0, 0.0], [0.0, 0.0]],
            ]
        },
        "obstacles": [{"center": [0.0, 0.9], "radius": 0.3, "inflation": 0.05}],
        "gains": {"mode": "poles", "poles": [-2.0, -3.0, -4.0]},
        "ocp": {"horizon": 5, "qr": 1.0, "r": 1.0, "rdelta": 0.2, "input_bound": 60.0},
        "barriers": {"kappa_poles": [-1.5, -2.5, -3.5], "d_safe": 0.25, "activation_range": 5.0},
        "sim": {"t_end": 2.0, "ts": 0.1, "fine_substeps": 10, "seed": 0},
        "initial_states": {
            "leader": [0.2, 0.1, 0.0, 0.0, 0.0, 0.0],
            "followers": [
                [0.6, -0.4, 0.0, 0.0, 0.0, 0.0],
                [-0.5, -0.3, 0.0, 0.0, 0.0, 0.0],
            ],
        },
    }
    write("smoke_scenario", doc)


if __name__ == "__main__":
    paper_scenario()
    ablation_scenario()
    smoke_scenario()
