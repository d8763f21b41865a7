"""Scenario files: parsing, validation, canonical serialization, hashing.

A scenario is a JSON document describing dimensions, per-agent dynamics as
tagged term lists, disturbances, the communication graph, formation
offsets, obstacles, gain synthesis, OCP weights, barrier parameters, and
simulation settings. Parsing returns a frozen ScenarioConfig; semantic
errors carry the dotted path of the offending entry, syntax errors the
line number reported by the JSON parser.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .certify import GainSpec
from .errors import ScenarioError
from .graph import CommGraph
from .models import (
    AgentModel,
    BallDisturbance,
    Box,
    BrunovskyDims,
    DriftSpec,
    DriftTerm,
    FormationSpec,
    Obstacle,
    SinusoidDisturbance,
    estimate_lipschitz,
)


@dataclass(frozen=True)
class DisturbanceConfig:
    kind: str  # "sinusoid" or "ball"
    amp: tuple[float, ...] = ()
    freq: tuple[float, ...] = ()
    phase: tuple[float, ...] = ()
    bound: float = 0.0


@dataclass(frozen=True)
class DynamicsConfig:
    outer_gain: float
    axes: tuple[tuple[DriftTerm, ...], ...]


@dataclass(frozen=True)
class LeaderTubeConfig:
    mode: str  # "declared" or "lyapunov"
    r_ball: float = 0.0
    residual_lipschitz: float = 0.0
    stabilizer: tuple[tuple[float, ...], ...] | None = None


@dataclass(frozen=True)
class LeaderConfig:
    dynamics: DynamicsConfig
    disturbance: DisturbanceConfig
    disturbance_bound: float
    lipschitz: float
    operating_box: Box
    rate_bound: float
    tube: LeaderTubeConfig


@dataclass(frozen=True)
class FollowerConfig:
    id: int
    dynamics: DynamicsConfig
    disturbance: DisturbanceConfig
    disturbance_bound: float
    lipschitz: float | str  # numeric or "estimate"
    operating_box: Box
    margin_radius: float | None = None


@dataclass(frozen=True)
class GraphConfig:
    adjacency: tuple[tuple[float, ...], ...]
    b0: tuple[float, ...]
    nu1: float = 1.0
    nu2: float = 1.0


@dataclass(frozen=True)
class OcpConfig:
    horizon: int = 5
    qr: float = 1.0
    r: float = 0.1
    rdelta: float = 0.01
    input_bound: float = 10.0
    error_box: tuple[float, ...] | None = None


@dataclass(frozen=True)
class BarrierConfig:
    kappa_poles: tuple[float, ...] = (-1.5, -2.5, -3.5)
    d_safe: float = 0.3
    activation_range: float = 5.0


@dataclass(frozen=True)
class SimConfig:
    """The ``sim`` section, which is also a run's settings."""

    t_end: float = 30.0
    ts: float = 0.1
    fine_substeps: int = 10
    seed: int = 0
    feedforward_on: bool = True
    baseline_margins: bool = False

    @classmethod
    def from_scenario(cls, cfg: "ScenarioConfig", **overrides) -> "SimConfig":
        """The scenario's sim section with the non-None ``overrides`` applied."""
        return replace(cfg.sim, **{k: v for k, v in overrides.items() if v is not None})


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    dims: BrunovskyDims
    leader: LeaderConfig
    agents: tuple[FollowerConfig, ...]
    graph: GraphConfig
    offsets: tuple  # (N+1) x n x d nested tuples, leader first
    obstacles: tuple[Obstacle, ...]
    gains: GainSpec
    ocp: OcpConfig
    barriers: BarrierConfig
    sim: SimConfig
    initial_leader: tuple[float, ...]
    initial_followers: tuple[tuple[float, ...], ...]


def _req(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ScenarioError(f"{path}: missing required key {key!r}")
    return mapping[key]


def parse_terms(raw, path: str) -> tuple[DriftTerm, ...]:
    """The drift terms of one axis from their JSON list; errors name ``path[index]``."""
    out = []
    for idx, item in enumerate(raw):
        here = f"{path}[{idx}]"
        try:
            out.append(
                DriftTerm(
                    form=_req(item, "form", here),
                    coeff=float(_req(item, "coeff", here)),
                    order=int(item.get("order", 1)),
                    axis=int(item.get("axis", 0)),
                    scale=float(item.get("scale", 1.0)),
                    freq=float(item.get("freq", 0.0)),
                    phase=float(item.get("phase", 0.0)),
                    weights=tuple(float(w) for w in item.get("weights", ())),
                    sq_axis=int(item.get("sq_axis", 0)),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{here}: {exc}") from exc
    return tuple(out)


def _dynamics(raw: dict, path: str) -> DynamicsConfig:
    return DynamicsConfig(
        outer_gain=float(_req(raw, "outer_gain", path)),
        axes=tuple(parse_terms(axis, f"{path}.axes") for axis in _req(raw, "axes", path)),
    )


def _vector(raw, name: str, length: int) -> tuple[float, ...]:
    """``length`` numbers; a wrong count names ``name``."""
    values = tuple(float(v) for v in raw)
    if len(values) != length:
        raise ScenarioError(f"{name}: expected {length} values, got {len(values)}")
    return values


def _floats(raw: dict, key: str, path: str, length: int) -> tuple[float, ...]:
    """The ``length`` numbers under ``key``; a wrong count names ``path.key``."""
    return _vector(_req(raw, key, path), f"{path}.{key}", length)


def _integer(raw: dict, key: str, path: str, default: int) -> int:
    """The integer under ``key``; a float or a string names ``path.key``."""
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}.{key}: must be an integer (got {value!r})")
    return value


def _disturbance(raw: dict, path: str, d: int) -> DisturbanceConfig:
    kind = _req(raw, "kind", path)
    if kind == "sinusoid":
        return DisturbanceConfig(
            kind=kind,
            amp=_floats(raw, "amp", path, d),
            freq=_floats(raw, "freq", path, d),
            phase=_floats(raw, "phase", path, d),
        )
    if kind == "ball":
        return DisturbanceConfig(kind=kind, bound=float(_req(raw, "bound", path)))
    raise ScenarioError(f"{path}: unknown disturbance kind {kind!r}")


def _box(raw: dict, path: str, nd: int) -> Box:
    return Box(lower=_floats(raw, "lower", path, nd), upper=_floats(raw, "upper", path, nd))


def parse_scenario(text: str) -> ScenarioConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"line {exc.lineno}: {exc.msg}") from exc

    dims_raw = _req(raw, "dims", "dims")
    dims = BrunovskyDims(
        n=int(_req(dims_raw, "n", "dims")),
        d=int(_req(dims_raw, "d", "dims")),
        followers=int(_req(dims_raw, "followers", "dims")),
    )

    leader_raw = _req(raw, "leader", "leader")
    tube_raw = _req(leader_raw, "tube", "leader.tube")
    mode = _req(tube_raw, "mode", "leader.tube")
    if mode not in ("declared", "lyapunov"):
        raise ScenarioError(f"leader.tube: unknown mode {mode!r}")
    leader = LeaderConfig(
        dynamics=_dynamics(_req(leader_raw, "dynamics", "leader"), "leader.dynamics"),
        disturbance=_disturbance(
            _req(leader_raw, "disturbance", "leader"), "leader.disturbance", dims.d
        ),
        disturbance_bound=float(_req(leader_raw, "disturbance_bound", "leader")),
        lipschitz=float(_req(leader_raw, "lipschitz", "leader")),
        operating_box=_box(
            _req(leader_raw, "operating_box", "leader"), "leader.operating_box", dims.nd
        ),
        rate_bound=float(_req(leader_raw, "rate_bound", "leader")),
        tube=LeaderTubeConfig(
            mode=mode,
            r_ball=float(tube_raw.get("r_ball", 0.0)),
            residual_lipschitz=float(tube_raw.get("residual_lipschitz", 0.0)),
            stabilizer=(
                None
                if tube_raw.get("stabilizer") is None
                else tuple(tuple(float(v) for v in r) for r in tube_raw["stabilizer"])
            ),
        ),
    )

    agents = []
    for idx, item in enumerate(_req(raw, "agents", "agents")):
        path = f"agents[{idx}]"
        lip = _req(item, "lipschitz", path)
        if not (isinstance(lip, (int, float)) or lip == "estimate"):
            raise ScenarioError(f"{path}.lipschitz: number or 'estimate' expected")
        margin = item.get("margin_radius")
        agents.append(
            FollowerConfig(
                id=int(_req(item, "id", path)),
                dynamics=_dynamics(_req(item, "dynamics", path), f"{path}.dynamics"),
                disturbance=_disturbance(
                    _req(item, "disturbance", path), f"{path}.disturbance", dims.d
                ),
                disturbance_bound=float(_req(item, "disturbance_bound", path)),
                lipschitz=lip if lip == "estimate" else float(lip),
                operating_box=_box(
                    _req(item, "operating_box", path), f"{path}.operating_box", dims.nd
                ),
                margin_radius=None if margin is None else float(margin),
            )
        )
    if [a.id for a in agents] != list(range(1, dims.followers + 1)):
        raise ScenarioError("agents: ids must be 1..N in order")

    graph_raw = _req(raw, "graph", "graph")
    rows = _req(graph_raw, "adjacency", "graph")
    if len(rows) != dims.followers:
        raise ScenarioError(f"graph.adjacency: expected {dims.followers} rows, got {len(rows)}")
    graph = GraphConfig(
        adjacency=tuple(
            _vector(row, f"graph.adjacency[{i}]", dims.followers) for i, row in enumerate(rows)
        ),
        b0=_floats(graph_raw, "b0", "graph", dims.followers),
        nu1=float(graph_raw.get("nu1", 1.0)),
        nu2=float(graph_raw.get("nu2", 1.0)),
    )

    offsets_raw = _req(raw, "formation", "formation")
    offsets = tuple(
        tuple(tuple(float(v) for v in order) for order in agent)
        for agent in _req(offsets_raw, "offsets", "formation")
    )
    if len(offsets) != dims.followers + 1:
        raise ScenarioError("formation.offsets: need leader plus one entry per follower")
    for agent_off in offsets:
        if len(agent_off) != dims.n or any(len(o) != dims.d for o in agent_off):
            raise ScenarioError("formation.offsets: each entry must be n x d")

    obstacles = tuple(
        Obstacle(
            center=_floats(item, "center", f"obstacles[{i}]", dims.d),
            radius=float(_req(item, "radius", f"obstacles[{i}]")),
            inflation=float(item.get("inflation", 0.0)),
        )
        for i, item in enumerate(raw.get("obstacles", []))
    )

    gains_raw = raw.get("gains", {})
    lyap_q = gains_raw.get("lyapunov_q")
    matrix = gains_raw.get("matrix")
    gains = GainSpec(
        mode=gains_raw.get("mode", "poles"),
        poles=tuple(float(p) for p in gains_raw.get("poles", (-2.0, -3.0, -4.0))),
        matrix=None if matrix is None else tuple(tuple(float(v) for v in r) for r in matrix),
        state_weight=float(gains_raw.get("state_weight", 1.0)),
        input_weight=float(gains_raw.get("input_weight", 1.0)),
        lyapunov_q=None if lyap_q is None else _vector(lyap_q, "gains.lyapunov_q", dims.nd),
    )

    ocp_raw = raw.get("ocp", {})
    error_box = ocp_raw.get("error_box")
    ocp = OcpConfig(
        horizon=_integer(ocp_raw, "horizon", "ocp", 5),
        qr=float(ocp_raw.get("qr", 1.0)),
        r=float(ocp_raw.get("r", 0.1)),
        rdelta=float(ocp_raw.get("rdelta", 0.01)),
        input_bound=float(ocp_raw.get("input_bound", 10.0)),
        error_box=None if error_box is None else _floats(ocp_raw, "error_box", "ocp", dims.nd),
    )
    if ocp.horizon < 2:
        raise ScenarioError("ocp.horizon: must be >= 2")
    if gains.mode == "poles":  # pole placement needs one closed-loop pole per chain order
        _vector(gains.poles, "gains.poles", dims.n)

    barriers_raw = {"kappa_poles": BarrierConfig.kappa_poles} | raw.get("barriers", {})
    barriers = BarrierConfig(
        # one eCBF pole per chain order, the barrier's relative degree
        kappa_poles=_floats(barriers_raw, "kappa_poles", "barriers", dims.n),
        d_safe=float(barriers_raw.get("d_safe", 0.3)),
        activation_range=float(barriers_raw.get("activation_range", 5.0)),
    )
    if not 0.0 < barriers.d_safe < math.inf:
        raise ScenarioError(
            f"barriers.d_safe: must be positive and finite (got {barriers.d_safe!r})"
        )

    sim_raw = raw.get("sim", {})
    sim = SimConfig(
        t_end=float(sim_raw.get("t_end", 30.0)),
        ts=float(sim_raw.get("ts", 0.1)),
        fine_substeps=_integer(sim_raw, "fine_substeps", "sim", 10),
        seed=int(sim_raw.get("seed", 0)),
        feedforward_on=bool(sim_raw.get("feedforward_on", True)),
        baseline_margins=bool(sim_raw.get("baseline_margins", False)),
    )
    if not 0.0 < sim.ts < math.inf:
        raise ScenarioError(f"sim.ts: must be positive and finite (got {sim.ts!r})")
    if sim.fine_substeps < 1:
        raise ScenarioError("sim.fine_substeps: must be >= 1")

    init_raw = _req(raw, "initial_states", "initial_states")
    initial_leader = tuple(float(v) for v in _req(init_raw, "leader", "initial_states"))
    initial_followers = tuple(
        tuple(float(v) for v in row) for row in _req(init_raw, "followers", "initial_states")
    )
    if len(initial_leader) != dims.nd:
        raise ScenarioError("initial_states.leader: wrong length")
    if len(initial_followers) != dims.followers or any(
        len(row) != dims.nd for row in initial_followers
    ):
        raise ScenarioError("initial_states.followers: need one nd-vector per follower")

    cfg = ScenarioConfig(
        name=str(raw.get("name", "scenario")),
        dims=dims,
        leader=leader,
        agents=tuple(agents),
        graph=graph,
        offsets=offsets,
        obstacles=obstacles,
        gains=gains,
        ocp=ocp,
        barriers=barriers,
        sim=sim,
        initial_leader=initial_leader,
        initial_followers=initial_followers,
    )
    _validate_sampling(cfg)
    return cfg


def _validate_sampling(cfg: ScenarioConfig) -> None:
    """Fine steps must resolve the fastest disturbance (>= 20 per period)."""
    dists = [cfg.leader.disturbance] + [agent.disturbance for agent in cfg.agents]
    freqs = [abs(f) for dist in dists for f in dist.freq if f]
    if not freqs:
        return
    period = 2.0 * math.pi / max(freqs)
    if cfg.sim.ts / cfg.sim.fine_substeps > period / 20.0:
        raise ScenarioError(
            "sim: fine step too coarse for the fastest disturbance frequency"
        )


def load_scenario(path: str | Path) -> ScenarioConfig:
    return parse_scenario(Path(path).read_text())


def _strip_nones(obj):
    if isinstance(obj, dict):
        return {k: _strip_nones(v) for k, v in obj.items() if v is not None}
    if isinstance(obj, (list, tuple)):
        return [_strip_nones(v) for v in obj]
    return obj


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """The file layout: the config's fields, offsets and initial states under their file keys."""
    raw = asdict(cfg)
    raw["formation"] = {"offsets": raw.pop("offsets")}
    initial = {"leader": raw.pop("initial_leader"), "followers": raw.pop("initial_followers")}
    raw["initial_states"] = initial
    return _strip_nones(raw)


def dumps_scenario(cfg: ScenarioConfig) -> str:
    return json.dumps(scenario_to_dict(cfg), indent=2, sort_keys=True)


def scenario_hash(cfg: ScenarioConfig) -> str:
    canonical = json.dumps(scenario_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# --- builders: turn the declarative config into runtime objects ---


def build_graph(cfg: ScenarioConfig) -> CommGraph:
    return CommGraph(
        adjacency=np.asarray(cfg.graph.adjacency, dtype=float),
        b0=np.asarray(cfg.graph.b0, dtype=float),
        nu1=cfg.graph.nu1,
        nu2=cfg.graph.nu2,
    )


def build_formation(cfg: ScenarioConfig) -> FormationSpec:
    return FormationSpec(dims=cfg.dims, offsets=np.asarray(cfg.offsets, dtype=float))


def _build_disturbance(
    dist: DisturbanceConfig, cfg: ScenarioConfig, agent_id: int
) -> SinusoidDisturbance | BallDisturbance:
    if dist.kind == "sinusoid":
        return SinusoidDisturbance(amp=dist.amp, freq=dist.freq, phase=dist.phase)
    return BallDisturbance(
        bound=dist.bound,
        seed=cfg.sim.seed,
        agent_id=agent_id,
        step_duration=cfg.sim.ts / cfg.sim.fine_substeps,
        dim=cfg.dims.d,
    )


def build_agent_model(cfg: ScenarioConfig, agent_id: int) -> AgentModel:
    """Agent 0 is the leader; 1..N are followers."""
    section = cfg.leader if agent_id == 0 else cfg.agents[agent_id - 1]
    lipschitz = section.lipschitz
    drift = DriftSpec(
        dims=cfg.dims,
        outer_gain=section.dynamics.outer_gain,
        axes=section.dynamics.axes,
    )
    # the declared bound is verified at certify time: exactly for a ball, on
    # sampled norms for a sinusoid (equal-frequency axes can stay below the
    # amplitude hypot)
    disturbance = _build_disturbance(section.disturbance, cfg, agent_id)
    if lipschitz == "estimate":
        lipschitz = estimate_lipschitz(drift, section.operating_box)
    return AgentModel(
        id=agent_id,
        dims=cfg.dims,
        drift=drift,
        drift_lipschitz=float(lipschitz),
        disturbance=disturbance,
        disturbance_bound=section.disturbance_bound,
        operating_box=section.operating_box,
    )


def build_all_models(cfg: ScenarioConfig) -> list[AgentModel]:
    return [build_agent_model(cfg, i) for i in range(cfg.dims.followers + 1)]


def initial_states(cfg: ScenarioConfig) -> np.ndarray:
    """(N+1, nd) array of initial chain states, leader first."""
    return np.asarray((cfg.initial_leader,) + cfg.initial_followers, dtype=float)
