"""Scenario files: parsing, validation, canonical serialization, hashing.

A scenario is a JSON document describing dimensions, per-agent dynamics as
tagged term lists, disturbances, the communication graph, formation
offsets, obstacles, gain synthesis, OCP weights, barrier parameters, and
simulation settings. One table of entries (``SCENARIO`` and the sections
it nests) gives each entry's type, shape in terms of n, d, nd and N, default
and conditions; one walker reads a document against it into a frozen
ScenarioConfig. Unknown keys are rejected. Semantic errors carry the dotted
path of the offending entry, syntax errors the line number reported by the
JSON parser.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .certify import GainSpec
from .errors import ScenarioError
from .graph import CommGraph
from .models import (
    TERM_FORMS,
    AgentModel,
    Box,
    BrunovskyDims,
    DisturbanceConfig,
    DriftTable,
    DriftTerm,
    Obstacle,
)


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
    lipschitz: float
    operating_box: Box
    margin_radius: float | None = None


@dataclass(frozen=True)
class GraphConfig:
    adjacency: tuple[tuple[float, ...], ...]
    b0: tuple[float, ...]
    nu1: float = 1.0
    nu2: float = 1.0

    def __post_init__(self):
        if any(row[i] != 0.0 for i, row in enumerate(self.adjacency)):
            raise ScenarioError("adjacency must have a zero diagonal")


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
        """The scenario's sim section with the non-None ``overrides`` applied.

        Each override is checked against its ``sim`` table entry; an error
        reads "<key> must be ...".
        """
        given = {k: v for k, v in overrides.items() if v is not None}
        siblings = asdict(cfg.sim) | given
        for f in SIM.fields:
            problem = f.key in given and _problem(f, given[f.key], siblings, cfg.dims)
            if problem:
                raise ScenarioError(f"{f.key} {problem}")
        return replace(cfg.sim, **given)


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

    @functools.cached_property
    def sha256(self) -> str:
        """``scenario_hash`` of this config, computed on first use."""
        return scenario_hash(self)


# --- the schema: one table of entries, read by one walker ---

REQUIRED = object()  # the default of an entry the file must give


class Check(NamedTuple):
    """A condition on one number, given its siblings and the dims; ``text`` ends "must be ..."."""

    test: Callable[[Any, dict, BrunovskyDims | None], bool]
    text: str


class Field(NamedTuple):
    """One scenario entry.

    ``kind`` is float (a finite JSON number), int, bool, str, a tuple of
    string literals or a nested ``Section``. ``shape`` gives the list lengths
    around each value, outermost first: "n", "d", "nd", "N" (followers),
    "N+1", a count, or None for any length. ``checks`` apply to each number.
    An entry with ``when = (key, values)`` applies only where the sibling
    ``key``, read earlier, holds one of ``values``.
    """

    key: str
    kind: Any
    shape: tuple = ()
    default: Any = REQUIRED
    checks: tuple[Check, ...] = ()
    when: tuple[str, tuple[str, ...]] | None = None


class Section(NamedTuple):
    """A JSON object: its entries, and the callable that builds the config from them."""

    build: Callable[..., Any]
    fields: tuple[Field, ...]


POSITIVE = (Check(lambda v, *_: v > 0, "positive"),)
NON_NEGATIVE = (Check(lambda v, *_: v >= 0, "non-negative"),)
COUNT = (Check(lambda v, *_: v >= 1, ">= 1"),)
CHAIN_ORDER = (Check(lambda v, _, dims: 1 <= v <= dims.n, "a chain order in 1..n"),)
AXIS = (Check(lambda v, _, dims: 0 <= v < dims.d, "an axis index in 0..d-1"),)
SAMPLING_STEPS = POSITIVE + (Check(
    lambda v, sib, _: abs(round(v / sib["ts"]) * sib["ts"] - v) <= 1e-9,
    "an integer multiple of the sampling period",
),)
ZERO = (Check(lambda v, *_: v == 0, "0 for a sinusoid"),)
SINE, BALL = ("sinusoid",), ("ball",)

DISTURBANCE = Section(DisturbanceConfig, (
    Field("kind", SINE + BALL),
    *(Field(key, float, ("d",), when=("kind", SINE)) for key in ("amp", "freq", "phase")),
    Field("bound", float, (), DisturbanceConfig.bound, ZERO, when=("kind", SINE)),
    # scenario_to_dict writes empty sinusoid arrays for a ball
    *(Field(key, float, (0,), (), when=("kind", BALL)) for key in ("amp", "freq", "phase")),
    Field("bound", float, checks=NON_NEGATIVE, when=("kind", BALL)),
))
TERM = Section(DriftTerm, (
    Field("form", TERM_FORMS),
    Field("coeff", float),
    Field("order", int, (), DriftTerm.order, CHAIN_ORDER),
    Field("axis", int, (), DriftTerm.axis, AXIS),
    Field("scale", float, default=DriftTerm.scale),
    Field("freq", float, default=DriftTerm.freq),
    Field("phase", float, default=DriftTerm.phase),
    Field("weights", float, ("d",), when=("form", ("cubic",))),
    Field("weights", float, (0,), (), when=("form", tuple(f for f in TERM_FORMS if f != "cubic"))),
    Field("sq_axis", int, (), DriftTerm.sq_axis, AXIS),
))
DYNAMICS = Section(DynamicsConfig, (Field("outer_gain", float), Field("axes", TERM, ("d", None))))
BOX = Section(Box, (Field("lower", float, ("nd",)), Field("upper", float, ("nd",))))
AGENT = (  # the entries the leader and every follower share
    Field("dynamics", DYNAMICS),
    Field("disturbance", DISTURBANCE),
    Field("disturbance_bound", float, checks=NON_NEGATIVE),
    Field("operating_box", BOX),
)
LEADER = Section(LeaderConfig, AGENT + (
    Field("lipschitz", float, checks=NON_NEGATIVE),
    Field("rate_bound", float, checks=NON_NEGATIVE),
    Field("tube", Section(LeaderTubeConfig, (
        Field("mode", ("declared", "lyapunov")),
        Field("r_ball", float, (), LeaderTubeConfig.r_ball, NON_NEGATIVE),
        Field("residual_lipschitz", float, (), LeaderTubeConfig.residual_lipschitz, NON_NEGATIVE),
        Field("stabilizer", float, ("d", "nd"), None),
    ))),
))
FOLLOWER = Section(FollowerConfig, (Field("id", int),) + AGENT + (
    Field("lipschitz", float, checks=NON_NEGATIVE),
    Field("margin_radius", float, (), None, POSITIVE),
))
GRAPH = Section(GraphConfig, (
    Field("adjacency", float, ("N", "N"), checks=NON_NEGATIVE),
    Field("b0", float, ("N",), checks=NON_NEGATIVE),
    Field("nu1", float, (), GraphConfig.nu1, POSITIVE),
    Field("nu2", float, (), GraphConfig.nu2, POSITIVE),
))
OBSTACLE = Section(Obstacle, (
    Field("center", float, ("d",)),
    Field("radius", float, checks=POSITIVE),
    Field("inflation", float, (), Obstacle.inflation, NON_NEGATIVE),
))
GAINS = Section(GainSpec, (
    Field("mode", ("poles", "explicit", "lqr"), default=GainSpec.mode),
    # pole placement takes one closed-loop pole per chain order, "explicit" a (d, nd) gain
    Field("poles", float, ("n",), GainSpec.poles, when=("mode", ("poles",))),
    Field("poles", float, (None,), GainSpec.poles, when=("mode", ("explicit", "lqr"))),
    Field("matrix", float, ("d", "nd"), when=("mode", ("explicit",))),
    Field("matrix", float, ("d", "nd"), None, when=("mode", ("poles", "lqr"))),
    Field("state_weight", float, (), GainSpec.state_weight, POSITIVE),
    Field("input_weight", float, (), GainSpec.input_weight, POSITIVE),
    Field("lyapunov_q", float, ("nd",), None, POSITIVE),
))
OCP = Section(OcpConfig, (
    Field("horizon", int, (), OcpConfig.horizon, (Check(lambda v, *_: v >= 2, ">= 2"),)),
    Field("qr", float, (), OcpConfig.qr, POSITIVE),
    Field("r", float, (), OcpConfig.r, POSITIVE),
    Field("rdelta", float, (), OcpConfig.rdelta, NON_NEGATIVE),
    Field("input_bound", float, (), OcpConfig.input_bound, POSITIVE),
    Field("error_box", float, ("nd",), None, POSITIVE),
))
BARRIERS = Section(BarrierConfig, (
    # one eCBF pole per chain order, the barrier's relative degree
    Field("kappa_poles", float, ("n",), BarrierConfig.kappa_poles),
    Field("d_safe", float, (), BarrierConfig.d_safe, POSITIVE),
    Field("activation_range", float, (), BarrierConfig.activation_range, POSITIVE),
))
SIM = Section(SimConfig, (
    Field("ts", float, (), SimConfig.ts, POSITIVE),
    Field("t_end", float, (), SimConfig.t_end, SAMPLING_STEPS),
    Field("fine_substeps", int, (), SimConfig.fine_substeps, COUNT),
    Field("seed", int, (), SimConfig.seed, NON_NEGATIVE),
    Field("feedforward_on", bool, default=SimConfig.feedforward_on),
    Field("baseline_margins", bool, default=SimConfig.baseline_margins),
))


def _scenario(formation: dict, initial_states: dict, **sections) -> ScenarioConfig:
    """The config from the file layout: offsets and initial states sit in their own sections."""
    return ScenarioConfig(
        offsets=formation["offsets"],
        initial_leader=initial_states["leader"],
        initial_followers=initial_states["followers"],
        **sections,
    )


SCENARIO = Section(_scenario, (
    Field("dims", Section(BrunovskyDims, tuple(
        Field(key, int, checks=COUNT) for key in ("n", "d", "followers")
    ))),  # first: it sizes the entries after it
    Field("name", str, default="scenario"),
    Field("leader", LEADER),
    Field("agents", FOLLOWER, ("N",)),
    Field("graph", GRAPH),
    Field("formation", Section(dict, (Field("offsets", float, ("N+1", "n", "d")),))),
    Field("obstacles", OBSTACLE, (None,), ()),
    Field("gains", GAINS, default={}),
    Field("ocp", OCP, default={}),
    Field("barriers", BARRIERS, default={}),
    Field("sim", SIM, default={}),
    Field("initial_states", Section(dict, (
        Field("leader", float, ("nd",)), Field("followers", float, ("N", "nd"))
    ))),
))

_TYPE_NAMES = {float: "a finite number", int: "an integer", bool: "true or false", str: "a string"}


def _is(raw, kind) -> bool:
    """Whether the JSON value ``raw`` is a ``kind``, a type or a string literal."""
    if kind is float and type(raw) is not bool:  # JSON true is no number; NaN fails <=
        return type(raw) in (int, float) and abs(raw) <= sys.float_info.max
    return raw == kind if isinstance(kind, str) else type(raw) is kind


def _problem(f: Field, raw, siblings: dict, dims: BrunovskyDims | None) -> str | None:
    """Why ``raw`` cannot be a value of the scalar entry ``f``, or None if it can."""
    kinds = f.kind if type(f.kind) is tuple else (f.kind,)
    for kind in kinds:
        if _is(raw, kind):
            break
    else:
        names = " or ".join(_TYPE_NAMES.get(kind, repr(kind)) for kind in kinds)
        return f"must be {names} (got {raw!r})"
    for check in f.checks:
        if not check.test(raw, siblings, dims):
            return f"must be {check.text} (got {raw!r})"
    return None


def _value(f: Field, raw, path: str, shape: tuple, siblings: dict, dims: BrunovskyDims | None):
    """The value of entry ``f`` at ``path``, where ``shape`` lists the list lengths left."""
    if shape:
        if not isinstance(raw, (list, tuple)):
            raise ScenarioError(f"{path}: expected a list, got {raw!r}")
        count = shape[0]
        if isinstance(count, str):
            n, d, followers = dims.n, dims.d, dims.followers
            count = {"n": n, "d": d, "nd": n * d, "N": followers, "N+1": followers + 1}[count]
        if count is not None and len(raw) != count:
            unit = "rows" if len(shape) > 1 else "values"
            raise ScenarioError(f"{path}: expected {count} {unit}, got {len(raw)}")
        rest = shape[1:]
        return tuple(
            [_value(f, item, f"{path}[{i}]", rest, siblings, dims) for i, item in enumerate(raw)]
        )
    if type(f.kind) is Section:
        return walk(f.kind, raw, path, dims)
    problem = _problem(f, raw, siblings, dims)
    if problem is not None:
        raise ScenarioError(f"{path}: {problem}")
    return float(raw) if type(raw) is int and f.kind is not int else raw


def walk(section: Section, raw, path: str = "", dims: BrunovskyDims | None = None):
    """Build ``section`` from the JSON object ``raw`` at ``path``.

    Missing entries take their defaults, which are checked like given
    values. Every error names the dotted path of the entry at fault.
    """
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path or 'scenario'}: must be an object (got {raw!r})")
    prefix = f"{path}." if path else ""
    known = {f.key for f in section.fields}
    for key in raw:
        if key not in known:
            raise ScenarioError(f"{prefix}{key}: unknown key")
    values: dict = {}
    for f in section.fields:
        if f.when is not None and values[f.when[0]] not in f.when[1]:
            continue
        here = prefix + f.key
        value = raw.get(f.key, f.default)
        if value is REQUIRED:
            raise ScenarioError(f"{here}: must be given")
        if value is not None or f.default is not None:  # null leaves an optional entry out
            value = _value(f, value, here, f.shape, values, dims)
        values[f.key] = value
        if isinstance(value, BrunovskyDims):
            dims = value
    try:
        return section.build(**values)
    except ScenarioError as exc:  # a condition across entries, such as a box's lower <= upper
        raise ScenarioError(f"{path}: {exc}") from exc


def parse_scenario(text: str) -> ScenarioConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"line {exc.lineno}: {exc.msg}") from exc
    cfg = walk(SCENARIO, raw)
    if [a.id for a in cfg.agents] != list(range(1, cfg.dims.followers + 1)):
        raise ScenarioError("agents: ids must be 1..N in order")
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


def read_text(path: str | Path) -> str:
    """The file's text; a file that is not UTF-8 raises a ``ScenarioError`` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def load_scenario(path: str | Path) -> ScenarioConfig:
    return parse_scenario(read_text(path))


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


def build_all_models(cfg: ScenarioConfig) -> list[AgentModel]:
    """Agent 0 is the leader; 1..N are followers."""
    models = []
    for agent_id, section in enumerate((cfg.leader, *cfg.agents)):
        drift = DriftTable.compile(cfg.dims, section.dynamics.outer_gain, section.dynamics.axes)
        # the declared disturbance bound is verified at certify time: exactly for a
        # ball, on sampled norms for a sinusoid (equal-frequency axes can stay below
        # the amplitude hypot)
        models.append(AgentModel(
            id=agent_id,
            drift=drift,
            drift_lipschitz=section.lipschitz,
            disturbance=section.disturbance,
            disturbance_bound=section.disturbance_bound,
            operating_box=section.operating_box,
        ))
    return models


def initial_states(cfg: ScenarioConfig) -> np.ndarray:
    """(N+1, nd) array of initial chain states, leader first."""
    return np.asarray((cfg.initial_leader,) + cfg.initial_followers, dtype=float)
