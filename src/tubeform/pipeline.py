"""End-to-end certification of a scenario and the certificate file format."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .barrier import EcbfCoefficients
from .certify import (
    LeaderCertificate,
    build_lyapunov_pair,
    declared_leader_certificate,
    effective_disturbance,
    error_box_tightening,
    follower_radius,
    baseline_radius,
    check_disturbance_bound,
    check_lipschitz,
    input_tightening,
    leader_radius,
    synth_gain,
)
from .errors import NotHurwitz, ScenarioError
from .graph import CommGraph, GlobalBoundCertificate, global_bound
from .models import DriftTable, LyapunovPair
from .protocol import protected_pairs
from .scenario import ScenarioConfig, build_graph, read_text

SPOT_CHECK_SEED = 0x5EED
RESIDUAL_FLOOR = 1e-12  # two lyapunov_residual values (round-off-sized norms) at most this are equal
_ABSENT = object()  # the side of an entry pair that lacks the entry


class FollowerTubes(NamedTuple):
    """The followers' certified quantities, one (N,) array each, named by their ``cert.json`` keys.

    NaN marks a baseline radius whose Lipschitz condition fails (``null`` in the file).
    """

    id: np.ndarray
    hops: np.ndarray
    w_bar_used: np.ndarray  # physical bound plus relay staleness allowance
    w_eff: np.ndarray
    r: np.ndarray
    r_ball: np.ndarray
    margin_radius: np.ndarray  # deviation radius used for eCBF margins/broadcast
    margin_mode: np.ndarray  # "certified" or "declared"
    input_eta: np.ndarray
    input_bound_tightened: np.ndarray  # tightened per-axis bound on the nominal input
    baseline_r: np.ndarray
    baseline_r_ball: np.ndarray
    zbar: np.ndarray


@dataclass(frozen=True)
class CertificationResult:
    """The certificate and the design objects a run of the same scenario uses."""

    scenario_name: str
    scenario_sha256: str
    leader: LeaderCertificate
    pair: LyapunovPair  # every follower's gain and Lyapunov pair
    tubes: FollowerTubes
    bound_cert: GlobalBoundCertificate
    drifts: tuple[DriftTable, ...]  # each agent's compiled drift, leader first
    graph: CommGraph
    kappa: EcbfCoefficients
    protected: np.ndarray  # (N(N-1), 2) follower indices (i, j): i keeps an eCBF row against j


def leader_linearized_pair(cfg: ScenarioConfig, leader_drift: DriftTable):
    """Lyapunov pair for the leader's nominal-deviation system.

    The leader is uncontrolled, so the pair comes from linearizing the
    leader drift about the operating-box center (plus an optional declared
    stabilizing component). The shipped leaders carry their own stabilizing
    linear terms.
    """
    gain = -leader_drift.jacobian(cfg.leader.operating_box.center)
    if cfg.leader.tube.stabilizer is not None:
        gain = gain + np.asarray(cfg.leader.tube.stabilizer, dtype=float)
    try:
        return build_lyapunov_pair(cfg.dims, gain)
    except NotHurwitz as exc:
        raise NotHurwitz(
            "leader linearization is not Hurwitz; declare a stabilizing "
            "component in leader.tube.stabilizer"
        ) from exc


def certify_scenario(cfg: ScenarioConfig, spot_checks: bool = True) -> CertificationResult:
    """Run the full offline design stage for a scenario."""
    sections = (cfg.leader, *cfg.agents)  # agent 0 is the leader; 1..N are followers
    drifts = tuple(DriftTable.compile(cfg.dims, s.dynamics.outer_gain, s.dynamics.axes) for s in sections)
    g = build_graph(cfg)
    hops = g.hops  # raises GraphNotRooted

    if spot_checks:
        rng = np.random.default_rng(SPOT_CHECK_SEED)
        for agent, (section, drift) in enumerate(zip(sections, drifts)):
            check_disturbance_bound(agent, section, cfg.sim.t_end)
            check_lipschitz(agent, section, drift, rng)

    leader_pair = leader_linearized_pair(cfg, drifts[0])
    if cfg.leader.tube.mode == "declared":
        leader_cert = declared_leader_certificate(leader_pair, cfg.leader.tube.r_ball)
    else:
        leader_cert = leader_radius(
            leader_pair, cfg.leader.disturbance_bound, cfg.leader.tube.residual_lipschitz
        )

    pair = synth_gain(cfg.dims, cfg.gains)
    kappa = EcbfCoefficients.from_poles(cfg.barriers.kappa_poles)  # raises NotHurwitz
    l0 = cfg.leader.lipschitz
    ids = np.array([follower.id for follower in cfg.agents])
    bounds = np.array([follower.disturbance_bound for follower in cfg.agents])
    w_used = bounds + l0 * hops * cfg.sim.ts * cfg.leader.rate_bound
    w_eff = effective_disturbance(w_used, l0, leader_cert.r_ball0)
    r, r_ball = follower_radius(pair, w_eff)
    base = np.array(  # None, where the Lipschitz condition fails, becomes NaN
        [baseline_radius(pair, w, f.lipschitz) for w, f in zip(w_used, cfg.agents)],
        dtype=float,
    )
    tightened, eta = input_tightening(pair, r, cfg.ocp.input_bound, ids)
    declared = np.array([follower.margin_radius for follower in cfg.agents], dtype=float)
    margin = np.where(np.isnan(declared), r_ball, declared)
    error_box_tightening(cfg.ocp.error_box, margin, ids)
    bound_cert = global_bound(g, margin, leader_cert.r_ball0)
    tubes = FollowerTubes(
        id=ids,
        hops=hops,
        w_bar_used=w_used,
        w_eff=w_eff,
        r=r,
        r_ball=r_ball,
        margin_radius=margin,
        margin_mode=np.where(np.isnan(declared), "certified", "declared"),
        input_eta=eta,
        input_bound_tightened=tightened,
        baseline_r=base,
        baseline_r_ball=base / float(np.sqrt(pair.lambda_min_p)),
        zbar=bound_cert.zbars,
    )
    return CertificationResult(
        scenario_name=cfg.name,
        scenario_sha256=cfg.sha256,
        leader=leader_cert,
        pair=pair,
        tubes=tubes,
        bound_cert=bound_cert,
        drifts=drifts,
        graph=g,
        kappa=kappa,
        protected=protected_pairs(len(cfg.agents)),
    )


def _matrix(m: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in np.asarray(m)]


def certificate_to_dict(res: CertificationResult) -> dict:
    pair = res.pair
    shared = {
        "lyapunov_residual": pair.residual(),
        "lambda_min_p": pair.lambda_min_p,
        "lambda_max_p": pair.lambda_max_p,
        "lambda_min_q": pair.lambda_min_q,
        "gain": _matrix(pair.gain),
        "p": _matrix(pair.p),
        "q": _matrix(pair.q),
    }
    # one column per field; NaN (an infeasible baseline radius) is written as null
    columns = [[None if v != v else v for v in field.tolist()] for field in res.tubes]
    return {
        "scenario_name": res.scenario_name,
        "scenario_sha256": res.scenario_sha256,
        "sv_min": res.bound_cert.sv_min,
        "formation_error_bound": res.bound_cert.bound,
        "protected_pairs": res.tubes.id[res.protected].tolist(),
        "leader": {
            "mode": res.leader.mode,
            "rho0": res.leader.rho0,
            "r_ball": res.leader.r_ball0,
            "lyapunov_residual": res.leader.lyap.residual(),
            "lambda_min_p": res.leader.lyap.lambda_min_p,
            "lambda_max_p": res.leader.lyap.lambda_max_p,
            "p": _matrix(res.leader.lyap.p),
        },
        "agents": [dict(zip(FollowerTubes._fields, row), **shared) for row in zip(*columns)],
    }


def write_certificate(path: str | Path, res: CertificationResult) -> None:
    Path(path).write_text(json.dumps(certificate_to_dict(res), indent=2) + "\n")


def load_certificate(path: str | Path) -> dict:
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"certificate: line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise ScenarioError("certificate: nested deeper than the JSON parser allows") from None
    if not isinstance(doc, dict):
        raise ScenarioError("certificate: expected a JSON object")
    return doc


def _pairs(got, want, path: tuple = ()) -> list:
    """(path, file entry, recertified entry) per entry of both documents, in document order: an
    object's unknown entries follow its known ones, and a missing object is named by its first entry."""
    if type(want) is list and want and type(want[0]) in (dict, list):  # objects or rows, keyed by index
        got, want = dict(enumerate(got)) if type(got) is list else {}, dict(enumerate(want))
    elif type(want) is not dict:
        return [(path, got, want)]
    got = got if type(got) is dict else {}
    return [e for k in want | got for e in _pairs(got.get(k, _ABSENT), want.get(k, _ABSENT), path + (k,))]


def _matches(got, want, floor: float) -> bool:
    """Equal strings or nulls, or numbers (no bools) or rows of them, each one equal, both in [0, floor]
    or a float within 1e-9 relative of a finite ``want``; an integer, which may not fit a float, is equal."""
    if not isinstance(want, (int, float, list)):  # a string, null or unknown entry
        return type(got) is type(want) and got == want
    gs, ws = (got, want) if type(want) is list else ([got], [want])
    return type(gs) is list and len(gs) == len(ws) and all(
        type(g) in (int, float) and (g == w or 0 <= g <= floor and 0 <= w <= floor)  # inf == inf
        or type(g) is float and abs(g - w) <= 1e-9 * abs(w) < np.inf
        for g, w in zip(gs, ws)
    )


def check_certificate(doc: dict, res: CertificationResult) -> None:
    """Raise ``ScenarioError`` naming the first entry in which ``doc`` is not ``res``'s certificate."""
    for path, g, w in _pairs(doc, certificate_to_dict(res)):
        if not _matches(g, w, RESIDUAL_FLOOR if path[-1] == "lyapunov_residual" else -1.0):
            name = "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path)[1:]
            fault = f"missing {name}" if g is _ABSENT else f"{name} is {g!r}, recertified {w!r}"
            raise ScenarioError(f"certificate: {f'unknown entry {name}' if w is _ABSENT else fault}")
