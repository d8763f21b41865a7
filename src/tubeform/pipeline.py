"""End-to-end certification of a scenario and the certificate file format."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .barrier import EcbfCoefficients
from .certify import (
    LeaderCertificate,
    TubeCertificate,
    build_lyapunov_pair,
    declared_leader_certificate,
    effective_disturbance,
    follower_radius,
    baseline_radius,
    input_tightening,
    leader_radius,
    synth_gain,
)
from .errors import NotHurwitz, ScenarioError
from .graph import CommGraph, GlobalBoundCertificate, global_bound
from .models import AgentModel
from .scenario import ScenarioConfig, build_all_models, build_graph, read_text

SPOT_CHECK_SEED = 0x5EED


@dataclass(frozen=True)
class CertificationResult:
    """The certificate and the design objects a run of the same scenario uses."""

    scenario_name: str
    scenario_sha256: str
    leader: LeaderCertificate
    tubes: tuple[TubeCertificate, ...]
    bound_cert: GlobalBoundCertificate
    models: tuple[AgentModel, ...]
    graph: CommGraph
    kappa: EcbfCoefficients


def leader_linearized_pair(cfg: ScenarioConfig, leader_model: AgentModel):
    """Lyapunov pair for the leader's nominal-deviation system.

    The leader is uncontrolled, so the pair comes from linearizing the
    leader drift about the operating-box center (plus an optional declared
    stabilizing component). The shipped leaders carry their own stabilizing
    linear terms.
    """
    gain = -leader_model.drift.jacobian(leader_model.operating_box.center)
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
    models = build_all_models(cfg)
    g = build_graph(cfg)
    depths = g.relay_tree[1]  # raises GraphNotRooted

    if spot_checks:
        rng = np.random.default_rng(SPOT_CHECK_SEED)
        for model in models:
            model.check_disturbance_bound(cfg.sim.t_end)
            model.check_lipschitz(rng)

    leader_model = models[0]
    leader_pair = leader_linearized_pair(cfg, leader_model)
    if cfg.leader.tube.mode == "declared":
        leader_cert = declared_leader_certificate(leader_pair, cfg.leader.tube.r_ball)
    else:
        leader_cert = leader_radius(
            leader_pair, leader_model.disturbance_bound, cfg.leader.tube.residual_lipschitz
        )

    _, pair = synth_gain(cfg.dims, cfg.gains)
    kappa = EcbfCoefficients.from_poles(cfg.barriers.kappa_poles)  # raises NotHurwitz
    l0 = cfg.leader.lipschitz
    ts = cfg.sim.ts
    tubes = []
    for follower, model in zip(cfg.agents, models[1:]):
        hops = int(depths[follower.id - 1])
        w_used = model.disturbance_bound + l0 * hops * ts * cfg.leader.rate_bound
        w_eff = effective_disturbance(w_used, l0, leader_cert.r_ball0)
        r, r_ball = follower_radius(pair, w_eff)
        base = baseline_radius(pair, w_used, model.drift_lipschitz)
        tightened, eta = input_tightening(pair, r, cfg.ocp.input_bound)
        margin = follower.margin_radius
        tubes.append(
            TubeCertificate(
                agent=follower.id,
                lyap=pair,
                w_bar_used=w_used,
                w_eff=w_eff,
                r=r,
                r_ball=r_ball,
                input_eta=eta,
                input_bound=tightened,
                margin_radius=r_ball if margin is None else margin,
                margin_mode="certified" if margin is None else "declared",
                baseline_r=base,
                baseline_r_ball=(
                    None if base is None else base / float(np.sqrt(pair.lambda_min_p))
                ),
                hops=hops,
            )
        )

    radii = [t.margin_radius for t in tubes]
    bound_cert = global_bound(g, radii, leader_cert.r_ball0)
    return CertificationResult(
        scenario_name=cfg.name,
        scenario_sha256=cfg.sha256,
        leader=leader_cert,
        tubes=tuple(tubes),
        bound_cert=bound_cert,
        models=tuple(models),
        graph=g,
        kappa=kappa,
    )


def _matrix(m: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in np.asarray(m)]


def certificate_to_dict(res: CertificationResult) -> dict:
    return {
        "scenario_name": res.scenario_name,
        "scenario_sha256": res.scenario_sha256,
        "sv_min": res.bound_cert.sv_min,
        "formation_error_bound": res.bound_cert.bound,
        "leader": {
            "mode": res.leader.mode,
            "rho0": res.leader.rho0,
            "r_ball": res.leader.r_ball0,
            "lyapunov_residual": res.leader.lyap.residual(),
            "lambda_min_p": res.leader.lyap.lambda_min_p,
            "lambda_max_p": res.leader.lyap.lambda_max_p,
            "p": _matrix(res.leader.lyap.p),
        },
        "agents": [
            {
                "id": t.agent,
                "hops": t.hops,
                "w_bar_used": t.w_bar_used,
                "w_eff": t.w_eff,
                "r": t.r,
                "r_ball": t.r_ball,
                "margin_radius": t.margin_radius,
                "margin_mode": t.margin_mode,
                "input_eta": t.input_eta,
                "input_bound_tightened": t.input_bound,
                "baseline_r": t.baseline_r,
                "baseline_r_ball": t.baseline_r_ball,
                "zbar": float(res.bound_cert.zbars[t.agent - 1]),
                "lyapunov_residual": t.lyap.residual(),
                "lambda_min_p": t.lyap.lambda_min_p,
                "lambda_max_p": t.lyap.lambda_max_p,
                "lambda_min_q": t.lyap.lambda_min_q,
                "gain": _matrix(t.lyap.gain),
                "p": _matrix(t.lyap.p),
                "q": _matrix(t.lyap.q),
            }
            for t in res.tubes
        ],
    }


def write_certificate(path: str | Path, res: CertificationResult) -> None:
    Path(path).write_text(json.dumps(certificate_to_dict(res), indent=2) + "\n")


def load_certificate(path: str | Path) -> dict:
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"certificate: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("certificate: expected a JSON object")
    return doc


def _matches(got, expected) -> bool:
    """Equal-shape JSON numbers (not bools) within 1e-9 relative, or both null."""
    if expected is None or got is None:
        return got is expected
    try:
        arr = np.asarray(got)
    except ValueError:  # ragged nested lists
        return False
    numeric = arr.dtype.kind in "if" and arr.shape == np.shape(expected)
    return numeric and np.allclose(arr, expected, rtol=1e-9, atol=0.0)


def check_certificate(doc: dict, res: CertificationResult) -> None:
    """Raise ``ScenarioError`` naming the first field the run consumes that ``res`` does not match.

    The run uses the recertified values, so the file must agree with them
    (entrywise within 1e-9 relative).
    """
    want = certificate_to_dict(res)
    keys = ("r", "margin_radius", "input_bound_tightened", "baseline_r_ball", "gain", "p")
    paths = [("formation_error_bound",), ("leader", "r_ball")]
    paths += [("agents", i, key) for i in range(len(res.tubes)) for key in keys]
    for path in paths:
        name = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]
        got, expected = doc, want
        try:
            for key in path:
                got, expected = got[key], expected[key]
        except (KeyError, IndexError, TypeError):
            raise ScenarioError(f"certificate: missing {name}") from None
        if not _matches(got, expected):
            raise ScenarioError(f"certificate: {name} is {got!r}, recertified {expected!r}")
