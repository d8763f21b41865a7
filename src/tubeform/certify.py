"""Offline certification: gains, tube radii, disturbance bounds, input tightening, spot checks.

The certified quantities follow the worst-case closed forms: one radius with a
Lipschitz feasibility condition (the leader tube, and the no-feedforward
baseline kept for comparison), the effective disturbance bound combining the
physical bound with the leader-deviation feedthrough, and the explicit
follower tube radius (no follower-Lipschitz condition). Scenario files may
additionally declare smaller margin radii; those are verified at runtime by
the simulator rather than proven offline (see decisions in the repo docs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyTightenedSet, InfeasibleLeaderTube, NotHurwitz, ScenarioError
from .linalg import eig_sym, is_hurwitz, solve_continuous_lyapunov, sym_inv_sqrt
from .models import BrunovskyDims, DriftTable, LyapunovPair, chain_matrices, sinusoid
from .scenario import FollowerConfig, GainSpec, LeaderConfig

DISTURBANCE_SAMPLES = 2000  # times at which a sinusoid's norm is checked against its bound
LIPSCHITZ_PAIRS = 200  # box pairs the Lipschitz spot check draws


def _pole_placement_gain(dims: BrunovskyDims, poles: tuple[float, ...]) -> np.ndarray:
    if any(p >= 0.0 for p in poles):
        raise NotHurwitz("pole placement requires strictly negative poles")
    coeffs = np.poly(np.asarray(poles, dtype=float))  # [1, c_{n-1}, ..., c_0]
    taps = coeffs[::-1][:-1]  # [c_0, c_1, ..., c_{n-1}]
    blocks = [tap * np.eye(dims.d) for tap in taps]
    return np.hstack(blocks)


def _kleinman_lqr(dims: BrunovskyDims, qw: float, rw: float) -> np.ndarray:
    a0, g = chain_matrices(dims)
    q = qw * np.eye(dims.nd)
    r_inv = np.eye(dims.d) / rw
    k = _pole_placement_gain(dims, tuple(float(-(i + 1)) for i in range(dims.n)))
    for _ in range(60):
        acl = a0 - g @ k
        p = solve_continuous_lyapunov(acl, q + k.T @ (rw * np.eye(dims.d)) @ k)
        k_next = r_inv @ g.T @ p
        if np.max(np.abs(k_next - k)) < 1e-12:
            return k_next
        k = k_next
    return k


def build_lyapunov_pair(
    dims: BrunovskyDims, gain: np.ndarray, lyapunov_q: np.ndarray | None = None
) -> LyapunovPair:
    """Assemble Acl = A0 - G K with its Lyapunov certificate."""
    a0, g = chain_matrices(dims)
    gain = np.asarray(gain, dtype=float)
    if gain.shape != (dims.d, dims.nd):
        raise DimensionMismatch(f"gain must have shape ({dims.d}, {dims.nd})")
    acl = a0 - g @ gain
    if not is_hurwitz(acl):
        raise NotHurwitz("closed-loop matrix is not Hurwitz")
    q = np.eye(dims.nd) if lyapunov_q is None else np.asarray(lyapunov_q, dtype=float)
    p = solve_continuous_lyapunov(acl, q)
    wp, _ = eig_sym(p)
    wq, _ = eig_sym(q)
    if wp[0] <= 0.0:
        raise NotHurwitz("Lyapunov solution is not positive definite")
    return LyapunovPair(
        gain=gain,
        acl=acl,
        p=p,
        q=q,
        lambda_min_p=float(wp[0]),
        lambda_max_p=float(wp[-1]),
        lambda_min_q=float(wq[0]),
    )


def synth_gain(dims: BrunovskyDims, spec: GainSpec) -> LyapunovPair:
    """Synthesize the ancillary gain, returned as its Lyapunov pair."""
    if spec.mode == "poles":
        gain = _pole_placement_gain(dims, tuple(spec.poles))
    elif spec.mode == "explicit":
        gain = np.asarray(spec.matrix, dtype=float)
    else:  # "lqr"
        gain = _kleinman_lqr(dims, spec.state_weight, spec.input_weight)
    lyap_q = np.diag(spec.lyapunov_q) if spec.lyapunov_q is not None else None
    return build_lyapunov_pair(dims, gain, lyap_q)


@dataclass(frozen=True)
class LeaderCertificate:
    """Leader nominal-deviation certificate: Lyapunov pair plus ball radius."""

    lyap: LyapunovPair
    rho0: float
    r_ball0: float
    mode: str  # "declared" or "lyapunov"


def leader_radius(lyap: LyapunovPair, w0_bar: float, l0: float) -> LeaderCertificate:
    """Leader tube radius: ``baseline_radius`` at L0, as the leader has no feedforward."""
    rho0 = baseline_radius(lyap, w0_bar, l0)
    if rho0 is None:
        raise InfeasibleLeaderTube(
            f"need lmin(Q) > 2 lmax(P) L0: {lyap.lambda_min_q:.6g} <= "
            f"{2.0 * lyap.lambda_max_p * l0:.6g}"
        )
    return LeaderCertificate(
        lyap=lyap,
        rho0=rho0,
        r_ball0=rho0 / np.sqrt(lyap.lambda_min_p),
        mode="lyapunov",
    )


def declared_leader_certificate(lyap: LyapunovPair, r_ball0: float) -> LeaderCertificate:
    """Leader certificate with a scenario-declared ball radius (>= 0, checked at parse)."""
    return LeaderCertificate(
        lyap=lyap,
        rho0=r_ball0 * float(np.sqrt(lyap.lambda_min_p)),
        r_ball0=r_ball0,
        mode="declared",
    )


def effective_disturbance(w_bar: float, l0: float, r0_ball: float) -> float:
    """w_eff = w_bar + L0 * r0_ball."""
    return w_bar + l0 * r0_ball


def follower_radius(lyap: LyapunovPair, w_eff: float) -> tuple[float, float]:
    """Explicit tube radius under feedforward cancellation.

    r = 2 lmax(P)^{3/2} ||G|| w_eff / lmin(Q); no follower-Lipschitz
    condition, so this always succeeds for a Hurwitz closed loop.
    """
    r = 2.0 * lyap.lambda_max_p**1.5 * w_eff / lyap.lambda_min_q
    return r, r / float(np.sqrt(lyap.lambda_min_p))


def baseline_radius(lyap: LyapunovPair, w_bar: float, lf: float) -> float | None:
    """Tube radius under a Lipschitz drift with no feedforward to cancel it.

    rho = 2 lmax(P) ||G|| w / (lmin(Q) - 2 lmax(P) ||G|| L), with ||G|| = 1 for
    the chain selector; None when the denominator is not positive. It serves
    the leader tube and the followers' no-feedforward baseline.
    """
    denom = lyap.lambda_min_q - 2.0 * lf * lyap.lambda_max_p
    if denom <= 0.0:
        return None
    return 2.0 * w_bar * lyap.lambda_max_p / denom


def check_disturbance_bound(agent: int, section: LeaderConfig | FollowerConfig, t_end: float) -> None:
    """Declared bound >= sup |w|: exact for a ball, sampled for sinusoids (equal-frequency axes
    can stay below the amplitude hypot)."""
    dist = section.disturbance
    if dist.kind == "ball":
        # the draws come arbitrarily close to the radius
        worst, slack = dist.bound, 0.0
    else:
        times = np.linspace(0.0, t_end, DISTURBANCE_SAMPLES)[:, None]
        w = sinusoid(dist.amp, dist.freq, dist.phase, times)
        worst = float(np.max(np.linalg.norm(w, axis=1)))
        slack = 1e-12
    if worst > section.disturbance_bound + slack:
        raise ScenarioError(
            f"agent {agent}: disturbance reaches {worst:.6g}, "
            f"declared bound {section.disturbance_bound:.6g}"
        )


def check_lipschitz(
    agent: int, section: LeaderConfig | FollowerConfig, drift: DriftTable, rng: np.random.Generator
) -> None:
    """Spot-check |f(a) - f(b)| <= L |a - b| on sampled operating-box pairs (not a proof)."""
    a = section.operating_box.sample(rng, LIPSCHITZ_PAIRS)
    b = section.operating_box.sample(rng, LIPSCHITZ_PAIRS)
    gap = np.linalg.norm(a - b, axis=1)
    diff = np.linalg.norm(drift.value(a, 0.0) - drift.value(b, 0.0), axis=1)
    bad = (gap >= 1e-12) & (diff > section.lipschitz * gap * (1.0 + 1e-9) + 1e-12)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ScenarioError(
            f"agent {agent}: drift violates declared Lipschitz bound "
            f"({diff[i] / gap[i]:.6g} > {section.lipschitz:.6g})"
        )


def input_margin(lyap: LyapunovPair, r: float) -> float:
    """eta = r * smax(K P^{-1/2}), the ancillary feedback's worst-case draw."""
    m = lyap.gain @ sym_inv_sqrt(lyap.p)
    w, _ = eig_sym(m @ m.T)
    return r * float(np.sqrt(max(0.0, w[-1])))


def input_tightening(lyap: LyapunovPair, r: float | np.ndarray, u_max: float, ids: np.ndarray) -> tuple:
    """Per-axis tightened input bound u_max - eta for a radius or an array of radii, agent ``ids``.

    Raises naming the first agent whose bound is empty.
    """
    eta = input_margin(lyap, r)
    short = np.flatnonzero(u_max <= np.ravel(eta))
    if short.size:
        raise EmptyTightenedSet(
            f"ocp.input_bound {u_max:.6g} does not exceed agent {np.ravel(ids)[short[0]]}'s "
            f"ancillary margin {np.ravel(eta)[short[0]]:.6g}"
        )
    return u_max - eta, eta


def error_box_tightening(box, margins: np.ndarray, ids: np.ndarray):
    """(N, nd) error boxes: the declared box shrunk by each agent's eCBF margin.

    Raises naming the first agent, and its first entry, whose box is empty.
    Without a declared box every agent's box is None.
    """
    if box is None:
        return [None] * len(margins)
    tightened = np.asarray(box, dtype=float) - margins[:, None]
    empty = np.argwhere(tightened <= 0.0)
    if empty.size:
        i, j = empty[0]
        raise EmptyTightenedSet(
            f"ocp.error_box[{j}] {box[j]:.6g} does not exceed "
            f"agent {ids[i]}'s margin {margins[i]:.6g}"
        )
    return tightened
