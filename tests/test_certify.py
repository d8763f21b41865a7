import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from tubeform.certify import (
    baseline_radius,
    build_lyapunov_pair,
    check_disturbance_bound,
    check_lipschitz,
    declared_leader_certificate,
    effective_disturbance,
    follower_radius,
    input_margin,
    input_tightening,
    leader_radius,
    synth_gain,
)
from tubeform.errors import EmptyTightenedSet, InfeasibleLeaderTube, NotHurwitz, ScenarioError
from tubeform.linalg import sym_inv_sqrt
from tubeform.models import (
    BALL_BLOCK,
    Box,
    BrunovskyDims,
    DisturbanceConfig,
    DriftTable,
    DriftTerm,
    LyapunovPair,
)
from tubeform.pipeline import certificate_to_dict, certify_scenario
from tubeform.scenario import DynamicsConfig, FollowerConfig, GainSpec, parse_scenario

from oracles import agent_disturbance

PAPER = Path(__file__).resolve().parents[1] / "scenarios" / "paper_scenario.json"


def scalar_pair(lmax_p=1.0, lmin_p=1.0, lmin_q=2.0):
    """Hand-built pair for formula substitution tests."""
    return LyapunovPair(
        gain=np.array([[1.0]]),
        acl=np.array([[-1.0]]),
        p=np.diag([lmax_p]),
        q=np.diag([lmin_q]),
        lambda_min_p=lmin_p,
        lambda_max_p=lmax_p,
        lambda_min_q=lmin_q,
    )


def paper_scale_pair(poles=(-2.0, -3.0, -4.0)):
    dims = BrunovskyDims(n=3, d=2, followers=1)
    pair = synth_gain(dims, GainSpec(mode="poles", poles=poles))
    return dims, pair


class TestSynthGain:
    def test_first_order(self):
        dims = BrunovskyDims(n=1, d=1, followers=1)
        pair = synth_gain(dims, GainSpec(mode="poles", poles=(-2.0,)))
        assert np.allclose(pair.gain, [[2.0]])
        assert np.allclose(pair.acl, [[-2.0]])

    def test_second_order_vieta(self):
        dims = BrunovskyDims(n=2, d=1, followers=1)
        gain = synth_gain(dims, GainSpec(mode="poles", poles=(-1.0, -2.0))).gain
        assert np.allclose(gain, [[2.0, 3.0]])  # s^2 + 3 s + 2

    def test_paper_scale_eigenvalues(self):
        dims, pair = paper_scale_pair()
        eigs = np.sort(np.linalg.eigvals(pair.acl).real)
        assert np.allclose(np.unique(np.round(eigs, 8)), [-4.0, -3.0, -2.0], atol=1e-8)

    def test_lyapunov_invariants(self):
        _, pair = paper_scale_pair()
        assert pair.residual() <= 1e-9 * np.linalg.norm(pair.q, "fro")
        assert np.max(np.abs(pair.p - pair.p.T)) < 1e-12
        assert pair.lambda_min_p > 0.0
        assert np.max(np.linalg.eigvals(pair.acl).real) < 0.0

    def test_explicit_gain_not_hurwitz(self):
        dims = BrunovskyDims(n=2, d=1, followers=1)
        with pytest.raises(NotHurwitz):
            synth_gain(dims, GainSpec(mode="explicit", matrix=((-1.0, 0.0),)))

    def test_lqr_mode_stabilizes(self):
        dims = BrunovskyDims(n=3, d=2, followers=1)
        pair = synth_gain(dims, GainSpec(mode="lqr", state_weight=1.0, input_weight=0.5))
        assert np.max(np.linalg.eigvals(pair.acl).real) < 0.0
        # Kleinman fixed point satisfies the gain equation K = R^-1 G' P_lqr
        assert pair.gain.shape == (2, 6)


class TestLeaderRadius:
    def test_substitution_example(self):
        cert = leader_radius(scalar_pair(), w0_bar=0.5, l0=0.5)
        assert cert.rho0 == pytest.approx(1.0, abs=1e-12)
        assert cert.r_ball0 == pytest.approx(1.0, abs=1e-12)

    def test_zero_disturbance(self):
        assert leader_radius(scalar_pair(), 0.0, 0.5).rho0 == 0.0

    def test_limit_probe(self):
        # L0 at 0.999x the feasibility limit blows the radius past 1e3
        pair = scalar_pair()
        limit = pair.lambda_min_q / (2.0 * pair.lambda_max_p)
        cert = leader_radius(pair, w0_bar=2.0, l0=0.999 * limit)
        assert cert.rho0 > 1e3

    def test_infeasible(self):
        with pytest.raises(InfeasibleLeaderTube):
            leader_radius(scalar_pair(), 0.5, 1.0)

    def test_declared_mode(self):
        cert = declared_leader_certificate(scalar_pair(), 0.04)
        assert cert.mode == "declared"
        assert cert.r_ball0 == 0.04
        assert cert.rho0 == pytest.approx(0.04 * np.sqrt(1.0))


class TestEffectiveDisturbance:
    def test_substitution(self):
        assert effective_disturbance(0.1, 2.0, 0.05) == pytest.approx(0.2, abs=1e-12)

    def test_exact_leader_tracking(self):
        assert effective_disturbance(0.37, 11.0, 0.0) == 0.37

    def test_all_zero(self):
        assert effective_disturbance(0.0, 0.0, 123.0) == 0.0


class TestFollowerRadius:
    def test_substitution(self):
        r, r_ball = follower_radius(scalar_pair(), 0.1)
        assert r == pytest.approx(0.1, abs=1e-12)
        assert r_ball == pytest.approx(0.1, abs=1e-12)

    def test_zero_disturbance(self):
        assert follower_radius(scalar_pair(), 0.0) == (0.0, 0.0)

    def test_ball_radius_consistency(self):
        _, pair = paper_scale_pair()
        r, r_ball = follower_radius(pair, 0.3)
        assert abs(r_ball * np.sqrt(pair.lambda_min_p) - r) <= 1e-12 * max(1.0, r)

    def test_linear_in_disturbance(self):
        _, pair = paper_scale_pair()
        r1, _ = follower_radius(pair, 0.2)
        r2, _ = follower_radius(pair, 0.4)
        assert r2 == pytest.approx(2.0 * r1, rel=1e-14)


class TestBaselineRadius:
    def test_zero_lipschitz(self):
        assert baseline_radius(scalar_pair(), 0.1, 0.0) == pytest.approx(0.1)

    def test_boundary_infeasible(self):
        assert baseline_radius(scalar_pair(), 0.1, 1.0) is None

    def test_sweep_divergence_vs_feedforward(self):
        """Baseline grows without bound toward the Lipschitz limit while the
        feedforward radius does not depend on the follower Lipschitz at all."""
        _, pair = paper_scale_pair()
        limit = pair.lambda_min_q / (2.0 * pair.lambda_max_p)
        w = 0.25
        r_ff, _ = follower_radius(pair, w)
        previous = 0.0
        for frac in np.linspace(0.0, 0.99, 10):
            base = baseline_radius(pair, w, frac * limit)
            assert base is not None
            assert base > previous - 1e-15
            previous = base
        assert baseline_radius(pair, w, 0.999 * limit) > 100.0 * r_ff
        assert baseline_radius(pair, w, 1.01 * limit) is None


class TestInputTightening:
    def test_zero_radius_unchanged(self):
        _, pair = paper_scale_pair()
        bound, eta = input_tightening(pair, 0.0, 1.0, [1])
        assert bound == 1.0 and eta == 0.0

    def test_identity_case(self):
        dims = BrunovskyDims(n=1, d=2, followers=1)
        pair = build_lyapunov_pair(dims, np.eye(2), np.eye(2) * 2.0)
        # K = I, P = I (2 a P = -Q with a = -1, Q = 2I), smax(K P^-1/2) = 1
        bound, eta = input_tightening(pair, 0.2, 1.0, [1])
        assert eta == pytest.approx(0.2, abs=1e-12)
        assert bound == pytest.approx(0.8, abs=1e-12)

    def test_empty_set(self):
        """The refusal names the entry, the first agent whose bound is empty, and both values."""
        _, pair = paper_scale_pair()
        with pytest.raises(EmptyTightenedSet, match=r"^ocp\.input_bound 1e-06 does not exceed agent 3's "):
            input_tightening(pair, np.array([0.0, 1.0, 2.0]), 1e-6, np.array([2, 3, 4]))

    def test_monte_carlo_support_oracle(self):
        """eta equals the max of ||K z|| over the tube boundary (sampled)."""
        rng = np.random.default_rng(5)
        _, pair = paper_scale_pair()
        r = 0.37
        eta = input_margin(pair, r)
        p_inv_sqrt = sym_inv_sqrt(pair.p)
        u = rng.normal(size=(100_000, 6))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        z = r * (u @ p_inv_sqrt.T)
        sampled = np.max(np.linalg.norm(z @ pair.gain.T, axis=1))
        assert sampled <= eta * (1.0 + 1e-9)
        assert sampled >= 0.98 * eta


class TestSpotChecks:
    """The certify-time checks of one agent's declared disturbance bound and Lipschitz constant."""

    DIMS = BrunovskyDims(n=3, d=2, followers=5)

    def make(self, bound=0.25, lipschitz=4.0):
        """A follower section with drift -(x3 + 0.49 x1 + 1.12 x2 + 0.12 x1^3 - 0.25 tanh(0.6 x1))
        per axis, and its compiled table."""
        axes = tuple(
            (
                DriftTerm(form="state", coeff=1.0, order=3, axis=ax),
                DriftTerm(form="state", coeff=0.49, order=1, axis=ax),
                DriftTerm(form="state", coeff=1.12, order=2, axis=ax),
                DriftTerm(form="cubic", coeff=0.12, order=1, weights=(1.0, 0.0) if ax == 0 else (0.0, 1.0)),
                DriftTerm(form="tanh", coeff=-0.25, scale=0.6, order=1, axis=ax),
            )
            for ax in range(2)
        )
        section = FollowerConfig(
            id=1,
            dynamics=DynamicsConfig(outer_gain=1.0, axes=axes),
            disturbance=DisturbanceConfig(
                "sinusoid", amp=(0.2, 0.15), freq=(0.9, 1.1), phase=(0.0, math.pi / 7)
            ),
            disturbance_bound=bound,
            lipschitz=lipschitz,
            operating_box=Box(lower=(-1.0,) * 6, upper=(1.0,) * 6),
        )
        return section, DriftTable.compile(self.DIMS, 1.0, axes)

    def test_disturbance_bound_holds(self):
        check_disturbance_bound(1, self.make()[0], 30.0)

    def test_disturbance_bound_violated(self):
        with pytest.raises(ScenarioError):
            check_disturbance_bound(1, self.make(bound=0.1)[0], 30.0)

    def test_ball_disturbance_bound_is_exact(self):
        """A bound just below the ball radius fails, though no draw of any seed reaches it."""
        ball = DisturbanceConfig("ball", bound=0.2)
        section = dataclasses.replace(self.make(bound=0.2)[0], disturbance=ball)
        check_disturbance_bound(1, section, 30.0)
        tight = dataclasses.replace(section, disturbance_bound=0.2 * (1.0 - 1e-6))
        for seed in range(5):
            draws = [
                agent_disturbance(ball, 2, 1, seed, 0.01, 0.01 * j, block=BALL_BLOCK)
                for j in range(3000)
            ]
            assert np.max(np.linalg.norm(draws, axis=1)) < tight.disturbance_bound
        with pytest.raises(ScenarioError, match="agent 1"):
            check_disturbance_bound(1, tight, 30.0)

    def test_lipschitz_spot_check(self):
        rng = np.random.default_rng(0)
        check_lipschitz(1, *self.make(), rng)
        with pytest.raises(ScenarioError):
            check_lipschitz(1, *self.make(lipschitz=0.2), np.random.default_rng(0))


class TestRpiContainment:
    """Monte-Carlo robust-invariance check of the certified ellipsoid."""

    def simulate(self, pair, w_eff, r, n_starts=20, t_end=5.0, h=1e-3, seed=0):
        dims = BrunovskyDims(n=3, d=2, followers=1)
        rng = np.random.default_rng(seed)
        p_inv_sqrt = sym_inv_sqrt(pair.p)
        dirs = rng.normal(size=(6, n_starts))
        dirs /= np.linalg.norm(dirs, axis=0, keepdims=True)
        x = r * (p_inv_sqrt @ dirs)  # columns on the boundary
        g_sel = np.zeros((6, 2))
        g_sel[4:, :] = np.eye(2)
        acl = pair.acl
        worst = 0.0
        steps = int(t_end / h)
        for step in range(steps):
            pd = pair.p @ x
            top = g_sel.T @ pd
            norms = np.linalg.norm(top, axis=0, keepdims=True)
            adv = np.where(norms > 1e-12, top / np.maximum(norms, 1e-300), 0.0)
            d = w_eff * adv
            if step % 2:  # alternate adversarial and random bounded disturbance
                u = rng.normal(size=(2, x.shape[1]))
                u /= np.linalg.norm(u, axis=0, keepdims=True)
                d = w_eff * u * rng.random(x.shape[1]) ** 0.5
            def f(state):
                return acl @ state + g_sel @ d
            k1 = f(x)
            k2 = f(x + 0.5 * h * k1)
            k3 = f(x + 0.5 * h * k2)
            k4 = f(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            v = np.einsum("ij,ik,kj->j", x, pair.p, x)
            worst = max(worst, float(np.max(v)))
        return worst

    def test_tube_is_invariant(self):
        _, pair = paper_scale_pair()
        w_eff = 0.3
        r, _ = follower_radius(pair, w_eff)
        worst = self.simulate(pair, w_eff, r)
        assert worst <= r**2 * (1.0 + 1e-6)


def per_agent_entries(cfg, cert):
    """Each follower's certificate entries from the scalar formulas, one agent at a time."""
    depths = cert.graph.hops
    l0, pair = cfg.leader.lipschitz, cert.pair
    entries = []
    for follower in cfg.agents:
        hops = int(depths[follower.id - 1])
        w_used = follower.disturbance_bound + l0 * hops * cfg.sim.ts * cfg.leader.rate_bound
        w_eff = effective_disturbance(w_used, l0, cert.leader.r_ball0)
        r, r_ball = follower_radius(pair, w_eff)
        base = baseline_radius(pair, w_used, follower.lipschitz)
        tightened, eta = input_tightening(pair, r, cfg.ocp.input_bound, [follower.id])
        margin = follower.margin_radius
        entries.append({
            "id": follower.id,
            "hops": hops,
            "w_bar_used": w_used,
            "w_eff": w_eff,
            "r": r,
            "r_ball": r_ball,
            "margin_radius": r_ball if margin is None else margin,
            "margin_mode": "certified" if margin is None else "declared",
            "input_eta": eta,
            "input_bound_tightened": tightened,
            "baseline_r": base,
            "baseline_r_ball": None if base is None else base / float(np.sqrt(pair.lambda_min_p)),
        })
    return entries


class TestFollowerTubes:
    @pytest.mark.parametrize("certified_margin", [False, True])
    def test_record_matches_per_agent_formulas(self, certified_margin):
        """The record's arrays give the per-agent formulas' values bit for bit. On paper every
        baseline radius is infeasible (null) and the relay depths run 0..4; one copy leaves
        agent 2's margin to its certified radius."""
        doc = json.loads(PAPER.read_text())
        if certified_margin:
            del doc["agents"][1]["margin_radius"]
        cfg = parse_scenario(json.dumps(doc))
        cert = certify_scenario(cfg, spot_checks=False)
        written = certificate_to_dict(cert)["agents"]
        expected = per_agent_entries(cfg, cert)
        modes = [entry["margin_mode"] for entry in written]
        assert modes == ["declared", "certified" if certified_margin else "declared"] + ["declared"] * 3
        for got, want in zip(written, expected, strict=True):
            assert {key: got[key] for key in want} == want
