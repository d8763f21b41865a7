"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The closed-loop scenarios are executed once per session and shared.
"""

import time
from pathlib import Path

import numpy as np

from tubeform.certify import (
    baseline_radius,
    effective_disturbance,
    follower_radius,
    leader_radius,
    synth_gain,
)
from tubeform.linalg import sym_inv_sqrt
from tubeform.models import BrunovskyDims, LyapunovPair
from tubeform.pipeline import certify_scenario
from tubeform.qp import OPTIMAL, QpProblem, kkt_residuals, solve_qp
from tubeform.scenario import GainSpec, load_scenario
from tubeform.sim import trace_metrics

from oracles import barrier_value, dual_projected_gradient_qp, fd_derivative, random_feasible_qp

ROOT = Path(__file__).resolve().parents[1]
PAPER = ROOT / "scenarios" / "paper_scenario.json"


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def scalar_pair(lmax_p=1.0, lmin_p=1.0, lmin_q=2.0):
    return LyapunovPair(
        gain=np.array([[1.0]]),
        acl=np.array([[-1.0]]),
        p=np.diag([lmax_p]),
        q=np.diag([lmin_q]),
        lambda_min_p=lmin_p,
        lambda_max_p=lmax_p,
        lambda_min_q=lmin_q,
    )


def test_criterion_01_certification_math():
    start = time.perf_counter()
    cfg = load_scenario(PAPER)
    cert = certify_scenario(cfg)
    elapsed = time.perf_counter() - start

    pairs = [cert.leader.lyap] + [cert.pair] * len(cert.tubes.id)
    residual_ok = all(
        p.residual() <= 1e-9 * np.linalg.norm(p.q, "fro") for p in pairs
    )
    lead = leader_radius(scalar_pair(), w0_bar=0.5, l0=0.5)
    subs_ok = (
        abs(lead.rho0 - 1.0) < 1e-12
        and abs(effective_disturbance(0.1, 2.0, 0.05) - 0.2) < 1e-12
        and abs(follower_radius(scalar_pair(), 0.1)[0] - 0.1) < 1e-12
    )
    verdict(
        1,
        residual_ok and subs_ok and elapsed < 1.0,
        f"Lyapunov residuals for {len(pairs)} agents, closed-form radius "
        f"substitutions exact, certify in {elapsed * 1e3:.0f} ms",
    )


def _rpi_monte_carlo(pair, tubes, n_starts=100, t_end=20.0, h=1e-3):
    """Worst Lyapunov value per tube over boundary starts under adversarial and
    random bounded disturbances (held per step), integrated with RK4.

    The tubes share ``pair``, so all their starts are integrated as one stack of
    columns; each tube draws its own columns from a generator seeded with its agent.
    """
    rngs = [np.random.default_rng(agent) for agent in tubes.id.tolist()]
    nd = pair.p.shape[0]
    d = pair.gain.shape[0]
    p_inv_sqrt = sym_inv_sqrt(pair.p)
    starts = []
    for rng, r in zip(rngs, tubes.r.tolist()):
        dirs = rng.normal(size=(nd, n_starts))
        dirs /= np.linalg.norm(dirs, axis=0, keepdims=True)
        starts.append(r * (p_inv_sqrt @ dirs))
    x = np.hstack(starts)
    w_eff = np.repeat(tubes.w_eff, n_starts)
    g_sel = np.zeros((nd, d))
    g_sel[-d:, :] = np.eye(d)
    acl = pair.acl
    worst = np.zeros(len(rngs))
    for step in range(int(t_end / h)):
        top = g_sel.T @ (pair.p @ x)
        norms = np.linalg.norm(top, axis=0, keepdims=True)
        dist = w_eff * np.where(norms > 1e-12, top / np.maximum(norms, 1e-300), 0.0)
        if step % 2:
            draws = [(rng.normal(size=(d, n_starts)), rng.random(n_starts)) for rng in rngs]
            normals, uniforms = zip(*draws)
            u = np.hstack(normals)
            u /= np.linalg.norm(u, axis=0, keepdims=True)
            dist = w_eff * u * np.concatenate(uniforms) ** 0.5
        forced = g_sel @ dist
        k1 = acl @ x + forced
        k2 = acl @ (x + 0.5 * h * k1) + forced
        k3 = acl @ (x + 0.5 * h * k2) + forced
        k4 = acl @ (x + h * k3) + forced
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        v_vals = np.einsum("ij,ik,kj->j", x, pair.p, x)
        worst = np.maximum(worst, np.max(v_vals.reshape(len(rngs), n_starts), axis=1))
    return worst


def test_criterion_02_rpi_containment():
    cfg = load_scenario(PAPER)
    cert = certify_scenario(cfg, spot_checks=False)
    start = time.perf_counter()
    worst = _rpi_monte_carlo(cert.pair, cert.tubes)  # one gain design for every follower
    worst_ratio = max(w / r**2 for w, r in zip(worst, cert.tubes.r.tolist()))
    elapsed = time.perf_counter() - start
    verdict(
        2,
        worst_ratio <= 1.0 + 1e-6 and elapsed < 30.0,
        f"max V/r^2 = {worst_ratio:.9f} over 5 agents x 100 boundary starts, "
        f"adversarial+random disturbances, {elapsed:.1f} s",
    )


def test_criterion_03_lie_derivative_correctness():
    from tubeform.barrier import lie_derivatives

    dims = BrunovskyDims(n=3, d=2, followers=1)
    rng = np.random.default_rng(3)

    def chain_flow(x0, top, t):
        p, v, a = x0[0:2], x0[2:4], x0[4:6]
        return np.concatenate(
            [
                p + t * v + t**2 / 2 * a + t**3 / 6 * top,
                v + t * a + t**2 / 2 * top,
                a + t * top,
            ]
        )

    worst = 0.0
    center = np.array([0.3, -0.2, 0, 0, 0, 0])  # an obstacle is a constant chain
    for kind in ("obstacle", "pairwise"):
        checked = 0
        while checked < 50:
            xi = rng.normal(size=6) * 2.0
            xj = rng.normal(size=6) * 2.0 + np.array([4.0, 0, 0, 0, 0, 0])
            ui = rng.normal(size=2)
            uj = rng.normal(size=2)
            if kind == "obstacle":
                if np.linalg.norm(xi[:2] - [0.3, -0.2]) < 0.3:
                    continue
                values, input_row, drift = lie_derivatives(dims, xi, center, 0.9, np.zeros(2))
                fn = lambda t: barrier_value(chain_flow(xi, ui, t), center, 0.9, 2)
            else:
                values, input_row, drift = lie_derivatives(dims, xi, xj, 0.4, np.zeros(2) - uj)
                fn = lambda t: barrier_value(chain_flow(xi, ui, t), chain_flow(xj, uj, t), 0.4, 2)
            analytic = list(values) + [drift + input_row @ ui]
            for order in range(4):
                numeric = fd_derivative(fn, order) if order else fn(0.0)
                scale = max(1.0, abs(analytic[order]))
                worst = max(worst, abs(numeric - analytic[order]) / scale)
            checked += 1
    verdict(
        3,
        worst < 1e-6,
        f"orders 0..3 vs finite differences at 50 states per kind, "
        f"max relative error {worst:.2e}",
    )


def test_criterion_04_qp_oracle_equivalence():
    rng = np.random.default_rng(4)
    worst_gap = 0.0
    worst_kkt = 0.0
    for _ in range(200):
        n_vars = int(rng.integers(1, 11))
        n_rows = int(rng.integers(1, 21))
        h, g, a, b = random_feasible_qp(rng, n_vars, n_rows)
        qp = QpProblem(hessian=h, linear=g, a_in=a, b_in=b)
        sol = solve_qp(qp)
        assert sol.status == OPTIMAL
        _, oracle_obj = dual_projected_gradient_qp(h, g, a, b, iters=150_000)
        worst_gap = max(worst_gap, abs(sol.objective - oracle_obj))
        worst_kkt = max(worst_kkt, *kkt_residuals(qp, sol.z, sol.duals))
    verdict(
        4,
        worst_gap < 1e-6 and worst_kkt < 1e-8,
        f"200 random QPs: worst objective gap {worst_gap:.2e} vs projected-"
        f"gradient oracle, worst KKT residual {worst_kkt:.2e}",
    )


def test_criterion_05_paper_scenario_safety(paper):
    cfg, cert, result, wall = paper
    clr_obs = result.trace.col("clr_obs")
    clr_pair = result.trace.col("clr_pair")
    ok = (
        bool(np.all(clr_obs > 0.0))
        and bool(np.all(clr_pair > 0.0))
        and not any(v.kind.endswith("clearance") for v in result.violations)
        and wall < 120.0
    )
    verdict(
        5,
        ok,
        f"30 s / {result.trace.data.shape[0]} fine steps: min obstacle clearance "
        f"{np.min(clr_obs):.3f}, min pairwise clearance {np.min(clr_pair):.3f}, "
        f"run time {wall:.0f} s",
    )


def test_criterion_06_tube_occupancy(paper):
    _, _, result, _ = paper
    metrics = trace_metrics(result.trace)
    worst = max(metrics["max_tube_occupancy"].values())
    verdict(
        6,
        worst <= 1.0 + 1e-6,
        f"max V_i/r_i^2 = {worst:.3e} over leader and followers",
    )


def test_criterion_07_global_bound(paper):
    _, cert, result, _ = paper
    metrics = trace_metrics(result.trace)
    mean_err = metrics["final_mean_stacked_error"]
    bound = cert.bound_cert.bound
    verdict(
        7,
        mean_err <= bound,
        f"final-5 s mean stacked formation error {mean_err:.3f} <= "
        f"certified bound {bound:.3f}",
    )


def test_criterion_08_ablation_ordering(ablation_pair):
    _, cert, ff, baseline = ablation_pair
    assert not np.any(np.isnan(cert.tubes.baseline_r))
    m_ff = trace_metrics(ff.trace)
    m_base = trace_metrics(baseline.trace)
    ok = (
        m_base["final_mean_stacked_error"] >= m_ff["final_mean_stacked_error"]
        and m_base["min_obstacle_clearance"] >= m_ff["min_obstacle_clearance"]
        and m_base["min_pairwise_clearance"] >= m_ff["min_pairwise_clearance"]
        and not ff.violations
        and not baseline.violations
    )
    verdict(
        8,
        ok,
        f"baseline-margins vs feedforward: error {m_base['final_mean_stacked_error']:.3f}"
        f" >= {m_ff['final_mean_stacked_error']:.3f}, obstacle clearance "
        f"{m_base['min_obstacle_clearance']:.3f} >= {m_ff['min_obstacle_clearance']:.3f}, "
        f"pairwise {m_base['min_pairwise_clearance']:.3f} >= "
        f"{m_ff['min_pairwise_clearance']:.3f}",
    )


def test_criterion_09_radius_divergence():
    dims = BrunovskyDims(n=3, d=2, followers=1)
    pair = synth_gain(
        dims, GainSpec(mode="poles", poles=(-2.0, -3.0, -4.0), lyapunov_q=(0.1,) * 6)
    )
    w_bar = 0.25
    r_ff, _ = follower_radius(pair, w_bar)  # no leader deviation: w_eff = w_bar
    limit = pair.lambda_min_q / (2.0 * pair.lambda_max_p)
    base = baseline_radius(pair, w_bar, 0.999 * limit)
    verdict(
        9,
        base is not None and base > 1e3 * r_ff,
        f"at 0.999x the Lipschitz limit the no-feedforward radius is "
        f"{base / r_ff:.0f}x the feedforward radius",
    )


def test_criterion_10_determinism(tmp_path):
    from tubeform.cli import main

    cert_path = tmp_path / "cert.json"
    assert main(["certify", str(PAPER), "-o", str(cert_path)]) == 0
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            [
                "run", str(PAPER), "--cert", str(cert_path), "-o", str(out),
                "--t-end", "3.0", "--seed", "0",
            ]
        )
        assert code == 0
        digests.append((out / "trace.csv").read_bytes())
    verdict(
        10,
        digests[0] == digests[1],
        f"two 3 s runs with identical config and seed produce byte-identical "
        f"traces ({len(digests[0])} bytes)",
    )
