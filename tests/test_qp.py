import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tubeform.qp
from tubeform.pipeline import certify_scenario
from tubeform.qp import INFEASIBLE, MAX_ITER, OPTIMAL, QpProblem, kkt_residuals, solve_qp
from tubeform.scenario import load_scenario
from tubeform.sim import run_simulation

from oracles import (
    dual_projected_gradient_qp,
    random_feasible_qp,
    recorded_solves,
    reference_solve_qp,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def make_qp(h, g, a=None, b=None):
    n = len(g)
    return QpProblem(
        hessian=np.asarray(h, float),
        linear=np.asarray(g, float),
        a_in=np.asarray(a, float) if a is not None else np.zeros((0, n)),
        b_in=np.asarray(b, float) if b is not None else np.zeros(0),
    )


class TestBasics:
    def test_unconstrained(self):
        qp = make_qp(np.diag([2.0, 4.0]), [-2.0, -4.0])
        sol = solve_qp(qp)
        assert sol.status == OPTIMAL
        assert np.allclose(sol.z, [1.0, 1.0])

    def test_single_active_bound(self):
        # min |z|^2 s.t. z_1 >= 1 -> z = (1, 0), dual 2
        qp = make_qp(2.0 * np.eye(3), np.zeros(3), a=[[1.0, 0.0, 0.0]], b=[1.0])
        sol = solve_qp(qp)
        assert sol.status == OPTIMAL
        assert np.allclose(sol.z, [1.0, 0.0, 0.0], atol=1e-10)
        assert sol.duals[0] == pytest.approx(2.0, abs=1e-8)

    def test_inactive_constraint_ignored(self):
        qp = make_qp(np.eye(2), [1.0, 1.0], a=[[1.0, 0.0]], b=[-100.0])
        sol = solve_qp(qp)
        assert np.allclose(sol.z, [-1.0, -1.0], atol=1e-10)
        assert sol.duals[0] == 0.0

    def test_infeasible_certified(self):
        qp = make_qp(np.eye(1), [0.0], a=[[1.0], [-1.0]], b=[1.0, 0.0])
        assert solve_qp(qp).status == INFEASIBLE

    def test_objective_includes_constant(self):
        qp = make_qp(np.eye(1), [0.0])
        qp.constant = 7.0
        assert solve_qp(qp).objective == pytest.approx(7.0)


class TestKktCertificates:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 100_000), st.integers(1, 10), st.integers(0, 20))
    def test_random_instances(self, seed, n_vars, n_rows):
        rng = np.random.default_rng(seed)
        h, g, a, b = random_feasible_qp(rng, n_vars, n_rows)
        qp = QpProblem(hessian=h, linear=g, a_in=a, b_in=b)
        sol = solve_qp(qp)
        assert sol.status == OPTIMAL
        assert max(kkt_residuals(qp, sol.z, sol.duals)) < 1e-8
        if sol.duals.size:
            assert np.min(sol.duals) >= -1e-10

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            n_vars = int(rng.integers(2, 11))
            n_rows = int(rng.integers(1, 21))
            h, g, a, b = random_feasible_qp(rng, n_vars, n_rows)
            sol = solve_qp(QpProblem(hessian=h, linear=g, a_in=a, b_in=b))
            _, obj_oracle = dual_projected_gradient_qp(h, g, a, b, iters=100_000)
            assert sol.status == OPTIMAL
            assert sol.objective == pytest.approx(obj_oracle, abs=1e-6)

    def test_degenerate_duplicate_rows(self):
        qp = make_qp(
            np.eye(2), [0.0, 0.0],
            a=[[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]], b=[1.0, 1.0, 1.0],
        )
        sol = solve_qp(qp)
        assert sol.status == OPTIMAL
        assert sol.z[0] == pytest.approx(1.0, abs=1e-9)


def random_cases():
    """Random QPs, plain, with duplicated rows or made infeasible."""
    rng = np.random.default_rng(2024)
    cases = []
    for idx in range(90):
        kind = ("plain", "duplicate", "infeasible")[idx % 3]
        n_vars, n_rows = int(rng.integers(1, 9)), int(rng.integers(1, 16))
        h, g, a, b = random_feasible_qp(rng, n_vars, n_rows)
        g = 10.0 * g  # push the unconstrained minimizer out so that rows bind
        if kind == "duplicate":
            dup = rng.integers(0, n_rows, size=3)
            a, b = np.vstack([a, a[dup]]), np.concatenate([b, b[dup]])
        elif kind == "infeasible":  # a0 z >= c + 1 and a0 z <= c
            c = float(a[0] @ rng.normal(size=n_vars))
            a, b = np.vstack([a, a[:1], -a[:1]]), np.concatenate([b, [c + 1.0, -c]])
        cases.append(QpProblem(hessian=h, linear=g, a_in=a, b_in=b))
    return cases


def assert_same_as_reference(qp, tol=1e-10):
    """``solve_qp`` and the reference loop agree bit for bit; returns the solution."""
    sol = solve_qp(qp, tol=tol)
    z, duals, status, iterations, mask = reference_solve_qp(qp, tol=tol)
    assert sol.z.tobytes() == z.tobytes()
    assert sol.duals.tobytes() == duals.tobytes()
    assert (sol.status, sol.iterations) == (status, iterations)
    assert np.array_equal(sol.active, mask)
    return sol


class TestReferenceLoop:
    """The scalar-branching loop against the loop as first written, branch by branch."""

    def test_max_iter_stops_where_the_reference_stops(self, monkeypatch):
        """With a one-change cap, a QP whose optimum binds two rows stops with MaxIter."""
        qp = make_qp(np.eye(2), [0.0, 0.0], a=[[1.0, 0.0], [0.0, 1.0]], b=[1.0, 2.0])
        assert solve_qp(qp).iterations == 3
        monkeypatch.setattr(tubeform.qp, "MAX_ITERATIONS", 1)
        sol = assert_same_as_reference(qp)
        assert (sol.status, sol.iterations) == (MAX_ITER, 1)
        assert sol.active.tolist() == [False, True]  # the most violated row went first

    def test_partial_step_drops_a_row_before_the_incoming_one_binds(self):
        """Row 0 (10 z1 >= 10) enters first, at z = (1, 0) with multiplier 0.1. Row 1
        (z1 + z2 >= 3) would bind after a step of 2, but row 0's multiplier reaches
        zero after a step of 1: row 0 is dropped there and row 1 binds alone. Two
        active-set changes, then the termination check: three iterations."""
        qp = make_qp(np.eye(2), [0.0, 0.0], a=[[10.0, 0.0], [1.0, 1.0]], b=[10.0, 3.0])
        sol = assert_same_as_reference(qp)
        assert (sol.status, sol.iterations) == (OPTIMAL, 3)
        assert sol.z.tolist() == [1.5, 1.5]
        assert sol.duals.tolist() == [0.0, 1.5]
        assert sol.active.tolist() == [False, True]

    def test_random_duplicated_and_infeasible_instances(self):
        """Every random case, plain, with duplicated rows and infeasible."""
        statuses = {assert_same_as_reference(qp).status for qp in random_cases()}
        assert statuses == {OPTIMAL, INFEASIBLE}

    def test_objective_is_the_problem_objective_at_z(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            h, g, a, b = random_feasible_qp(rng, 4, 6)
            qp = QpProblem(hessian=h, linear=g, a_in=a, b_in=b, constant=float(rng.normal()))
            sol = solve_qp(qp)
            assert sol.objective == qp.objective(sol.z)


@pytest.fixture(scope="module")
def recorded_corpora():
    """Every QP of a 3 s paper run and a 3 s ablation ``--baseline-margins`` run, as copies."""
    corpora, started = {}, time.perf_counter()
    for name, scenario, overrides in [
        ("paper", "paper_scenario.json", {}),
        ("ablation-baseline", "ablation_scenario.json", {"baseline_margins": True}),
    ]:
        cfg = load_scenario(SCENARIOS / scenario)
        cert = certify_scenario(cfg)
        with recorded_solves() as solves:
            run_simulation(cfg, cert, t_end=3.0, **overrides)
        corpora[name] = [qp for solve in solves for qp in solve.qps]
    return corpora, time.perf_counter() - started


class TestRecordedCorpus:
    @pytest.mark.parametrize("name", ["paper", "ablation-baseline"])
    def test_replay_equals_reference_bit_for_bit(self, recorded_corpora, name):
        """Each recorded solve, replayed, gives the reference loop's z,
        duals, status, iterations and active mask; recording and both replays take
        at most 3 s per corpus."""
        corpora, recording_s = recorded_corpora
        records = corpora[name]
        assert len(records) > 100
        started = time.perf_counter()
        statuses = set()
        for record in records:
            statuses.add(assert_same_as_reference(record.qp, record.tol).status)
        assert OPTIMAL in statuses
        assert recording_s / 2 + time.perf_counter() - started <= 3.0
