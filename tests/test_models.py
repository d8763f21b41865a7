import math

import numpy as np
import pytest

from tubeform.errors import DimensionMismatch
from tubeform.models import (
    BALL_BLOCK,
    BrunovskyDims,
    DisturbanceConfig,
    DisturbanceStack,
    DriftTable,
    DriftTerm,
    Obstacle,
    chain_matrices,
)
from tubeform.pipeline import certify_scenario
from tubeform.scenario import load_scenario

from oracles import agent_disturbance, drift_product, fine_step_index, per_call_drift

DIMS = BrunovskyDims(n=3, d=2, followers=5)


def cubic_damped_drift(gain=1.0):
    """-gain * (x3 + 0.49 x1 + 1.12 x2 + 0.12 x1^3 - 0.25 tanh(0.6 x1)) per axis."""
    axes = []
    for ax in range(2):
        axes.append(
            (
                DriftTerm(form="state", coeff=1.0, order=3, axis=ax),
                DriftTerm(form="state", coeff=0.49, order=1, axis=ax),
                DriftTerm(form="state", coeff=1.12, order=2, axis=ax),
                DriftTerm(form="cubic", coeff=0.12, order=1, weights=(1.0, 0.0) if ax == 0 else (0.0, 1.0)),
                DriftTerm(form="tanh", coeff=-0.25, scale=0.6, order=1, axis=ax),
            )
        )
    return DriftTable.compile(DIMS, gain, tuple(axes))


def one_term(term):
    """A drift whose axis 0 is the single term (outer gain -1) and axis 1 is zero."""
    return DriftTable.compile(DIMS, -1.0, ((term,), ()))


def all_forms_drift():
    """Every term form, with cubic weights on order 2 and sq_axis != axis."""
    axes = (
        (
            DriftTerm(form="state", coeff=0.7, order=2, axis=1),
            DriftTerm(form="cubic", coeff=0.12, order=2, weights=(0.6, -0.8)),
            DriftTerm(form="tanh", coeff=-0.25, scale=0.6, order=3, axis=0),
        ),
        (
            DriftTerm(form="sin_t", coeff=-0.4, freq=0.8, phase=0.5),
            DriftTerm(form="sq_tanh", coeff=-0.15, order=1, sq_axis=1, axis=0, scale=1.3),
            DriftTerm(form="cubic", coeff=0.3, order=1, weights=(1.0, 1.0)),
        ),
    )
    return DriftTable.compile(DIMS, 1.7, axes)


class TestChainMatrices:
    def test_shapes_and_structure(self):
        a0, g = chain_matrices(DIMS)
        assert a0.shape == (6, 6) and g.shape == (6, 2)
        assert np.allclose(a0[0:2, 2:4], np.eye(2))
        assert np.allclose(a0[2:4, 4:6], np.eye(2))
        assert np.allclose(a0[4:6, :], 0.0)
        assert np.allclose(g[4:6], np.eye(2))
        assert np.linalg.norm(g, 2) == pytest.approx(1.0)

    def test_upshift_action(self):
        a0, g = chain_matrices(DIMS)
        x = np.arange(6.0)
        assert np.allclose(a0 @ x, np.concatenate([x[2:], np.zeros(2)]))


class TestDrift:
    def test_hand_value(self):
        drift = cubic_damped_drift()
        x = np.array([1.0, -2.0, 0.5, 0.0, 0.25, 1.0])
        expected0 = -(0.25 + 0.49 * 1.0 + 1.12 * 0.5 + 0.12 * 1.0 - 0.25 * math.tanh(0.6))
        expected1 = -(1.0 + 0.49 * -2.0 + 1.12 * 0.0 + 0.12 * -8.0 - 0.25 * math.tanh(-1.2))
        assert np.allclose(drift.value(x, 0.0), [expected0, expected1])

    def test_sinusoid_term_time_only(self):
        drift = one_term(DriftTerm(form="sin_t", coeff=-0.4, freq=0.8, phase=0.5))
        assert drift.value(np.zeros(6), 2.0)[0] == pytest.approx(-0.4 * math.sin(2.1))
        assert np.allclose(drift.jacobian(np.ones(6)), 0.0)

    def test_cross_coupling_term(self):
        term = DriftTerm(form="sq_tanh", coeff=-0.15, order=1, sq_axis=1, axis=0, scale=1.0)
        drift = one_term(term)
        x = np.array([0.5, 2.0, 0, 0, 0, 0.0])
        assert drift.value(x, 0.0)[0] == pytest.approx(-0.15 * 4.0 * math.tanh(0.5))

    @pytest.mark.parametrize(
        "term, expected",
        [
            (DriftTerm(form="state", coeff=0.7, order=2, axis=1), 0.7 * -1.5),
            (DriftTerm(form="cubic", coeff=0.12, order=2, weights=(0.6, -0.8)), 0.12 * 1.65**3),
            (DriftTerm(form="tanh", coeff=-0.25, scale=0.6, order=3, axis=0), -0.25 * math.tanh(1.2)),
        ],
        ids=["state", "cubic", "tanh"],
    )
    def test_single_term_hand_value(self, term, expected):
        x = np.array([9.0, 9.0, 0.75, -1.5, 2.0, 9.0])
        assert one_term(term).value(x, 0.3)[0] == pytest.approx(expected, rel=1e-14)

    def test_stack_matches_row_by_row(self):
        """One call on an (M, nd) or (K, M, nd) stack equals M single-state calls."""
        drift = all_forms_drift()
        xs = np.random.default_rng(4).normal(size=(2, 7, 6))
        stacked = drift.value(xs, 1.3)
        assert stacked.shape == (2, 7, 2)
        rows = np.array([[drift.value(x, 1.3) for x in block] for block in xs])
        np.testing.assert_allclose(stacked, rows, rtol=1e-14, atol=1e-15)

    def test_per_row_times_match_per_row_calls(self):
        """Times over x's leading axes: each state at its own time, bit for bit, also row-stacked."""
        one = all_forms_drift()
        stacked = DriftTable.stack([one, cubic_damped_drift(0.8)], np.array([1, 0, 0, 1, 0, 1, 1]))
        xs = np.random.default_rng(5).normal(size=(2, 7, 6))
        times = np.linspace(0.0, 3.0, 14).reshape(2, 7)
        single = [[one.value(x, float(t)) for x, t in zip(*block)] for block in zip(xs, times)]
        assert np.array_equal(one.value(xs, times), np.array(single))
        for x, t in zip(xs, times):
            rows = [stacked.value(x, float(tr))[r] for r, tr in enumerate(t)]
            assert np.array_equal(stacked.value(x, t), np.array(rows))

    @pytest.mark.parametrize("times", ["scalar", "per_row"])
    def test_one_model_kernel_equals_per_row_products(self, times):
        """A one-model table's rows, bit for bit, against each row alone through the batched
        per-term products and a float power on every term: every term form, at one time or at
        a time per row; the zero state (exponent 0 at 0), -0.0 entries, and inf and NaN entries."""
        table = all_forms_drift()
        assert set(table.expo.tolist()) == {0.0, 1.0, 2.0, 3.0}
        xs = np.random.default_rng(6).normal(size=(40, 6)) * 3.0
        xs[0], xs[1] = 0.0, -0.0
        xs[2, [0, 2, 3]] = -0.0
        xs[3, 2], xs[4, 3], xs[5, 0], xs[6, 1] = np.inf, -np.inf, np.nan, np.inf
        t = 1.3 if times == "scalar" else np.linspace(-2.0, 40.0, len(xs))
        with np.errstate(invalid="ignore"):  # 0 * inf in the projections
            got = table.value(xs, t)
            for x, tr, row in zip(xs, np.broadcast_to(t, len(xs)), got):
                ux, vx = (table.u @ x[:, None])[:, 0], (table.v @ x[:, None])[:, 0]
                angle = table.freq * tr + table.phase
                terms = ux**table.expo * (table.offset + np.tanh(vx)) * np.sin(angle)
                for want in ((terms[None] @ table.scatter)[0], table.value(x, tr)):
                    nan = np.isnan(want)
                    assert np.array_equal(np.isnan(row), nan), (x, row, want)
                    bits, want_bits = row[~nan].view(np.int64), want[~nan].view(np.int64)
                    assert np.array_equal(bits, want_bits), (x, row, want)
        assert np.isnan(got[3:7]).any() and np.isfinite(got[:3]).all()

    def test_stack_equals_padded_per_model_tables(self):
        """Paper's six tables of 8 or 10 terms, stacked as the world stacks them: bit-equal
        to each table padded to the widest, then gathered by row. The pad terms are zero
        but for an offset of 1 and a phase of pi/2, the values marking an absent factor."""
        cfg = load_scenario("scenarios/paper_scenario.json")
        tables = list(certify_scenario(cfg, spot_checks=False).drifts)
        widths = [len(table.expo) for table in tables]
        assert len(tables) == 6 and min(widths) < max(widths)
        rows = np.outer(np.arange(6), [1, 0]).ravel()
        stacked = DriftTable.stack(tables, rows)
        for name, field in zip(DriftTable._fields, zip(*tables)):
            value = {"offset": 1.0, "phase": 0.5 * np.pi}.get(name, 0.0)
            pads = [
                np.pad(a, [(0, max(widths) - len(a))] + [(0, 0)] * (a.ndim - 1), constant_values=value)
                for a in field
            ]
            expected = np.stack(pads)[rows]
            got = getattr(stacked, name)
            assert got.dtype == expected.dtype and np.array_equal(got, expected), name

    @pytest.mark.parametrize("scenario", ["smoke", "paper", "ablation"])
    def test_shipped_tables_and_stacks_equal_the_full_product(self, scenario):
        """Every agent's table, the world's follower stack and the leader pass's one-row stack,
        bit for bit against the product with every factor taken: the shipped leaders have time
        terms and no tanh term, so ``at`` skips their tanh factor."""
        cfg = load_scenario(f"scenarios/{scenario}_scenario.json")
        tables = list(certify_scenario(cfg, spot_checks=False).drifts)
        assert tables[0].freq.any() and tables[0].offset.all()
        n = len(tables) - 1
        stacks = [DriftTable.stack(tables, np.arange(1, n + 1)), DriftTable.stack(tables, np.zeros(1, int))]
        rng = np.random.default_rng(11)
        for table in tables:
            xs = rng.normal(size=(3, 7, 6)) * 2.0
            for t in (0.7, rng.uniform(0.0, 30.0, size=(3, 7))):
                assert np.array_equal(table.value(xs, t), drift_product(table, xs, t))
            assert np.array_equal(table.value(xs[0, 0], 0.7), drift_product(table, xs[0, 0], 0.7))
        for table in stacks:
            xs = rng.normal(size=(4, len(table.expo), 6))
            for t in (0.7, rng.uniform(0.0, 30.0, size=(4, len(table.expo)))):
                assert np.array_equal(table.value(xs, t), drift_product(table, xs, t))
            sines = table.sines(np.array([[0.7], [1.9]]))  # one time per stack, shared by its rows
            assert np.array_equal(table.at(xs[:2], sines), drift_product(table, xs[:2], [[0.7], [1.9]]))

    @pytest.mark.parametrize(
        "table",
        [all_forms_drift, cubic_damped_drift, lambda: one_term(DriftTerm(form="tanh", coeff=2.0, scale=0.0))],
        ids=["all_forms", "tanh", "tanh_scale_0"],
    )
    def test_tables_with_a_tanh_term_equal_the_full_product(self, table):
        """With a tanh term the factor is taken, also where its scale is 0 (the factor 0)."""
        table = table()
        assert not table.offset.all()
        xs = np.random.default_rng(12).normal(size=(5, 6, 6)) * 3.0
        for t in (1.3, np.linspace(0.0, 9.0, 30).reshape(5, 6)):
            assert np.array_equal(table.value(xs, t), drift_product(table, xs, t))

    def test_an_empty_table_is_zero(self):
        """K = 0 (a leader without drift terms): zeros, one state or a stack, one time or per state;
        its time factors have K = 0 columns at any time shape."""
        table = DriftTable.compile(DIMS, 1.0, ((), ()))
        xs = np.random.default_rng(13).normal(size=(4, 3, 6))
        assert table.sines(np.zeros((4, 3))).shape == (4, 3, 0)
        for x, t in ((xs, 0.4), (xs, np.ones((4, 3))), (xs[0, 0], 0.4)):
            got = table.value(x, t)
            assert got.shape == x.shape[:-1] + (2,) and np.array_equal(got, drift_product(table, x, t))
            assert not got.any()
        stack = DriftTable.stack([table], np.zeros(1, int))
        assert stack.sines(np.zeros((5, 1))).shape == (5, 1, 0)
        assert np.array_equal(stack.value(xs[0, :1], 0.4), np.zeros((1, 2)))

    @pytest.mark.parametrize("scenario", ["smoke", "paper", "ablation"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_a_non_finite_state_gives_a_non_finite_value(self, scenario, bad):
        """Where the tanh factor is skipped, a non-finite entry of the state still reaches every
        axis of the value, through the state terms' projections, as it does in the full product."""
        cfg = load_scenario(f"scenarios/{scenario}_scenario.json")
        tables = [*certify_scenario(cfg, spot_checks=False).drifts, all_forms_drift()]
        xs = np.ones((6, 6))
        xs[np.arange(6), np.arange(6)] = bad
        with np.errstate(invalid="ignore"):  # 0 * inf in the projections
            for table in tables:
                got, full = table.value(xs, 0.7), drift_product(table, xs, 0.7)
                assert not np.isfinite(got).any() and not np.isfinite(full).any()

    @pytest.mark.parametrize(
        "make, tanh_free",
        [
            (lambda: certify_scenario(load_scenario("scenarios/paper_scenario.json"), spot_checks=False).drifts[0],
             True),
            (cubic_damped_drift, False),
            (lambda: one_term(DriftTerm(form="cubic", coeff=0.3, order=2, weights=(0.6, -0.8))), True),
            (lambda: DriftTable.compile(DIMS, 1.0, ((), ())), True),
        ],
        ids=["tanh_free_leader", "tanh", "two_weight_cubic", "empty_leader"],
    )
    def test_kept_constants_equal_the_per_call_expression(self, make, tanh_free):
        """A compiled table and its one-row and three-row stacks, bit for bit against ``at`` as first
        written, which derives its flag and masks at every call: at ordinary states, zeros, -0.0 and
        non-finite entries, at one time and at a time per state; the constants are formed once."""
        table = make()
        assert table._at_constants[0] == tanh_free
        stacks = [DriftTable.stack([table], [0]), DriftTable.stack([table, cubic_damped_drift()], [0, 1, 0])]
        xs = np.random.default_rng(14).normal(size=(4, 3, 6)) * 3.0
        xs[0, 0], xs[0, 1] = 0.0, -0.0
        xs[1, 0, 2], xs[1, 1, 0], xs[1, 2, 1] = np.inf, np.nan, -np.inf
        with np.errstate(invalid="ignore"):  # 0 * inf in the projections
            for tab in (table, *stacks):
                for t in (0.7, np.linspace(0.0, 9.0, 12).reshape(4, 3)):
                    sines = tab.sines(t)
                    got, want = tab.at(xs, sines), per_call_drift(tab, xs, sines)
                    assert got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
                    assert np.array_equal(np.signbit(got), np.signbit(want))
                assert tab._at_constants is tab._at_constants

    def test_jacobian_matches_finite_differences(self):
        """The stacked Jacobian of every form against central differences."""
        drift = all_forms_drift()
        xs = np.random.default_rng(2).normal(size=(2, 7, 6))
        jac = drift.jacobian(xs)
        assert jac.shape == (2, 7, 2, 6)
        step = 1e-6
        for col in range(6):
            bump = np.zeros(6)
            bump[col] = step
            fd = (drift.value(xs + bump, 0.9) - drift.value(xs - bump, 0.9)) / (2 * step)
            np.testing.assert_allclose(jac[..., col], fd, rtol=0, atol=1e-7)

    def test_malformed_term_rejected(self):
        with pytest.raises(DimensionMismatch):
            one_term(DriftTerm(form="state", coeff=1.0, order=1, axis=2))
        with pytest.raises(DimensionMismatch):
            one_term(DriftTerm(form="tanh", coeff=1.0, order=4, axis=0))
        with pytest.raises(DimensionMismatch):
            one_term(DriftTerm(form="cubic", coeff=1.0, weights=(1.0,)))


def disturbance_configs(kind: str) -> list[DisturbanceConfig]:
    """Three configs of one kind, or alternating kinds, for the d = 2 stack tests."""
    sines = [
        DisturbanceConfig("sinusoid", amp=(0.2, 0.15), freq=(0.9, 1.1), phase=(0.0, math.pi / 7)),
        DisturbanceConfig("sinusoid", amp=(0.05, 0.0), freq=(3.7, 0.0), phase=(1.3, 0.0)),
        DisturbanceConfig("sinusoid", amp=(0.01, 0.3), freq=(0.2, 12.5), phase=(-0.4, 2.9)),
    ]
    balls = [DisturbanceConfig("ball", bound=0.1 * (a + 1)) for a in range(3)]
    return {"sine": sines, "ball": balls, "mixed": [balls[0], sines[0], balls[1], sines[1]]}[kind]


def reference(configs: list[DisturbanceConfig], seed: int, t: float) -> np.ndarray:
    """Row r is agent r's disturbance from its own formula, with fine steps of 0.01."""
    return np.stack(
        [agent_disturbance(c, 2, r, seed, 0.01, t, block=BALL_BLOCK) for r, c in enumerate(configs)]
    )


def rk4_call_order(times: list[float]) -> list[float]:
    """``stage_times``' times as RK4 reads them: each substep's midpoint twice (k2 and k3)."""
    return [t for s in range(0, len(times), 3) for t in (times[s], times[s + 1], times[s + 1], times[s + 2])]


def stage_times(fine_steps: int, h: float = 0.01, start: float = 0.98) -> list[float]:
    """The RK4 stage times of ``fine_steps`` substeps from ``start``, accumulated as in the world."""
    times, t = [], start
    for _ in range(fine_steps):
        times += [t, t + 0.5 * h, t + h]
        t += h
    return times


def orders(times: list[float], seed: int) -> list[np.ndarray]:
    """The times in order, shuffled, reversed, and all three concatenated, as arrays."""
    shuffled = list(np.random.default_rng(seed).permutation(times))
    return [np.array(ts) for ts in (times, shuffled, times[::-1], times + shuffled + times[::-1])]


class TestDisturbanceStack:
    @pytest.mark.parametrize("kind", ["sine", "ball", "mixed"])
    def test_stack_equals_per_model_calls(self, kind):
        """One array of the stage times, in order, shuffled, reversed or all three concatenated,
        is bit-equal at every time to each agent's own formula."""
        configs = disturbance_configs(kind)
        stack = DisturbanceStack(configs, 2, seed=4, step_duration=0.01)
        for times in orders(stage_times(6), 0):  # crosses the fine-step boundaries at 0.99, 1.0, ...
            w = stack.evaluate(times)
            assert w.shape == (len(times), len(configs), 2)
            for t, wt in zip(times.tolist(), w):
                assert np.array_equal(wt, reference(configs, 4, t)), t

    def test_each_index_drawn_once_in_any_order(self, monkeypatch):
        """One call over times in order, shuffled and reversed, concatenated, draws each
        (ball row, block) its times reach once."""
        configs = disturbance_configs("mixed")
        stack = DisturbanceStack(configs, 2, seed=4, step_duration=0.01)
        calls = []
        draw = stack.draw
        monkeypatch.setattr(stack, "draw", lambda row, b: calls.append((row, b)) or draw(row, b))
        times = stage_times(6)
        stack.evaluate(orders(times, 1)[-1])
        blocks = {fine_step_index(t, 0.01) // BALL_BLOCK for t in times}
        assert sorted(calls) == sorted((row, b) for row in (0, 2) for b in blocks)

    @pytest.mark.parametrize("kind", ["sine", "ball", "mixed"])
    def test_any_times_array_equals_per_time_evaluation(self, kind):
        """An array of times of any shape, order or repeats, across a block boundary, evaluates
        bit for bit as one scalar ``evaluate`` call per time, each a (rows, d) array."""
        configs = disturbance_configs(kind)
        stack = DisturbanceStack(configs, 2, seed=4, step_duration=0.01)
        times = np.array(stage_times(6) + stage_times(6, start=(BALL_BLOCK - 2) * 0.01))
        rng = np.random.default_rng(3)
        arrays = [*orders(times.tolist(), 2), rng.choice(times, size=(3, 5, 4)), times[[4, 4, 4]]]
        arrays += [np.repeat(times, 2).reshape(-1, 2), times[:1], np.array(times[7])]
        for array in arrays:
            w = stack.evaluate(array)
            assert w.shape == array.shape + (len(configs), 2)
            for at in np.ndindex(array.shape):
                t = array[at].item()
                single = stack.evaluate(t)
                assert single.shape == (len(configs), 2)
                assert np.array_equal(w[at], single), (array.shape, at, t)

    def test_each_time_evaluated_once_and_read_only(self):
        """Stage times in RK4 call order (t, t + h/2 twice, t + h per substep, the next substep
        starting at t + h), evaluated as one array: every read equals each agent's own formula
        and cannot be written."""
        configs = disturbance_configs("mixed")
        stack = DisturbanceStack(configs, 2, seed=4, step_duration=0.01)
        reads = rk4_call_order(stage_times(6))
        expected = [reference(configs, 4, t) for t in reads]
        w = stack.evaluate(np.array(reads))
        assert len(reads) == 4 * 6
        assert not w.flags.writeable
        for t, wt, ref in zip(reads, w, expected):
            assert np.array_equal(wt, ref), t
            with pytest.raises(ValueError):
                wt[0, 0] = 1.0

    def test_reads_across_a_block_boundary(self, monkeypatch):
        """Stage times over indices 1022..1028 read blocks 0 and 1, each drawn once per ball row
        in one call over the times in order, shuffled and reversed, concatenated, bit-equal to
        each agent's own formula."""
        configs = disturbance_configs("mixed")
        stack = DisturbanceStack(configs, 2, seed=4, step_duration=0.01)
        calls = []
        draw = stack.draw
        monkeypatch.setattr(stack, "draw", lambda row, b: calls.append((row, b)) or draw(row, b))
        times = stage_times(6, start=(BALL_BLOCK - 2) * 0.01)
        indices = sorted({fine_step_index(t, 0.01) for t in times})
        assert indices == list(range(BALL_BLOCK - 2, BALL_BLOCK + 5))
        every = orders(times, 2)[-1]
        for t, w in zip(every.tolist(), stack.evaluate(every)):
            assert np.array_equal(w, reference(configs, 4, t)), t
        assert sorted(calls) == [(row, b) for row in (0, 2) for b in (0, 1)]

    def test_a_row_does_not_depend_on_the_other_rows(self):
        """Each ball row's draws are the same whatever the other rows are, or whether they exist."""
        balls, sines = disturbance_configs("ball"), disturbance_configs("sine")
        times = np.array(stage_times(6) + stage_times(6, start=(BALL_BLOCK - 2) * 0.01))
        full = DisturbanceStack(balls, 2, seed=4, step_duration=0.01).evaluate(times)
        for row, ball in enumerate(balls):
            among_sines = [ball if r == row else sines[r] for r in range(len(balls))]
            lone = DisturbanceStack(among_sines, 2, seed=4, step_duration=0.01).evaluate(times)
            prefix = DisturbanceStack(balls[: row + 1], 2, seed=4, step_duration=0.01).evaluate(times)
            assert np.array_equal(lone[:, row], full[:, row]), row
            assert np.array_equal(prefix[:, row], full[:, row]), row

    @pytest.mark.parametrize("d", [2, 3])
    def test_radius_over_bound_has_cdf_rho_to_the_d(self, d):
        """At a fixed seed, 8 blocks of draws: ||w|| / bound never exceeds 1 and passes a
        Kolmogorov-Smirnov test against the uniform-in-ball CDF rho^d at the 0.001 level,
        which rejects the CDF rho of a uniform radius."""
        ball = DisturbanceConfig("ball", bound=0.7)
        stack = DisturbanceStack([ball], d, seed=5, step_duration=1.0)
        w = np.concatenate([stack.draw(0, b) for b in range(8)])
        rho = np.sort(np.linalg.norm(w, axis=1) / 0.7)
        assert rho.max() <= 1.0

        def ks(cdf):
            n = len(rho)
            return max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))

        critical = 1.95 / math.sqrt(len(rho))
        assert ks(rho**d) < critical
        assert ks(rho) > 10.0 * critical

    def test_stage_at_step_end_reads_next_draw(self):
        """Fine step j's first stages read draw j; its last stage, at its end, reads draw j + 1."""
        ball = disturbance_configs("ball")[0]
        stack = DisturbanceStack([ball], 2, seed=4, step_duration=0.01)
        times = np.reshape(stage_times(6), (6, 3))  # per fine step j = 98..103: t, t + h/2, t + h
        for j, (t, mid, end) in enumerate(times.tolist(), 98):
            assert fine_step_index(t, 0.01) == fine_step_index(mid, 0.01) == j
            assert fine_step_index(end, 0.01) == j + 1
        w = stack.evaluate(times)
        assert not np.any(np.all(w[:, 1] == w[:, 2], axis=(-2, -1)))

    def test_rounded_step_times_read_their_own_draw(self):
        """t = k h in floating point can fall just below k h (0.29 / 0.01 < 29); it still reads draw k."""
        configs = disturbance_configs("ball")
        stack = DisturbanceStack(configs, 2, seed=4, step_duration=0.01)
        times = [k * 0.01 for k in range(101)]
        assert any(t / 0.01 < k for k, t in enumerate(times))
        for k, (t, w) in enumerate(zip(times, stack.evaluate(np.array(times)))):
            assert fine_step_index(t, 0.01) == k
            assert np.array_equal(w, reference(configs, 4, t)), t

    def test_ball_rows_draw_with_the_run_seed(self):
        """The ball rows draw with the stack's seed; the sinusoid rows do not depend on it."""
        configs = disturbance_configs("mixed")
        stack = DisturbanceStack(configs, 2, seed=9, step_duration=0.01)
        times = stage_times(3)
        for t, w in zip(times, stack.evaluate(np.array(times))):
            seeded, other = reference(configs, 9, t), reference(configs, 4, t)
            for row, config in enumerate(configs):
                assert np.array_equal(w[row], seeded[row])
                if config.kind == "ball":
                    assert not np.array_equal(w[row], other[row])
                else:
                    assert np.array_equal(w[row], other[row])


class TestFormationAndObstacle:
    def test_effective_radius(self):
        assert Obstacle(center=(1.0, 1.0), radius=0.5, inflation=0.15).effective_radius == 0.65
