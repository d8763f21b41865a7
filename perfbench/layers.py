"""Which calls the benchmark probes, and the per-layer metrics made from them.

The untraced run installs only the end-to-end probes (``install_e2e``): the
closed-loop boundary ``SimWorld.run`` and the per-agent OCP solve, whose
latency and outcome are end-to-end metrics, with the host-speed reference
chunk before each solve (``pace.py``). The traced run adds one probe per layer
(``install_layers``). Layer times are self times; ``.calls`` and the other
counts are exact.
"""

from __future__ import annotations

import math
import os
import time

from pace import Pacer
from probes import Probes, Recorder

LOOP = ("loop",)  # closed-loop stage: between entering and leaving SimWorld.run
REPORT = ("report",)

# (probe name, dotted targets); a probe may cover several callables
LAYER_TARGETS = (
    ("scenario.load", ("tubeform.scenario.load_scenario",)),
    ("pipeline.certify", ("tubeform.pipeline.certify_scenario",)),
    (
        "models.spot_check",
        (
            "tubeform.models.AgentModel.check_lipschitz",
            "tubeform.models.AgentModel.check_disturbance_bound",
        ),
    ),
    ("ocp.riccati", ("tubeform.ocp.terminal_ingredients",)),
    ("models.drift", ("tubeform.models.DriftSpec.__call__",)),
    (
        "models.disturbance",
        (
            "tubeform.models.BallDisturbance.__call__",
            "tubeform.models.SinusoidDisturbance.__call__",
        ),
    ),
    ("sim.integrate", ("tubeform.sim.SimWorld._integrate_interval",)),
    ("sim.world_rhs", ("tubeform.sim.SimWorld._world_derivative",)),
    ("sim.safety", ("tubeform.sim.SimWorld._check_safety",)),
    ("sim.log", ("tubeform.sim.SimWorld._log_row",)),
    ("protocol.relay", ("tubeform.protocol.relay_leader",)),
    ("protocol.neighbors", ("tubeform.sim.SimWorld._neighbor_data",)),
    ("protocol.shift_plan", ("tubeform.protocol.shift_plan",)),
    ("ocp.build_qp", ("tubeform.ocp.build_qp",)),
    ("sim.trace_read", ("tubeform.sim.SimTrace.from_csv",)),
    ("sim.trace_metrics", ("tubeform.sim.trace_metrics",)),
    ("svgplot.write", ("tubeform.svgplot.SvgFigure.write",)),
)

STAGES = (
    ("certify", "tubeform.cli.cmd_certify"),
    ("run", "tubeform.cli.cmd_run"),
    ("report", "tubeform.cli.cmd_report"),
)


class Marks:
    """Closed-loop entry and exit times of the latest ``SimWorld.run`` call.

    With ``replay`` set to a trace file, the loop is not run again: the call
    returns that trace as its result, so ``run`` goes on to write it exactly as
    after a real loop. This repeats set-up, writing and reporting without
    repeating the closed loop.
    """

    def __init__(self):
        self.loop_start = math.nan
        self.loop_end = math.nan
        self.replay: str | None = None

    def around_loop(self, original, world, *args, **kwargs):
        self.loop_start = time.perf_counter()
        try:
            if self.replay is None:
                return original(world, *args, **kwargs)
            from tubeform.sim import SimResult, SimTrace

            return SimResult(trace=SimTrace.from_csv(self.replay), violations=[], world=world)
        finally:
            self.loop_end = time.perf_counter()


def _on_solve(rec: Recorder):
    """Count outcomes from ``solve_ocp`` return values, one per solve.

    The simulator rides the shifted previous plan when the solve returns
    nothing usable (an exception it catches, or non-finite slack): that is a
    fallback. A finite-slack solve with status Infeasible is a relaxed solve.
    """

    def observe(args, kwargs, sol, error):
        rec.count("ocp.solves")
        if error is not None or sol is None or not math.isfinite(sol.slack):
            rec.count("ocp.fallback")
            return
        rec.count("ocp.sqp_passes", sol.sqp_passes)
        rec.count("ocp.qp_iterations", sol.iterations)
        rec.count("ocp.converged", float(bool(sol.converged)))
        rec.count("ocp.relaxed", float(sol.status == "Infeasible"))

    return observe


def install_e2e(probes: Probes, marks: Marks, pacer: Pacer) -> None:
    rec = probes.rec
    rec.sampled.add("ocp.solve")
    probes.wrap("sim.run", "tubeform.sim.SimWorld.run", stage="loop", call=marks.around_loop)
    probes.wrap("ocp.solve", "tubeform.ocp.solve_ocp", observer=_on_solve(rec))
    # outermost: a reference chunk before each solve, outside the solve's span
    probes.wrap("pace", "tubeform.ocp.solve_ocp", timed=False, call=pacer.around)


def install_layers(probes: Probes) -> None:
    rec = probes.rec
    for stage, target in STAGES:
        probes.wrap(f"cli.{stage}", target, stage=stage, timed=False)
    for name, targets in LAYER_TARGETS:
        for target in targets:
            probes.wrap(name, target)

    anchors: set = set()

    def on_feedforward(args, kwargs, result, error):
        anchor, t0 = args[1], args[2]
        anchors.add((float(t0), anchor.tobytes()))
        rec.counters[("sim.feedforward.distinct", rec.stage)] = len(anchors)

    probes.wrap("sim.feedforward", "tubeform.sim.SimWorld._leader_ff_samples",
                observer=on_feedforward)

    probes.wrap("barrier.row", "tubeform.barrier.assemble_row")

    def on_qp(args, kwargs, sol, error):
        qp = args[0] if args else kwargs["qp"]
        rec.count("qp.rows", qp.a_in.shape[0])
        if sol is not None:
            rec.count("qp.iterations", sol.iterations)
            rec.count("qp.maxiter", float(sol.status == "MaxIter"))

    probes.wrap("qp.solve", "tubeform.qp.solve_qp", observer=on_qp)

    def on_write(args, kwargs, result, error):
        path = args[1] if len(args) > 1 else kwargs["path"]
        rec.count("sim.trace_bytes", os.path.getsize(path))

    probes.wrap("sim.trace_write", "tubeform.sim.SimTrace.to_csv", observer=on_write)


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pipeline, as name -> (value, unit)."""

    def self_s(name, stages=None):
        return rec.total(rec.self_time, name, stages)

    def incl_s(name, stages=None):
        return rec.total(rec.incl_time, name, stages)

    def calls(name, stages=None):
        return rec.total(rec.calls, name, stages)

    def count(name, stages=None):
        return rec.total(rec.counters, name, stages)

    def share(num, den):
        return num / den if den else 0.0

    solves = count("ocp.solves", LOOP)
    qps = calls("qp.solve", LOOP)
    failed = count("ocp.relaxed", LOOP) + count("ocp.fallback", LOOP)
    return {
        "scenario.load_s": (self_s("scenario.load"), "s"),
        "pipeline.certify_s": (self_s("pipeline.certify"), "s"),
        "models.spot_check_s": (incl_s("models.spot_check"), "s"),
        "ocp.riccati_s": (self_s("ocp.riccati"), "s"),
        "sim.feedforward_s": (self_s("sim.feedforward", LOOP), "s"),
        "sim.feedforward.incl_s": (incl_s("sim.feedforward", LOOP), "s"),
        "sim.feedforward.calls": (calls("sim.feedforward", LOOP), "count"),
        "sim.feedforward.distinct_anchor_frac": (
            share(count("sim.feedforward.distinct", LOOP), calls("sim.feedforward", LOOP)),
            "ratio",
        ),
        "models.drift_s": (self_s("models.drift", LOOP), "s"),
        "models.drift.calls": (calls("models.drift", LOOP), "count"),
        "models.disturbance_s": (self_s("models.disturbance", LOOP), "s"),
        "models.disturbance.calls": (calls("models.disturbance", LOOP), "count"),
        "sim.integrate_s": (self_s("sim.integrate", LOOP), "s"),
        "sim.world_rhs_s": (self_s("sim.world_rhs", LOOP), "s"),
        "sim.world_rhs.incl_s": (incl_s("sim.world_rhs", LOOP), "s"),
        "sim.world_rhs.calls": (calls("sim.world_rhs", LOOP), "count"),
        "sim.safety_s": (self_s("sim.safety", LOOP), "s"),
        "sim.log_s": (self_s("sim.log", LOOP), "s"),
        "protocol.relay_s": (self_s("protocol.relay", LOOP), "s"),
        "protocol.neighbors_s": (self_s("protocol.neighbors", LOOP), "s"),
        "protocol.shift_plan.calls": (calls("protocol.shift_plan", LOOP), "count"),
        "barrier.row_s": (self_s("barrier.row", LOOP), "s"),
        "barrier.rows": (calls("barrier.row", LOOP), "count"),
        "ocp.solve_s": (self_s("ocp.solve", LOOP), "s"),
        "ocp.solves": (solves, "count"),
        "ocp.build_qp_s": (self_s("ocp.build_qp", LOOP), "s"),
        "ocp.build_qp.calls": (calls("ocp.build_qp", LOOP), "count"),
        "ocp.sqp_passes": (count("ocp.sqp_passes", LOOP), "count"),
        "ocp.passes_per_solve": (share(count("ocp.sqp_passes", LOOP), solves), "ratio"),
        "ocp.converged_frac": (share(count("ocp.converged", LOOP), solves), "ratio"),
        "ocp.relaxed": (count("ocp.relaxed", LOOP), "count"),
        "ocp.fallback": (count("ocp.fallback", LOOP), "count"),
        "failed_solve_frac": (share(failed, solves), "ratio"),
        "qp.solve_s": (self_s("qp.solve", LOOP), "s"),
        "qp.solves": (qps, "count"),
        "qp.iterations": (count("qp.iterations", LOOP), "count"),
        "qp.iters_per_qp": (share(count("qp.iterations", LOOP), qps), "ratio"),
        "qp.rows_per_qp": (share(count("qp.rows", LOOP), qps), "ratio"),
        "qp.maxiter": (count("qp.maxiter", LOOP), "count"),
        "sim.trace_write_s": (self_s("sim.trace_write", ("run",)), "s"),
        "sim.trace_bytes": (count("sim.trace_bytes"), "B"),
        "sim.trace_read_s": (self_s("sim.trace_read", REPORT), "s"),
        "sim.trace_metrics_s": (self_s("sim.trace_metrics", REPORT), "s"),
        "svgplot.write_s": (self_s("svgplot.write", REPORT), "s"),
    }
