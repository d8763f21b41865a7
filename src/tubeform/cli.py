"""Command-line interface: certify, run, report.

Exit codes: 0 success; 1 parse/IO/hash errors; 2 certification infeasibility
(at certify, or at run, which recertifies); 3 runtime safety violation;
4 cascaded OCP infeasibility.
"""

from __future__ import annotations

import argparse
import codecs
import json
import re
import sys
from pathlib import Path

import numpy as np

from .errors import (
    CascadedInfeasibility,
    EmptyTightenedSet,
    GraphNotRooted,
    InfeasibleLeaderTube,
    NotHurwitz,
    ScenarioError,
    TubeformError,
)
from .pipeline import certify_scenario, check_certificate, load_certificate, write_certificate
from .scenario import load_scenario
from .sim import SimConfig, SimTrace, SimWorld, trace_layout, trace_metrics
from .svgplot import SvgFigure


def _error(exc: Exception) -> int:
    """Report ``exc`` on stderr and return its exit code."""
    if isinstance(exc, (GraphNotRooted, InfeasibleLeaderTube, EmptyTightenedSet, NotHurwitz)):
        print(f"infeasible: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if isinstance(exc, CascadedInfeasibility):
        print(f"cascaded infeasibility: {exc}", file=sys.stderr)
        return 4
    print(f"error: {exc}", file=sys.stderr)
    return 1


def _escape_unencodable(exc: UnicodeEncodeError) -> tuple[bytes, int]:
    """Stdout's encode error handler: surrogate escapes (undecodable bytes of an argument,
    such as a path) go out as those bytes, other characters as backslash escapes."""
    out = [
        bytes([ord(c) - 0xDC00]) if "\udc80" <= c <= "\udcff" else c.encode("ascii", "backslashreplace")
        for c in exc.object[exc.start : exc.end]
    ]
    return b"".join(out), exc.end


codecs.register_error("tubeform.escape", _escape_unencodable)


def cmd_certify(scenario_path: str, out_path: str) -> int:
    try:
        cfg = load_scenario(scenario_path)
        trace_layout(cfg, cfg.sim, "sim.t_end:")  # a certificate no run could record is refused
        result = certify_scenario(cfg)
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        write_certificate(out_path, result)
    except (TubeformError, OSError) as exc:
        return _error(exc)
    print(
        f"certified {cfg.name}: sv_min={result.bound_cert.sv_min:.6g} "
        f"bound={result.bound_cert.bound:.6g}"
    )
    tubes = result.tubes
    for i, agent in enumerate(tubes.id.tolist()):
        print(
            f"  agent {agent}: w_eff={tubes.w_eff[i]:.6g} r={tubes.r[i]:.6g} "
            f"r_ball={tubes.r_ball[i]:.6g} margin={tubes.margin_radius[i]:.6g} "
            f"eta={tubes.input_eta[i]:.6g}"
        )
    return 0


def cmd_run(
    scenario_path: str,
    cert_path: str,
    out_dir: str,
    seed: int | None = None,
    t_end: float | None = None,
    toggle_feedforward: bool = False,
    baseline_margins: bool = False,
) -> int:
    out = Path(out_dir)
    try:
        cfg = load_scenario(scenario_path)
        cert_doc = load_certificate(cert_path)
        # cfg caches its hash, so certifying cfg below does not hash it again
        if cert_doc.get("scenario_sha256") != cfg.sha256:
            raise ScenarioError("certificate does not match scenario (hash mismatch)")
        result = certify_scenario(cfg, spot_checks=False)
        check_certificate(cert_doc, result)
        sim_cfg = SimConfig.from_scenario(  # None keeps the scenario's value
            cfg,
            seed=seed,
            t_end=t_end,
            feedforward_on=(not cfg.sim.feedforward_on) if toggle_feedforward else None,
            baseline_margins=baseline_margins or None,
        )
        world = SimWorld(cfg, result, sim_cfg)
        out.mkdir(parents=True, exist_ok=True)
        sim_result = world.run()
    except (TubeformError, OSError, MemoryError) as exc:  # MemoryError: a trace too large to allocate
        return _error(exc)

    trace_path = out / "trace.csv"
    metrics = trace_metrics(sim_result.trace)
    # the leader tube as integrated: the trace logs each sampling instant re-anchored
    metrics["max_leader_occupancy_pre_anchor"] = sim_result.world.leader_occupancy_peak
    tubes = result.tubes
    metrics["margin_mode"] = {
        str(agent): "baseline" if sim_cfg.baseline_margins else str(mode)
        for agent, mode in zip(tubes.id.tolist(), tubes.margin_mode)
    }
    for key in ("capped_solves", "capped_own_row_failures"):
        metrics[key] = dict(zip(map(str, tubes.id.tolist()), getattr(sim_result.world, key).tolist()))
    metrics["violations"] = [
        {"kind": v.kind, "fine_step": v.step, "t": v.t, "agent": v.agent, "other": v.other,
         "value": v.value}
        for v in sim_result.violations
    ]
    try:
        sim_result.trace.to_csv(trace_path)
        # an absent clearance (no obstacle, or one follower) is inf in the trace and null here
        summary = {k: None if v == np.inf else v for k, v in metrics.items()}
        (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    except OSError as exc:
        return _error(exc)
    print(f"trace written to {trace_path}")
    print(
        f"min clearances: obstacle={metrics['min_obstacle_clearance']:.6g} "
        f"pairwise={metrics['min_pairwise_clearance']:.6g}; "
        f"final stacked error={metrics['final_mean_stacked_error']:.6g} "
        f"(bound {metrics['bound']:.6g})"
    )
    if sim_result.violations:
        first = sim_result.violations[0]
        parties = {"obstacle_clearance": "obstacle", "pairwise_clearance": "other agent"}
        party = parties.get(first.kind)
        other = f", {party} {first.other}" if party else ""
        print(
            f"safety violation: {first.kind} at fine step {first.step} "
            f"(t={first.t:.3f}, agent {first.agent}{other})",
            file=sys.stderr,
        )
        return 3
    return 0


# the trace columns the figures below and trace_metrics read; report parses no other
REPORT_COLUMNS = re.compile(
    r"t|k|clr_.*|ferr.*|occ.*|u.*|dx.*|.*_status|.*_iters|x\d+_1[01]"
).fullmatch


def _agent_ids(trace: SimTrace) -> list[int]:
    ids = []
    for col in trace.columns:
        if col.startswith("ferr") and col.endswith("_0") and col != "ferr_stacked":
            ids.append(int(col[4:].split("_")[0]))
    return sorted(set(ids))


def _axes(trace: SimTrace) -> int:
    """Spatial dimension of a trace: agent 1 has one input column per axis."""
    return sum(col.startswith("u1_") for col in trace.columns)


def _plot_trajectories(traces: list[SimTrace], leads: list[str]) -> SvgFigure:
    """Position axes 0 and 1 in the plane; a one-axis trace plots its position over time."""
    planar = _axes(traces[0]) > 1
    labels = ("x position", "y position") if planar else ("time [s]", "x position")
    fig = SvgFigure("Agent trajectories", *labels, equal_aspect=planar)

    def track(trace, agent):
        x = trace.col(f"x{agent}_10")
        return (x, trace.col(f"x{agent}_11")) if planar else (trace.col("t"), x)

    for obs in traces[0].metadata.get("obstacles", "").split(";"):
        if not obs:
            continue
        *center, radius, inflation = (float(v) for v in obs.split(","))
        if planar:
            fig.add_circle(center[0], center[1], radius, color="#333333", fill="#aaaaaa")
            fig.add_circle(center[0], center[1], radius + inflation, color="#888888", dashed=True)
        else:  # the edges of the keep-out interval and of the bare obstacle
            for edge in (-radius - inflation, -radius, radius, radius + inflation):
                fig.add_hline(center[0] + edge, color="#888888")
    for t_idx, (trace, lead) in enumerate(zip(traces, leads)):
        ids = _agent_ids(trace)
        fig.add_line(
            *track(trace, 0), label=f"{lead}leader",
            color=PALETTE_LEADER[t_idx], dashed=t_idx == 1,
        )
        for i in ids:
            fig.add_line(
                *track(trace, i),
                label=f"{lead}agent {i}" if t_idx == 0 and i <= 2 else None,
                dashed=t_idx == 1,
            )
    return fig


PALETTE_LEADER = ["#000000", "#777777"]


def _plot_errors(traces: list[SimTrace], leads: list[str]) -> SvgFigure:
    fig = SvgFigure("Formation offset error components", "time [s]", "error")
    for t_idx, (trace, lead) in enumerate(zip(traces, leads)):
        for i in _agent_ids(trace):
            for ax in range(_axes(trace)):
                fig.add_line(
                    trace.col("t"),
                    trace.col(f"ferr{i}_{ax}"),
                    label=f"{lead}agent {i} axis {ax}" if i == 1 else None,
                    dashed=t_idx == 1,
                )
    return fig


def _plot_clearances(traces: list[SimTrace], leads: list[str]) -> SvgFigure:
    fig = SvgFigure("Minimum safety clearances", "time [s]", "clearance")
    for t_idx, (trace, lead) in enumerate(zip(traces, leads)):
        fig.add_line(trace.col("t"), trace.col("clr_obs"), label=f"{lead}obstacle",
                     dashed=t_idx == 1)
        fig.add_line(trace.col("t"), trace.col("clr_pair"), label=f"{lead}pairwise",
                     dashed=t_idx == 1)
    fig.add_hline(0.0, color="#000000", label="zero")
    return fig


def _plot_occupancy(traces: list[SimTrace], leads: list[str]) -> SvgFigure:
    fig = SvgFigure("Tube occupancy V_i / r_i^2", "time [s]", "occupancy")
    for t_idx, (trace, lead) in enumerate(zip(traces, leads)):
        for col in trace.columns:
            if col.startswith("occ"):
                fig.add_line(trace.col("t"), trace.col(col),
                             label=f"{lead}{col}" if t_idx == 0 else None,
                             dashed=t_idx == 1)
    fig.add_hline(1.0, color="#d62728", label="limit")
    return fig


def cmd_report(trace_paths: list[str], out_dir: str) -> int:
    if len(trace_paths) > 2:  # the plots tell two traces apart, solid and dashed
        return _error(ScenarioError(f"report takes one or two traces (got {len(trace_paths)})"))
    try:
        traces = [SimTrace.from_csv(p, REPORT_COLUMNS) for p in trace_paths]
        labels = []
        for trace in traces:
            mode = []
            if trace.metadata.get("baseline_margins") == "1":
                mode.append("baseline margins")
            if trace.metadata.get("feedforward_on") == "0":
                mode.append("no feedforward")
            labels.append(", ".join(mode) or "feedforward")
        leads = [f"{label}: " for label in labels] if len(traces) > 1 else [""]  # legend prefixes
        all_metrics = [trace_metrics(t) for t in traces]
        figures = {
            "trajectories.svg": _plot_trajectories(traces, leads),
            "formation_errors.svg": _plot_errors(traces, leads),
            "clearances.svg": _plot_clearances(traces, leads),
            "tube_occupancy.svg": _plot_occupancy(traces, leads),
        }
    except (ScenarioError, OSError, ValueError) as exc:
        return _error(exc)
    out = Path(out_dir)
    rows = ["metric," + ",".join(labels)]
    for key in (
        "min_obstacle_clearance",
        "min_pairwise_clearance",
        "final_mean_stacked_error",
        "max_stacked_error",
        "bound",
        "relaxed_steps",
    ):
        rows.append(key + "," + ",".join(f"{m[key]:.6g}" for m in all_metrics))
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, fig in figures.items():
            fig.write(out / name)
        (out / "metrics.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    except OSError as exc:
        return _error(exc)
    print(f"report written to {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tubeform",
        description="Tube-certified distributed MPC for leader-follower formations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser("certify", help="run the offline design stage")
    p_cert.add_argument("scenario")
    p_cert.add_argument("-o", "--out", required=True, help="certificate output path")

    p_run = sub.add_parser("run", help="closed-loop simulation")
    p_run.add_argument("scenario")
    p_run.add_argument("--cert", required=True)
    p_run.add_argument("-o", "--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--t-end", type=float, default=None)
    p_run.add_argument("--toggle-feedforward", action="store_true")
    p_run.add_argument("--baseline-margins", action="store_true")

    p_rep = sub.add_parser("report", help="emit SVG plots and a metrics table")
    p_rep.add_argument("traces", nargs="+")
    p_rep.add_argument("-o", "--out", required=True, help="output directory")

    args = parser.parse_args(argv)
    if hasattr(sys.stdout, "reconfigure"):  # a real text stream, not a StringIO
        sys.stdout.reconfigure(errors="tubeform.escape")  # e.g. a non-ASCII name under the C locale
    if args.command == "certify":
        return cmd_certify(args.scenario, args.out)
    if args.command == "run":
        return cmd_run(
            args.scenario,
            args.cert,
            args.out,
            seed=args.seed,
            t_end=args.t_end,
            toggle_feedforward=args.toggle_feedforward,
            baseline_margins=args.baseline_margins,
        )
    return cmd_report(args.traces, args.out)


if __name__ == "__main__":
    sys.exit(main())
