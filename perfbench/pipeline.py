"""One workload pipeline in a fresh process: certify -> run -> report.

Drives ``tubeform.cli.main`` the way ``scripts/reproduce.py`` does, times the
stages, checks the outputs, writes one JSON result and deletes the bulky
outputs. ``run.py`` starts this script once per repeat; by hand:

    python3 perfbench/pipeline.py --root . --workload paper --seed 0 \
        --mode untraced --replays 4 --workdir .perfbench/w --result r.json

After the timed pipeline, ``--replays`` more pipelines run with the closed
loop replayed from the trace just written (see ``layers.Marks``), giving more
samples of set-up, trace writing and reporting at a small cost.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import Marks, install_e2e, install_layers, layer_metrics  # noqa: E402
from pace import NOMINAL_CHUNK_S, Pacer  # noqa: E402
from probes import Probes, Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REPORT_FILES = (
    "trajectories.svg",
    "formation_errors.svg",
    "clearances.svg",
    "tube_occupancy.svg",
    "metrics.csv",
)
TICKS = 48  # reference chunks at each stage boundary


def pipeline(cli, marks: Marks, pacer: Pacer, scenario: Path, flags, out: Path):
    """certify -> run -> report through the CLI; (exit codes, stage intervals).

    Each stage is a list of (start, end) clock readings; ``setup`` is
    everything before the first sampling step.
    """
    cert = out / "cert.json"
    codes = {}
    marks.loop_start = marks.loop_end = math.nan
    with contextlib.redirect_stdout(io.StringIO()):
        pacer.tick(TICKS)
        t0 = time.perf_counter()
        codes["certify"] = cli(["certify", str(scenario), "-o", str(cert)])
        codes["run"] = cli(["run", str(scenario), "--cert", str(cert), "-o",
                            str(out / "run"), *flags])
        t2 = time.perf_counter()
        pacer.tick(TICKS)
        t3 = time.perf_counter()
        codes["report"] = cli(["report", str(out / "run" / "trace.csv"), "-o",
                               str(out / "report")])
        t4 = time.perf_counter()
        pacer.tick(TICKS)
    stages = {
        "setup_s": [(t0, marks.loop_start)],
        "run_s": [(marks.loop_start, marks.loop_end)],
        "write_s": [(marks.loop_end, t2)],
        "report_s": [(t3, t4)],
    }
    return codes, stages


def timings(stages: dict, measure) -> dict:
    """Stage times by ``measure`` (pacer.raw or pacer.scaled), plus their sum."""
    out = {k: sum(measure(a, b) for a, b in spans) for k, spans in stages.items()}
    out["pipeline_s"] = sum(out.values())
    return out


def sampling_status(trace, fine_substeps: int) -> list[float]:
    """Solver status codes per solve, read from the held per-interval rows."""
    rows = trace.data[:-1:fine_substeps]
    cols = [c for c in trace.columns if c.startswith("ocp") and c.endswith("_status")]
    return [float(v) for c in cols for v in rows[:, trace.columns.index(c)]]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def gate(workload, out: Path, codes: dict, rec: Recorder, trace_cls) -> dict:
    """Correctness checks of one pipeline's outputs (name -> passed)."""
    checks = {f"exit_{k}": v == 0 for k, v in codes.items()}
    info: dict = {}
    summary_path = out / "run" / "summary.json"
    trace_path = out / "run" / "trace.csv"
    if not (summary_path.is_file() and trace_path.is_file()):
        checks["outputs_present"] = False
        return {"checks": checks, "info": info}
    summary = json.loads(summary_path.read_text())
    checks["no_safety_violations"] = not summary["violations"]
    checks["obstacle_clearance_positive"] = summary["min_obstacle_clearance"] > 0.0
    checks["pairwise_clearance_positive"] = summary["min_pairwise_clearance"] > 0.0
    occupancy = max(summary["max_tube_occupancy"].values())
    checks["tube_occupancy_le_1"] = occupancy <= 1.0
    ratio = summary["final_mean_stacked_error"] / summary["bound"]
    if workload.gate_error_bound:
        checks["final_error_within_bound"] = ratio <= 1.0
    checks["report_outputs_present"] = all(
        (out / "report" / f).is_file() and (out / "report" / f).stat().st_size > 0
        for f in REPORT_FILES
    )

    # the solve probe must agree with the statuses the simulator logged
    trace = trace_cls.from_csv(trace_path)
    status = sampling_status(trace, int(trace.metadata["fine_substeps"]))
    solves = rec.total(rec.counters, "ocp.solves")
    failed = rec.total(rec.counters, "ocp.relaxed") + rec.total(rec.counters, "ocp.fallback")
    checks["solve_count_matches_trace"] = solves == len(status)
    checks["failed_solves_match_trace"] = failed == sum(s == 2.0 for s in status)
    info.update(
        trace_sha256=sha256(trace_path),
        error_to_bound_ratio=ratio,
        min_obstacle_clearance=summary["min_obstacle_clearance"],
        min_pairwise_clearance=summary["min_pairwise_clearance"],
        max_tube_occupancy=occupancy,
        # trace_metrics counts fine rows: 10 per relaxed solve (a known defect)
        relaxed_steps_from_trace_rows=summary["relaxed_steps"],
    )
    return {"checks": checks, "info": info}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("untraced", "traced"), required=True)
    ap.add_argument("--replays", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    opts = ap.parse_args()

    root = Path(opts.root).resolve()
    sys.path.insert(0, str(root / "src"))
    from tubeform.cli import main as cli
    from tubeform.sim import SimTrace

    workload = WORKLOADS[opts.workload]
    workdir = Path(opts.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    scenario = workload.prepare(root, opts.seed, workdir)

    rec = Recorder()
    probes = Probes(rec)
    marks = Marks()
    pacer = Pacer()
    install_e2e(probes, marks, pacer)
    if opts.mode == "traced":
        install_layers(probes)
    out = workdir / "out"
    out.mkdir()
    codes, stages = pipeline(cli, marks, pacer, scenario, workload.run_flags, out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    check = gate(workload, out, codes, rec, SimTrace)
    if not all(math.isfinite(t) for spans in stages.values() for span in spans for t in span):
        check["checks"]["closed_loop_timed"] = False
        stages = {k: [] for k in stages}

    replayed = []
    trace_path = out / "run" / "trace.csv"
    if trace_path.is_file() and opts.replays:
        marks.replay = str(workdir / "replayed.csv")
        shutil.move(trace_path, marks.replay)
        for n in range(opts.replays):
            again = workdir / f"replay{n}"
            again.mkdir()
            replay_codes, replay_stages = pipeline(
                cli, marks, pacer, scenario, workload.run_flags, again
            )
            ok = all(v == 0 for v in replay_codes.values())
            check["checks"][f"replay{n}_exit_codes"] = ok
            if ok:
                replayed.append(replay_stages)
                check["checks"][f"replay{n}_same_trace"] = (
                    sha256(again / "run" / "trace.csv") == check["info"]["trace_sha256"]
                )
            shutil.rmtree(again)
    probes.remove()

    def samples(measure):
        # the closed loop runs once; the other stages once more per replay
        per_run = [timings(st, measure) for st in [stages, *replayed]]
        return {k: [t[k] for t in per_run] for k in ("setup_s", "write_s", "report_s")}

    result = {
        "workload": workload.name,
        "seed": opts.seed,
        "mode": opts.mode,
        "exit_codes": codes,
        "raw": timings(stages, pacer.raw),
        "scaled": timings(stages, pacer.scaled),
        "raw_samples": samples(pacer.raw),
        "scaled_samples": samples(pacer.scaled),
        "peak_rss_mb": peak_rss_mb,
        "solve_raw_s": [d for _, d in rec.samples.get("ocp.solve", [])],
        "solve_scaled_s": [d * pacer.factor(t) for t, d in rec.samples.get("ocp.solve", [])],
        "pace": {
            "chunks": len(pacer.durations),
            "chunk_median_s": statistics.median(pacer.durations),
        },
        "outcomes": {
            k: rec.total(rec.counters, k)
            for k in ("ocp.solves", "ocp.relaxed", "ocp.fallback", "ocp.sqp_passes",
                      "ocp.qp_iterations", "ocp.converged")
        },
        "probes": rec.status,
        "observer_errors": dict(rec.observer_errors),
        "gate": check,
    }
    if opts.mode == "traced":
        # one host-speed factor for the whole repeat rescales the layer times
        factor = NOMINAL_CHUNK_S / statistics.median(pacer.durations)
        layers = {k: (v * factor if u == "s" else v, u) for k, (v, u) in layer_metrics(rec).items()}
        result["layers"] = {k: v for k, (v, _) in layers.items()}
        result["layer_units"] = {k: u for k, (_, u) in layers.items()}
    Path(opts.result).write_text(json.dumps(result) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
