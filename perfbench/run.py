#!/usr/bin/env python3
"""tubeform benchmark: certify -> run -> report, end to end and per layer.

    python3 perfbench/run.py --workload paper --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout that holds ``src/tubeform`` and
``scenarios/``. Each repeat of a workload is one fresh process running the
whole pipeline (``pipeline.py``), so peak memory is per repeat. Repeats go
round by round, workloads in alternating order, and a new round starts only
while a whole round still fits in ``--seconds`` (at least one round runs).

``--trace 0`` prints the end-to-end metrics of untraced repeats. ``--trace 1``
runs, per round, one untraced repeat and one traced repeat (layer probes
installed) and prints the per-layer metrics, including the tracing overhead
on ``run_s``. ``--workload`` takes a comma-separated list; with more than one
workload, metric names are prefixed with ``<workload>/``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` (pipelines run / pipelines failing their correctness gate) and
``metrics``. The line before it records the host, the versions, the thread
settings and the load average around every repeat. ``--out`` also writes
everything, raw samples included, to a JSON file.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

REPLAYS = 4  # replayed-loop pipelines per untraced repeat (more set-up/write/report samples)
DEADLINE_S = 170.0  # a repeat still running after this is killed
THREAD_VARS = (
    "TUBEFORM_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def source_fingerprint(root: Path) -> str:
    """SHA-256 over the program's sources and scenarios (stands in for a commit)."""
    digest = hashlib.sha256()
    files = sorted((root / "src").rglob("*.py")) + sorted((root / "scenarios").glob("*.json"))
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def host_info(root: Path) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "git_sha": git_sha(root),
        "source_sha256": source_fingerprint(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def run_child(workload: str, seed: int, mode: str, replays: int, deadline: float) -> dict:
    """One pipeline in a fresh process; adds the load average around it."""
    tag = f"{workload}-s{seed}-{mode}-{os.getpid()}"
    workdir = WORK / "work" / tag
    result_path = WORK / "results" / f"{tag}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.unlink(missing_ok=True)
    argv = [
        sys.executable, str(HERE / "pipeline.py"),
        "--root", str(ROOT), "--workload", workload, "--seed", str(seed),
        "--mode", mode, "--replays", str(replays),
        "--workdir", str(workdir), "--result", str(result_path),
    ]
    load_before = os.getloadavg()[0]
    pid = os.posix_spawn(
        sys.executable, argv, dict(os.environ),
        file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)],
    )
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(0.0, deadline - time.monotonic()))
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    except BaseException:  # interrupted: leave no child behind
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        os.close(pidfd)
        shutil.rmtree(workdir, ignore_errors=True)  # normally the child has removed it
    if not ready:
        raise BenchError(f"{workload} ({mode}) did not finish within the time limit")
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not result_path.is_file():
        raise BenchError(f"{workload} ({mode}) pipeline process exited with {code}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    result["process_peak_rss_mb"] = usage.ru_maxrss / 1024.0  # with replays; KiB on Linux
    result["loadavg_1m"] = [load_before, os.getloadavg()[0]]
    return result


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]; 0 for no values (a failed run)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)] if ordered else 0.0


def solve_ms(runs: list[dict], q: float, kind: str = "scaled") -> float:
    return percentile([1e3 * s for r in runs for s in r[f"solve_{kind}_s"]], q)


def end_to_end(runs: list[dict], kind: str = "scaled") -> dict[str, tuple[float, str]]:
    """End-to-end metrics from ``kind`` timings: "scaled" (reported) or "raw"."""
    solves = sum(r["outcomes"]["ocp.solves"] for r in runs)
    failed = sum(r["outcomes"]["ocp.relaxed"] + r["outcomes"]["ocp.fallback"] for r in runs)

    def median(key):
        return statistics.median(r[kind][key] for r in runs)

    def pooled(key):
        return statistics.median(s for r in runs for s in r[f"{kind}_samples"][key])

    return {
        "setup_s": (pooled("setup_s"), "s"),
        "run_s": (median("run_s"), "s"),
        "solve_ms.p50": (solve_ms(runs, 50, kind), "ms"),
        "solve_ms.p90": (solve_ms(runs, 90, kind), "ms"),
        "write_s": (pooled("write_s"), "s"),
        "report_s": (pooled("report_s"), "s"),
        "pipeline_s": (median("pipeline_s"), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "solve_ok_frac": (1.0 - failed / solves if solves else 0.0, "ratio"),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    names = traced[0]["layers"]
    out = {
        k: (statistics.median(r["layers"][k] for r in traced), traced[0]["layer_units"][k])
        for k in names
    }
    run_plain = statistics.median(r["scaled"]["run_s"] for r in untraced)
    run_traced = statistics.median(r["scaled"]["run_s"] for r in traced)
    # the tail beyond p90 moves with the seed on ablation-ball; reported unbounded
    out["solve_ms.p99"] = (solve_ms(untraced, 99), "ms")
    out["trace.run_s"] = (run_traced, "s")
    out["trace.overhead_run_s"] = (run_traced - run_plain, "s")
    out["trace.overhead_frac"] = ((run_traced - run_plain) / run_plain, "ratio")
    out["hooks.absent"] = (
        float(sum(v == "absent" for v in traced[0]["probes"].values())), "count"
    )
    return out


def check_ledger(fingerprint: str, runs: list[dict]) -> list[str]:
    """Trace hashes must repeat for one source tree, and differ by seed only
    where the workload's inputs depend on it. The ledger lives in the work
    directory, so it spans every run made in this checkout."""
    path = WORK / "ledger.json"
    ledger = json.loads(path.read_text()) if path.is_file() else {}
    seen = ledger.setdefault(fingerprint, {})
    problems = []
    for r in runs:
        sha = r["gate"]["info"].get("trace_sha256")
        if sha is None:
            continue
        wl = WORKLOADS[r["workload"]]
        table = seen.setdefault(wl.name, {})
        key = str(r["seed"]) if wl.ball else "any"
        if table.setdefault(key, sha) != sha:
            problems.append(f"{wl.name} seed {r['seed']}: trace differs from an earlier run")
        if wl.ball:
            clash = [s for s, h in table.items() if h == sha and s != key]
            if clash:
                problems.append(f"{wl.name} seeds {key} and {clash[0]}: identical traces")
    path.write_text(json.dumps(ledger, indent=1) + "\n")
    return problems


def load_contract(root: Path) -> dict:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", help="also write the full record, raw samples included")
    opts = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    started = time.monotonic()
    deadline = started + DEADLINE_S

    try:
        names = opts.workload.split(",")
        unknown = [n for n in names if n not in WORKLOADS]
        if unknown:
            raise BenchError(f"unknown workload(s) {unknown}; known: {sorted(WORKLOADS)}")
        if not (ROOT / "src" / "tubeform" / "cli.py").is_file():
            raise BenchError(f"no tubeform sources under {ROOT / 'src'}")
        for n in names:
            if not (ROOT / WORKLOADS[n].scenario).is_file():
                raise BenchError(f"scenario {WORKLOADS[n].scenario} not found")
        contract = load_contract(ROOT)
        wanted = contract["per_layer" if opts.trace else "end_to_end"]
        host = host_info(ROOT)

        runs: dict[str, list[dict]] = {n: [] for n in names}
        rounds = 0
        while True:
            round_start = time.monotonic()
            order = names if rounds % 2 == 0 else names[::-1]
            for name in order:
                if opts.trace:
                    runs[name].append(run_child(name, opts.seed, "untraced", 0, deadline))
                    runs[name].append(run_child(name, opts.seed, "traced", 0, deadline))
                else:
                    runs[name].append(
                        run_child(name, opts.seed, "untraced", REPLAYS, deadline)
                    )
            rounds += 1
            now = time.monotonic()
            if now + (now - round_start) > started + opts.seconds:
                break
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    metrics: dict = {}
    failures: list[str] = []
    attempted = failed = 0
    for name in names:
        mine = runs[name]
        plain = [r for r in mine if r["mode"] == "untraced"]
        traced = [r for r in mine if r["mode"] == "traced"]
        values = per_layer(plain, traced) if opts.trace else end_to_end(plain)
        prefix = f"{name}/" if len(names) > 1 else ""
        for m in wanted:
            value, unit = values[m["name"]]
            metrics[prefix + m["name"]] = {"value": value, "unit": unit}
        for r in mine:
            attempted += 1
            broken = [c for c, ok in r["gate"]["checks"].items() if not ok]
            if broken:
                failed += 1
                failures.append(f"{name} ({r['mode']}): {', '.join(broken)}")
        if len({json.dumps(r["outcomes"], sort_keys=True) for r in mine}) > 1:
            failures.append(f"{name}: solver outcomes differ between repeats")
    failures += check_ledger(host["source_sha256"], [r for n in names for r in runs[n]])

    context = {
        "host": host,
        "rounds": rounds,
        "repeats": {
            n: [
                {
                    "mode": r["mode"],
                    "loadavg_1m": r["loadavg_1m"],
                    "peak_rss_mb": r["peak_rss_mb"],
                    "process_peak_rss_mb": r["process_peak_rss_mb"],
                    "raw": r["raw"],
                    "scaled": r["scaled"],
                    "raw_samples": r["raw_samples"],
                    "pace": r["pace"],
                    "solves_timed": len(r["solve_raw_s"]),
                    "outcomes": r["outcomes"],
                    "gate": r["gate"],
                    "absent_probes": sorted(k for k, v in r["probes"].items() if v == "absent"),
                    "observer_errors": r["observer_errors"],
                }
                for r in runs[n]
            ]
            for n in names
        },
        "problems": failures,
    }
    if not opts.trace:
        context["raw_metrics"] = {
            n: {k: v for k, (v, _) in end_to_end(
                [r for r in runs[n] if r["mode"] == "untraced"], "raw").items()}
            for n in names
        }
    for line in failures:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    if opts.out:
        Path(opts.out).write_text(
            json.dumps({"context": context, "metrics": metrics, "repeats": runs}, indent=1) + "\n"
        )
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
