"""allocshift benchmark: the find-worst, evaluate and fig2 runs through allocshift.cli.main.

    python3 bench/run.py --workload {find-worst,evaluate,fig2} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the program from src/. The load
is closed-loop with one client: every measured pass is a fresh process
(bench/child.py) that sets up the workload's inputs from the seed, then runs
the workload's CLI commands one after another in-process, so like a user's CLI
call it starts with cold caches. Passes repeat until there are PASSES of them
and --seconds of pass time, and the medians over passes are reported.
Throughput on a shared host moved by a third between consecutive passes, so one
pass is not enough.

--trace 0 prints the end-to-end metrics: setup_s (interpreter start, import,
input generation, predictor training, input files, and for evaluate the input
reports), wall_s (the command pass) and peak_rss_mb (ru_maxrss of the pass
process). --trace 1 makes one untraced and one traced pass and prints the
per-layer metrics of bench/tracing.py, with both wall times.

Every command uses one BLAS thread and --workers 1 where the CLI has it, so a
run uses one core; worker scaling is not measured on a 2-core machine. The last
stdout line is the JSON result; the line before it records the environment,
the checksum of the computed values and anything that failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracing import SPAN_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["find-worst", "evaluate", "fig2"]
LOSS_KINDS = ["misclass_rate", "top_k", "fairness_gini", "knapsack", "nash_welfare",
              "cross_entropy"]  # the kinds the workloads score
PASSES = 3
TIME_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_child(args, mode: str, workdir: str, deadline: float) -> dict:
    """Run bench/child.py once and return its result with setup_s filled in."""
    os.makedirs(workdir)
    out = os.path.join(workdir, "result.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    argv = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--mode", mode, "--workdir", workdir, "--out", out]
    with open(os.path.join(workdir, "child.log"), "wb") as log:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT, env=env,
                                  timeout=max(1.0, deadline - spawned))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} process exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}; see {log.name}")
    with open(out, "r", encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["setup_end"] - spawned
    return result


def measure(args, root: str, deadline: float) -> list[dict]:
    """Passes until there are PASSES of them and --seconds of pass time."""
    passes: list[dict] = []
    measured = 0.0
    while len(passes) < PASSES or measured < args.seconds:
        started = time.monotonic()
        passes.append(run_child(args, "pass", os.path.join(root, f"pass{len(passes)}"),
                                deadline))
        measured += passes[-1]["wall_s"]
        if time.monotonic() + (time.monotonic() - started) > deadline:
            break
    return passes


def per_layer(traced: dict, untraced: dict) -> dict:
    metrics = {}
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    for name in SPAN_NAMES:
        agg = traced["spans"].get(name, zero)
        metrics[f"{name}.calls"] = (agg["calls"], "count")
        metrics[f"{name}.total_s"] = (agg["total_s"], "s")
        metrics[f"{name}.self_s"] = (agg["self_s"], "s")
    for kind in LOSS_KINDS:
        agg = traced["spans"].get(f"losses.batch_shifted_loss.{kind}", zero)
        metrics[f"losses.batch_shifted_loss.{kind}.total_s"] = (agg["total_s"], "s")
    metrics.update({
        "engine.rows_drawn": (traced["rows_drawn"], "count"),
        "losses.rows_scored": (traced["rows_scored"], "count"),
        "losses.rows_per_draw": (traced["rows_scored"] / traced["rows_drawn"], "ratio"),
        "losses.peak_mb": (traced["loss_peak_mb"], "MB"),
        "oracle.multisets": (traced["multisets"], "count"),
        "oracle.degenerate_pools": (traced["degenerate_pools"], "count"),
        "cli.failed_frac": ((traced["failed"] + untraced["failed"])
                            / (traced["attempted"] + untraced["attempted"]), "ratio"),
        "trace.wall_s": (traced["wall_s"], "s"),
        "trace.untraced_wall_s": (untraced["wall_s"], "s"),
    })
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "allocshift", "cli.py")):
        print("error: run from the root of an allocshift checkout (src/allocshift missing)",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    root = os.path.join(".bench_work", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(root, ignore_errors=True)
    try:
        if args.trace:
            untraced = run_child(args, "pass", os.path.join(root, "pass0"), deadline)
            traced = run_child(args, "traced", os.path.join(root, "traced"), deadline)
            passes = [untraced, traced]
            metrics = per_layer(traced, untraced)
        else:
            passes = measure(args, root, deadline)
            metrics = {
                "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
                "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
                "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
            }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    checksums = sorted({p["checksum"] for p in passes})
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": {**passes[0]["env"], "nproc": os.cpu_count(), "cpu": cpu_model(),
                "workers": f"worker scaling not measured on {os.cpu_count()} CPUs: every run "
                           "uses --workers 1 and one BLAS thread"},
        "checksum": checksums, "failed_frac": failed / attempted,
        "problems": [msg for p in passes for msg in p["problems"]],
        "degenerate_pools": passes[0]["degenerate_pools"],
        "absent": passes[-1].get("absent", []),
        "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
                   for p in passes],
    }
    with open(os.path.join(root, "record.json"), "w", encoding="utf-8") as fh:
        json.dump({**record, "metrics": metrics}, fh, indent=2)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and len(checksums) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
