"""One fresh process of a benchmark run: set up a workload's inputs, then make one
closed-loop pass through its CLI commands in-process and check their outputs.

Started by bench/run.py from the root of a checkout, with PYTHONPATH=src:

    python3 bench/child.py --workload fig2 --seed 0 --mode pass --workdir DIR --out RESULT

--mode traced wraps each module's public functions (bench/tracing.py) for the
pass. The program sees only the generated cohort and predictor files and the
CLI flags.
"""

from __future__ import annotations

import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"  # one BLAS thread; must be set before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import allocshift  # noqa: E402  (imports every module, so the tracer can find all aliases)
from allocshift import cli  # noqa: E402
from allocshift.data import BINARY, REGRESSION, SyntheticSpec, generate_synthetic, write_cohort  # noqa: E402
from allocshift.reporting import read_curve_csv, read_matrix_csv  # noqa: E402
from allocshift.uncertainty import is_feasible, offset_to_distribution, shift_from_dict  # noqa: E402

from tracing import Tracer, rebound  # noqa: E402  (bench/ is sys.path[0])

DEGENERATE_TOL = 1e-9  # |oracle optimum| below this: float-noise zero, ratio undefined
RATIO_TOL = 1e-6

BINARY_COHORT = SyntheticSpec(instances=4, pool_size=40)  # find-worst and evaluate
# nash_welfare needs positive predicted incomes. At the default income scale (10)
# the MLP predicts a negative income somewhere on 5 of seeds 0-39, and the command
# fails; at scale 2 it predicted none on seeds 0-999 or on 1000 random seeds.
REGRESSION_COHORT = SyntheticSpec(instances=4, pool_size=40, task=REGRESSION, income_scale=2.0)
ITERS, SAMPLES, SAMPLES2 = 5, 10000, 4000
FIND_WORST_FLAGS = ["--draw-size", "10", "--samples", str(SAMPLES), "--samples2", str(SAMPLES2),
                    "--iters", str(ITERS), "--rho-ind", "4", "--rho-xi", "2", "--workers", "1"]
FIND_WORST_LOSSES = [(BINARY, {"kind": "misclass_rate"}), (BINARY, {"kind": "top_k", "k": 3}),
                     (BINARY, {"kind": "fairness_gini", "k": 3}), (BINARY, {"kind": "knapsack"}),
                     (REGRESSION, {"kind": "nash_welfare", "budget": 5})]
# The evaluate inputs fix the batch each cell scores. --rho-xi 4 exceeds the
# largest divergence over 4 instances (3), so each shift puts all instance weight
# on its worst pool and a cell draws all 200 x 300 problems from that one pool;
# --rho-ind 1 keeps those draws nearly all distinct. With a tighter across ball
# or a looser within ball, the pool's share and the distinct rows depend on the
# seed, and so did peak RSS (788-1257 MB over seeds 1-5).
EVAL_REPORT_FLAGS = ["--draw-size", "8", "--samples", "1000", "--samples2", "4000",
                     "--iters", "15", "--rho-ind", "1", "--rho-xi", "4", "--workers", "1"]
EVAL_ROWS = [{"kind": "misclass_rate"}, {"kind": "top_k", "k": 3},
             {"kind": "fairness_gini", "k": 3}, {"kind": "knapsack"}]
EVAL_COLS = EVAL_ROWS + [{"kind": "cross_entropy"}]
EVAL_INSTANCES, EVAL_PROBLEMS = 200, 300
# fig2 runs fixed inputs and ignores the workload seed. The oracle's projected
# ascent stops at a step that depends on the pool and the start (one pool took
# 0.05 s, another 7.9 s): on seed-generated pools the pass took 12.7-33 s over
# seeds 1-5, and with fixed pools but the seed driving the search and oracle
# starts, 18.4-27.3 s over seeds 1-10. Either way it timed the seed, not the code.
FIG2_SEED = 0
FIG2_COHORT = SyntheticSpec(instances=8, pool_size=8)
FIG2_GRID = [10, 100, 1000]
FIG2_ITERS = 15
# --restarts 9 is the oracle's floor for 8-person pools (the centre plus one
# start leaning to each person), and fairness_gini holds the degenerate pools.
FIG2_FLAGS = ["--grid", ",".join(map(str, FIG2_GRID)), "--iters", str(FIG2_ITERS),
              "--draw-size", "6", "--rho-ind", "2", "--restarts", "9"]
FIG2_LOSSES = [{"kind": "misclass_rate"}, {"kind": "fairness_gini", "k": 2}]


def run_cli(argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects a flag
        return exc.code if isinstance(exc.code, int) else 1


def make_inputs(wd: str, seed: int, spec: SyntheticSpec, kind: str) -> tuple[str, str]:
    """Write a synthetic cohort and train a predictor on it; returns both paths."""
    cohort_path = os.path.join(wd, f"{spec.task}.json")
    predictor_path = os.path.join(wd, f"{spec.task}_{kind}.json")
    write_cohort(generate_synthetic(spec, seed), cohort_path)
    if run_cli(["train", "--cohort", cohort_path, "--kind", kind, "--seed", str(seed),
                "--out", predictor_path]) != 0:
        raise RuntimeError(f"setup: training the {kind} predictor failed")
    return cohort_path, predictor_path


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def file_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class Command:
    """One CLI call of the pass, the problems it draws, and how its output is checked.

    check() gives (problem or None, checksum of the computed values, degenerate
    pools); optima collects the maxima oracle_maximize returns during the call.
    """

    def __init__(self, argv: list[str], rows_drawn: int, check, optima=None):
        self.argv = argv
        self.rows_drawn = rows_drawn
        self.check = check
        self.optima: list[float] = [] if optima is None else optima


def check_report(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    shift, _, budget = shift_from_dict(raw["shift"])
    ok, why = is_feasible(shift, budget)
    if not ok:
        return f"{path}: infeasible shift: {why}", None, 0
    lam = np.asarray(raw["instance_losses"], dtype=np.float64)
    expected = float(offset_to_distribution(shift.across) @ lam + 1.0)
    if not np.isclose(raw["value"], expected, rtol=1e-12, atol=1e-12):
        return (f"{path}: value {raw['value']!r} != <q_xi, instance_losses> + 1 = {expected!r}",
                None, 0)
    return None, digest(raw["value"], raw["instance_losses"], raw["shift"]), 0


def find_worst(wd: str, seed: int) -> list[Command]:
    inputs = {BINARY: make_inputs(wd, seed, BINARY_COHORT, "logistic"),
              REGRESSION: make_inputs(wd, seed, REGRESSION_COHORT, "mlp")}
    rows = BINARY_COHORT.instances * (ITERS * SAMPLES + SAMPLES2)
    commands = []
    for task, loss in FIND_WORST_LOSSES:
        cohort, predictor = inputs[task]
        out = os.path.join(wd, f"fw_{loss['kind']}.json")
        argv = ["find-worst", "--cohort", cohort, "--predictor", predictor, "--loss",
                json.dumps(loss), *FIND_WORST_FLAGS, "--seed", str(seed), "--out", out]
        commands.append(Command(argv, rows, functools.partial(check_report, out)))
    return commands


def evaluate(wd: str, seed: int) -> list[Command]:
    cohort, predictor = make_inputs(wd, seed, BINARY_COHORT, "logistic")
    reports = []
    for loss in EVAL_ROWS:
        out = os.path.join(wd, f"shift_{loss['kind']}.json")
        if run_cli(["find-worst", "--cohort", cohort, "--predictor", predictor, "--loss",
                    json.dumps(loss), *EVAL_REPORT_FLAGS, "--seed", str(seed), "--out", out]) != 0:
            raise RuntimeError(f"setup: the {loss['kind']} input report failed")
        reports += ["--report", out]
    out = os.path.join(wd, "matrix.csv")
    argv = ["evaluate", "--cohort", cohort, "--predictor", predictor, *reports,
            "--metrics", json.dumps(EVAL_COLS), "--eval-instances", str(EVAL_INSTANCES),
            "--eval-problems", str(EVAL_PROBLEMS), "--draw-size", "8", "--seed", str(seed),
            "--out", out]

    def check():
        matrix = read_matrix_csv(out)
        shape = (len(EVAL_ROWS), len(EVAL_COLS))
        if matrix.values.shape != shape:
            return f"matrix shape {matrix.values.shape}, expected {shape}", None, 0
        if not (np.all(np.isfinite(matrix.values)) and np.all(np.isfinite(matrix.stderr))):
            return "matrix has non-finite cells", None, 0
        if np.any(matrix.stderr < 0):
            return "matrix has a negative stderr", None, 0
        return None, digest(file_bytes(out)), 0

    rows = len(EVAL_ROWS) * len(EVAL_COLS) * EVAL_INSTANCES * EVAL_PROBLEMS
    return [Command(argv, rows, check)]


def fig2(wd: str, seed: int) -> list[Command]:
    seed = FIG2_SEED
    cohort, predictor = make_inputs(wd, seed, FIG2_COHORT, "logistic")
    commands = []
    for loss in FIG2_LOSSES:
        out = os.path.join(wd, f"curve_{loss['kind']}.csv")
        argv = ["fig2", "--cohort", cohort, "--predictor", predictor, "--loss", json.dumps(loss),
                *FIG2_FLAGS, "--seed", str(seed), "--out", out]
        optima: list[float] = []

        def check(out=out, optima=optima):
            curve = read_curve_csv(out)
            pools = FIG2_COHORT.instances
            if curve.ratios.shape != (pools, len(FIG2_GRID)):
                return f"{out}: curve shape {curve.ratios.shape}", None, 0
            if len(optima) != pools:
                return f"{out}: {len(optima)} oracle optima for {pools} pools", None, 0
            degenerate = 0
            for pid, row, best in zip(curve.instance_ids, curve.ratios, optima):
                # the known defect: the ratio of a float-noise-zero optimum is noise
                if abs(best + 1.0) < DEGENERATE_TOL:
                    degenerate += 1
                elif np.any(row < 0.0) or np.any(row > 1.0 + RATIO_TOL):
                    return f"{out}: pool {pid} ratios {row.tolist()} outside [0, 1]", None, 0
            return None, digest(file_bytes(out)), degenerate

        commands.append(Command(argv, FIG2_COHORT.instances * FIG2_ITERS * sum(FIG2_GRID),
                                check, optima))
    return commands


WORKLOADS = {"find-worst": find_worst, "evaluate": evaluate, "fig2": fig2}


def keep_optima(optima: list[float]):
    """Wrap oracle_maximize to keep the maxima it returns: the fig2 curve CSV holds
    ratios but not the optimum each pool's ratio divides by."""
    def wrap(fn):
        @functools.wraps(fn)
        def kept(*args, **kwargs):
            q, best = fn(*args, **kwargs)
            optima.append(float(best))
            return q, best
        return kept
    return wrap


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["pass", "traced"], required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    commands = WORKLOADS[args.workload](args.workdir, args.seed)
    result = {"setup_end": time.monotonic(),
              "env": {"python": platform.python_version(), "numpy": np.__version__,
                      "allocshift": allocshift.__version__,
                      **{v: os.environ[v] for v in BLAS_VARS}}}
    tracer = Tracer()
    codes = []
    with contextlib.ExitStack() as stack:
        if args.mode == "traced":
            stack.enter_context(tracer.installed())
        start, cpu = time.perf_counter(), time.process_time()
        for cmd in commands:
            with rebound("oracle.oracle_maximize", keep_optima(cmd.optima)):
                codes.append(run_cli(cmd.argv))
        result["wall_s"] = time.perf_counter() - start
        result["cpu_s"] = time.process_time() - cpu
    problems, sums, degenerate = [], [], 0
    for cmd, code in zip(commands, codes):
        problem, checksum, bad = f"exit code {code}", None, 0
        if code == 0:
            try:
                problem, checksum, bad = cmd.check()
            except Exception as exc:  # an unreadable output fails its command, not the run
                problem = f"{cmd.argv[0]} output check: {type(exc).__name__}: {exc}"
        problems.append(problem)
        sums.append(checksum)
        degenerate += bad
    result.update(
        attempted=len(commands), failed=sum(p is not None for p in problems),
        problems=[p for p in problems if p], checksum=digest(sums),
        rows_drawn=sum(c.rows_drawn for c in commands), degenerate_pools=degenerate,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if args.mode == "traced":
        result.update(spans=tracer.totals(), absent=tracer.absent,
                      rows_scored=tracer.rows_scored, multisets=tracer.multisets,
                      loss_peak_mb=tracer.peak_bytes / 2**20)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
