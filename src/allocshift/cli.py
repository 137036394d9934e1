"""Command-line front end.

Subcommands: train, find-worst, evaluate, oracle, fig2, report. Every
subcommand accepts --config <json> (either a plain config object or a manifest
written by a previous run, whose "config" block is then reused); explicit
flags override config values, which override defaults. Each run that writes
files also writes <out>.manifest.json recording the resolved configuration,
versions, wall clock, and SHA-256 hashes of the outputs, so any output can be
reproduced byte-for-byte from its manifest alone.

Exit codes: 0 success, 2 configuration errors, 3 data errors, 4 numerical
errors, 1 anything unexpected.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .data import Cohort, SchemaConfig, load_cohort
from .engine import (FwParams, check_task, find_worst_case, load_report, pool_data,
                     save_report)
from .errors import AllocShiftError, ConfigError, DataError, NumericalError
from .evaluation import (diagonal_normalize, matrix_from_shifts, metric_names,
                         oracle_ratio_curve)
from .losses import LossSpec, loss_spec_to_dict, parse_loss_spec
from .oracle import enumerate_problems, frank_wolfe_gap, oracle_maximize
from .predictors import (Predictor, TrainConfig, load_predictor,
                         load_table_predictions, save_predictor, train)
from .reporting import (read_matrix_csv, render_heatmap, write_curve_csv,
                        write_matrix_csv, write_trace_csv, write_trace_rows)
from .uncertainty import UncertaintyBudget

_GRID_DEFAULT = "10,50,250,1000,3000"


def _load_config_file(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"--config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--config {path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"--config {path}: top level must be an object")
    if isinstance(raw.get("config"), dict) and ("command" in raw or "outputs" in raw):
        raw = raw["config"]  # a manifest: reuse its recorded configuration
    return raw


class _Resolver:
    """CLI flag > config file value > default, tracking resolved values."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = _load_config_file(args.config) if args.config else {}
        self.resolved: dict = {}

    def get(self, key: str, default=None, required: bool = False):
        value = getattr(self.args, key, None)
        if value is None:
            value = self.config.get(key, default)
        if value is None and required:
            flag = "--" + key.replace("_", "-")
            raise ConfigError(f"{flag} is required (flag or config)")
        self.resolved[key] = value
        return value


def _existing(path: str, flag: str) -> str:
    if not os.path.exists(path):
        raise ConfigError(f"{flag} file not found: {path}")
    return path


def _int_list(value, flag: str) -> list[int]:
    if isinstance(value, (list, tuple)):
        return [int(v) for v in value]
    try:
        return [int(part) for part in str(value).split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag} must be comma-separated integers, got {value!r}") from exc


def _load_cohort_arg(res: _Resolver) -> tuple[Cohort, str, str | None]:
    path = _existing(res.get("cohort", required=True), "--cohort")
    schema_path = res.get("schema")
    schema = None
    if schema_path:
        schema = SchemaConfig.from_json(_existing(schema_path, "--schema"))
    return load_cohort(path, schema), path, schema_path


def _load_predictor_arg(res: _Resolver) -> tuple[Predictor, str]:
    path = _existing(res.get("predictor", required=True), "--predictor")
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.read(64).lstrip()
    if head.startswith("{"):
        return load_predictor(path), path
    return load_table_predictions(path), path


def _loss_arg(res: _Resolver) -> LossSpec:
    spec = parse_loss_spec(res.get("loss", required=True))
    res.resolved["loss"] = loss_spec_to_dict(spec)
    return spec


def _metric_list(raw) -> list[LossSpec]:
    if isinstance(raw, str):
        text = raw.strip()
        if not text.startswith("[") and not text.startswith("{") and os.path.exists(text):
            with open(text, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        else:
            try:
                raw = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"--metrics: invalid JSON ({exc})") from exc
    if isinstance(raw, dict):
        raw = [raw]
    if not isinstance(raw, list) or not raw:
        raise ConfigError("--metrics must be a non-empty JSON list of loss objects")
    return [parse_loss_spec(item) for item in raw]


def _budget_arg(res: _Resolver, cohort: Cohort, need_xi: bool = True) -> UncertaintyBudget:
    rho_ind = res.get("rho_ind")
    if rho_ind is None:
        rho_ind = float(max(len(p) for p in cohort.pools))
        res.resolved["rho_ind"] = rho_ind
    rho_xi = res.get("rho_xi", 6.25) if need_xi else res.get("rho_xi", 0.0)
    try:
        return UncertaintyBudget(rho_ind=float(rho_ind), rho_xi=float(rho_xi))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _params_arg(res: _Resolver) -> FwParams:
    draw_size = res.get("draw_size")
    try:
        return FwParams(
            iterations=int(res.get("iters", 15)),
            num_samples=int(res.get("samples", 35000)),
            num_samples2=int(res.get("samples2", 4000)),
            momentum=float(res.get("momentum", 0.7)),
            draw_size=None if draw_size is None else int(draw_size),
            seed=int(res.get("seed", 0)),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _workers_arg(res: _Resolver) -> int:
    value = res.get("workers")
    if value is None:
        value = os.cpu_count() or 1
        res.resolved["workers"] = value
    workers = int(value)
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    return workers


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(command: str, res: _Resolver, outputs: list[str], started: float) -> None:
    if not outputs:
        return
    manifest = {
        "command": command,
        "config": res.resolved,
        "seed": res.resolved.get("seed", 0),
        "versions": {
            "allocshift": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "wall_clock_s": round(time.perf_counter() - started, 3),
        "outputs": {path: _sha256(path) for path in outputs},
    }
    path = outputs[0] + ".manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _trace_sidecar(out: str) -> str:
    stem = out[:-5] if out.endswith(".json") else out
    return stem + "_trace.csv"


@dataclass
class RunConfig:
    """Resolved inputs for the worst-case pipeline; every referenced file was
    checked to exist while the field loaded, and the seed sits in params."""

    cohort: Cohort
    cohort_path: str
    predictor: Predictor
    predictor_path: str
    loss: LossSpec
    budget: UncertaintyBudget
    params: FwParams
    out: str
    workers: int


def _pipeline_config(res: _Resolver) -> RunConfig:
    cohort, cohort_path, _ = _load_cohort_arg(res)
    predictor, predictor_path = _load_predictor_arg(res)
    loss = _loss_arg(res)
    budget = _budget_arg(res, cohort)
    params = _params_arg(res)
    out = res.get("out", required=True)
    workers = _workers_arg(res)
    return RunConfig(cohort, cohort_path, predictor, predictor_path, loss, budget,
                     params, out, workers)


def _cmd_train(res: _Resolver) -> list[str]:
    cohort, _, _ = _load_cohort_arg(res)
    kind = res.get("kind", "logistic")
    try:
        config = TrainConfig(
            learning_rate=float(res.get("lr", 0.5)),
            epochs=int(res.get("epochs", 300)),
            hidden=tuple(_int_list(res.get("hidden", "16,16"), "--hidden")),
            embed_dim=int(res.get("embed_dim", 4)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    seed = int(res.get("seed", 0))
    out = res.get("out", required=True)
    model = train(cohort, kind, config, seed=seed)
    save_predictor(model, out)
    print(f"trained {kind} predictor on {len(cohort.pools)} instances -> {out}")
    return [out]


def _cmd_find_worst(res: _Resolver) -> list[str]:
    rc = _pipeline_config(res)
    report = find_worst_case(rc.cohort, rc.predictor, rc.loss, rc.budget, rc.params,
                             workers=rc.workers)
    save_report(report, rc.out, rc.cohort_path, rc.predictor_path)
    trace_path = _trace_sidecar(rc.out)
    write_trace_csv(report, trace_path)
    print(f"worst-case expected decision loss: {report.value:.6f}")
    for pid, lam in zip(report.instance_ids, report.instance_losses):
        print(f"  instance {pid}: shifted loss {lam:.6f}")
    print(f"report -> {rc.out}; trace -> {trace_path}")
    return [rc.out, trace_path]


def _cmd_evaluate(res: _Resolver) -> list[str]:
    cohort, _, _ = _load_cohort_arg(res)
    predictor, _ = _load_predictor_arg(res)
    report_paths = res.get("report", required=True)
    if isinstance(report_paths, str):
        report_paths = [report_paths]
    res.resolved["report"] = list(report_paths)
    shifts, row_specs = [], []
    for path in report_paths:
        raw = load_report(_existing(path, "--report"))
        if raw["instance_ids_order"] != cohort.instance_ids:  # shifts apply to pools by position
            raise DataError(f"report {path}: instances {raw['instance_ids_order']} are not the "
                            f"cohort's {cohort.instance_ids}")
        shifts.append(raw["shift_obj"])
        row_specs.append(raw["loss_obj"])
    metrics_raw = res.get("metrics")
    col_specs = _metric_list(metrics_raw) if metrics_raw is not None else list(row_specs)
    res.resolved["metrics"] = [loss_spec_to_dict(s) for s in col_specs]
    num_instance_draws = int(res.get("eval_instances", 200))
    num_problem_draws = int(res.get("eval_problems", 4000))
    draw_size = res.get("draw_size")
    draw_size = None if draw_size is None else int(draw_size)
    seed = int(res.get("seed", 0))
    normalize = bool(res.get("normalize", False))
    out = res.get("out", required=True)
    heatmap = res.get("heatmap")

    matrix = matrix_from_shifts(cohort, predictor, metric_names(row_specs), shifts,
                                col_specs, num_instance_draws, num_problem_draws,
                                draw_size, seed)
    if normalize:
        matrix = diagonal_normalize(matrix)
    write_matrix_csv(matrix, out)
    outputs = [out]
    if heatmap:
        title = "share of own worst case" if matrix.normalized else "expected decision loss"
        render_heatmap(matrix, heatmap, title=title)
        outputs.append(heatmap)
    _print_matrix(matrix)
    return outputs


def _print_matrix(matrix) -> None:
    width = max(12, *(len(n) + 2 for n in matrix.col_metrics + matrix.row_metrics))
    print("".ljust(width) + "".join(n.rjust(width) for n in matrix.col_metrics))
    for i, rname in enumerate(matrix.row_metrics):
        cells = "".join(f"{matrix.values[i, j]:.4f}".rjust(width)
                        for j in range(len(matrix.col_metrics)))
        print(rname.ljust(width) + cells)
    if matrix.normalized and len(matrix.row_metrics) > 1:
        for j, cname in enumerate(matrix.col_metrics):
            off = [matrix.values[i, j] for i in range(len(matrix.row_metrics)) if i != j]
            print(f"column {cname}: worst off-diagonal reaches "
                  f"{100.0 * min(off):.0f}% of the metric's own worst case")


def _cmd_oracle(res: _Resolver) -> list[str]:
    cohort, _, _ = _load_cohort_arg(res)
    predictor, _ = _load_predictor_arg(res)
    spec = _loss_arg(res)
    check_task(spec, cohort)
    budget = _budget_arg(res, cohort, need_xi=False)
    draw_size = res.get("draw_size")
    draw_size = None if draw_size is None else int(draw_size)
    restarts = int(res.get("restarts", 20))
    seed = int(res.get("seed", 0))
    out = res.get("out", required=True)

    pds = [pool_data(pool, predictor, spec) for pool in cohort.pools]
    instances, rho = [], budget.rho_ind
    for pool, pd in zip(cohort.pools, pds):
        enum = enumerate_problems(spec, pd, draw_size or len(pool))
        q, value = oracle_maximize(enum, rho, restarts=restarts, seed=seed)
        instances.append({"id": pool.instance_id, "q": [float(x) for x in q],
                          "value": float(value) + 1.0, "gap": frank_wolfe_gap(enum, q, rho)})
        print(f"instance {pool.instance_id}: oracle expected decision loss {value + 1.0:.6f}")
    payload = {"draw_size": draw_size, "instances": instances, "rho_ind": budget.rho_ind}
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return [out]


def _cmd_fig2(res: _Resolver) -> list[str]:
    cohort, _, _ = _load_cohort_arg(res)
    predictor, _ = _load_predictor_arg(res)
    spec = _loss_arg(res)
    budget = _budget_arg(res, cohort, need_xi=False)
    grid = _int_list(res.get("grid", _GRID_DEFAULT), "--grid")
    res.resolved["grid"] = grid
    params = _params_arg(res)
    restarts = int(res.get("restarts", 20))
    out = res.get("out", required=True)

    curve = oracle_ratio_curve(cohort, predictor, spec, budget, grid,
                               seed=params.seed, params=params, oracle_restarts=restarts)
    write_curve_csv(curve, out)
    for gi, g in enumerate(curve.grid):
        print(f"num_samples {g}: mean ratio {curve.mean[gi]:.4f} "
              f"(stderr {curve.stderr[gi]:.4f})")
    return [out]


def _cmd_report(res: _Resolver) -> list[str]:
    matrix_path = res.get("matrix")
    report_path = res.get("report")
    if not matrix_path and not report_path:
        raise ConfigError("report needs --matrix or --report")
    raw = load_report(_existing(report_path, "--report")) if report_path else None
    outputs: list[str] = []
    if matrix_path:
        matrix = read_matrix_csv(_existing(matrix_path, "--matrix"))
        if bool(res.get("normalize", False)) and not matrix.normalized:
            matrix = diagonal_normalize(matrix)
        out = res.get("out")
        if out:
            write_matrix_csv(matrix, out)
            outputs.append(out)
        heatmap = res.get("heatmap")
        if heatmap:
            title = "share of own worst case" if matrix.normalized else "expected decision loss"
            render_heatmap(matrix, heatmap, title=title)
            outputs.append(heatmap)
        _print_matrix(matrix)
    if raw is not None:
        print(f"worst-case expected decision loss: {raw['value']:.6f}")
        for pid, lam in zip(raw["instance_ids_order"], raw["instance_losses"]):
            print(f"  instance {pid}: shifted loss {lam:.6f}")
        trace_out = res.get("trace")
        if trace_out:
            write_trace_rows(raw["instance_ids_order"], raw["traces_obj"], trace_out)
            outputs.append(trace_out)
    return outputs


_HANDLERS = {
    "train": _cmd_train,
    "find-worst": _cmd_find_worst,
    "evaluate": _cmd_evaluate,
    "oracle": _cmd_oracle,
    "fig2": _cmd_fig2,
    "report": _cmd_report,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file or a previous run's manifest")
    p.add_argument("--out", help="primary output path")
    p.add_argument("--seed", type=int, help="random seed (default 0)")


def _add_cohort_predictor(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cohort", help="cohort file (canonical JSON, or delimited text with --schema)")
    p.add_argument("--schema", help="column schema JSON for delimited cohort files")
    p.add_argument("--predictor", help="predictor JSON, or a two-column id,score table")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="allocshift",
        description="Worst-case distribution shifts for predictive allocation pipelines.")
    parser.add_argument("--version", action="version", version=f"allocshift {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a predictor on a cohort")
    _add_common(p)
    p.add_argument("--cohort", help="cohort file")
    p.add_argument("--schema", help="column schema JSON for delimited cohort files")
    p.add_argument("--kind", choices=["logistic", "mlp"], help="model family (default logistic)")
    p.add_argument("--lr", type=float, help="initial learning rate (default 0.5)")
    p.add_argument("--epochs", type=int, help="training epochs (default 300)")
    p.add_argument("--hidden", help="mlp hidden widths, comma separated (default 16,16)")
    p.add_argument("--embed-dim", type=int, help="mlp categorical embedding size (default 4)")

    p = sub.add_parser("find-worst", help="search for the worst-case hierarchical shift")
    _add_common(p)
    _add_cohort_predictor(p)
    p.add_argument("--loss", help="loss spec: JSON object, JSON string, or file path")
    p.add_argument("--rho-ind", type=float,
                   help="within-instance chi-square radius (default: pool size, the full simplex)")
    p.add_argument("--rho-xi", type=float, help="across-instance chi-square radius (default 6.25)")
    p.add_argument("--iters", type=int, help="search iterations T (default 15)")
    p.add_argument("--samples", type=int, help="gradient samples per iteration (default 35000)")
    p.add_argument("--samples2", type=int, help="final loss-estimate samples (default 4000)")
    p.add_argument("--momentum", type=float, help="gradient momentum p_t (default 0.7)")
    p.add_argument("--draw-size", type=int, help="individuals per problem (default: pool size)")
    p.add_argument("--workers", type=int,
                   help="max concurrent instances (default: available CPUs)")

    p = sub.add_parser("evaluate", help="score saved worst-case shifts on a set of metrics")
    _add_common(p)
    _add_cohort_predictor(p)
    p.add_argument("--report", action="append", help="find-worst report JSON (repeatable)")
    p.add_argument("--metrics", help="JSON list of loss specs or a file containing one "
                                     "(default: the losses of the given reports)")
    p.add_argument("--eval-instances", type=int, help="instance draws (default 200)")
    p.add_argument("--eval-problems", type=int, help="problems per instance draw (default 4000)")
    p.add_argument("--draw-size", type=int, help="individuals per problem (default: pool size)")
    p.add_argument("--normalize", action="store_const", const=True,
                   help="divide each column by its diagonal entry")
    p.add_argument("--heatmap", help="also render the matrix as an SVG heatmap")

    p = sub.add_parser("oracle", help="exact small-instance worst case by enumeration")
    _add_common(p)
    _add_cohort_predictor(p)
    p.add_argument("--loss", help="loss spec: JSON object, JSON string, or file path")
    p.add_argument("--rho-ind", type=float,
                   help="within-instance chi-square radius (default: pool size)")
    p.add_argument("--draw-size", type=int, help="individuals per problem (default: pool size)")
    p.add_argument("--restarts", type=int, help="ascent restarts (default 20)")

    p = sub.add_parser("fig2", help="search quality vs the oracle across sample budgets")
    _add_common(p)
    _add_cohort_predictor(p)
    p.add_argument("--loss", help="loss spec: JSON object, JSON string, or file path")
    p.add_argument("--grid", help=f"gradient-sample grid (default {_GRID_DEFAULT})")
    p.add_argument("--rho-ind", type=float,
                   help="within-instance chi-square radius (default: pool size)")
    p.add_argument("--iters", type=int, help="search iterations T (default 15)")
    p.add_argument("--momentum", type=float, help="gradient momentum p_t (default 0.7)")
    p.add_argument("--draw-size", type=int, help="individuals per problem (default: pool size)")
    p.add_argument("--restarts", type=int, help="oracle ascent restarts (default 20)")

    p = sub.add_parser("report", help="render saved artifacts: matrices, reports, traces")
    _add_common(p)
    p.add_argument("--matrix", help="matrix CSV to print or render")
    p.add_argument("--normalize", action="store_const", const=True,
                   help="diagonal-normalize the matrix first")
    p.add_argument("--heatmap", help="write an SVG heatmap of the matrix")
    p.add_argument("--report", help="find-worst report JSON to summarize")
    p.add_argument("--trace", help="write the report's per-iteration trace CSV here")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        res = _Resolver(args)
        outputs = _HANDLERS[args.command](res)
        _write_manifest(args.command, res, outputs, started)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except AllocShiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything not mapped above
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
