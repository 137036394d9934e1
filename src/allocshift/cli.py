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
import os
import platform
import sys
import time

import numpy as np

from ._version import __version__
from .data import Cohort, SchemaConfig, load_cohort, read_json, write_json
from .engine import (FwParams, WorstCaseReport, find_worst_case, load_report, prepare_pools,
                     save_report)
from .errors import ConfigError, DataError, exit_code, number
from .evaluation import (INSTANCE_DRAWS, PROBLEM_DRAWS, check_enumerations,
                         diagonal_normalize, matrix_from_shifts, metric_names,
                         oracle_ratio_curve)
from .losses import LossSpec, loss_spec_to_dict, parse_loss_spec, read_json_source
from .oracle import RESTARTS, enumerate_problems, frank_wolfe_gap, oracle_maximize
from .predictors import Predictor, TrainConfig, load_predictor, save_predictor, train
from .reporting import (read_matrix_csv, render_heatmap, write_curve_csv,
                        write_matrix_csv, write_trace_csv)
from .uncertainty import UncertaintyBudget


def _load_config_file(path: str) -> dict:
    raw = read_json(_existing(path, "--config"), "--config file", ConfigError)
    if not isinstance(raw, dict):
        raise ConfigError(f"--config file {path!r}: top level must be an object")
    if isinstance(raw.get("config"), dict) and ("command" in raw or "outputs" in raw):
        raw = raw["config"]  # a manifest: reuse its recorded configuration
    return raw


def _flag(help_text: str, default=None, **options) -> tuple:
    return help_text, default, options


# Every flag, once: key -> (help, default, argparse options). The key is the
# config key and, with "_" as "-", the flag; a trailing "+" marks the
# repeatable variant of a flag. A default of None means unset, or a value the
# command works out from its inputs (the help says which). The parser leaves
# every flag None when absent, so the config file can fill it. type=str marks
# an output path, checked by _writable when resolved.
_FLAGS = {
    "config": _flag("JSON config file or a previous run's manifest"),
    "out": _flag("primary output path", type=str),
    "seed": _flag("random seed", FwParams.seed, type=int),
    "cohort": _flag("cohort file (canonical JSON, or delimited text with --schema)"),
    "schema": _flag("column schema JSON for delimited cohort files"),
    "predictor": _flag("predictor JSON, or a two-column id,score table"),
    "kind": _flag("model family", "logistic", choices=["logistic", "mlp"]),
    "lr": _flag("initial learning rate", TrainConfig.learning_rate, type=float),
    "epochs": _flag("training epochs", TrainConfig.epochs, type=int),
    "hidden": _flag("mlp hidden widths, comma separated", ",".join(map(str, TrainConfig.hidden))),
    "embed_dim": _flag("mlp categorical embedding size", TrainConfig.embed_dim, type=int),
    "loss": _flag("loss spec: a JSON object or a path to a file holding one"),
    "rho_ind": _flag("within-instance chi-square radius (default: pool size, the full simplex)",
                     type=float),
    "rho_xi": _flag("across-instance chi-square radius", 6.25, type=float),
    "iters": _flag("search iterations T", FwParams.iterations, type=int),
    "samples": _flag("gradient samples per iteration", FwParams.num_samples, type=int),
    "samples2": _flag("final loss-estimate samples", FwParams.num_samples2, type=int),
    "momentum": _flag("gradient momentum p_t", FwParams.momentum, type=float),
    "draw_size": _flag("individuals per problem (default: pool size)", type=int),
    "workers": _flag("split the instances into this many contiguous parts (at most one per "
                     "instance), each searched in its own process (default: available CPUs)",
                     type=int),
    "report+": _flag("find-worst report JSON (repeatable)", action="append"),
    "metrics": _flag("loss specs: a JSON list or a path to a file holding one "
                     "(default: the losses of the given reports)"),
    "eval_instances": _flag("instance draws", INSTANCE_DRAWS, type=int),
    "eval_problems": _flag("problems per instance draw", PROBLEM_DRAWS, type=int),
    "normalize": _flag("divide each matrix column by its diagonal entry", False,
                       action="store_const", const=True),
    "heatmap": _flag("also write the matrix as an SVG heatmap", type=str),
    "restarts": _flag("oracle ascent restarts", RESTARTS, type=int),
    "grid": _flag("gradient-sample grid", "10,50,250,1000,3000"),
    "matrix": _flag("matrix CSV to print or render"),
    "report": _flag("find-worst report JSON to summarize"),
    "trace": _flag("write the report's per-iteration trace CSV here", type=str),
}


class _Resolver:
    """CLI flag > config file value > default, tracking resolved values."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = _load_config_file(args.config) if args.config else {}
        self.resolved: dict = {}

    def get(self, key: str, required: bool = False, default=None):
        """The key's value, checked against its flag's type; default stands in for the
        _FLAGS default. A config value of null is unset, as in a manifest's config."""
        value = getattr(self.args, key, None)
        if value is None:
            value = self.config.get(key)
        if value is None:
            value = _FLAGS[key][1] if default is None else default
        flag = "--" + key.replace("_", "-")
        if value is None and required:
            raise ConfigError(f"{flag} is required (flag or config)")
        kind = _FLAGS[key][2].get("type")
        if value is not None and kind in (int, float):
            value = number(value, kind, flag)
        if value is not None and kind is str:
            if not isinstance(value, str):
                raise ConfigError(f"{flag} must be a path string, got {value!r}")
            _writable(value, flag)
        self.resolved[key] = value
        return value


def _existing(path: str, flag: str) -> str:
    if not isinstance(path, str) or not os.path.exists(path):
        raise ConfigError(f"{flag} file not found: {path}")
    return path


def _writable(path: str, flag: str) -> str:
    """path, unless it is empty, an existing directory, or in a directory that
    does not exist: then a ConfigError naming flag and path."""
    parent = os.path.dirname(path)
    if not path:
        raise ConfigError(f"{flag} path is empty")
    if os.path.isdir(path):
        raise ConfigError(f"{flag} {path!r} is a directory")
    if parent and not os.path.isdir(parent):
        raise ConfigError(f"{flag} {path!r}: directory {parent!r} does not exist")
    return path


def _int_list(value, flag: str) -> list[int]:
    if isinstance(value, (list, tuple)):
        return [number(v, int, flag) for v in value]
    try:
        return [int(part) for part in str(value).split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag} must be comma-separated integers, got {value!r}") from exc


def _load_cohort_arg(res: _Resolver) -> tuple[Cohort, str]:
    path = _existing(res.get("cohort", required=True), "--cohort")
    schema_path = res.get("schema")
    schema = SchemaConfig.from_json(_existing(schema_path, "--schema")) if schema_path else None
    return load_cohort(path, schema), path


def _load_predictor_arg(res: _Resolver) -> tuple[Predictor, str]:
    path = _existing(res.get("predictor", required=True), "--predictor")
    return load_predictor(path), path


def _loss_arg(res: _Resolver) -> LossSpec:
    spec = parse_loss_spec(res.get("loss", required=True))
    res.resolved["loss"] = loss_spec_to_dict(spec)
    return spec


def _metric_list(raw) -> list[LossSpec]:
    if isinstance(raw, str):
        raw = read_json_source(raw, "--metrics")
    if isinstance(raw, dict):
        raw = [raw]
    if not isinstance(raw, list) or not raw:
        raise ConfigError("--metrics must be a non-empty JSON list of loss objects")
    return [parse_loss_spec(item) for item in raw]


def _seed_arg(res: _Resolver) -> int:
    seed = res.get("seed")
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    return seed


def _budget_arg(res: _Resolver, cohort: Cohort, need_xi: bool = True) -> UncertaintyBudget:
    rho_ind = res.get("rho_ind")
    if rho_ind is None:
        rho_ind = res.resolved["rho_ind"] = float(max(len(p) for p in cohort.pools))
    # oracle and fig2 search within instances only, and record an across radius of 0
    rho_xi = res.get("rho_xi") if need_xi else res.get("rho_xi", default=0.0)
    return UncertaintyBudget(rho_ind=float(rho_ind), rho_xi=float(rho_xi))


def _params_arg(res: _Resolver) -> FwParams:
    return FwParams(iterations=res.get("iters"), num_samples=res.get("samples"),
                    num_samples2=res.get("samples2"), momentum=float(res.get("momentum")),
                    draw_size=res.get("draw_size"), seed=_seed_arg(res))


def _workers_arg(res: _Resolver) -> int:
    workers = res.get("workers")
    if workers is None:
        workers = res.resolved["workers"] = os.cpu_count() or 1
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    return workers


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


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
    write_json(manifest, outputs[0] + ".manifest.json")


def _cmd_train(res: _Resolver) -> list[str]:
    cohort, _ = _load_cohort_arg(res)
    kind = res.get("kind")
    config = TrainConfig(learning_rate=float(res.get("lr")), epochs=res.get("epochs"),
                         hidden=tuple(_int_list(res.get("hidden"), "--hidden")),
                         embed_dim=res.get("embed_dim"))
    seed = _seed_arg(res)
    out = res.get("out", required=True)
    model = train(cohort, kind, config, seed=seed)
    save_predictor(model, out)
    print(f"trained {kind} predictor on {len(cohort.pools)} instances -> {out}")
    return [out]


def _print_report(report: WorstCaseReport) -> None:
    print(f"worst-case expected decision loss: {report.value:.6f}")
    for pid, lam in zip(report.instance_ids, report.instance_losses):
        print(f"  instance {pid}: shifted loss {lam:.6f}")


def _cmd_find_worst(res: _Resolver) -> list[str]:
    cohort, cohort_path = _load_cohort_arg(res)
    predictor, predictor_path = _load_predictor_arg(res)
    loss = _loss_arg(res)
    budget = _budget_arg(res, cohort)
    params = _params_arg(res)
    out = res.get("out", required=True)
    trace_path = _writable((out[:-5] if out.endswith(".json") else out) + "_trace.csv", "--out")
    report = find_worst_case(cohort, predictor, loss, budget, params, workers=_workers_arg(res))
    # the report holds every trace value and is refused whole, before its file
    # opens, if any number is non-finite: both files are written or neither
    save_report(report, out, cohort_path, predictor_path)
    write_trace_csv(report.instance_ids, report.traces, trace_path)
    _print_report(report)
    print(f"report -> {out}; trace -> {trace_path}")
    return [out, trace_path]


def _emit_matrix(res: _Resolver, matrix, out: str | None, heatmap: str | None) -> list[str]:
    """Normalize if asked, write out and heatmap when set, print; the paths written."""
    if bool(res.get("normalize")) and not matrix.normalized:
        matrix = diagonal_normalize(matrix)
    outputs = []
    if out:
        write_matrix_csv(matrix, out)
        outputs.append(out)
    if heatmap:
        render_heatmap(matrix, heatmap)
        outputs.append(heatmap)
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
    return outputs


def _cmd_evaluate(res: _Resolver) -> list[str]:
    cohort, _ = _load_cohort_arg(res)
    predictor, _ = _load_predictor_arg(res)
    report_paths = res.get("report", required=True)
    if not isinstance(report_paths, list):  # one path, from a config file
        report_paths = [report_paths]
    res.resolved["report"] = list(report_paths)
    shifts, row_specs = [], []
    for path in report_paths:
        report = load_report(_existing(path, "--report"))
        if report.instance_ids != cohort.instance_ids:  # shifts apply to pools by position
            raise DataError(f"report {path}: instances {report.instance_ids} are not the "
                            f"cohort's {cohort.instance_ids}")
        shifts.append(report.shift)
        row_specs.append(report.spec)
    metrics_raw = res.get("metrics")
    col_specs = _metric_list(metrics_raw) if metrics_raw is not None else list(row_specs)
    res.resolved["metrics"] = [loss_spec_to_dict(s) for s in col_specs]
    num_instance_draws = res.get("eval_instances")
    num_problem_draws = res.get("eval_problems")
    draw_size = res.get("draw_size")
    seed = _seed_arg(res)
    out, heatmap = res.get("out", required=True), res.get("heatmap")
    matrix = matrix_from_shifts(cohort, predictor, metric_names(row_specs), shifts,
                                col_specs, num_instance_draws, num_problem_draws,
                                draw_size, seed)
    return _emit_matrix(res, matrix, out, heatmap)


def _cmd_oracle(res: _Resolver) -> list[str]:
    cohort, _ = _load_cohort_arg(res)
    predictor, _ = _load_predictor_arg(res)
    spec = _loss_arg(res)
    budget = _budget_arg(res, cohort, need_xi=False)
    draw_size = res.get("draw_size")
    restarts = res.get("restarts")
    seed = _seed_arg(res)
    out = res.get("out", required=True)

    pds = prepare_pools(cohort, predictor, [spec], draw_size)
    draws = check_enumerations(cohort, draw_size)
    instances, rho = [], budget.rho_ind
    for pool, pd, n in zip(cohort.pools, pds, draws):
        enum = enumerate_problems(spec, pd, n)
        q, value = oracle_maximize(enum, rho, restarts=restarts, seed=seed)
        instances.append({"id": pool.instance_id, "q": [float(x) for x in q],
                          "value": float(value) + 1.0, "gap": frank_wolfe_gap(enum, q, rho)})
        print(f"instance {pool.instance_id}: oracle expected decision loss {value + 1.0:.6f}")
    write_json({"draw_size": draw_size, "instances": instances, "rho_ind": budget.rho_ind}, out)
    return [out]


def _cmd_fig2(res: _Resolver) -> list[str]:
    cohort, _ = _load_cohort_arg(res)
    predictor, _ = _load_predictor_arg(res)
    spec = _loss_arg(res)
    budget = _budget_arg(res, cohort, need_xi=False)
    grid = res.resolved["grid"] = _int_list(res.get("grid"), "--grid")
    params = _params_arg(res)
    restarts = res.get("restarts")
    out = res.get("out", required=True)

    curve = oracle_ratio_curve(cohort, predictor, spec, budget, grid, params=params,
                               oracle_restarts=restarts)
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
    out, heatmap = (res.get("out"), res.get("heatmap")) if matrix_path else (None, None)
    trace_out = res.get("trace") if report_path else None
    report = load_report(_existing(report_path, "--report")) if report_path else None
    outputs: list[str] = []
    if matrix_path:
        outputs += _emit_matrix(res, read_matrix_csv(_existing(matrix_path, "--matrix")), out,
                                heatmap)
    if report is not None:
        _print_report(report)
        if trace_out:
            write_trace_csv(report.instance_ids, report.traces, trace_out)
            outputs.append(trace_out)
    return outputs


_INPUTS = ("cohort", "schema", "predictor")

# subcommand -> (handler, summary, flags besides --config, --out and --seed)
_COMMANDS = {
    "train": (_cmd_train, "fit a predictor on a cohort",
              ("cohort", "schema", "kind", "lr", "epochs", "hidden", "embed_dim")),
    "find-worst": (_cmd_find_worst, "search for the worst-case hierarchical shift",
                   (*_INPUTS, "loss", "rho_ind", "rho_xi", "iters", "samples", "samples2",
                    "momentum", "draw_size", "workers")),
    "evaluate": (_cmd_evaluate, "score saved worst-case shifts on a set of metrics",
                 (*_INPUTS, "report+", "metrics", "eval_instances", "eval_problems",
                  "draw_size", "normalize", "heatmap")),
    "oracle": (_cmd_oracle, "exact small-instance worst case by enumeration",
               (*_INPUTS, "loss", "rho_ind", "draw_size", "restarts")),
    "fig2": (_cmd_fig2, "search quality vs the oracle across sample budgets",
             (*_INPUTS, "loss", "grid", "rho_ind", "iters", "momentum", "draw_size", "restarts")),
    "report": (_cmd_report, "render saved artifacts: matrices, reports, traces",
               ("matrix", "normalize", "heatmap", "report", "trace")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="allocshift",
        description="Worst-case distribution shifts for predictive allocation pipelines.")
    parser.add_argument("--version", action="version", version=f"allocshift {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, keys) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for key in ("config", "out", "seed", *keys):
            help_text, default, options = _FLAGS[key]
            if default is not None and not isinstance(default, bool):  # seed's 0 is shown
                help_text += f" (default {default})"
            dest = key.rstrip("+")
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, help=help_text, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        res = _Resolver(args)
        outputs = _COMMANDS[args.command][0](res)
        _write_manifest(args.command, res, outputs, started)
        return 0
    except Exception as exc:  # the one place a failure becomes a message and an exit code
        code = exit_code(exc)
        print(f"error: {exc}" if code > 1 else f"unexpected error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return code

if __name__ == "__main__":
    sys.exit(main())
