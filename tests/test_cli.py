import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocshift import (ConfigError, CrossMetricMatrix, TrainConfig, UncertaintyBudget,
                        demo_cohort_path, write_cohort, write_matrix_csv)
from allocshift import cli, evaluation
from allocshift.cli import main
from allocshift.reporting import read_curve_csv, read_matrix_csv
from conftest import make_cohort, make_pool


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Tiny cohort + table predictor on disk, shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    pools = [make_pool("a", [1.0, 0.0]), make_pool("b", [0.0, 1.0])]
    cohort = make_cohort(pools)
    cohort_path = root / "cohort.json"
    write_cohort(cohort, str(cohort_path))
    predictor_path = root / "scores.csv"
    predictor_path.write_text("id,score\na-0,0.1\na-1,0.2\nb-0,0.3\nb-1,0.4\n")
    return root


def run(argv, capsys=None):
    code = main([str(a) for a in argv])
    if capsys is None:
        return code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FAST = ["--iters", "3", "--samples", "200", "--samples2", "200",
        "--draw-size", "1", "--workers", "1"]


def find_worst_args(workdir, out, extra=()):
    return ["find-worst", "--cohort", workdir / "cohort.json",
            "--predictor", workdir / "scores.csv",
            "--loss", '{"kind": "misclass_rate"}',
            "--rho-ind", "2.0", "--rho-xi", "1.0",
            *FAST, "--out", out, *extra]


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "allocshift" in capsys.readouterr().out


def test_train_demo_cohort(tmp_path, capsys):
    out = tmp_path / "model.json"
    code, stdout, _ = run(["train", "--cohort", demo_cohort_path("binary"),
                           "--epochs", "40", "--out", out], capsys)
    assert code == 0
    assert "trained logistic" in stdout
    assert out.exists()
    manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["epochs"] == 40
    assert str(out) in manifest["outputs"]


def test_find_worst_outputs_and_manifest(workdir, tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run(find_worst_args(workdir, out), capsys)
    assert code == 0
    assert "worst-case expected decision loss" in stdout
    report = json.loads(out.read_text())
    assert 0.0 <= report["value"] <= 1.0
    trace = tmp_path / "report_trace.csv"
    assert trace.exists()
    manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
    assert manifest["command"] == "find-worst"
    assert manifest["config"]["rho_ind"] == 2.0
    assert manifest["config"]["loss"] == {"kind": "misclass_rate", "threshold": 0.5}
    assert set(manifest["outputs"]) == {str(out), str(trace)}
    assert manifest["versions"]["allocshift"]


def test_manifest_rerun_is_byte_identical(workdir, tmp_path):
    out1 = tmp_path / "r1.json"
    assert run(find_worst_args(workdir, out1)) == 0
    manifest = tmp_path / "r1.json.manifest.json"
    out2 = tmp_path / "r2.json"
    assert run(["find-worst", "--config", manifest, "--out", out2]) == 0
    assert out2.read_bytes() == out1.read_bytes()
    assert (tmp_path / "r2_trace.csv").read_bytes() == (tmp_path / "r1_trace.csv").read_bytes()


def test_config_precedence(workdir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "cohort": str(workdir / "cohort.json"),
        "predictor": str(workdir / "scores.csv"),
        "loss": {"kind": "misclass_rate"},
        "rho_ind": 2.0, "rho_xi": 1.0, "iters": 3, "samples": 200,
        "samples2": 200, "draw_size": 1, "workers": 1, "seed": 0,
    }))
    out1 = tmp_path / "seed0.json"
    assert run(["find-worst", "--config", config, "--out", out1]) == 0
    # explicit flag overrides the config file value
    out2 = tmp_path / "seed9.json"
    assert run(["find-worst", "--config", config, "--seed", "9", "--out", out2]) == 0
    m2 = json.loads((tmp_path / "seed9.json.manifest.json").read_text())
    assert m2["seed"] == 9
    assert json.loads(out1.read_text())["params"]["seed"] == 0
    assert json.loads(out2.read_text())["params"]["seed"] == 9
    # a null config value is unset, as in a manifest's config block; it once
    # reached `seed < 0` as None and exited 1
    config.write_text(json.dumps({**json.loads(config.read_text()), "seed": None}))
    out3 = tmp_path / "null.json"
    assert run(["find-worst", "--config", config, "--out", out3]) == 0
    assert json.loads(out3.read_text())["params"]["seed"] == 0


def test_evaluate_and_heatmap(workdir, tmp_path, capsys):
    report = tmp_path / "report.json"
    assert run(find_worst_args(workdir, report)) == 0
    matrix = tmp_path / "matrix.csv"
    heat = tmp_path / "matrix.svg"
    code, stdout, _ = run(["evaluate", "--cohort", workdir / "cohort.json",
                           "--predictor", workdir / "scores.csv",
                           "--report", report,
                           "--metrics", '[{"kind": "misclass_rate"}, {"kind": "top_k", "k": 1}]',
                           "--eval-instances", "20", "--eval-problems", "30",
                           "--draw-size", "1", "--heatmap", heat,
                           "--out", matrix], capsys)
    assert code == 0
    mat = read_matrix_csv(str(matrix))
    assert mat.row_metrics == ["misclass_rate"]
    assert mat.col_metrics == ["misclass_rate", "top_k"]
    assert heat.read_text().startswith("<svg")
    assert "misclass_rate" in stdout
    manifest = json.loads((tmp_path / "matrix.csv.manifest.json").read_text())
    assert set(manifest["outputs"]) == {str(matrix), str(heat)}


def test_evaluate_default_metrics_are_report_losses(workdir, tmp_path):
    report = tmp_path / "report.json"
    assert run(find_worst_args(workdir, report)) == 0
    matrix = tmp_path / "matrix.csv"
    assert run(["evaluate", "--cohort", workdir / "cohort.json",
                "--predictor", workdir / "scores.csv", "--report", report,
                "--eval-instances", "10", "--eval-problems", "20",
                "--draw-size", "1", "--out", matrix]) == 0
    mat = read_matrix_csv(str(matrix))
    assert mat.col_metrics == ["misclass_rate"]


def test_oracle_subcommand(workdir, tmp_path, capsys):
    out = tmp_path / "oracle.json"
    code, stdout, _ = run(["oracle", "--cohort", workdir / "cohort.json",
                           "--predictor", workdir / "scores.csv",
                           "--loss", '{"kind": "misclass_rate"}',
                           "--rho-ind", "2.0", "--draw-size", "1",
                           "--restarts", "5", "--out", out], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    assert [inst["id"] for inst in payload["instances"]] == ["a", "b"]
    # each pool has one misclassified member reachable inside the ball
    for inst in payload["instances"]:
        assert inst["value"] == pytest.approx(1.0, abs=1e-6)
        # the Frank-Wolfe gap of the returned point: 0 at a stationary point
        assert 0.0 <= inst["gap"] <= 1e-6, inst
    assert "oracle expected decision loss" in stdout


def test_fig2_subcommand(workdir, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, stdout, _ = run(["fig2", "--cohort", workdir / "cohort.json",
                           "--predictor", workdir / "scores.csv",
                           "--loss", '{"kind": "misclass_rate"}',
                           "--rho-ind", "2.0", "--grid", "20,80",
                           "--iters", "3", "--draw-size", "1",
                           "--restarts", "4", "--out", out], capsys)
    assert code == 0
    curve = read_curve_csv(str(out))
    assert curve.grid == [20, 80]
    assert (curve.ratios <= 1.0 + 1e-6).all()
    assert "num_samples 20" in stdout


def test_report_subcommand(workdir, tmp_path, capsys):
    report = tmp_path / "report.json"
    assert run(find_worst_args(workdir, report)) == 0
    matrix = tmp_path / "matrix.csv"
    assert run(["evaluate", "--cohort", workdir / "cohort.json",
                "--predictor", workdir / "scores.csv", "--report", report,
                "--metrics", '{"kind": "misclass_rate"}',
                "--eval-instances", "10", "--eval-problems", "20",
                "--draw-size", "1", "--out", matrix]) == 0
    heat = tmp_path / "again.svg"
    code, stdout, _ = run(["report", "--matrix", matrix, "--heatmap", heat], capsys)
    assert code == 0
    assert heat.exists()
    trace_out = tmp_path / "trace_again.csv"
    code, stdout, _ = run(["report", "--report", report, "--trace", trace_out], capsys)
    assert code == 0
    assert "worst-case expected decision loss" in stdout
    assert trace_out.read_bytes() == (tmp_path / "report_trace.csv").read_bytes()


def test_report_refuses_a_flag_of_the_other_mode(workdir, tmp_path, capsys):
    # report --matrix M --trace T once exited 0 and wrote no T, and
    # report --report R --out O --heatmap H wrote neither file
    report = _saved_report(workdir, tmp_path)
    matrix = tmp_path / "matrix.csv"
    write_matrix_csv(CrossMetricMatrix(["top_k"], ["top_k"], np.ones((1, 1)), np.zeros((1, 1))),
                     str(matrix))
    capsys.readouterr()
    trace, out, heat = tmp_path / "t.csv", tmp_path / "o.csv", tmp_path / "h.svg"
    for argv, flag, mode in ((["--matrix", matrix, "--trace", trace], "--trace", "--report"),
                             (["--report", report, "--out", out, "--heatmap", heat], "--out",
                              "--matrix"),
                             (["--report", report, "--heatmap", heat], "--heatmap", "--matrix"),
                             (["--report", report, "--trace", trace, "--normalize"], "--normalize",
                              "--matrix")):
        code, stdout, err = run(["report", *argv], capsys)
        assert (code, stdout) == (2, ""), err
        assert f"{flag} applies only with {mode}" in err, err
        assert not any(path.exists() for path in (trace, out, heat))
    # a config file's keys of the other mode stay unused, so one file serves both
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out": str(out), "heatmap": str(heat), "normalize": True}))
    code, _, err = run(["report", "--config", config, "--report", report, "--trace", trace], capsys)
    assert code == 0, err
    assert trace.exists() and not out.exists() and not heat.exists()


@pytest.mark.parametrize("argv", [["train", "--lr", "0.5"], ["find-worst", "--momentum", "0.5"],
                                  ["fig2", "--momentum", "0.5"]],
                         ids=["train-lr", "find-worst-momentum", "fig2-momentum"])
def test_removed_flags_are_refused(capsys, argv):
    # the learning rate and the momentum are constants
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["oracle", "fig2"])
def test_within_instance_commands_read_no_unused_setting(workdir, tmp_path, command):
    # both once resolved, checked and recorded rho_xi, and fig2 samples and
    # samples2, though neither reads them: a config with "rho_xi": -1 exited 2
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"samples": 0, "samples2": -3, "rho_xi": -1}))
    out = tmp_path / "out"
    grid = ["--grid", "10", "--iters", "2"] if command == "fig2" else []
    assert run([command, "--config", config, "--cohort", workdir / "cohort.json",
                "--predictor", workdir / "scores.csv", "--loss", '{"kind": "misclass_rate"}',
                *grid, "--out", out]) == 0
    resolved = json.loads((tmp_path / "out.manifest.json").read_text())["config"]
    assert not {"samples", "samples2", "rho_xi"} & set(resolved)


@pytest.mark.parametrize("edit, match", [
    (lambda lines: [*lines, lines[1]], "repeated cell (top_k, top_k)"),
    (lambda lines: [lines[0], lines[1].replace(",1.25,", ",nan,"), *lines[2:]],
     "non-finite value at (top_k, top_k)"),
    # a whole matrix in the layout before the col_kind column was dropped
    (lambda lines: ["row_metric,col_metric,col_kind,value,stderr,normalized",
                    "top_k,top_k,top_k,1.25,0.01,false"],
     "expected header row_metric,col_metric,value,stderr,normalized"),
], ids=["repeated-cell", "nan-cell", "old-col-kind-layout"])
def test_report_matrix_refuses_bad_cells(fuzz_inputs, tmp_path, capsys, edit, match):
    # a repeated cell once kept its last value, and a nan cell printed as nan
    # (exit 0) or, under --out, exited 4 after writing part of the file
    root, _ = fuzz_inputs
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(edit((root / "matrix.csv").read_text().splitlines())) + "\n")
    out, heat = tmp_path / "m2.csv", tmp_path / "m2.svg"
    for extra in ([], ["--out", out], ["--heatmap", heat], ["--out", out, "--heatmap", heat]):
        code, stdout, err = run(["report", "--matrix", bad, *extra], capsys)
        assert (code, stdout) == (3, ""), err
        assert str(bad) in err and match in err, err
        assert not out.exists() and not heat.exists()
        assert not list(tmp_path.glob("*.manifest.json"))


def _negative_across(raw):
    raw["shift"]["across"] = [-0.6, 0.6]


def _missing_within(raw):
    del raw["shift"]["within"]["b"]


def _nan_across(raw):
    raw["shift"]["across"][0] = float("nan")


def _nan_within(raw):
    raw["shift"]["within"]["a"][0] = float("nan")


def _outside_rho_ind(raw):
    raw["shift"]["within"]["a"] = [0.3, -0.3]  # divergence 0.36
    raw["shift"]["budget"]["rho_ind"] = 0.1


def _nan_rho_ind(raw):
    raw["shift"]["budget"]["rho_ind"] = float("nan")


def _string_rho_ind(raw):
    raw["shift"]["budget"]["rho_ind"] = "2.0"


def _infinite_rho_xi(raw):
    raw["shift"]["budget"]["rho_xi"] = float("inf")


def _short_losses(raw):
    raw["instance_losses"] = raw["instance_losses"][:1]


def _scalar_across(raw):
    raw["shift"]["across"] = 0.0


def _short_trace_column(raw):
    raw["traces"][0]["grad_norm"] = raw["traces"][0]["grad_norm"][:1]


def _string_param(raw):
    raw["params"]["iterations"] = "3"


def _fractional_iterations(raw):
    raw["params"]["iterations"] = 2.5


def _bool_momentum(raw):
    raw["params"]["momentum"] = True


def _fractional_seed(raw):
    raw["params"]["seed"] = 1.5


def _momentum_param(raw):
    # the params of a report from before momentum became a constant
    raw["params"]["momentum"] = 0.7


@pytest.mark.parametrize("command", ["evaluate", "report"])
@pytest.mark.parametrize("edit", [_negative_across, _missing_within, _nan_across, _nan_within,
                                  _outside_rho_ind, _nan_rho_ind, _short_losses, _scalar_across,
                                  _short_trace_column, _string_param, _fractional_iterations,
                                  _bool_momentum, _fractional_seed, _momentum_param,
                                  _string_rho_ind, _infinite_rho_xi])
def test_exit_code_bad_saved_report(workdir, tmp_path, capsys, command, edit):
    report = tmp_path / "report.json"
    assert run(find_worst_args(workdir, report), capsys)[0] == 0
    raw = json.loads(report.read_text())
    edit(raw)
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps(raw))
    if command == "evaluate":
        argv = ["evaluate", "--cohort", workdir / "cohort.json",
                "--predictor", workdir / "scores.csv", "--report", bad,
                "--eval-instances", "10", "--eval-problems", "20",
                "--draw-size", "1", "--out", tmp_path / "matrix.csv"]
    else:
        argv = ["report", "--report", bad, "--trace", tmp_path / "trace.csv"]
    code, stdout, err = run(argv, capsys)
    assert (code, stdout) == (3, ""), err
    assert str(bad) in err
    assert not (tmp_path / "matrix.csv").exists() and not (tmp_path / "trace.csv").exists()


def _nan_value(report):
    report.value = float("nan")


def _nan_trace_entry(report):
    report.traces[-1].grad_norm[0] = float("nan")


@pytest.mark.parametrize("spoil", [_nan_value, _nan_trace_entry])
def test_find_worst_non_finite_result_writes_no_file(workdir, tmp_path, capsys, monkeypatch,
                                                     spoil):
    # a NaN value once wrote a report that load_report refuses, and a NaN trace
    # entry exited 4 with the report already written
    search = cli.find_worst_case

    def spoiled(*args, **kwargs):
        report = search(*args, **kwargs)
        spoil(report)
        return report

    monkeypatch.setattr(cli, "find_worst_case", spoiled)
    code, stdout, err = run(find_worst_args(workdir, tmp_path / "report.json"), capsys)
    assert (code, stdout) == (4, ""), err
    assert "non-finite" in err
    assert list(tmp_path.iterdir()) == []


def test_evaluate_rejects_report_for_other_instances(workdir, tmp_path, capsys):
    # the same shift listed in another instance order must not land on the wrong pools
    report = tmp_path / "report.json"
    assert run(find_worst_args(workdir, report), capsys)[0] == 0
    raw = json.loads(report.read_text())
    raw["shift"]["instance_ids"] = ["b", "a"]
    raw["shift"]["across"] = raw["shift"]["across"][::-1]
    bad = tmp_path / "reordered.json"
    bad.write_text(json.dumps(raw))
    code, stdout, err = run(["evaluate", "--cohort", workdir / "cohort.json",
                             "--predictor", workdir / "scores.csv", "--report", bad,
                             "--draw-size", "1", "--out", tmp_path / "matrix.csv"], capsys)
    assert (code, stdout) == (3, "")
    assert str(bad) in err and "cohort" in err


def test_evaluate_checks_pools_the_shift_never_draws(tmp_path, capsys):
    # the report puts all instance mass on pool '0'; pool '1' has a true income
    # of 0, which nash_welfare cannot score, so evaluate fails before any output
    pools = [make_pool("0", [1.0, 2.0, 3.0]), make_pool("1", [1.5, 0.0, 2.5])]
    cohort_path = tmp_path / "incomes.json"
    write_cohort(make_cohort(pools, task="regression"), str(cohort_path))
    scores = tmp_path / "scores.csv"
    scores.write_text("id,score\n0-0,1.0\n0-1,2.0\n0-2,3.0\n1-0,1.5\n1-1,2.0\n1-2,2.5\n")
    inputs = ["--cohort", cohort_path, "--predictor", scores]
    report = tmp_path / "report.json"
    assert run(["find-worst", *inputs, "--loss", '{"kind": "mse"}', "--rho-ind", "1.0",
                "--rho-xi", "2.0", *FAST, "--out", report], capsys)[0] == 0
    raw = json.loads(report.read_text())
    raw["shift"]["across"] = [0.5, -0.5]
    report.write_text(json.dumps(raw))
    evaluate = ["evaluate", *inputs, "--report", report, "--eval-instances", "5",
                "--eval-problems", "5", "--out", tmp_path / "m.csv"]
    assert run([*evaluate, "--metrics", '[{"kind": "mse"}]'], capsys)[0] == 0
    code, stdout, err = run([*evaluate, "--metrics",
                             '[{"kind": "mse"}, {"kind": "nash_welfare", "budget": 1.0}]'],
                            capsys)
    assert (code, stdout) == (3, ""), err
    assert "instance '1'" in err and "positive true incomes" in err


def test_exit_code_config_errors(workdir, tmp_path, capsys):
    # missing required flag
    code, _, err = run(["find-worst", "--predictor", workdir / "scores.csv",
                        "--loss", '{"kind": "misclass_rate"}',
                        "--out", tmp_path / "x.json"], capsys)
    assert code == 2 and "--cohort" in err
    # negative radius names the offending knob
    code, _, err = run(find_worst_args(workdir, tmp_path / "y.json",
                                       extra=["--rho-ind", "-1.0"]), capsys)
    assert code == 2 and "rho_ind" in err
    # nonexistent cohort file
    code, _, err = run(["find-worst", "--cohort", tmp_path / "missing.json",
                        "--predictor", workdir / "scores.csv",
                        "--loss", '{"kind": "misclass_rate"}',
                        "--out", tmp_path / "z.json"], capsys)
    assert code == 2 and "not found" in err
    # unknown loss kind
    code, _, err = run(["find-worst", "--cohort", workdir / "cohort.json",
                        "--predictor", workdir / "scores.csv",
                        "--loss", '{"kind": "nope"}',
                        "--out", tmp_path / "w.json"], capsys)
    assert code == 2 and "nope" in err


@pytest.mark.parametrize("make", [lambda: UncertaintyBudget(-1.0, 0.0),
                                  lambda: TrainConfig(epochs=0)], ids=["budget", "train"])
def test_config_types_raise_config_error(make):
    # the CLI's exit 2 comes from the type itself; a caller catching ValueError still does
    with pytest.raises(ConfigError) as info:
        make()
    assert isinstance(info.value, ValueError)


def test_exit_code_data_error(workdir, tmp_path, capsys):
    bad = tmp_path / "dup.json"
    raw = json.loads((workdir / "cohort.json").read_text())
    raw["pools"][1]["instance_id"] = raw["pools"][0]["instance_id"]
    bad.write_text(json.dumps(raw))
    code, _, err = run(["find-worst", "--cohort", bad,
                        "--predictor", workdir / "scores.csv",
                        "--loss", '{"kind": "misclass_rate"}',
                        *FAST, "--out", tmp_path / "x.json"], capsys)
    assert code == 3 and "duplicate" in err


def test_exit_code_oversized_k(workdir, tmp_path, capsys):
    # k larger than the draw: a configuration error on every subcommand that scores
    loss = '{"kind": "top_k", "k": 5}'
    inputs = ["--cohort", workdir / "cohort.json", "--predictor", workdir / "scores.csv",
              "--loss", loss]
    code, _, err = run(["find-worst", *inputs, "--iters", "2", "--samples", "50",
                        "--samples2", "50", "--workers", "1", "--out", tmp_path / "f.json"],
                       capsys)
    assert code == 2 and "k=5 exceeds" in err
    code, _, err = run(["oracle", *inputs, "--rho-ind", "1.0", "--restarts", "2",
                        "--out", tmp_path / "o.json"], capsys)
    assert code == 2 and "k=5 exceeds" in err
    code, _, err = run(["fig2", *inputs, "--rho-ind", "1.0", "--grid", "10", "--iters", "2",
                        "--restarts", "2", "--out", tmp_path / "c.csv"], capsys)
    assert code == 2 and "k=5 exceeds" in err
    report = tmp_path / "report.json"
    assert run(find_worst_args(workdir, report)) == 0
    code, _, err = run(["evaluate", "--cohort", workdir / "cohort.json",
                        "--predictor", workdir / "scores.csv", "--report", report,
                        "--metrics", f"[{loss}]", "--eval-instances", "5",
                        "--eval-problems", "5", "--out", tmp_path / "m.csv"], capsys)
    assert code == 2 and "k=5 exceeds" in err


def _list_file(tmp_path):
    path = tmp_path / "losses.json"
    path.write_text('[{"kind": "misclass_rate"}]')
    return path


def _invalid_json_file(tmp_path):
    path = tmp_path / "metrics.json"
    path.write_text('[{"kind": ')
    return path


def _evaluate_args(workdir, tmp_path, extra):
    report = tmp_path / "report.json"
    assert run(find_worst_args(workdir, report)) == 0
    return ["evaluate", "--cohort", workdir / "cohort.json", "--predictor", workdir / "scores.csv",
            "--report", report, "--eval-instances", "5", "--eval-problems", "5", *extra,
            "--out", tmp_path / "c.csv"]


@pytest.mark.parametrize("argv, match", [
    (lambda wd, tmp: find_worst_args(wd, tmp / "x.json", ["--loss", tmp / "missing.json"]),
     "neither a file nor valid JSON"),
    (lambda wd, tmp: find_worst_args(wd, tmp / "x.json", ["--loss", '[{"kind": "top_k"}]']),
     "must be an object"),
    (lambda wd, tmp: find_worst_args(wd, tmp / "x.json", ["--loss", _list_file(tmp)]),
     "must be an object"),
    (lambda wd, tmp: find_worst_args(wd, tmp / "x.json", ["--loss", '{"kind": ["top_k"]}']),
     "unknown loss kind ['top_k']"),
    # a draw of 3 fits k = 2.5, which the slice of a canonical row then rejected
    (lambda wd, tmp: find_worst_args(
        wd, tmp / "x.json", ["--loss", '{"kind": "top_k", "k": 2.5}', "--draw-size", "3"]),
     "k must be an integer, got 2.5"),
    (lambda wd, tmp: find_worst_args(
        wd, tmp / "x.json", ["--loss", '{"kind": "fairness_gini", "k": 1.5}', "--draw-size", "3"]),
     "k must be an integer, got 1.5"),
    (lambda wd, tmp: find_worst_args(
        wd, tmp / "x.json", ["--loss", '{"kind": "knapsack", "budget": Infinity}']),
     "budget must be an integer, got inf"),
    (lambda wd, tmp: find_worst_args(
        wd, tmp / "x.json", ["--loss", '{"kind": "knapsack", "budget": NaN}']),
     "budget must be an integer, got nan"),
    (lambda wd, tmp: ["oracle", "--cohort", wd / "cohort.json", "--predictor", wd / "scores.csv",
                      "--loss", '{"kind": "misclass_rate"}', "--restarts", "0",
                      "--out", tmp / "o.json"], "--restarts must be >= 1"),
    (lambda wd, tmp: ["oracle", "--cohort", wd / "cohort.json", "--predictor", wd / "scores.csv",
                      "--loss", '{"kind": "misclass_rate"}', "--restarts", "-1",
                      "--out", tmp / "o.json"], "--restarts must be >= 1"),
    (lambda wd, tmp: ["fig2", "--cohort", wd / "cohort.json", "--predictor", wd / "scores.csv",
                      "--loss", '{"kind": "misclass_rate"}', "--grid", "10", "--iters", "2",
                      "--restarts", "0", "--out", tmp / "c.csv"], "--restarts must be >= 1"),
    # each of the next four once ran: the grid searched every point twice and wrote
    # two rows per (10, instance), and the specs ran as k = 1, budget 2 and costs used
    (lambda wd, tmp: ["fig2", "--cohort", wd / "cohort.json", "--predictor", wd / "scores.csv",
                      "--loss", '{"kind": "misclass_rate"}', "--grid", "10,10", "--iters", "2",
                      "--out", tmp / "c.csv"],
     "sample grid must be strictly increasing, got [10, 10]"),
    (lambda wd, tmp: find_worst_args(
        wd, tmp / "x.json", ["--loss", '{"kind": "top_k", "k": true}']),
     "k must be an integer, got True"),
    (lambda wd, tmp: find_worst_args(
        wd, tmp / "x.json", ["--loss", '{"kind": "knapsack", "budget": 2.5}']),
     "budget must be an integer, got 2.5"),
    (lambda wd, tmp: find_worst_args(
        wd, tmp / "x.json", ["--loss", '{"kind": "knapsack", "use_costs": "no"}']),
     "use_costs must be true or false, got 'no'"),
    (lambda wd, tmp: _evaluate_args(wd, tmp, ["--draw-size", "0"]), "draw_size must be >= 1"),
    (lambda wd, tmp: _evaluate_args(wd, tmp, ["--draw-size", "-2"]), "draw_size must be >= 1"),
    (lambda wd, tmp: _evaluate_args(wd, tmp, ["--seed", "-1"]), "--seed must be >= 0"),
    (lambda wd, tmp: _evaluate_args(wd, tmp, ["--metrics", _invalid_json_file(tmp)]),
     "--metrics file '{tmp}/metrics.json' holds invalid JSON"),
    (lambda wd, tmp: ["oracle", "--cohort", wd / "cohort.json", "--predictor", wd / "scores.csv",
                      "--loss", '{"kind": "misclass_rate"}', "--draw-size", "0",
                      "--out", tmp / "o.json"], "draw_size must be >= 1"),
    (lambda wd, tmp: ["oracle", "--cohort", wd / "cohort.json", "--predictor", wd / "scores.csv",
                      "--loss", '{"kind": "misclass_rate"}', "--draw-size", "-1",
                      "--out", tmp / "o.json"], "draw_size must be >= 1"),
    (lambda wd, tmp: ["oracle", "--cohort", wd / "cohort.json", "--predictor", wd / "scores.csv",
                      "--loss", '{"kind": "misclass_rate"}', "--seed", "-1",
                      "--out", tmp / "o.json"], "--seed must be >= 0"),
    (lambda wd, tmp: ["train", "--cohort", wd / "cohort.json", "--seed", "-1",
                      "--out", tmp / "x.json"], "--seed must be >= 0"),
    (lambda wd, tmp: ["train", "--cohort", wd / "cohort.json", "--kind", "mlp", "--hidden", "0",
                      "--out", tmp / "x.json"], "hidden widths must be >= 1"),
    # each of the next three once ran the whole search or oracle, then exited 4 with
    # no file, since JSON cannot hold an infinite radius
    (lambda wd, tmp: find_worst_args(wd, tmp / "x.json", ["--rho-ind", "inf"]),
     "rho_ind must be finite and >= 0, got inf"),
    (lambda wd, tmp: find_worst_args(wd, tmp / "x.json", ["--rho-xi", "inf"]),
     "rho_xi must be finite and >= 0, got inf"),
    (lambda wd, tmp: ["oracle", "--cohort", wd / "cohort.json", "--predictor", wd / "scores.csv",
                      "--loss", '{"kind": "misclass_rate"}', "--rho-ind", "inf",
                      "--out", tmp / "o.json"], "rho_ind must be finite and >= 0, got inf"),
    (lambda wd, tmp: ["fig2", "--cohort", wd / "cohort.json", "--predictor", wd / "scores.csv",
                      "--loss", '{"kind": "misclass_rate"}', "--grid", "10", "--iters", "2",
                      "--rho-ind", "inf", "--out", tmp / "c.csv"],
     "rho_ind must be finite and >= 0, got inf"),
], ids=["loss-missing-file", "loss-json-list", "loss-file-list", "loss-kind-list",
        "top-k-fractional-k", "gini-fractional-k", "knapsack-infinite-budget",
        "knapsack-nan-budget", "oracle-restarts-0", "oracle-restarts-neg", "fig2-restarts-0",
        "fig2-repeated-grid-point", "top-k-bool-k", "knapsack-fractional-budget",
        "knapsack-string-use-costs",
        "evaluate-draw-size-0", "evaluate-draw-size-neg", "evaluate-seed-neg",
        "metrics-invalid-file", "oracle-draw-size-0", "oracle-draw-size-neg", "oracle-seed-neg",
        "train-seed-neg", "mlp-hidden-0", "find-worst-rho-ind-inf", "find-worst-rho-xi-inf",
        "oracle-rho-ind-inf", "fig2-rho-ind-inf"])
def test_exit_code_invalid_flag_values(workdir, tmp_path, capsys, argv, match):
    # each of these once hung (train), crashed with exit 1, or ran with exit 0;
    # all are configuration errors caught before any output
    code, stdout, err = run(argv(workdir, tmp_path), capsys)
    assert code == 2 and match.format(tmp=tmp_path) in err, err
    assert not (tmp_path / "x.json").exists() and not (tmp_path / "o.json").exists()
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("config, match", [
    ({"draw_size": 1.7}, "--draw-size must be an integer, got 1.7"),
    ({"seed": 2.9}, "--seed must be an integer, got 2.9"),
    ({"iters": 1.5}, "--iters must be an integer, got 1.5"),
    ({"draw_size": True}, "--draw-size must be an integer, got True"),
    ({"rho_xi": [1.0]}, "--rho-xi must be a number, got [1.0]"),
    ({"schema": ["schema.json"]}, "--schema file not found: ['schema.json']"),
], ids=["draw-size-fraction", "seed-fraction", "iters-fraction", "draw-size-bool",
        "rho-xi-list", "schema-list"])
def test_exit_code_config_file_non_integer(workdir, tmp_path, capsys, config, match):
    # int() once truncated the first four (1.7 ran at draw size 1) and exited 0;
    # float() crashed on a list (exit 1), and a list for a path reached
    # os.path.exists (exit 1)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "x.json"
    code, stdout, err = run(["find-worst", "--config", path, "--cohort", workdir / "cohort.json",
                             "--predictor", workdir / "scores.csv",
                             "--loss", '{"kind": "misclass_rate"}', "--samples", "200",
                             "--samples2", "200", "--workers", "1", "--out", out], capsys)
    assert (code, stdout) == (2, ""), err
    assert match in err
    assert not out.exists()


@pytest.mark.parametrize("loss", ['{"kind": "mse"}', '{"kind": "nash_welfare", "budget": 2}'],
                         ids=["mse", "nash_welfare"])
def test_exit_code_loss_for_other_task(workdir, tmp_path, capsys, loss):
    # a regression loss on a binary cohort is a configuration error before any output
    inputs = ["--cohort", workdir / "cohort.json", "--predictor", workdir / "scores.csv",
              "--loss", loss]
    kind = json.loads(loss)["kind"]
    for argv in (["find-worst", *inputs, *FAST, "--out", tmp_path / "x.json"],
                 ["oracle", *inputs, "--rho-ind", "1.0", "--restarts", "2",
                  "--out", tmp_path / "o.json"],
                 ["fig2", *inputs, "--rho-ind", "1.0", "--grid", "10", "--iters", "2",
                  "--restarts", "2", "--out", tmp_path / "c.csv"]):
        code, stdout, err = run(argv, capsys)
        assert code == 2, (argv[0], err)
        assert f"loss '{kind}' applies to regression cohorts, not binary" in err, (argv[0], err)
        assert stdout == "", (argv[0], stdout)


def test_exit_code_nonpositive_income(tmp_path, capsys):
    # nash_welfare needs positive incomes, predicted and true; either one fails
    # on every command before any output, naming the instance
    scores = tmp_path / "scores.csv"
    loss = '{"kind": "nash_welfare", "budget": 1.0}'
    for labels, score, match in (([1.5, 2.0, 2.5], "-0.5", "positive predicted incomes"),
                                 ([1.5, 0.0, 2.5], "2.0", "positive true incomes")):
        pools = [make_pool("a", [1.0, 2.0, 3.0]), make_pool("b", labels)]
        cohort_path = tmp_path / "incomes.json"
        write_cohort(make_cohort(pools, task="regression"), str(cohort_path))
        scores.write_text(f"id,score\na-0,1.0\na-1,2.0\na-2,3.0\nb-0,1.5\nb-1,{score}\nb-2,2.5\n")
        inputs = ["--cohort", cohort_path, "--predictor", scores, "--loss", loss]
        for argv in (["find-worst", *inputs, *FAST, "--out", tmp_path / "x.json"],
                     ["oracle", *inputs, "--rho-ind", "1.0", "--restarts", "2",
                      "--out", tmp_path / "o.json"],
                     ["fig2", *inputs, "--rho-ind", "1.0", "--grid", "10", "--iters", "2",
                      "--restarts", "2", "--out", tmp_path / "c.csv"]):
            code, stdout, err = run(argv, capsys)
            assert code == 3 and "instance 'b'" in err and match in err, (argv[0], err)
            assert stdout == "", (argv[0], stdout)


def test_exit_code_multinomial_overflow(tmp_path, capsys):
    # 1101 multisets fit under the cap, but C(1100, 550) exceeds float64
    cohort_path = tmp_path / "pair.json"
    write_cohort(make_cohort([make_pool("p", [0.0, 1.0])]), str(cohort_path))
    scores = tmp_path / "scores.csv"
    scores.write_text("id,score\np-0,0.3\np-1,0.6\n")
    inputs = ["--cohort", cohort_path, "--predictor", scores,
              "--loss", '{"kind": "fairness_gini", "k": 1}', "--draw-size", "1100"]
    for argv in (["oracle", *inputs, "--rho-ind", "1.0", "--out", tmp_path / "o.json"],
                 ["fig2", *inputs, "--rho-ind", "1.0", "--grid", "10", "--iters", "2",
                  "--out", tmp_path / "c.csv"]):
        code, stdout, err = run(argv, capsys)
        assert code == 4 and "1100 draws from a pool of 2" in err, (argv[0], err)
        assert stdout == "", (argv[0], stdout)


def test_exit_code_non_binary_label(workdir, tmp_path, capsys):
    # a binary cohort JSON with labels 0.5 and 2.0 fails on load, before any output
    bad = tmp_path / "labels.json"
    raw = json.loads((workdir / "cohort.json").read_text())
    raw["pools"][1]["individuals"][0]["label"] = 0.5
    raw["pools"][1]["individuals"][1]["label"] = 2.0
    bad.write_text(json.dumps(raw))
    inputs = ["--cohort", bad, "--predictor", workdir / "scores.csv"]
    for argv in (["find-worst", *inputs, "--loss", '{"kind": "knapsack"}', *FAST,
                  "--out", tmp_path / "k.json"],
                 ["find-worst", *inputs, "--loss", '{"kind": "top_k", "k": 1}', *FAST,
                  "--out", tmp_path / "t.json"],
                 ["oracle", *inputs, "--loss", '{"kind": "knapsack"}', "--rho-ind", "1.0",
                  "--restarts", "2", "--out", tmp_path / "o.json"],
                 ["train", "--cohort", bad, "--epochs", "2", "--out", tmp_path / "m.json"]):
        code, stdout, err = run(argv, capsys)
        assert code == 3, (argv[0], err)
        assert "instance 'b': individual 'b-0' has label 0.5" in err, (argv[0], err)
        assert stdout == "", (argv[0], stdout)


def _json_edit(change):
    """A cohort-text edit that applies change to the parsed JSON."""
    def edit(text):
        raw = json.loads(text)
        change(raw)
        return json.dumps(raw).encode()
    return edit


def _set_individual(key, value):
    """Set key of the second individual of pool 'a'."""
    def change(raw):
        raw["pools"][0]["individuals"][1][key] = value
    return change


@pytest.mark.parametrize("edit, match", [
    (_json_edit(_set_individual("cost", -1.0)),
     "individual 'a-1' has cost -1.0, which must be finite and >= 0"),
    (_json_edit(_set_individual("group", -1)),
     "individual 'a-1' has group code -1, which must be >= 0"),
    (_json_edit(_set_individual("id", "a-0")), "instance 'a' has duplicate individual id 'a-0'"),
    (_json_edit(lambda raw: raw["pools"][0].update(individuals=[])),
     "instance 'a' has no individuals"),
    (_json_edit(_set_individual("numeric", [0.0, 1.0])),
     "instance 'a': the numeric column is not 2 rows"),
    (_json_edit(_set_individual("label", "yes")), "instance 'a': the labels column is not 2 rows"),
    (_json_edit(lambda raw: raw.update(task="foo")), "task must be 'binary' or 'regression'"),
    (_json_edit(lambda raw: raw.update(pools=3)), "not iterable"),
    (_json_edit(_set_individual("numeric", [float("nan")])),
     "individual 'a-1' has numeric features [nan], which must be finite"),
    (_json_edit(lambda raw: (raw.update(task="regression"), _set_individual("label", float("inf"))(raw))),
     "individual 'a-1' has label inf, which must be finite"),
    (_json_edit(_set_individual("cost", float("inf"))),
     "individual 'a-1' has cost inf, which must be finite and >= 0"),
    (lambda text: text[:60].encode(), "Unterminated string"),
    (lambda text: text.replace('"binary"', '"bin\xffary"').encode("latin-1"), "can't decode byte 0xff"),
], ids=["negative-cost", "negative-group", "duplicate-id", "no-individuals", "numeric-row-length",
        "string-label", "unknown-task", "pools-not-a-list", "nan-feature", "infinite-label",
        "infinite-cost", "truncated", "not-utf8"])
def test_exit_code_malformed_cohort_json(workdir, tmp_path, capsys, edit, match):
    # each of these once exited 1 (or 0) on find-worst or train; all are data errors
    # that name the file, and the instance and individual where one is at fault
    bad = tmp_path / "bad.json"
    bad.write_bytes(edit((workdir / "cohort.json").read_text()))
    for argv in (find_worst_args(workdir, tmp_path / "r.json", ["--cohort", bad]),
                 ["train", "--cohort", bad, "--epochs", "2", "--out", tmp_path / "m.json"]):
        code, stdout, err = run(argv, capsys)
        assert (code, stdout) == (3, ""), (argv[0], err)
        assert str(bad) in err and match in err, (argv[0], err)


def _set_pool(key, value):
    """Set key of every individual of pool 'b'."""
    def change(raw):
        for ind in raw["pools"][1]["individuals"]:
            ind[key] = value
    return change


def _categorical(codes):
    """One categorical feature of three levels; codes per individual of pool 'a'."""
    def change(raw):
        raw.update(categorical_names=["c0"], categorical_codes=[["u", "v", "w"]])
        for pool in raw["pools"]:
            for ind in pool["individuals"]:
                ind["categorical"] = [0]
        for ind, code in zip(raw["pools"][0]["individuals"], codes):
            ind["categorical"] = [code]
    return change


@pytest.mark.parametrize("edit, match", [
    (_json_edit(_set_pool("numeric", [0.0, 1.0])),
     "instance 'b' has 2 numeric and 0 categorical features, but the cohort names 1 and 0"),
    (_json_edit(lambda raw: raw.update(numeric_names=["x0", "x1"])),
     "instance 'a' has 1 numeric and 0 categorical features, but the cohort names 2 and 0"),
    (_json_edit(_categorical([2, 7])),
     "individual 'a-1' has code 7 for categorical feature 'c0', which has 3 levels"),
    (_json_edit(lambda raw: (_categorical([0, 1])(raw), raw.update(categorical_codes=[]))),
     "0 categorical code tables for 1 categorical features"),
], ids=["pool-widths-differ", "widths-differ-from-names", "code-beyond-levels",
        "missing-code-table"])
def test_exit_code_cohort_feature_mismatch(workdir, tmp_path, capsys, edit, match):
    # the first three once exited 1 from train (np.concatenate, the embedding
    # lookup) or 0; the cohort now checks its pools against its feature names
    bad = tmp_path / "bad.json"
    bad.write_bytes(edit((workdir / "cohort.json").read_text()))
    for argv in (find_worst_args(workdir, tmp_path / "r.json", ["--cohort", bad]),
                 *(["train", "--cohort", bad, "--kind", kind, "--epochs", "2",
                    "--out", tmp_path / "m.json"] for kind in ("logistic", "mlp"))):
        code, stdout, err = run(argv, capsys)
        assert (code, stdout) == (3, ""), (argv, err)
        assert str(bad) in err and match in err, (argv, err)


@pytest.mark.parametrize("sizes, draw_size, match", [
    ([8, 8, 8, 30], 8, "instance 'd': enumeration needs C(30+8-1, 8) = 38608020 multisets"),
    ([1, 1, 2], 1100, "instance 'c': enumeration of 1100 draws from a pool of 2: a multinomial"),
], ids=["cap", "multinomial-overflow"])
def test_enumeration_checked_before_any_search(tmp_path, capsys, monkeypatch, sizes,
                                               draw_size, match):
    # only the last pool is too large to enumerate; both commands exit 4 before
    # the first search or ascent on the pools before it. fairness_gini has no
    # closed form, so its oracle enumerates
    pools = [make_pool(p, [0.0, 1.0] * (m // 2) + [1.0] * (m % 2)) for p, m in zip("abcd", sizes)]
    cohort_path = tmp_path / "cohort.json"
    write_cohort(make_cohort(pools), str(cohort_path))
    scores = tmp_path / "scores.csv"
    scores.write_text("id,score\n" + "".join(f"{p.ids[i]},0.{i % 9 + 1}\n"
                                             for p in pools for i in range(len(p))))
    ran = []
    monkeypatch.setattr(evaluation, "_fw_lockstep", lambda *a, **k: ran.append("search"))
    for module in (cli, evaluation):
        monkeypatch.setattr(module, "oracle_maximize", lambda *a, **k: ran.append("ascent"))
    inputs = ["--cohort", cohort_path, "--predictor", scores,
              "--loss", '{"kind": "fairness_gini", "k": 2}',
              "--draw-size", str(draw_size), "--rho-ind", "1.0"]
    for argv in (["oracle", *inputs, "--out", tmp_path / "o.json"],
                 ["fig2", *inputs, "--grid", "10", "--iters", "2", "--out", tmp_path / "c.csv"]):
        code, stdout, err = run(argv, capsys)
        assert (code, stdout) == (4, ""), (argv[0], err)
        assert match in err, (argv[0], err)
    assert ran == []


def test_k_over_draw_size_checked_before_enumeration(tmp_path, capsys, monkeypatch):
    # oracle and fig2 once found this only in the first pool's enumeration; it
    # is found before any pool's objective is formed
    model = tmp_path / "model.json"
    assert run(["train", "--cohort", demo_cohort_path("binary"), "--epochs", "2",
                "--out", model]) == 0
    capsys.readouterr()
    ran = []
    for module in (cli, evaluation):
        monkeypatch.setattr(module, "pool_objective", lambda *a, **k: ran.append("objective"))
    inputs = ["--cohort", demo_cohort_path("binary"), "--predictor", model,
              "--loss", '{"kind": "top_k", "k": 3}', "--draw-size", "2", "--rho-ind", "1.0"]
    for argv in (["oracle", *inputs, "--out", tmp_path / "o.json"],
                 ["fig2", *inputs, "--grid", "10", "--iters", "2", "--out", tmp_path / "c.csv"]):
        code, stdout, err = run(argv, capsys)
        assert (code, stdout) == (2, ""), (argv[0], err)
        assert "instance '0': k=3 exceeds draw_size=2" in err, (argv[0], err)
    assert ran == []


def test_exit_code_nonfinite_delimited_cell(tmp_path, capsys):
    # a 'nan' feature cell parsed as a float once trained with exit 0
    data = tmp_path / "cohort.csv"
    data.write_text("instance,id,x,label\nA,a1,0.5,1\nA,a2,nan,0\nB,b1,1.5,1\n")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"instance_id": "instance", "id": "id", "label": "label",
                                  "numeric": ["x"]}))
    code, stdout, err = run(["train", "--cohort", data, "--schema", schema, "--epochs", "2",
                             "--out", tmp_path / "m.json"], capsys)
    assert (code, stdout) == (3, ""), err
    assert "row 3: column 'x' value 'nan' is not finite" in err


MATRIX_HEADER = b"row_metric,col_metric,value,stderr,normalized\n"
LOGISTIC = {"kind": "logistic", "weights": [0.5], "bias": 0.0, "cat_weights": []}
SCHEMA = {"instance_id": "instance", "id": "id", "label": "label", "numeric": ["x"]}


def _input_argv(flag, path, workdir, tmp_path):
    """A command that reads path as its flag's file and fails on it before any output."""
    out = tmp_path / "out.json"
    if flag == "--matrix":
        return ["report", "--matrix", path]
    if flag == "--predictor":
        return find_worst_args(workdir, out, ["--predictor", path])
    if flag == "--schema":
        data = tmp_path / "cohort.csv"
        data.write_text("instance,id,x,label\nA,a1,0.5,1\nA,a2,0.1,0\nB,b1,1.5,1\n")
        return ["train", "--cohort", data, "--schema", path, "--epochs", "2", "--out", out]
    return ["train", "--config", path, "--cohort", workdir / "cohort.json", "--epochs", "2",
            "--out", out]


@pytest.mark.parametrize("flag, content, code", [
    ("--matrix", MATRIX_HEADER + b"m,m,abc,0.1,false\n", 3),
    ("--matrix", MATRIX_HEADER + b"m\xff,m,0.5,0.1,false\n", 3),
    ("--predictor", b'{"kind": "logistic", "weights": [', 3),
    ("--predictor", json.dumps({k: v for k, v in LOGISTIC.items() if k != "bias"}).encode(), 3),
    ("--predictor", json.dumps({**LOGISTIC, "weights": ["heavy"]}).encode(), 3),
    ("--predictor", b"id,score\na-0,0.1\na-1,0.2\xff\nb-0,0.3\nb-1,0.4\n", 3),
    ("--schema", b'{"instance_id": "instance", ', 3),
    ("--schema", json.dumps({**SCHEMA, "numeric": 5}).encode(), 3),
    ("--config", b'{"epochs": 2, "kind": "logis\xfftic"}', 2),
    ("--config", None, 2),
    ("--predictor", json.dumps({**LOGISTIC, "weights": 0.5}).encode(), 3),
    ("--schema", json.dumps({**SCHEMA, "label": ["label"]}).encode(), 3),
    ("--predictor", b"id,score\na-0,0.1\na-1,0.2\na-0,0.9\nb-0,0.3\nb-1,0.4\n", 3),
], ids=["matrix-non-numeric", "matrix-not-utf8", "predictor-invalid-json",
        "predictor-missing-key", "predictor-non-numeric-weights", "score-table-not-utf8",
        "schema-invalid-json", "schema-numeric-not-a-list", "config-not-utf8",
        "config-is-a-directory", "predictor-scalar-weights", "schema-list-column",
        "score-table-repeated-id"])
def test_exit_code_unreadable_input_file(workdir, tmp_path, capsys, flag, content, code):
    # each of these once exited 1 ("unexpected error"); every input file is read
    # under one rule that names the file and keeps the reader's documented code
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    code_seen, stdout, err = run(_input_argv(flag, path, workdir, tmp_path), capsys)
    assert (code_seen, stdout) == (code, ""), err
    assert str(path) in err and "unexpected error" not in err, err


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """One valid file of each input kind for a 2 x 4 cohort, keyed by kind, and
    the command that reads each kind's file at the path given to it."""
    root = tmp_path_factory.mktemp("fuzz")
    pools = [make_pool("a", [1.0, 0.0, 1.0, 0.0]), make_pool("b", [0.0, 1.0, 0.0, 1.0])]
    write_cohort(make_cohort(pools), str(root / "cohort.json"))
    (root / "scores.csv").write_text("id,score\n" + "".join(
        f"{p.ids[i]},0.{i + 2}\n" for p in pools for i in range(4)))
    (root / "cohort.csv").write_text("instance,id,x,label\n" + "".join(
        f"{p.instance_id},{p.ids[i]},0.{i + 3},{int(p.labels[i])}\n" for p in pools for i in range(4)))
    (root / "schema.json").write_text(json.dumps(SCHEMA))
    (root / "config.json").write_text(json.dumps({
        "iters": 2, "samples": 20, "samples2": 20, "draw_size": 1, "workers": 1, "seed": 1,
        "rho_ind": 1.0, "rho_xi": 1.0, "momentum": 0.7,
        "loss": {"kind": "misclass_rate", "threshold": 0.5}}))
    write_matrix_csv(CrossMetricMatrix(["top_k", "misclass_rate"], ["top_k", "misclass_rate"],
                                       np.eye(2) + 0.25,
                                       np.full((2, 2), 0.01), normalized=False),
                     str(root / "matrix.csv"))
    cohort, scores, out = root / "cohort.json", root / "scores.csv", root / "out.json"
    assert run(["train", "--cohort", cohort, "--epochs", "2", "--out", root / "model.json"]) == 0
    assert run(find_worst_args(root, root / "report.json")) == 0

    def find_worst(path):
        return ["find-worst", "--cohort", cohort, "--predictor", path,
                "--loss", '{"kind": "misclass_rate"}', *FAST, "--out", out]

    commands = {
        "config.json": lambda path: ["find-worst", "--config", path, "--cohort", cohort,
                                     "--predictor", scores, "--out", out],
        "schema.json": lambda path: ["train", "--cohort", root / "cohort.csv", "--schema", path,
                                     "--epochs", "2", "--out", out],
        "cohort.json": lambda path: ["train", "--cohort", path, "--epochs", "2", "--out", out],
        "cohort.csv": lambda path: ["train", "--cohort", path, "--schema", root / "schema.json",
                                    "--epochs", "2", "--out", out],
        "model.json": find_worst,
        "scores.csv": find_worst,
        "report.json": lambda path: ["report", "--report", path, "--trace", root / "trace.csv"],
        "matrix.csv": lambda path: ["report", "--matrix", path],
    }
    return root, commands


def _leaves(raw, want, path=()):
    """Paths to the leaves of parsed JSON that want accepts."""
    if isinstance(raw, (dict, list)):
        items = raw.items() if isinstance(raw, dict) else enumerate(raw)
        return [leaf for key, value in items for leaf in _leaves(value, want, (*path, key))]
    return [path] if want(raw) else []


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numeric_cell(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _swap_type(name: str, text: str, draw) -> bytes:
    """One value of the file's format swapped for another JSON type: a number
    for a string in the schema (which holds no numbers), else a string for a
    number; in a CSV file, a numeric cell for text."""
    if name.endswith(".csv"):
        rows = [line.split(",") for line in text.splitlines()]
        cells = [(r, c) for r, row in enumerate(rows) for c, cell in enumerate(row)
                 if _numeric_cell(cell)]
        r, c = draw(st.sampled_from(cells))
        rows[r][c] = "x"
        return "".join(",".join(row) + "\n" for row in rows).encode()
    raw = json.loads(text)
    schema = name == "schema.json"
    want = (lambda value: isinstance(value, str)) if schema else _number
    *parents, key = draw(st.sampled_from(_leaves(raw, want)))
    node = raw
    for step in parents:
        node = node[step]
    node[key] = 7 if schema else "x"
    return json.dumps(raw, indent=2).encode()


@pytest.mark.parametrize("name", ["config.json", "schema.json", "cohort.json", "cohort.csv",
                                  "model.json", "scores.csv", "report.json", "matrix.csv"])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data(), mutation=st.sampled_from(["truncate", "not-utf8", "swap-type"]))
def test_malformed_input_files_exit_2_or_3(fuzz_inputs, name, data, mutation):
    # every input kind, broken three ways, fails with its documented code
    # before any output, never as "unexpected error" (exit 1)
    root, commands = fuzz_inputs
    text = (root / name).read_text()
    if mutation == "truncate":  # to at most half, ending mid-line so no row is whole
        cut = data.draw(st.sampled_from([p for p in range(1, len(text) // 2)
                                         if "\n" not in text[p - 1:p + 1]]))
        content = text[:cut].encode()
    elif mutation == "not-utf8":
        at = data.draw(st.integers(0, len(text)))
        byte = bytes([data.draw(st.integers(0x80, 0xFF))])
        content = text[:at].encode() + byte + text[at:].encode()
    else:
        content = _swap_type(name, text, data.draw)
    bad = root / f"bad-{name}"
    bad.write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in commands[name](bad)])
    assert code in (2, 3) and out.getvalue() == "", (name, mutation, content, err.getvalue())
    assert "unexpected error" not in err.getvalue()


@pytest.mark.parametrize("source", ["cohort-cost", "score-table"])
def test_exit_code_infinite_delimited_value(workdir, tmp_path, capsys, source):
    # an inf cost or score once loaded, though no JSON cohort or predictor can hold
    # it; the delimited readers refuse it now, naming the file and the row
    out = tmp_path / "out.json"
    if source == "cohort-cost":
        data, schema = tmp_path / "cohort.csv", tmp_path / "schema.json"
        data.write_text("instance,id,x,label,cost\nA,a1,0.5,1,1\nA,a2,0.1,0,inf\nB,b1,1.5,1,2\n")
        schema.write_text(json.dumps({**SCHEMA, "cost": "cost"}))
        argv = ["train", "--cohort", data, "--schema", schema, "--epochs", "2", "--out", out]
    else:
        data = tmp_path / "scores.csv"
        data.write_text("id,score\na-0,0.1\na-1,inf\nb-0,0.3\nb-1,0.4\n")
        argv = find_worst_args(workdir, out, ["--predictor", data])
    code, stdout, err = run(argv, capsys)
    assert (code, stdout) == (3, ""), err
    assert f"{str(data)!r}: row 3: column" in err and "value 'inf' is not finite" in err
    assert not out.exists()


# finite weights whose output is inf - inf: the second layer's units overflow to inf
_NAN_MLP = {"kind": "mlp", "task": "binary", "embeddings": [],
            "layers": [{"w": [[0.0], [0.0]], "b": [1e308, 1e308]},
                       {"w": [[10.0, 0.0], [0.0, 10.0]], "b": [0.0, 0.0]},
                       {"w": [[1.0, -1.0]], "b": [0.0]}]}


@pytest.mark.parametrize("task, labels, costs, predictor, loss, match", [
    ("binary", [1.0, 0.0], [1.0, 1.0], _NAN_MLP, '{"kind": "misclass_rate"}',
     "scores must be finite"),
    ("regression", [1.0, 2.0], [1.0, 1.0], {"kind": "table", "scores": {"p-0": 0.9, "p-1": 0.0}},
     '{"kind": "nash_welfare", "budget": 1.0}', "positive predicted incomes"),
    ("binary", [1.0, 0.0], [0.4, 1.0], {"kind": "table", "scores": {"p-0": 0.9, "p-1": 0.5}},
     '{"kind": "knapsack", "budget": 1}', "costs must be integers"),
], ids=["nonfinite-score", "nash-zero-income", "fractional-cost"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exit_code_unscorable_pool(tmp_path, capsys, task, labels, costs, predictor, loss, match):
    # a pool the loss cannot score fails before the search or the oracle, naming the instance;
    # a non-finite score comes from a network's arithmetic, since every predictor
    # reader refuses a non-finite number itself
    cohort_path = tmp_path / "cohort.json"
    write_cohort(make_cohort([make_pool("p", labels, costs=costs)], task=task), str(cohort_path))
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps(predictor))
    inputs = ["--cohort", cohort_path, "--predictor", scores, "--loss", loss]
    for argv in (["find-worst", *inputs, *FAST, "--out", tmp_path / "x.json"],
                 ["oracle", *inputs, "--rho-ind", "1.0", "--restarts", "2",
                  "--out", tmp_path / "o.json"],
                 ["fig2", *inputs, "--rho-ind", "1.0", "--grid", "10", "--iters", "2",
                  "--restarts", "2", "--out", tmp_path / "c.csv"]):
        code, _, err = run(argv, capsys)
        assert code == 3 and "instance 'p'" in err and match in err, (argv[0], err)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_saturated_predictor_scores_without_a_warning(tmp_path, capsys):
    # logits of +-1000: exp(1000) overflows inside the sigmoid, whose scores are
    # then exactly 1.0 and 0.0, both valid
    pool = make_pool("p", [1.0, 0.0])
    pool.numeric[:, 0] = [1.0, -1.0]
    cohort_path = tmp_path / "cohort.json"
    write_cohort(make_cohort([pool]), str(cohort_path))
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"kind": "logistic", "task": "binary", "weights": [1000.0],
                                 "bias": 0.0, "cat_weights": []}))
    code, _, err = run(["find-worst", "--cohort", cohort_path, "--predictor", model,
                        "--loss", '{"kind": "top_k", "k": 1}', "--iters", "2", "--samples", "100",
                        "--samples2", "100", "--out", tmp_path / "x.json"], capsys)
    assert (code, err) == (0, "")


def test_exit_code_numerical_error(tmp_path, capsys):
    # 40 individuals drawn 40 at a time: the enumeration cap trips
    pool = make_pool("big", [0.0, 1.0] * 20)
    cohort = make_cohort([pool])
    cohort_path = tmp_path / "big.json"
    write_cohort(cohort, str(cohort_path))
    scores = tmp_path / "scores.csv"
    scores.write_text("id,score\n" + "".join(f"big-{i},0.5\n" for i in range(40)))
    code, _, err = run(["oracle", "--cohort", cohort_path, "--predictor", scores,
                        "--loss", '{"kind": "fairness_gini", "k": 2}',
                        "--out", tmp_path / "o.json"], capsys)
    assert code == 4 and "enumeration" in err


@pytest.mark.parametrize("loss", ['{"kind": "misclass_rate"}', '{"kind": "top_k", "k": 3}'])
def test_closed_form_oracle_runs_above_the_cap(tmp_path, capsys, loss):
    # 40 individuals drawn 40 at a time, C(79, 40) multisets: far above the cap,
    # but these two losses need no enumeration
    pool = make_pool("big", [0.0, 1.0] * 20)
    cohort_path = tmp_path / "big.json"
    write_cohort(make_cohort([pool]), str(cohort_path))
    scores = tmp_path / "scores.csv"
    scores.write_text("id,score\n" + "".join(f"big-{i},0.{i % 9 + 1}\n" for i in range(40)))
    inputs = ["--cohort", cohort_path, "--predictor", scores, "--loss", loss, "--rho-ind", "1.0"]
    code, stdout, err = run(["oracle", *inputs, "--out", tmp_path / "o.json"], capsys)
    assert (code, err) == (0, ""), err
    (inst,) = json.loads((tmp_path / "o.json").read_text())["instances"]
    assert 0.0 < inst["value"] <= 1.0 + 1e-12 and 0.0 <= inst["gap"] <= 1e-6, inst
    code, stdout, err = run(["fig2", *inputs, "--grid", "10", "--iters", "2",
                             "--out", tmp_path / "c.csv"], capsys)
    assert (code, err) == (0, ""), err
    ratios = read_curve_csv(str(tmp_path / "c.csv")).ratios
    assert ((0.0 < ratios) & (ratios <= 1.0 + 1e-9)).all(), ratios


def test_config_file_must_be_object(tmp_path, capsys):
    bad = tmp_path / "conf.json"
    bad.write_text("[1, 2]")
    code, _, err = run(["train", "--config", bad, "--cohort", demo_cohort_path(),
                        "--out", tmp_path / "m.json"], capsys)
    assert code == 2 and "top level" in err


@pytest.mark.parametrize("key, value", [("out", 5), ("out", ["m.json"]), ("heatmap", 7.5),
                                        ("trace", {"path": "t.csv"})],
                         ids=["out-int", "out-list", "heatmap-float", "trace-object"])
def test_exit_code_config_path_not_a_string(workdir, tmp_path, capsys, key, value):
    # an output path from a config file was never type-checked: open(5, "w")
    # took 5 as a file descriptor and a list reached open(), both exit 1
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    if key == "out":
        argv = ["train", "--cohort", demo_cohort_path(), "--epochs", "2"]
    else:
        report, matrix = tmp_path / "report.json", tmp_path / "matrix.csv"
        assert run(find_worst_args(workdir, report)) == 0
        write_matrix_csv(CrossMetricMatrix(["top_k"], ["top_k"], np.ones((1, 1)),
                                           np.zeros((1, 1)), normalized=False), str(matrix))
        argv = ["report", "--matrix" if key == "heatmap" else "--report",
                matrix if key == "heatmap" else report]
    code, _, err = run([*argv, "--config", config], capsys)
    assert code == 2, err
    assert f"--{key} must be a path string, got {value!r}" in err


def _saved_report(workdir, tmp_path):
    report = tmp_path / "report.json"
    assert run(find_worst_args(workdir, report)) == 0
    return report


def _train_args(tmp_path, out=None, config=None):
    argv = ["train", "--cohort", demo_cohort_path(), "--epochs", "2"]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv += ["--config", tmp_path / "config.json"]
    return argv if out is None else [*argv, "--out", out]


@pytest.mark.parametrize("argv, match", [
    (lambda wd, tmp: _train_args(tmp, tmp), "--out '{tmp}' is a directory"),
    (lambda wd, tmp: _train_args(tmp, tmp / "nodir" / "m.json"),
     "--out '{tmp}/nodir/m.json': directory '{tmp}/nodir' does not exist"),
    (lambda wd, tmp: _train_args(tmp, config={"out": ""}), "--out path is empty"),
    (lambda wd, tmp: find_worst_args(wd, tmp / "nodir" / "r.json"),
     "--out '{tmp}/nodir/r.json': directory '{tmp}/nodir' does not exist"),
    (lambda wd, tmp: ["evaluate", "--cohort", wd / "cohort.json", "--predictor", wd / "scores.csv",
                      "--report", _saved_report(wd, tmp), "--eval-instances", "5",
                      "--eval-problems", "5", "--heatmap", tmp / "nodir" / "h.svg",
                      "--out", tmp / "m.csv"],
     "--heatmap '{tmp}/nodir/h.svg': directory '{tmp}/nodir' does not exist"),
    (lambda wd, tmp: ["report", "--report", _saved_report(wd, tmp),
                      "--trace", tmp / "nodir" / "x.csv"],
     "--trace '{tmp}/nodir/x.csv': directory '{tmp}/nodir' does not exist"),
], ids=["train-out-directory", "train-out-no-parent", "train-config-out-empty",
        "find-worst-out-no-parent", "evaluate-heatmap-no-parent", "report-trace-no-parent"])
def test_output_paths_checked_before_any_work(workdir, tmp_path, capsys, monkeypatch, argv,
                                              match):
    # each of these once trained, searched or evaluated, then failed to write with exit 1
    argv = argv(workdir, tmp_path)
    capsys.readouterr()
    ran = []
    for name in ("train", "find_worst_case", "matrix_from_shifts"):
        monkeypatch.setattr(cli, name, lambda *a, **k: ran.append("work"))
    code, stdout, err = run(argv, capsys)
    assert (code, stdout, ran) == (2, "", []), err
    assert match.format(tmp=tmp_path) in err, err
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("hidden", ["4,3", "2"])
def test_train_mlp_narrower_than_its_input(tmp_path, capsys, hidden):
    # the bundled binary cohort has a categorical feature, so the mlp's input is
    # wider than these hidden layers; its gradient once failed there with exit 1
    out = tmp_path / "m.json"
    code, stdout, err = run(["train", "--cohort", demo_cohort_path("binary"), "--kind", "mlp",
                             "--hidden", hidden, "--epochs", "5", "--out", out], capsys)
    assert code == 0, err
    assert "trained mlp" in stdout and out.exists()


# The config block each command records when given only its required flags, as
# written before the flag table replaced the per-command defaults.
RESOLVED_DEFAULTS = {
    "train": {"embed_dim": 4, "epochs": 300, "hidden": "16,16", "kind": "logistic",
              "schema": None, "seed": 0},
    "find-worst": {"draw_size": None, "iters": 15, "rho_ind": 2.0, "rho_xi": 6.25,
                   "samples": 35000, "samples2": 4000, "schema": None, "seed": 0},
    "evaluate": {"draw_size": None, "eval_instances": 200, "eval_problems": 4000,
                 "heatmap": None, "metrics": [{"kind": "misclass_rate", "threshold": 0.5}],
                 "normalize": False, "schema": None, "seed": 0},
    "oracle": {"draw_size": None, "restarts": 20, "rho_ind": 2.0, "schema": None, "seed": 0},
    "fig2": {"draw_size": None, "grid": [10, 50, 250, 1000, 3000], "iters": 15,
             "restarts": 20, "rho_ind": 2.0, "schema": None, "seed": 0},
}


@pytest.mark.parametrize("command", sorted(RESOLVED_DEFAULTS))
def test_resolved_defaults(workdir, tmp_path, command):
    # only the required flags, so every other value is a default
    cohort, scores, out = str(workdir / "cohort.json"), str(workdir / "scores.csv"), str(tmp_path / "out")
    inputs = {"cohort": cohort, "out": out}
    if command == "train":
        argv = ["train", "--cohort", cohort]
    elif command == "evaluate":
        report = str(tmp_path / "report.json")
        assert run(find_worst_args(workdir, report)) == 0
        argv = ["evaluate", "--cohort", cohort, "--predictor", scores, "--report", report]
        inputs.update(predictor=scores, report=[report])
    else:
        argv = [command, "--cohort", cohort, "--predictor", scores,
                "--loss", '{"kind": "misclass_rate"}']
        inputs.update(predictor=scores, loss={"kind": "misclass_rate", "threshold": 0.5})
    assert run([*argv, "--out", out]) == 0
    expected = {**RESOLVED_DEFAULTS[command], **inputs}
    if command == "find-worst":
        expected["workers"] = os.cpu_count() or 1
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest["config"] == expected
