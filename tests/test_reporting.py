from pathlib import Path

import numpy as np
import pytest

from allocshift import (CrossMetricMatrix, DataError, FwParams, NumericalError,
                        OracleRatioCurve, UncertaintyBudget,
                        find_worst_case, read_curve_csv, read_matrix_csv,
                        read_trace_csv, render_heatmap, write_curve_csv,
                        write_matrix_csv, write_trace_csv)
from allocshift.engine import InstanceTrace
from allocshift.losses import MisclassRate
from conftest import make_cohort, make_pool, table_for


def sample_matrix(normalized=False):
    return CrossMetricMatrix(
        row_metrics=["top_k", "misclass_rate"],
        col_metrics=["top_k", "misclass_rate"],
        values=np.array([[0.75, 1 / 3], [0.1234567890123456, 1.0]]),
        stderr=np.array([[0.01, 0.002], [0.0001, 0.03]]),
        normalized=normalized)


def sample_curve():
    return OracleRatioCurve(grid=[10, 50, 250],
                            instance_ids=["a", "b"],
                            ratios=np.array([[0.4, 0.7, 0.99],
                                             [0.5, 1 / 3, 1.0]]))


def sample_traces():
    t1 = InstanceTrace(objective=[0.5, 0.75], grad_norm=[1.5, 0.25],
                       divergence=[0.0, 0.125])
    t2 = InstanceTrace(objective=[0.1, 0.2], grad_norm=[2.0, 1.0],
                       divergence=[0.0, 0.5])
    return ["a", "b"], [t1, t2]


def test_matrix_round_trip(tmp_path):
    path = str(tmp_path / "matrix.csv")
    for normalized in (False, True):
        mat = sample_matrix(normalized)
        write_matrix_csv(mat, path)
        again = read_matrix_csv(path)
        assert again.row_metrics == mat.row_metrics
        assert again.col_metrics == mat.col_metrics
        assert np.array_equal(again.values, mat.values)  # repr round trip is exact
        assert np.array_equal(again.stderr, mat.stderr)
        assert again.normalized is normalized


def test_matrix_csv_byte_deterministic(tmp_path):
    p1, p2 = str(tmp_path / "m1.csv"), str(tmp_path / "m2.csv")
    write_matrix_csv(sample_matrix(), p1)
    write_matrix_csv(sample_matrix(), p2)
    b1 = Path(p1).read_bytes()
    assert b1 == Path(p2).read_bytes()
    assert b1.startswith(b"row_metric,col_metric,value,stderr,normalized\n")
    assert b"\r" not in b1


def test_matrix_rejects_non_finite(tmp_path):
    mat = sample_matrix()
    mat.values[1, 0] = np.nan
    with pytest.raises(NumericalError, match="misclass_rate.*top_k|top_k.*misclass_rate"):
        write_matrix_csv(mat, str(tmp_path / "bad.csv"))


def test_matrix_read_validates(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("wrong,header\n1,2\n")
    with pytest.raises(DataError):
        read_matrix_csv(str(path))
    # a missing cell leaves a hole in the grid
    good = tmp_path / "good.csv"
    write_matrix_csv(sample_matrix(), str(good))
    lines = good.read_text().splitlines()
    (tmp_path / "hole.csv").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(DataError):
        read_matrix_csv(str(tmp_path / "hole.csv"))


def _edited(tmp_path, name, write, artifact, edit):
    """The path of artifact as write leaves it, with edit applied to its lines."""
    path = tmp_path / name
    write(artifact, str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")
    return str(path)


def _repeat_first(lines):
    return [*lines, lines[1]]


def _first_value_nan(lines):
    cells = lines[1].split(",")
    cells[-1 if len(cells) == 3 else 2] = "nan"
    return [lines[0], ",".join(cells), *lines[2:]]


@pytest.mark.parametrize("edit, match", [
    (_repeat_first, r"repeated cell \(top_k, top_k\)"),
    (_first_value_nan, r"non-finite value at \(top_k, top_k\)"),
    (lambda lines: [*lines[:2], lines[2].replace("0.002", "inf"), *lines[3:]],
     r"non-finite value at \(top_k, misclass_rate\)"),
    (lambda lines: lines[:1], "no cells"),
])
def test_matrix_read_refuses_what_the_writer_never_writes(tmp_path, edit, match):
    path = _edited(tmp_path, "m.csv", write_matrix_csv, sample_matrix(), edit)
    with pytest.raises(DataError, match=match) as info:
        read_matrix_csv(path)
    assert path in str(info.value)


@pytest.mark.parametrize("edit, match", [
    (_repeat_first, r"repeated cell \(num_samples=10, instance 'a'\)"),
    (_first_value_nan, r"non-finite value at \(num_samples=10, instance 'a'\)"),
    (lambda lines: [lines[0], *lines[2:]], r"missing cell \(num_samples=10, instance 'a'\)"),
    (lambda lines: lines[:1], "no cells"),
])
def test_curve_read_refuses_what_the_writer_never_writes(tmp_path, edit, match):
    path = _edited(tmp_path, "c.csv", write_curve_csv, sample_curve(), edit)
    with pytest.raises(DataError, match=match) as info:
        read_curve_csv(path)
    assert path in str(info.value)


@pytest.mark.parametrize("edit, match", [
    (_repeat_first, r"repeated cell \(instance 'a', iteration 0\)"),
    (_first_value_nan, r"non-finite value at \(instance 'a', iteration 0\)"),
    (lambda lines: [*lines[:2], lines[2].replace("0.25", "-inf"), *lines[3:]],
     r"non-finite value at \(instance 'a', iteration 1\)"),
    (lambda lines: [lines[0], *lines[2:]], r"missing cell \(instance 'a', iteration 0\)"),
    (lambda lines: lines[:1], "no cells"),
])
def test_trace_read_refuses_what_the_writer_never_writes(tmp_path, edit, match):
    path = _edited(tmp_path, "t.csv", lambda trace, p: write_trace_csv(*trace, p),
                   sample_traces(), edit)
    with pytest.raises(DataError, match=match) as info:
        read_trace_csv(path)
    assert path in str(info.value)


def test_trace_read_checks_iterations(tmp_path):
    # iterations first appear as 0, 1, ..., and every instance has each one once
    ids, traces = sample_traces()
    path = tmp_path / "trace.csv"
    write_trace_csv(ids, traces, str(path))
    lines = path.read_text().splitlines()
    for bad, match in (([lines[0], lines[2], lines[1], *lines[3:]], "in order 0, 1, ..., got 1, 0"),
                       ([lines[0], *(line.replace(",1,", ",2,") for line in lines[1:])],
                        "in order 0, 1, ..., got 0, 2"),
                       ([*lines[:2], lines[2].replace("a,1,", "a,2,"), *lines[3:]],
                        r"missing cell \(instance 'a', iteration 1\)"),
                       ([*lines[:2], lines[2].replace("a,1,", "a,1.0,"), *lines[3:]], "'1.0'")):
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(DataError, match=match):
            read_trace_csv(str(path))
    # instances may interleave, as long as the iterations first appear in order
    path.write_text("\n".join([lines[0], lines[1], lines[3], lines[2], lines[4]]) + "\n")
    assert read_trace_csv(str(path)) == (ids, traces)


def test_refused_write_leaves_no_file(tmp_path):
    # the bad value sits in the last row, so a writer that checks while it
    # writes would leave a partial file behind
    matrix = sample_matrix()
    matrix.stderr[1, 1] = np.nan
    curve = sample_curve()
    curve.ratios[1, 2] = np.inf
    ids, traces = sample_traces()
    traces[1].divergence[1] = np.nan
    for name, write in [("m.csv", lambda path: write_matrix_csv(matrix, path)),
                        ("c.csv", lambda path: write_curve_csv(curve, path)),
                        ("t.csv", lambda path: write_trace_csv(ids, traces, path))]:
        with pytest.raises(NumericalError):
            write(str(tmp_path / name))
        assert not (tmp_path / name).exists(), name


def test_curve_round_trip(tmp_path):
    path = str(tmp_path / "curve.csv")
    curve = sample_curve()
    write_curve_csv(curve, path)
    again = read_curve_csv(path)
    assert again.grid == curve.grid
    assert again.instance_ids == curve.instance_ids
    assert np.array_equal(again.ratios, curve.ratios)
    head = Path(path).read_bytes().split(b"\n", 1)[0]
    assert head == b"num_samples,instance_id,ratio"


def test_curve_rejects_non_finite(tmp_path):
    curve = sample_curve()
    curve.ratios[0, 1] = np.inf
    with pytest.raises(NumericalError, match="a"):
        write_curve_csv(curve, str(tmp_path / "bad.csv"))


def test_trace_round_trip(tmp_path):
    ids, traces = sample_traces()
    path = str(tmp_path / "trace.csv")
    write_trace_csv(ids, traces, path)
    again_ids, again_traces = read_trace_csv(path)
    assert again_ids == ids
    for t1, t2 in zip(again_traces, traces):
        assert t1.objective == t2.objective
        assert t1.grad_norm == t2.grad_norm
        assert t1.divergence == t2.divergence
    head = Path(path).read_bytes().split(b"\n", 1)[0]
    assert head == b"instance_id,iteration,objective,grad_norm,divergence"


def test_trace_csv_from_report(tmp_path):
    pools = [make_pool("a", [1.0, 0.0])]
    predictor = table_for(pools, [[0.0, 0.0]])
    cohort = make_cohort(pools)
    params = FwParams(iterations=3, num_samples=200, num_samples2=200,
                      draw_size=1, seed=1)
    report = find_worst_case(cohort, predictor, MisclassRate(),
                             UncertaintyBudget(1.0, 0.0), params)
    path = str(tmp_path / "trace.csv")
    write_trace_csv(report.instance_ids, report.traces, path)
    ids, traces = read_trace_csv(path)
    assert ids == ["a"]
    assert traces[0].objective == report.traces[0].objective


def test_heatmap_renders_annotations(tmp_path):
    path = str(tmp_path / "heat.svg")
    render_heatmap(sample_matrix(), path)
    svg = Path(path).read_text()
    assert svg.startswith("<svg")
    assert "0.75" in svg and "0.33" in svg and "1.00" in svg
    assert "misclass_rate" in svg
    # byte-stable output
    render_heatmap(sample_matrix(), str(tmp_path / "heat2.svg"))
    assert Path(path).read_bytes() == (tmp_path / "heat2.svg").read_bytes()


@pytest.mark.parametrize("normalized, title, other", [
    (False, "expected decision loss", "share of own worst case"),
    (True, "share of own worst case", "expected decision loss"),
])
def test_heatmap_title_follows_the_matrix(tmp_path, normalized, title, other):
    path = tmp_path / "heat.svg"
    render_heatmap(sample_matrix(normalized), str(path))
    svg = path.read_text()
    assert f'font-size="14">{title}</text>' in svg and other not in svg


def test_heatmap_single_cell(tmp_path):
    mat = CrossMetricMatrix(row_metrics=["mse"], col_metrics=["mse"],
                            values=np.array([[0.42]]),
                            stderr=np.zeros((1, 1)))
    path = str(tmp_path / "one.svg")
    render_heatmap(mat, path)
    assert "0.42" in Path(path).read_text()


def test_heatmap_rejects_nan(tmp_path):
    mat = sample_matrix()
    mat.values[0, 1] = np.nan
    with pytest.raises(NumericalError, match="top_k.*misclass_rate|misclass_rate.*top_k"):
        render_heatmap(mat, str(tmp_path / "bad.svg"))
