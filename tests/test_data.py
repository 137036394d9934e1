import json
import dataclasses

import numpy as np
import pytest

from allocshift import (Cohort, ConfigError, DataError, EmptyCohortError, ParseError,
                        SchemaConfig, SchemaError, SyntheticSpec,
                        NumericalError, demo_cohort_path, generate_synthetic,
                        load_cohort, write_cohort)
from allocshift.data import write_json

from conftest import cohorts_equal

CSV = """instance,id,age,score,color,label,cost,grp
A,a1,30,0.5,red,1,2,g0
A,a2,40,0.1,blue,0,1,g1
B,b1,50,0.9,red,1,3,g0
B,b2,20,0.2,green,0,1,g1
"""

SCHEMA = {
    "instance_id": "instance", "id": "id", "label": "label",
    "numeric": ["age", "score"], "categorical": ["color"],
    "cost": "cost", "group": "grp", "task": "binary",
}


def write_inputs(tmp_path, csv_text=CSV, schema=SCHEMA):
    data = tmp_path / "cohort.csv"
    data.write_text(csv_text)
    spath = tmp_path / "schema.json"
    spath.write_text(json.dumps(schema))
    return str(data), str(spath)


def test_load_delimited(tmp_path):
    data, spath = write_inputs(tmp_path)
    cohort = load_cohort(data, SchemaConfig.from_json(spath))
    assert cohort.task == "binary"
    assert cohort.instance_ids == ["A", "B"]
    assert [len(p) for p in cohort.pools] == [2, 2]
    # cohort-wide standardization: each numeric column has mean 0
    matrix = np.concatenate([p.numeric for p in cohort.pools], axis=0)
    assert np.allclose(matrix.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(matrix.std(axis=0), 1.0, atol=1e-12)
    # first-appearance categorical codes
    assert cohort.categorical_codes[0] == ["red", "blue", "green"]
    assert cohort.group_codes == ["g0", "g1"]
    assert cohort.pools[0].costs[0] == 2.0


def test_missing_column_named(tmp_path):
    schema = dict(SCHEMA, label="result")
    data, spath = write_inputs(tmp_path, schema=schema)
    with pytest.raises(SchemaError, match="result"):
        load_cohort(data, SchemaConfig.from_json(spath))


def test_bad_label_names_row(tmp_path):
    bad = CSV.replace("A,a2,40,0.1,blue,0,1,g1", "A,a2,40,0.1,blue,2,1,g1")
    data, spath = write_inputs(tmp_path, csv_text=bad)
    with pytest.raises(ParseError, match="row 3"):
        load_cohort(data, SchemaConfig.from_json(spath))


def test_bad_numeric_names_row(tmp_path):
    bad = CSV.replace("B,b1,50,0.9,red,1,3,g0", "B,b1,old,0.9,red,1,3,g0")
    data, spath = write_inputs(tmp_path, csv_text=bad)
    with pytest.raises(ParseError, match="row 4"):
        load_cohort(data, SchemaConfig.from_json(spath))


def test_delimited_requires_schema(tmp_path):
    data, _ = write_inputs(tmp_path)
    with pytest.raises(Exception, match="schema"):
        load_cohort(data)


def test_unknown_schema_key_rejected(tmp_path):
    data, spath = write_inputs(tmp_path, schema=dict(SCHEMA, extra="x"))
    with pytest.raises(Exception, match="extra"):
        load_cohort(data, SchemaConfig.from_json(spath))


def test_json_round_trip(tmp_path):
    data, spath = write_inputs(tmp_path)
    cohort = load_cohort(data, SchemaConfig.from_json(spath))
    out = tmp_path / "cohort.json"
    write_cohort(cohort, str(out))
    again = load_cohort(str(out))
    assert cohorts_equal(cohort, again)
    # canonical serialization: writing twice gives identical bytes
    out2 = tmp_path / "cohort2.json"
    write_cohort(again, str(out2))
    assert out.read_bytes() == out2.read_bytes()


def test_empty_cohort_rejected():
    with pytest.raises(EmptyCohortError):
        Cohort(pools=[], task="binary", numeric_names=[], categorical_names=[],
               categorical_codes=[], group_codes=[], standardize_mean=np.zeros(0),
               standardize_std=np.zeros(0))


def test_duplicate_ids_rejected(tmp_path):
    bad = CSV.replace("A,a2", "A,a1")
    data, spath = write_inputs(tmp_path, csv_text=bad)
    with pytest.raises(Exception, match="duplicate"):
        load_cohort(data, SchemaConfig.from_json(spath))


def test_duplicate_instance_ids_rejected(tmp_path):
    data, spath = write_inputs(tmp_path)
    good = load_cohort(data, SchemaConfig.from_json(spath))
    twin = dataclasses.replace(good.pools[1], instance_id=good.pools[0].instance_id)
    with pytest.raises(DataError, match="duplicate instance id"):
        Cohort(pools=[good.pools[0], twin], task=good.task)


def test_binary_cohort_rejects_non_binary_labels(tmp_path):
    # JSON cohorts skip the CSV label parser; the cohort itself checks its labels
    data, spath = write_inputs(tmp_path)
    good = load_cohort(data, SchemaConfig.from_json(spath))
    path = tmp_path / "cohort.json"
    write_cohort(good, str(path))
    raw = json.loads(path.read_text())
    raw["pools"][1]["individuals"][1]["label"] = 0.5
    path.write_text(json.dumps(raw))
    with pytest.raises(DataError, match="instance 'B': individual 'b2' has label 0.5"):
        load_cohort(str(path))
    raw["task"] = "regression"  # any real label is a regression target
    path.write_text(json.dumps(raw))
    assert load_cohort(str(path)).pools[1].labels.tolist() == [1.0, 0.5]


def test_synthetic_deterministic():
    spec = SyntheticSpec(instances=3, pool_size=4, numeric_features=2,
                         categorical_features=1, task="binary")
    a = generate_synthetic(spec, seed=5)
    b = generate_synthetic(spec, seed=5)
    c = generate_synthetic(spec, seed=6)
    assert cohorts_equal(a, b)
    assert not cohorts_equal(a, c)
    assert all(len(p) == 4 for p in a.pools)
    assert set(np.concatenate([p.labels for p in a.pools])) <= {0.0, 1.0}


@pytest.mark.parametrize("spec, match", [
    (dict(instances=2.5, pool_size=3), "instances must be an integer, got 2.5"),
    (dict(instances=2, pool_size=3, groups=True), "groups must be an integer, got True"),
    (dict(instances=2, pool_size=3, label_noise="0.1"), "label_noise must be a number"),
    (dict(instances=0, pool_size=3), "instances and pool_size must be >= 1"),
    (dict(instances=2, pool_size=3, categorical_features=1, categorical_levels=0),
     "categorical_levels must be >= 1, got 0"),
    (dict(instances=2, pool_size=3, categorical_features=-1), "categorical_features must be >= 0"),
    (dict(instances=2, pool_size=3, label_noise=-1.0), "label_noise must be finite and >= 0"),
    (dict(instances=2, pool_size=3, label_noise=float("nan")), "label_noise must be finite"),
])
def test_synthetic_spec_refuses_with_config_error(spec, match):
    # a fractional instance count once constructed, and generate_synthetic then
    # raised a TypeError; the range checks raised a bare ValueError; zero levels
    # and a negative noise reached numpy's bare ValueError, and a NaN noise made
    # every label 0
    with pytest.raises(ConfigError, match=match):
        SyntheticSpec(**spec)


def test_delimited_cost_must_be_finite(tmp_path):
    # an inf cost once loaded, and write_cohort then refused the cohort
    bad = CSV.replace("B,b1,50,0.9,red,1,3,g0", "B,b1,50,0.9,red,1,inf,g0")
    data, spath = write_inputs(tmp_path, csv_text=bad)
    with pytest.raises(ParseError, match="row 4: column 'cost' value 'inf' is not finite"):
        load_cohort(data, SchemaConfig.from_json(spath))


def test_synthetic_regression_positive_incomes():
    spec = SyntheticSpec(instances=2, pool_size=5, task="regression")
    cohort = generate_synthetic(spec, seed=3)
    for pool in cohort.pools:
        assert (pool.labels > 0).all()


def test_demo_assets_load():
    binary = load_cohort(demo_cohort_path("binary"))
    assert binary.task == "binary" and len(binary.pools) == 2
    regression = load_cohort(demo_cohort_path("regression"))
    assert regression.task == "regression" and len(regression.pools) == 2
    with pytest.raises(ValueError):
        demo_cohort_path("ranking")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_write_json_refuses_non_finite_numbers(tmp_path, bad):
    # json writes NaN and Infinity, which JSON does not hold; the readers refuse them
    path = tmp_path / "out.json"
    with pytest.raises(NumericalError, match="non-finite"):
        write_json({"ok": 1.0, "values": [0.5, bad]}, str(path))
    assert not path.exists()
