import json
import re

import numpy as np
import pytest

from allocshift import (ConfigError, DataError, SyntheticSpec, TablePredictor,
                        TrainConfig, generate_synthetic, load_predictor,
                        load_table_predictions, predict_pool,
                        save_predictor, train)
from allocshift import predictors
from allocshift.predictors import _loss_and_grad_out, _sigmoid

from conftest import make_pool


def test_sigmoid_frozen():
    assert _sigmoid(np.array(3.0)) == pytest.approx(0.9525741268224334, abs=1e-15)
    assert _sigmoid(np.array(0.0)) == 0.5


@pytest.fixture(scope="module")
def binary_cohort():
    spec = SyntheticSpec(instances=3, pool_size=8, numeric_features=3,
                         categorical_features=1, categorical_levels=3, task="binary")
    return generate_synthetic(spec, seed=2)


@pytest.fixture(scope="module")
def regression_cohort():
    spec = SyntheticSpec(instances=2, pool_size=8, numeric_features=3, task="regression")
    return generate_synthetic(spec, seed=4)


def _ce(scores, labels):
    s = np.clip(scores, 1e-15, 1 - 1e-15)
    return float(-(labels * np.log(s) + (1 - labels) * np.log(1 - s)).mean())


def test_logistic_improves_over_constant(binary_cohort):
    model = train(binary_cohort, "logistic", TrainConfig(epochs=200), seed=0)
    scores = np.concatenate([predict_pool(model, p) for p in binary_cohort.pools])
    labels = np.concatenate([p.labels for p in binary_cohort.pools])
    base = _ce(np.full_like(labels, labels.mean()), labels)
    assert _ce(scores, labels) < base
    assert ((scores > 0) & (scores < 1)).all()


def test_mlp_regression_fits(regression_cohort):
    model = train(regression_cohort, "mlp", TrainConfig(epochs=200), seed=0)
    preds = np.concatenate([predict_pool(model, p) for p in regression_cohort.pools])
    labels = np.concatenate([p.labels for p in regression_cohort.pools])
    assert float(((preds - labels) ** 2).mean()) < float(((labels.mean() - labels) ** 2).mean())


def test_training_deterministic(binary_cohort):
    a = train(binary_cohort, "mlp", TrainConfig(epochs=30), seed=9)
    b = train(binary_cohort, "mlp", TrainConfig(epochs=30), seed=9)
    for p in binary_cohort.pools:
        assert np.array_equal(predict_pool(a, p), predict_pool(b, p))


def test_unknown_kind_rejected(binary_cohort):
    with pytest.raises(ConfigError, match="kind"):
        train(binary_cohort, "forest")


def test_save_load_round_trip(tmp_path, binary_cohort, regression_cohort):
    for cohort, kind in ((binary_cohort, "logistic"), (binary_cohort, "mlp"),
                         (regression_cohort, "mlp")):
        model = train(cohort, kind, TrainConfig(epochs=20), seed=1)
        path = tmp_path / f"{kind}_{cohort.task}.json"
        save_predictor(model, str(path))
        again = load_predictor(str(path))
        for p in cohort.pools:
            assert np.array_equal(predict_pool(model, p), predict_pool(again, p))


@pytest.mark.parametrize("task, kind, hidden", [
    ("binary", "logistic", ()), ("binary", "mlp", (4, 3)), ("binary", "mlp", (2,)),
    ("regression", "mlp", (12, 2))])
def test_training_gradient_matches_finite_differences(monkeypatch, task, kind, hidden):
    # every parameter's analytic gradient, embedding tables included, against
    # central differences of the training loss, on a cohort with categorical
    # features (input width 3 + 2 * 4 = 11) and hidden widths below and above
    # it. The mlp gradient once scattered the first hidden layer's gradient into
    # the tables: wrong values where that layer is at least as wide as the
    # input, and a shape error where it is narrower
    spec = SyntheticSpec(instances=2, pool_size=6, numeric_features=3,
                         categorical_features=2, categorical_levels=3, task=task)
    cohort = generate_synthetic(spec, seed=5)
    seen = {}

    def capture(params, forward, gradient, labels, task, config):
        seen.update(params=params, forward=forward, gradient=gradient, labels=labels)
        return params, []

    monkeypatch.setattr(predictors, "_descend", capture)
    train(cohort, kind, TrainConfig(hidden=hidden), seed=3)
    rng = np.random.default_rng(8)
    params = [np.array(p + 0.3 * rng.normal(size=np.shape(p))) for p in seen["params"]]

    def loss(params):
        return _loss_and_grad_out(seen["forward"](params)[0], seen["labels"], task)[0]

    out, cache = seen["forward"](params)
    grads = seen["gradient"](params, cache, _loss_and_grad_out(out, seen["labels"], task)[1])
    assert len(grads) == len(params)
    h = 1e-6
    for i, p in enumerate(params):
        fd = np.zeros(p.shape)
        for idx in np.ndindex(p.shape):
            hi, lo = p.copy(), p.copy()
            hi[idx] += h
            lo[idx] -= h
            fd[idx] = (loss(params[:i] + [hi] + params[i + 1:])
                       - loss(params[:i] + [lo] + params[i + 1:])) / (2 * h)
        assert np.allclose(grads[i], fd, rtol=1e-5, atol=1e-8), (i, grads[i], fd)


def test_table_predictor_round_trip(tmp_path):
    pool = make_pool("t", [1, 0])
    table = TablePredictor(scores={"t-0": 0.25, "t-1": 0.75})
    path = tmp_path / "table.json"
    save_predictor(table, str(path))
    again = load_predictor(str(path))
    assert np.array_equal(predict_pool(table, pool), predict_pool(again, pool))
    assert predict_pool(table, pool).tolist() == [0.25, 0.75]


def test_table_predictor_unknown_id():
    pool = make_pool("t", [1, 0])
    table = TablePredictor(scores={"t-0": 0.25})
    with pytest.raises(DataError, match="t-1"):
        predict_pool(table, pool)


def test_load_table_predictions(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text("id,score\nt-0,0.3\nt-1,0.9\n")
    table = load_table_predictions(str(path))
    pool = make_pool("t", [1, 0])
    assert np.allclose(predict_pool(table, pool), [0.3, 0.9])
    bare = tmp_path / "bare.csv"
    bare.write_text("t-0,0.4\nt-1,0.6\n")
    table2 = load_table_predictions(str(bare))
    assert np.allclose(predict_pool(table2, pool), [0.4, 0.6])


@pytest.mark.parametrize("score", ["inf", "-inf", "nan"])
def test_load_table_predictions_refuses_a_non_finite_score(tmp_path, score):
    # an inf score once loaded, and save_predictor then refused the table
    path = tmp_path / "preds.csv"
    path.write_text(f"id,score\na,0.1\nb,{score}\n")
    with pytest.raises(DataError, match=f"row 3: column 'score' value '{score}' is not finite"):
        load_table_predictions(str(path))


@pytest.mark.parametrize("payload, match", [
    ({"kind": "table", "scores": {"a": 0.5, "b": float("nan")}}, "table scores must be finite"),
    ({"kind": "logistic", "weights": [0.5, float("inf")], "bias": 0.0, "cat_weights": []},
     "weights must be finite"),
    ({"kind": "logistic", "weights": [0.5], "bias": float("-inf"), "cat_weights": [[float("nan")]]},
     "weights must be finite"),
    ({"kind": "mlp", "task": "binary", "embeddings": [],
      "layers": [{"w": [[0.5]], "b": [float("nan")]}]}, "weights must be finite"),
])
def test_load_predictor_refuses_non_finite_numbers(tmp_path, payload, match):
    # json reads NaN and Infinity; such a predictor once loaded, and save_predictor
    # then refused it
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match=re.escape(f"predictor file {str(path)!r}: {match}")):
        load_predictor(str(path))


@pytest.mark.parametrize("config, match", [
    (dict(epochs=2.5), "epochs must be an integer, got 2.5"),
    (dict(hidden=(2.5,)), "hidden width must be an integer, got 2.5"),
    (dict(embed_dim=True), "embed_dim must be an integer, got True"),
    (dict(learning_rate="0.5"), "learning_rate must be a number, got '0.5'"),
])
def test_train_config_follows_the_number_rule(config, match):
    # each once constructed: train then raised a TypeError, or embedded in width 1
    with pytest.raises(ConfigError, match=match):
        TrainConfig(**config)


def test_load_table_predictions_refuses_a_repeated_id(tmp_path):
    # the last score of a repeated id was once kept without a word
    path = tmp_path / "preds.csv"
    path.write_text("id,score\na,0.1\nb,0.5\na,0.9\n")
    with pytest.raises(DataError, match="row 4: repeated id 'a'"):
        load_table_predictions(str(path))
