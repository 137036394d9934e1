"""Predictors scoring individuals: logistic, small MLP with categorical embeddings, lookup table.

Training is deterministic given (cohort, config, seed): full-batch gradient
descent with a backtracking step, so the recorded loss never increases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import (BINARY, Cohort, InstancePool, _parse_float, holds_json,
                   read_json, read_rows, reading, write_json)
from .errors import ConfigError, DataError, _set_number, number

_SIGMOID_CLIP = 1e-15
_INIT_SCALE = 0.1  # standard deviation of the mlp's initial weights and embeddings


# Scoring arithmetic may overflow without a warning: exp(-z) overflows to inf for
# z below about -709, a sigmoid of 0.0, and a logit or activation that overflows
# is a non-finite score, which check_pool_data refuses.
@np.errstate(over="ignore", invalid="ignore")
def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


@dataclass
class TrainConfig:
    """Hyperparameters shared by both trainable kinds."""

    learning_rate: float = 0.5
    epochs: int = 300
    hidden: tuple[int, ...] = (16, 16)
    embed_dim: int = 4

    def __post_init__(self):
        for name, kind in (("learning_rate", float), ("epochs", int), ("embed_dim", int)):
            _set_number(self, name, kind)
        self.hidden = tuple(number(width, int, "hidden width") for width in self.hidden)
        if not 0 < self.learning_rate < np.inf:  # NaN fails too
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.embed_dim < 1:
            raise ConfigError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if any(width < 1 for width in self.hidden):
            raise ConfigError(f"hidden widths must be >= 1, got {self.hidden}")


@dataclass
class LogisticPredictor:
    """sigmoid(w . x + b + sum of per-code categorical weights); binary task only."""

    weights: np.ndarray
    bias: float
    cat_weights: list[np.ndarray] = field(default_factory=list)
    train_losses: list[float] = field(default_factory=list)

    kind = "logistic"
    task = BINARY

    @np.errstate(over="ignore", invalid="ignore")
    def logits(self, numeric: np.ndarray, categorical: np.ndarray) -> np.ndarray:
        z = numeric @ self.weights + self.bias
        for f, table in enumerate(self.cat_weights):
            codes = categorical[:, f]
            if codes.max(initial=-1) >= len(table):
                raise DataError(f"categorical feature {f} has unseen code {int(codes.max())}")
            z = z + table[codes]
        return z

    def score_matrix(self, numeric: np.ndarray, categorical: np.ndarray) -> np.ndarray:
        return _sigmoid(self.logits(numeric, categorical))


@dataclass
class MlpPredictor:
    """Fully connected ReLU network; embeds categorical codes, outputs one score.

    Binary task applies a sigmoid to the output; regression returns it raw.
    """

    task: str
    layers: list[tuple[np.ndarray, np.ndarray]]  # (W with shape (out, in), b)
    embeddings: list[np.ndarray] = field(default_factory=list)  # (levels, embed_dim) each
    train_losses: list[float] = field(default_factory=list)

    kind = "mlp"

    def _inputs(self, numeric: np.ndarray, categorical: np.ndarray) -> np.ndarray:
        parts = [numeric]
        for f, table in enumerate(self.embeddings):
            codes = categorical[:, f]
            if codes.max(initial=-1) >= table.shape[0]:
                raise DataError(f"categorical feature {f} has unseen code {int(codes.max())}")
            parts.append(table[codes])
        return np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]

    @np.errstate(over="ignore", invalid="ignore")
    def activations(self, numeric: np.ndarray, categorical: np.ndarray) -> list[np.ndarray]:
        """The network's input, then each layer's output (ReLU applied to all but the last)."""
        acts = [self._inputs(numeric, categorical)]
        last = len(self.layers) - 1
        for i, (w, b) in enumerate(self.layers):
            h = acts[-1] @ w.T + b
            acts.append(np.maximum(h, 0.0) if i < last else h)
        return acts

    def score_matrix(self, numeric: np.ndarray, categorical: np.ndarray) -> np.ndarray:
        out = self.activations(numeric, categorical)[-1][:, 0]
        return _sigmoid(out) if self.task == BINARY else out


@dataclass
class TablePredictor:
    """Fixed id -> score lookup; the escape hatch for hand-built experiments."""

    scores: dict[str, float]
    task: str = BINARY

    kind = "table"


Predictor = LogisticPredictor | MlpPredictor | TablePredictor


def predict_pool(predictor: Predictor, pool: InstancePool) -> np.ndarray:
    """Score every individual in a pool once; downstream code reuses this array."""
    if isinstance(predictor, TablePredictor):
        missing = [i for i in pool.ids if i not in predictor.scores]
        if missing:
            raise DataError(f"table predictor has no score for id {missing[0]!r}")
        return np.array([predictor.scores[i] for i in pool.ids], dtype=np.float64)
    return predictor.score_matrix(pool.numeric, pool.categorical)


def _cohort_matrices(cohort: Cohort):
    numeric = np.concatenate([p.numeric for p in cohort.pools], axis=0)
    if cohort.categorical_names:
        categorical = np.concatenate([p.categorical for p in cohort.pools], axis=0)
    else:
        categorical = np.zeros((numeric.shape[0], 0), dtype=np.int64)
    labels = np.concatenate([p.labels for p in cohort.pools])
    return numeric, categorical, labels


def _loss_and_grad_out(out: np.ndarray, labels: np.ndarray, task: str):
    n = out.shape[0]
    if task == BINARY:
        p = np.clip(_sigmoid(out), _SIGMOID_CLIP, 1 - _SIGMOID_CLIP)
        loss = float(-np.mean(labels * np.log(p) + (1 - labels) * np.log(1 - p)))
        return loss, (p - labels) / n
    diff = out - labels
    return float(np.mean(diff**2)), 2.0 * diff / n


def train(cohort: Cohort, kind: str, config: TrainConfig | None = None, seed: int = 0) -> Predictor:
    """Train a predictor on every individual in the cohort.

    Logistic pairs with binary labels (cross-entropy); mlp uses cross-entropy on
    binary cohorts and mean squared error on regression cohorts. The step is
    backtracked whenever it would increase the loss, so the recorded epoch
    losses are non-increasing.
    """
    config = config or TrainConfig()
    if kind == "table":
        raise ConfigError("table predictors are loaded from files, not trained")
    if kind == "logistic" and cohort.task != BINARY:
        raise ConfigError("logistic predictors require a binary cohort")
    if kind not in ("logistic", "mlp"):
        raise ConfigError(f"unknown predictor kind {kind!r}")

    numeric, categorical, labels = _cohort_matrices(cohort)
    levels = [len(codes) for codes in cohort.categorical_codes]
    rng = np.random.default_rng(seed)

    if kind == "logistic":
        return _train_logistic(numeric, categorical, labels, levels, config)
    return _train_mlp(numeric, categorical, labels, levels, cohort.task, config, rng)


def _descend(params: list, forward, gradient, labels: np.ndarray, task: str,
             config: TrainConfig) -> tuple[list, list[float]]:
    """Full-batch gradient descent on a list of parameter arrays.

    forward(params) gives the model output and a cache; gradient(params, cache,
    dout) gives one array per parameter from dout = dLoss/d(output). Each epoch
    forms the gradient once, halves the step until the loss does not rise (or
    the step falls below 1e-15), and grows the accepted step by 5%.
    """
    lr = config.learning_rate
    losses = []
    out, cache = forward(params)
    loss, dout = _loss_and_grad_out(out, labels, task)
    for _ in range(config.epochs):
        losses.append(loss)
        grads = gradient(params, cache, dout)
        while True:
            trial = [p - lr * g for p, g in zip(params, grads)]
            out, trial_cache = forward(trial)
            trial_loss, trial_dout = _loss_and_grad_out(out, labels, task)
            if trial_loss <= loss + 1e-12 or lr < 1e-15:
                break
            lr *= 0.5
        params, cache, loss, dout = trial, trial_cache, trial_loss, trial_dout
        lr *= 1.05
    return params, losses


def _train_logistic(numeric, categorical, labels, levels, config) -> LogisticPredictor:
    # params: [weights, bias, one weight table per categorical feature]

    def forward(params):
        return LogisticPredictor(params[0], params[1], params[2:]).logits(numeric, categorical), None

    def gradient(params, _, dout):
        gcat = []
        for f, table in enumerate(params[2:]):
            g = np.zeros_like(table)
            np.add.at(g, categorical[:, f], dout)
            gcat.append(g)
        return [numeric.T @ dout, float(dout.sum()), *gcat]

    params = [np.zeros(numeric.shape[1]), 0.0, *(np.zeros(n) for n in levels)]
    (w, b, *cat_w), losses = _descend(params, forward, gradient, labels, BINARY, config)
    return LogisticPredictor(weights=w, bias=b, cat_weights=cat_w, train_losses=losses)


def _train_mlp(numeric, categorical, labels, levels, task, config, rng) -> MlpPredictor:
    # params: [W0, b0, W1, b1, ..., one embedding table per categorical feature]
    d_in = numeric.shape[1] + config.embed_dim * len(levels)
    sizes = [d_in, *config.hidden, 1]
    depth = len(sizes) - 1
    params = []
    for i in range(depth):
        params += [rng.normal(size=(sizes[i + 1], sizes[i])) * _INIT_SCALE,
                   np.zeros(sizes[i + 1])]
    params += [rng.normal(size=(n, config.embed_dim)) * _INIT_SCALE for n in levels]

    def model(params) -> MlpPredictor:
        layers = [(params[2 * i], params[2 * i + 1]) for i in range(depth)]
        return MlpPredictor(task=task, layers=layers, embeddings=params[2 * depth:])

    def forward(params):
        acts = model(params).activations(numeric, categorical)
        return acts[-1][:, 0], acts

    def gradient(params, acts, dout):
        grads = []
        delta = dout[:, None]  # (n, 1) at the output layer
        for i in range(depth - 1, -1, -1):
            grads += [delta.sum(axis=0), delta.T @ acts[i]]
            if i > 0:
                delta = (delta @ params[2 * i]) * (acts[i] > 0)
        grads.reverse()
        if levels:  # the embedding tables take the gradient at the network's input
            delta = delta @ params[0]
        offset = numeric.shape[1]
        for f, table in enumerate(params[2 * depth:]):
            g = np.zeros_like(table)
            np.add.at(g, categorical[:, f], delta[:, offset:offset + table.shape[1]])
            grads.append(g)
            offset += table.shape[1]
        return grads

    params, losses = _descend(params, forward, gradient, labels, task, config)
    trained = model(params)
    trained.train_losses = losses
    return trained


def save_predictor(predictor: Predictor, path: str) -> None:
    """Write a predictor to JSON; floats round-trip exactly."""
    if isinstance(predictor, LogisticPredictor):
        payload = {
            "kind": "logistic",
            "task": predictor.task,
            "weights": predictor.weights.tolist(),
            "bias": predictor.bias,
            "cat_weights": [t.tolist() for t in predictor.cat_weights],
        }
    elif isinstance(predictor, MlpPredictor):
        payload = {
            "kind": "mlp",
            "task": predictor.task,
            "layers": [{"w": w.tolist(), "b": b.tolist()} for w, b in predictor.layers],
            "embeddings": [t.tolist() for t in predictor.embeddings],
        }
    elif isinstance(predictor, TablePredictor):
        payload = {"kind": "table", "task": predictor.task, "scores": predictor.scores}
    else:
        raise ValueError(f"cannot save predictor of type {type(predictor).__name__}")
    write_json(payload, path)


def _array(value, ndim: int) -> np.ndarray:
    out = np.array(value, dtype=np.float64)
    if out.ndim != ndim:
        raise DataError(f"expected an array of {ndim} dimensions, got {out.ndim}")
    if not np.isfinite(out).all():
        raise DataError("weights must be finite")
    return out


def _predictor_from_dict(raw: dict) -> Predictor:
    kind = raw.get("kind")
    if kind == "logistic":
        return LogisticPredictor(
            weights=_array(raw["weights"], 1),
            bias=float(_array(raw["bias"], 0)),
            cat_weights=[_array(t, 1) for t in raw["cat_weights"]],
        )
    if kind == "mlp":
        return MlpPredictor(
            task=raw["task"],
            layers=[(_array(l["w"], 2), _array(l["b"], 1)) for l in raw["layers"]],
            embeddings=[_array(t, 2) for t in raw["embeddings"]],
        )
    if kind == "table":
        scores = {str(k): float(v) for k, v in dict(raw["scores"]).items()}
        if not np.isfinite(list(scores.values())).all():
            raise DataError("table scores must be finite")
        return TablePredictor(scores=scores, task=raw.get("task", BINARY))
    raise DataError(f"unknown predictor kind {kind!r}")


def load_predictor(path: str) -> Predictor:
    """A predictor written by save_predictor, or else a two-column score table."""
    if holds_json(path, "predictor file"):
        return read_json(path, "predictor file", DataError, _predictor_from_dict)
    return load_table_predictions(path)


def load_table_predictions(path: str) -> TablePredictor:
    """Build a table predictor from a two-column (id, score) comma-separated file.

    A first row whose second field is not numeric is treated as a header.
    """
    scores: dict[str, float] = {}
    with reading(path, "score table"):
        rows = [r for r in read_rows(path) if any(c.strip() for c in r)]
        if not rows:
            raise DataError("the file is empty")
        start = 0
        try:
            float(rows[0][1])
        except (ValueError, IndexError):
            start = 1
        for rownum, row in enumerate(rows[start:], start + 1):
            if len(row) < 2:
                raise DataError(f"row {rownum}: expected two columns (id, score)")
            pid = row[0].strip()
            if pid in scores:
                raise DataError(f"row {rownum}: repeated id {pid!r}")
            scores[pid] = _parse_float(row[1], rownum, "score")
    return TablePredictor(scores=scores)
