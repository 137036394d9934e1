"""Decision losses: how much a downstream allocation decays when it trusts predictions.

Each variant maps a drawn problem (n individuals sampled with replacement from a
pool) to a decision loss DL <= 1. Regret-style variants live in [0, 1]; the
cross-entropy variant is always negative by construction. batch_shifted_loss
subtracts 1 so every variant is <= 0, which is what the search engine optimizes.
Problems are rows of pool indices into a PoolData, scored a batch at a time;
one problem is a one-row batch. The selection losses (top_k, fairness_gini,
knapsack) score each row in one canonical order, score descending and pool
index ascending, so every loss is a function of the drawn multiset.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .data import BINARY, REGRESSION, InstancePool, read_json
from .errors import ConfigError, DataError, _set_number, number

_EPS = 1e-12
_DP_BYTES = 1 << 20  # knapsack DP buffers per chunk of rows: decisions, two layers, gathers
_BLOCK_CELLS = 1 << 14  # (rows x draw size) cells of a batch drawn, scored or counted at once


def _block_rows(n: int) -> int:
    """Whole rows of n draws per block: at most _BLOCK_CELLS cells, at least one row."""
    return max(1, _BLOCK_CELLS // n)


# --- loss specifications -------------------------------------------------

@dataclass(frozen=True)
class TopK:
    """Regret of selecting k individuals by predicted score, normalized by k."""

    k: int
    kind = "top_k"
    task = BINARY

    def __post_init__(self):
        _set_number(self, "k", int)
        if self.k < 1:
            raise ValueError(f"top_k requires k >= 1, got {self.k}")


@dataclass(frozen=True)
class Knapsack:
    """Budgeted-selection regret, normalized by max(best true value, 1).

    budget=None resolves per pool to half the cost of a typical problem:
    max(1, round(0.5 * draw_size * mean pool cost)). use_costs=False replaces
    costs with 1 each, making top-k the equal-cost special case.
    """

    budget: int | None = None
    use_costs: bool = True
    kind = "knapsack"
    task = BINARY

    def __post_init__(self):
        _set_number(self, "budget", int, optional=True)
        if not isinstance(self.use_costs, (bool, np.bool_)):
            raise ValueError(f"use_costs must be true or false, got {self.use_costs!r}")
        if self.budget is not None and self.budget < 0:
            raise ValueError(f"knapsack budget must be >= 0, got {self.budget}")


@dataclass(frozen=True)
class FairnessGini:
    """Gini index of per-group true-positive rates of the top-k decision.

    Groups with no positive member are excluded; fewer than two remaining
    groups yield DL = 0.
    """

    k: int
    kind = "fairness_gini"
    task = BINARY

    def __post_init__(self):
        _set_number(self, "k", int)
        if self.k < 1:
            raise ValueError(f"fairness_gini requires k >= 1, got {self.k}")


@dataclass(frozen=True)
class NashWelfare:
    """Relative regret of a water-filling budget split, clipped to [0, 1].

    Allocations maximize sum(log((income + grant) / floor)); floor=None
    resolves to the minimum observed true income in the pool.
    """

    budget: float
    floor: float | None = None
    kind = "nash_welfare"
    task = REGRESSION

    def __post_init__(self):
        _set_number(self, "budget", float)
        _set_number(self, "floor", float, optional=True)
        if not 0 < self.budget < np.inf:  # NaN fails too
            raise ValueError(f"nash_welfare budget must be finite and > 0, got {self.budget}")
        if self.floor is not None and not 0 < self.floor < np.inf:
            raise ValueError(f"nash_welfare floor must be finite and > 0, got {self.floor}")


@dataclass(frozen=True)
class MisclassRate:
    """Fraction of drawn individuals whose thresholded score disagrees with the label."""

    threshold: float = 0.5
    kind = "misclass_rate"
    task = BINARY

    def __post_init__(self):
        _set_number(self, "threshold", float)
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")


@dataclass(frozen=True)
class CrossEntropy:
    """-1 / max(mean cross-entropy, eps); always negative, larger = worse predictions."""

    eps: float = 1e-12
    kind = "cross_entropy"
    task = BINARY

    def __post_init__(self):
        _set_number(self, "eps", float)
        if not 0 < self.eps < np.inf:
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")


@dataclass(frozen=True)
class Mse:
    """min(1, log2(max(MSE, eps)) / scale); compresses unbounded squared error to <= 1."""

    scale: float = 10.0
    eps: float = 1e-12
    kind = "mse"
    task = REGRESSION

    def __post_init__(self):
        _set_number(self, "scale", float)
        _set_number(self, "eps", float)
        if not 0 < self.scale < np.inf:
            raise ValueError(f"scale must be finite and > 0, got {self.scale}")
        if not 0 < self.eps < np.inf:
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")


LossSpec = TopK | Knapsack | FairnessGini | NashWelfare | MisclassRate | CrossEntropy | Mse

_KINDS = {cls.kind: cls for cls in (TopK, Knapsack, FairnessGini, NashWelfare, MisclassRate, CrossEntropy, Mse)}


def loss_spec_to_dict(spec: LossSpec) -> dict:
    return {"kind": spec.kind, **asdict(spec)}


def read_json_source(source: str, what: str):
    """The JSON held by the file that source names, or else source parsed as JSON."""
    source = source.strip()
    if os.path.isfile(source):
        return read_json(source, f"{what} file", ConfigError)
    try:
        return json.loads(source)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {source!r} is neither a file nor valid JSON") from exc


def parse_loss_spec(source: dict | str) -> LossSpec:
    """Parse a loss spec from a dict, a JSON string, or a JSON file path."""
    if isinstance(source, str):
        source = read_json_source(source, "loss spec")
    if not isinstance(source, dict) or "kind" not in source:
        raise ConfigError("loss spec must be an object with a 'kind' key")
    kind = source["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ConfigError(f"unknown loss kind {kind!r}; choose from {sorted(_KINDS)}")
    kwargs = {k: v for k, v in source.items() if k != "kind"}
    try:
        return _KINDS[kind](**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for loss {kind!r}: {exc}") from exc


# --- pool arrays -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PoolData:
    """Pool-level arrays the batch evaluators index into."""

    scores: np.ndarray
    labels: np.ndarray
    costs: np.ndarray
    groups: np.ndarray

    @staticmethod
    def from_pool(pool: InstancePool, scores: np.ndarray) -> "PoolData":
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (len(pool),):
            raise ValueError(f"scores must have shape ({len(pool)},), got {scores.shape}")
        return PoolData(scores=scores, labels=pool.labels, costs=pool.costs, groups=pool.groups)

    @property
    def size(self) -> int:
        return self.scores.shape[0]


# --- exact solvers --------------------------------------------------------

def solve_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores, ties broken toward the smaller index."""
    scores = np.asarray(scores, dtype=np.float64)
    if not 1 <= k <= scores.shape[0]:
        raise ValueError(f"k must lie in [1, {scores.shape[0]}], got {k}")
    members = np.arange(scores.shape[0])
    (row,) = _canonical(scores, members[None, :], members)
    return np.sort(row[0, :k])


def solve_knapsack(values: np.ndarray, costs: np.ndarray, budget: int) -> np.ndarray:
    """Exact 0/1 knapsack via dynamic programming over integer capacities.

    Among optimal subsets, returns the lexicographically smallest index set
    (compared as sorted index tuples). Values within 1e-9 max(1, sum of the
    positive values) of each other count as equal, so sums that differ only
    by rounding tie.
    """
    budget, costs = number(budget, int, "budget"), np.atleast_2d(costs)
    if budget < 0:
        raise DataError(f"budget must be >= 0, got {budget}")
    _check_costs(costs)
    chosen = _knapsack_rows(np.atleast_2d(values), _int_costs(costs, budget), budget)
    return np.flatnonzero(chosen[0])


def _knapsack_rows(values: np.ndarray, costs: np.ndarray, budget: int) -> np.ndarray:
    """Row-wise exact 0/1 knapsack on (S, n) values and int64 costs under one budget >= 0.

    Returns the (S, n) mask of each row's lexicographically smallest optimal
    set, optimal up to the row's own tolerance (see _knapsack_chunk).
    Capacities stop at the largest row cost total, since any capacity above a
    row's total packs that row whole. Each DP layer is padded below capacity 0
    with pad = min(max cost, cap + 1) capacities of -inf and costs are clipped
    to pad: an item dearer than cap never fits either way, and every lookup
    b - cost lands in the layer. Rows run in chunks whose decisions, two float
    layers and per-layer gather buffers fit in _DP_BYTES, so memory does not
    grow with S.
    """
    s, n = values.shape
    cap = min(budget, int(costs.sum(axis=1).max(initial=0)))
    pad = min(int(costs.max(initial=0)), cap + 1)
    row_bytes = 16 * (pad + cap + 1) + (16 + n) * (cap + 1)  # see _knapsack_chunk's buffer
    step = max(1, min(s, _DP_BYTES // row_bytes))
    # one buffer serves every chunk, a shorter last one its head: with one allocation
    # per call, not several per chunk, malloc reuses heap pages instead of mapping
    # and faulting in fresh ones
    buffer = np.empty(step * row_bytes, dtype=np.uint8)
    chosen = np.empty((s, n), dtype=bool)
    for lo in range(0, s, step):
        rows = slice(lo, lo + step)
        chosen[rows] = _knapsack_chunk(values[rows], costs[rows], cap, pad, buffer)
    return chosen


def _knapsack_chunk(values: np.ndarray, costs: np.ndarray, cap: int, pad: int,
                    buffer: np.ndarray) -> np.ndarray:
    """_knapsack_rows on one chunk of r rows, capacity-major: a layer is a
    contiguous (capacity, row) block, so each pass runs over whole rows of r.

    Only two float layers are kept, best_{i+1} and best_i. As layer i is
    computed, dec[i][b, row] records whether row's items i.. at capacity b take
    item i: take = v_i + best_{i+1}(b - c_i) against skip = best_{i+1}(b), taken
    when take >= skip - tol and take > tol. tol = 1e-9 max(1, sum of the row's
    positive values) belongs to the row, so a row's set does not depend on the
    rest of its chunk. The trace then follows the decisions forward from
    capacity cap and reads no float value: an item is taken when it still
    extends an optimum, and not once the rest adds nothing, so the set is the
    lexicographically smallest optimal one; an item dearer than the capacity
    left reads -inf and is never taken.

    Layer i is filled only from lo_i = max(0, cap - pad * i) up: items 0..i-1
    cost at most pad each, so neither layer i - 1's update nor the trace reads
    layer i below lo_i. Positions are flat (capacity * r + row) indices into
    one layer.
    """
    r, n = values.shape
    vals = np.ascontiguousarray(values.T)
    shift = np.zeros((n + 1, r), dtype=np.intp)  # shift[i]: item i's cost in flat steps; shift[n] = 0
    np.minimum(costs.T, pad, out=shift[:n])
    shift *= r
    tol = 1e-9 * np.maximum(1.0, values.sum(axis=1, where=values > 0.0))
    floor = np.nextafter(tol, np.inf)  # take > tol is take >= floor
    width = pad + cap + 1
    # buffer holds both layers, the gathered takes and their positions, and the decisions
    parts, at = [], 0
    for dtype, shape in ((np.float64, (2, width, r)), (np.float64, (cap + 1, r)),
                         (np.intp, (cap + 1, r)), (np.bool_, (n, cap + 1, r))):
        parts.append(np.ndarray(shape, dtype, buffer=buffer, offset=at))
        at += parts[-1].nbytes
    layers, take, idx, dec = parts
    # best[pad + b, row]: max value of row using items i.. with capacity b; -inf for b < 0
    best, prev = layers
    layers[:, :pad] = -np.inf
    best[pad:] = 0.0
    # idx[b, row] = flat position of (pad + b - cost, row): layer i moves it by shift[i + 1] - shift[i]
    idx[:] = np.arange(pad * r, width * r).reshape(cap + 1, r)
    for i in range(n - 1, -1, -1):
        lo = max(0, cap - pad * i)  # lo only grows, so idx[lo:] is up to date
        best, prev = prev, best  # prev holds best_{i+1}; best becomes best_i
        np.add(idx[lo:], shift[i + 1] - shift[i], out=idx[lo:])
        # every index lies in the layer; mode="clip" lets take write straight into out
        t = prev.take(idx[lo:], out=take[lo:], mode="clip")
        t += vals[i]
        skip, new = prev[pad + lo:], best[pad + lo:]
        np.subtract(skip, tol, out=new)
        if (vals[i] <= tol).any():  # best >= 0, so an item worth more than tol has take > tol
            np.maximum(new, floor, out=new)
        np.greater_equal(t, new, out=dec[i, lo:])
        np.maximum(skip, t, out=new)

    chosen = np.empty((n, r), dtype=bool)
    pos = cap * r + np.arange(r)  # each row's capacity left, as a flat position in dec[i]
    for i in range(n):
        chosen[i] = pick = dec[i].take(pos)
        np.subtract(pos, shift[i], out=pos, where=pick)
    return chosen.T


def allocate_waterfill(incomes: np.ndarray, budget: float) -> np.ndarray:
    """Split a budget to equalize income + grant from the bottom up.

    Maximizes sum(log(income_i + z_i)) over z >= 0, sum(z) = budget; the
    optimum raises the poorest to a common water level.
    """
    incomes = np.asarray(incomes, dtype=np.float64)
    if np.any(incomes <= 0):
        raise ValueError("waterfill incomes must be strictly positive")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    return _waterfill_batch(incomes[None, :], float(budget))[0]


def _waterfill_batch(incomes: np.ndarray, budget: float) -> np.ndarray:
    """Grants (S, n) for each row of incomes; the (S, n) work arrays are the
    sorted incomes, the levels, which become the result in place, and one bool."""
    s = np.sort(incomes, axis=1)
    levels = np.cumsum(s, axis=1)
    levels += budget
    levels /= np.arange(1, incomes.shape[1] + 1, dtype=np.float64)  # if the t poorest are topped up
    ok = np.empty(s.shape, dtype=bool)
    np.less_equal(levels[:, :-1], s[:, 1:], out=ok[:, :-1])  # the level stays below the next income
    ok[:, -1] = True  # the richest has no next income
    level = np.take_along_axis(levels, np.argmax(ok, axis=1)[:, None], axis=1)
    np.subtract(level, incomes, out=levels)
    return np.maximum(levels, 0.0, out=levels)


def gini(values: np.ndarray) -> float:
    """Mean absolute difference over twice the mean: sum|v_a - v_b| / (2 g^2 vbar)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("gini requires at least one value")
    if np.any(values < 0):
        raise ValueError("gini requires non-negative values")
    return float(_gini_batch(values[:, None], np.ones((values.size, 1), dtype=bool))[0])


def _gini_batch(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Gini of each column's valid values (G, S), 0 where fewer than two are valid
    or their mean is 0. Over the g valid values sorted ascending, the pair sum
    sum|v_a - v_b| is 2 sum_i (2i - g - 1) v_(i); invalid values sort first as -1
    and are read as 0, so the valid ones take i = G - g + 1..G. Groups run along
    axis 0 so that every reduction adds whole rows of S."""
    n_groups = values.shape[0]
    g = valid.sum(axis=0)
    vbar = np.where(valid, values, 0.0).sum(axis=0) / np.maximum(g, 1)
    v = np.maximum(np.sort(np.where(valid, values, -1.0), axis=0), 0.0)
    coef = (2 * np.arange(1, n_groups + 1) - 2 * n_groups - 1)[:, None] + g  # 2i - g - 1
    acc = 2.0 * (coef * v).sum(axis=0)
    denom = 2.0 * g.astype(np.float64) ** 2 * vbar
    return np.where((g >= 2) & (vbar > 0), acc / np.where(denom > 0, denom, 1.0), 0.0)


# --- per-pool parameters and checks -------------------------------------------

def _check_costs(costs: np.ndarray) -> None:
    if np.any(costs < 0):
        raise DataError("knapsack costs must be non-negative")
    if not np.all(costs == np.rint(costs)):
        raise DataError("knapsack costs must be integers")


def _int_costs(costs: np.ndarray, budget: int) -> np.ndarray:
    """Costs, already checked, as int64. A cost above the budget never fits, so it is
    clipped to budget + 1, which also keeps a cost beyond int64 in range."""
    return np.minimum(costs, budget + 1).astype(np.int64)


def check_pool_data(spec: LossSpec, pd: PoolData, draw_size: int | None = None) -> None:
    """The one check of a loss against a pool, before any draw is scored: a
    ConfigError if a top_k or fairness_gini k exceeds draw_size (None: any
    size), a DataError if spec cannot score draws from pd. O(pool size)."""
    if isinstance(spec, (TopK, FairnessGini)) and draw_size is not None and spec.k > draw_size:
        raise ConfigError(f"k={spec.k} exceeds draw_size={draw_size}")
    if not np.isfinite(pd.scores).all():
        raise DataError("predicted scores must be finite")
    if isinstance(spec, NashWelfare) and (pd.scores <= 0).any():
        raise DataError("nash_welfare requires strictly positive predicted incomes")
    if isinstance(spec, NashWelfare) and (pd.labels <= 0).any():
        raise DataError("nash_welfare requires strictly positive true incomes")
    if spec.task == BINARY and not ((pd.labels == 0.0) | (pd.labels == 1.0)).all():
        raise DataError(f"{spec.kind} requires 0/1 labels")
    if isinstance(spec, Knapsack) and spec.use_costs:
        _check_costs(pd.costs)


# --- batch evaluation -----------------------------------------------------

def batch_decision_loss(spec: LossSpec, pd: PoolData, idx: np.ndarray) -> np.ndarray:
    """Decision loss for each row of idx, an (S, n) matrix of pool indices.

    The order of a row's columns does not matter: a score tie goes to the
    smaller pool index, whatever the draw order. idx may hold any integer
    dtype, such as the engine's compact draws, and is not copied; any other
    dtype is a ValueError. idx, and spec against pd at draw size n, are
    checked once (check_pool_data); then rows are scored in blocks of
    _block_rows(n), each cast to intp once so the evaluators' gathers need no
    index cast. Every loss is a function of its own row, so the blocks leave
    each value bitwise unchanged and bound the evaluators' temporaries.
    """
    idx = np.asarray(idx)
    if idx.dtype.kind not in "iu":
        raise ValueError(f"idx must hold integer pool indices, got dtype {idx.dtype}")
    if idx.ndim != 2 or idx.shape[1] == 0:
        raise ValueError(f"idx must be a 2-d (S, n) matrix, got shape {idx.shape}")
    if idx.min(initial=0) < 0 or idx.max(initial=0) >= pd.size:
        raise ValueError("idx contains out-of-range pool indices")
    check_pool_data(spec, pd, idx.shape[1])
    step = _block_rows(idx.shape[1])
    dl = np.empty(idx.shape[0])
    for lo in range(0, idx.shape[0], step):
        dl[lo:lo + step] = _decision_rows(spec, pd, idx[lo:lo + step].astype(np.intp, copy=False))
    return dl


def _decision_rows(spec: LossSpec, pd: PoolData, idx: np.ndarray) -> np.ndarray:
    """batch_decision_loss on one block of checked rows."""
    if isinstance(spec, TopK):
        return _dl_topk(pd, idx, spec.k)
    if isinstance(spec, Knapsack):
        return _dl_knapsack(pd, idx, spec)
    if isinstance(spec, FairnessGini):
        return _dl_fairness(pd, idx, spec.k)
    if isinstance(spec, NashWelfare):
        return _dl_nash(pd, idx, spec)
    # the per-person terms of the mean losses are formed on the pool, then gathered
    if isinstance(spec, MisclassRate):
        return misclassified(spec, pd)[idx].mean(axis=1)
    if isinstance(spec, CrossEntropy):
        s = np.clip(pd.scores, 1e-15, 1 - 1e-15)
        y = pd.labels
        ce = -(y * np.log(s) + (1 - y) * np.log(1 - s))[idx].mean(axis=1)
        return -1.0 / np.maximum(ce, spec.eps)
    if isinstance(spec, Mse):
        mse = ((pd.scores - pd.labels) ** 2)[idx].mean(axis=1)
        return np.minimum(1.0, np.log2(np.maximum(mse, spec.eps)) / spec.scale)
    raise ValueError(f"unknown loss spec {spec!r}")


def misclassified(spec: MisclassRate, pd: PoolData) -> np.ndarray:
    """Each pool member's misclass_rate term: whether its thresholded score
    disagrees with its label."""
    return (pd.scores >= spec.threshold) != (pd.labels == 1.0)


def canonical_order(scores: np.ndarray) -> np.ndarray:
    """Pool indices by score descending, then pool index ascending: the order in
    which the selection losses read a drawn problem."""
    return np.argsort(-scores, kind="stable")


def _canonical(scores: np.ndarray, idx: np.ndarray, *arrays: np.ndarray) -> list[np.ndarray]:
    """Each pool array gathered on idx (S, n), every row in canonical_order.

    Pool members are ranked once; each drawn member's rank is gathered and each
    row of ranks sorted, so the result depends only on the drawn multiset and a
    tie goes to the smaller pool index. Ranks are intp, which numpy gathers
    with no index cast.
    """
    order = canonical_order(scores)
    place = np.empty(order.size, dtype=np.intp)
    place[order] = np.arange(order.size)
    ranks = place[idx]
    ranks.sort(axis=1)
    return [a[order][ranks] for a in arrays]


def _dl_topk(pd: PoolData, idx: np.ndarray, k: int) -> np.ndarray:
    (labels,) = _canonical(pd.scores, idx, pd.labels)
    f_pred = labels[:, :k].sum(axis=1)
    f_opt = np.minimum(float(k), labels.sum(axis=1))
    return (f_opt - f_pred) / k


def _dl_knapsack(pd: PoolData, idx: np.ndarray, spec: Knapsack) -> np.ndarray:
    budget = spec.budget
    if budget is None:  # half the cost of a typical problem
        mean_cost = float(pd.costs.mean()) if spec.use_costs else 1.0
        budget = max(1, int(round(0.5 * idx.shape[1] * mean_cost)))
    costs = _int_costs(pd.costs, budget) if spec.use_costs else np.ones(pd.size, dtype=np.int64)
    labels, costs, scores = _canonical(pd.scores, idx, pd.labels, costs, pd.scores)
    chosen = _knapsack_rows(scores, costs, budget)
    del scores  # the label optimum's (S, n) temporaries set the call's peak memory
    f_pred = (labels * chosen).sum(axis=1)
    f_opt = _knapsack_label_opt(labels, costs, budget)
    return (f_opt - f_pred) / np.maximum(f_opt, 1.0)


def _knapsack_label_opt(labels: np.ndarray, costs: np.ndarray, budget: int) -> np.ndarray:
    """Best true value of each row of 0/1 labels: how many positives fit when
    taken cheapest first. Any k positives cost at least the k cheapest, so
    swapping a chosen set for the cheapest ones of the same size stays within
    the budget; the count is the knapsack optimum, ties and zero costs included."""
    pos = np.where(labels == 1.0, costs, np.inf)
    pos.sort(axis=1)
    return (np.cumsum(pos, axis=1, out=pos) <= budget).sum(axis=1).astype(np.float64)


def _dl_fairness(pd: PoolData, idx: np.ndarray, k: int) -> np.ndarray:
    n_groups = int(pd.groups.max()) + 1
    # a member's group if it is positive, n_groups if not
    code = np.where(pd.labels == 1.0, pd.groups, n_groups).astype(np.intp)
    (code,) = _canonical(pd.scores, idx, code)
    npos = _group_counts(code, n_groups)
    tp = _group_counts(code[:, :k], n_groups)
    has = npos > 0
    return _gini_batch(np.where(has, tp / np.maximum(npos, 1), 0.0), has)


def _group_counts(codes: np.ndarray, n_groups: int) -> np.ndarray:
    """(n_groups, S) counts of each group code along each row of codes (S, n);
    code n_groups, the sentinel, is counted and dropped."""
    s = codes.shape[0]
    flat = codes * s
    flat += np.arange(s)[:, None]
    return np.bincount(flat.ravel(), minlength=(n_groups + 1) * s).reshape(n_groups + 1, s)[:n_groups]


def _dl_nash(pd: PoolData, idx: np.ndarray, spec: NashWelfare) -> np.ndarray:
    y = pd.labels[idx]
    s = pd.scores[idx]
    floor = spec.floor if spec.floor is not None else float(pd.labels.min())
    f_pred = _log_welfare(y, _waterfill_batch(s, spec.budget), floor)
    f_opt = _log_welfare(y, _waterfill_batch(y, spec.budget), floor)
    return np.clip(1.0 - f_pred / np.maximum(f_opt, _EPS), 0.0, 1.0)


def _log_welfare(y: np.ndarray, z: np.ndarray, floor: float) -> np.ndarray:
    """Row sums of log((y + z) / floor), computed in z's storage."""
    z += y
    z /= floor
    return np.log(z, out=z).sum(axis=1)


def batch_shifted_loss(spec: LossSpec, pd: PoolData, idx: np.ndarray) -> np.ndarray:
    """batch_decision_loss minus 1; every entry is <= 0."""
    return batch_decision_loss(spec, pd, idx) - 1.0

