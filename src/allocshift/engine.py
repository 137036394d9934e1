"""Worst-case search engine: momentum Frank-Wolfe over the two-level uncertainty set.

Within each instance, the engine ascends the expected shifted loss E[DL'] with
sampled gradients and a linear maximization oracle over the chi-square ball
(gradmax), stepping 1/iterations per round so the final point is a convex
combination of feasible vertices. Across instances, a single gradmax over the
estimated per-instance losses picks the worst mixture, and the reported value
adds the +1 correction that converts shifted losses back to expected decision
loss.

Randomness is counter-based: every (seed, stream, instance, iteration) tuple
owns an independent generator, and samples are drawn vectorized in fixed order
within it, so worker scheduling can never change results. Every problem and
instance draw goes through one sampler, _draw. It returns the values and
generator state that Generator.choice gives for weights q, bit for bit, but
looks each index up in a guide table instead of binary-searching it, and holds
the indices in the narrowest unsigned dtype for the pool: one byte per index
for pools of up to 256 members.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from .data import Cohort, InstancePool, read_json, write_json
from .errors import ConfigError, DataError, _set_number, naming
from .losses import (LossSpec, PoolData, _block_rows, batch_shifted_loss, check_pool_data,
                     loss_spec_to_dict, parse_loss_spec)
from .predictors import Predictor, predict_pool
from .uncertainty import (HierarchicalShift, UncertaintyBudget, gradmax, is_feasible,
                          offset_to_distribution, shift_from_dict, shift_to_dict,
                          uniform_center)

_STREAM_GRAD = 0
_STREAM_LAMBDA = 1
_STREAM_EVAL = 2  # evaluation's replay draws

_DRAW_SUM_TOL = float(np.sqrt(np.finfo(np.float64).eps))  # Generator.choice's tolerance


def substream(seed: int, *keys: int) -> np.random.Generator:
    """Independent generator for a (seed, *keys) counter tuple."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(np.random.SeedSequence([int(seed), *[int(k) for k in keys]]))


def _draw(rng: np.random.Generator, q: np.ndarray, shape: int | tuple[int, ...]) -> np.ndarray:
    """Indices drawn i.i.d. from q: bitwise the values and generator state of
    rng.choice(q.size, size=shape, p=q), held in np.min_scalar_type(q.size - 1),
    the narrowest unsigned dtype for the pool: uint8 up to 256 members, uint16
    up to 65,536.

    choice maps one rng.random(shape) call through cdf.searchsorted(u, "right"),
    a binary search per index. Here the uniforms come in flat blocks of
    losses._BLOCK_CELLS entries, filling the result in C order; the generator
    stream continues from block to block, so the values and final state are
    choice's, and memory beyond the result is one block's uniforms and intp
    indices. A guide table (indexed search; Chen and Asau 1974, Devroye 1986,
    section III.2.4) splits [0, 1) into k >= 16 m buckets, k a power of two so
    u * k is exact, and stores the search's answer for every bucket that no cdf
    breakpoint splits. A draw is then one lookup; the draws that land in a
    split bucket (at most m of the k) are searched. A draw no larger than the
    table searches directly.
    """
    q = np.asarray(q, dtype=np.float64)
    if not (q.ndim == 1 and q.size > 0 and (q >= 0).all()
            and abs(q.sum() - 1.0) <= _DRAW_SUM_TOL):  # NaN and inf fail too
        raise ValueError("q must be a finite, non-negative 1-d vector summing to 1")
    cdf = q.cumsum()
    cdf /= cdf[-1]
    k = 1 << (16 * q.size - 1).bit_length()
    idx = np.empty(shape, dtype=np.min_scalar_type(q.size - 1))
    table = None
    if idx.size > k:
        edges = np.arange(k + 1) / k
        table = cdf.searchsorted(edges[:-1], side="right")
        table[table != cdf.searchsorted(edges[1:], side="left")] = -1  # a breakpoint splits it
    flat = idx.reshape(-1)
    step = _block_rows(1)  # _BLOCK_CELLS uniforms
    for lo in range(0, flat.size, step):
        block = flat[lo:lo + step]
        u = rng.random(block.size)
        if table is None:
            block[...] = cdf.searchsorted(u, side="right")
            continue
        u *= k
        cell = u.astype(np.intp)  # the bucket (truncation), then (in place) its index
        np.take(table, cell, out=cell, mode="clip")
        split = np.flatnonzero(cell < 0)
        cell[split] = cdf.searchsorted(u[split] / k, side="right")
        block[...] = cell
    return idx


def _draw_count(draw_size: int | None, pool_size: int) -> int:
    """Individuals per drawn problem: the pool size when draw_size is None."""
    if draw_size is None:
        return pool_size
    if draw_size < 1:
        raise ConfigError(f"draw_size must be >= 1, got {draw_size}")
    return draw_size


@dataclass(frozen=True)
class FwParams:
    """Search hyperparameters; the defaults are the reference configuration."""

    iterations: int = 15
    num_samples: int = 35000
    num_samples2: int = 4000
    momentum: float = 0.7
    draw_size: int | None = None  # None: draw pool-size individuals per problem
    seed: int = 0

    def __post_init__(self):
        for name, kind in (("iterations", int), ("num_samples", int), ("num_samples2", int),
                           ("momentum", float), ("seed", int)):
            _set_number(self, name, kind)
        _set_number(self, "draw_size", int, optional=True)
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.num_samples < 1 or self.num_samples2 < 1:
            raise ConfigError("num_samples and num_samples2 must be >= 1")
        if not 0.0 < self.momentum <= 1.0:
            raise ConfigError(f"momentum must lie in (0, 1], got {self.momentum}")
        _draw_count(self.draw_size, 1)  # rejects a draw_size below 1
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def prepare_pools(cohort: Cohort, predictor: Predictor, specs: list[LossSpec],
                  draw_size: int | None) -> list[PoolData]:
    """Every pool's scored arrays, in cohort order: a command's losses checked
    against its cohort before any draw. A ConfigError if specs is empty or a
    spec scores another task; then, pool by pool, check_pool_data at the
    pool's draw size, its error naming the instance."""
    if not specs:
        raise ConfigError("at least one metric required")
    for spec in specs:
        if spec.task != cohort.task:
            raise ConfigError(f"loss {spec.kind!r} applies to {spec.task} cohorts, not {cohort.task}")
    return [_scored_pool(pool, predictor, specs, _draw_count(draw_size, len(pool)))
            for pool in cohort.pools]


def pool_data(pool: InstancePool, predictor: Predictor, *specs: LossSpec) -> PoolData:
    """The pool's scored arrays, checked against specs at any draw size; an error
    names the instance."""
    return _scored_pool(pool, predictor, specs, None)


def _scored_pool(pool: InstancePool, predictor: Predictor,
                 specs: list[LossSpec] | tuple[LossSpec, ...], draw_size: int | None) -> PoolData:
    with naming(pool.instance_id):
        pd = PoolData.from_pool(pool, predict_pool(predictor, pool))
        for spec in specs:
            check_pool_data(spec, pd, draw_size)
    return pd


def estimate_gradient(spec: LossSpec, pd: PoolData, q: np.ndarray, num_samples: int,
                      draw_size: int, rng: np.random.Generator, center: bool = False
                      ) -> tuple[np.ndarray, float]:
    """Score-function estimate of dE[DL']/dq at q, plus the batch mean of DL'.

    Coordinate a is the weighted count sum(DL'_s * count_s(a)) / (S * q_a),
    added up over the drawn indices in draw order; a coordinate with q_a = 0
    is never drawn and its estimate is the 0 limit. Unbiased with center=False.
    The draws are drawn in flat blocks of losses._BLOCK_CELLS indices, and
    scored and counted in blocks of whole rows (at most that many indices
    each), so the temporaries stay bounded; the (num_samples, draw_size)
    index array itself is held whole, in _draw's dtype for the pool, since
    the centered weights need the batch mean before any count.

    With center=True the batch mean of DL' is subtracted before weighting
    (a control-variate baseline). That shifts every coordinate by the same
    baseline * draw_size, and a constant shift never changes the maximizer of
    <v, q> over the ball-restricted simplex, while the variance contributed by
    the common-mode part of DL' drops out. Losses that sit near a constant
    (Nash welfare especially) are unrecoverable at practical sample sizes
    without it.
    """
    q = np.asarray(q, dtype=np.float64)
    m = pd.size
    if not (q.shape == (m,) and (q >= 0).all() and abs(q.sum() - 1.0) <= 1e-9):  # NaN fails
        raise ValueError("q must be a probability vector over the pool")
    idx = _draw(rng, q, (num_samples, draw_size))
    grad, mean_dl = _score_gradients(idx, batch_shifted_loss(spec, pd, idx), q[None, :],
                                     [num_samples], center)
    return grad[0], float(mean_dl[0])


def _score_gradients(idx: np.ndarray, dl: np.ndarray, q: np.ndarray, sizes: list[int],
                     center: bool) -> tuple[np.ndarray, np.ndarray]:
    """estimate_gradient's estimate and batch mean for each row r of q (R, m),
    whose search drew the next sizes[r] rows of idx, an integer array of any
    dtype, and scored them as dl. The weighted counts are added in blocks of
    _block_rows(n) rows, each block's indices cast to intp once, so no (S, n)
    weight or intp index array is formed."""
    inv_q = np.where(q > 0, 1.0 / np.maximum(q, 1e-300), 0.0)
    n = idx.shape[1]
    step = _block_rows(n)
    grads = np.zeros(q.shape)
    means = np.empty(len(sizes))
    lo = 0
    for r, size in enumerate(sizes):
        rows, weights = idx[lo:lo + size], dl[lo:lo + size]
        means[r] = weights.mean()
        if center:
            weights = weights - means[r]
        # add.at adds each index's weights in draw order, block after block,
        # so the sums are bitwise those of one bincount over every drawn index
        for b in range(0, size, step):
            np.add.at(grads[r], rows[b:b + step].astype(np.intp, copy=False).ravel(),
                      np.repeat(weights[b:b + step], n))
        grads[r] = grads[r] / size * inv_q[r]
        lo += size
    return grads, means


@dataclass
class InstanceTrace:
    """Per-iteration diagnostics for one instance's inner search. The fields are the
    trace format: report JSON, the trace CSV and both readers follow them."""

    objective: list[float] = field(default_factory=list)  # expected decision loss estimate
    grad_norm: list[float] = field(default_factory=list)
    divergence: list[float] = field(default_factory=list)


def fw_inner(spec: LossSpec, pd: PoolData, rho_ind: float, params: FwParams,
             instance_index: int = 0) -> tuple[np.ndarray, InstanceTrace]:
    """Within-instance search; returns the converged offset and its trace.

    Every intermediate offset is feasible: each step mixes 1/iterations of a
    gradmax output (a ball point) into the current convex combination. The
    trace objective is the expected decision loss estimate at each iterate.
    This is _fw_lockstep's one-search case: params.num_samples gradient draws
    per iteration from the streams of instance_index, which an error names.
    """
    (result,) = _fw_lockstep(spec, {instance_index: pd}, {instance_index: str(instance_index)},
                             [(instance_index, params.num_samples)], rho_ind, params)
    return result


def _fw_lockstep(spec: LossSpec, pds: dict[int, PoolData], ids: list[str] | dict[int, str],
                 searches: list[tuple[int, int]], rho_ind: float, params: FwParams
                 ) -> list[tuple[np.ndarray, InstanceTrace]]:
    """fw_inner for each search (j, num_samples) on pool pds[j], all in lockstep;
    returns each search's offset and trace, bitwise what its own fw_inner call
    with instance_index j gives. An error in pool j's draws or scores names ids[j].

    Every search draws from its own (seed, _STREAM_GRAD, j, iteration)
    generator. Each iteration, the searches of one pool score their stacked
    draws in one batch_shifted_loss call, and the searches on pools of one size
    m take their momentum and Frank-Wolfe steps as rows of (R, m) arrays, with
    one gradmax call on the stacked momentum vectors. Beyond the (R, m) state,
    a round holds one pool's stacked draws at a time, in _draw's dtype for the
    pool: the sum of its searches' num_samples times the draw size.
    """
    results: list = [None] * len(searches)
    by_size: dict[int, list[int]] = {}
    for s, (j, _) in enumerate(searches):
        by_size.setdefault(pds[j].size, []).append(s)
    for m, group in by_size.items():
        n = _draw_count(params.draw_size, m)
        center = uniform_center(m)
        by_pool: dict[int, list[int]] = {}  # pool -> its searches' rows in the group
        for r, s in enumerate(group):
            by_pool.setdefault(searches[s][0], []).append(r)
        sizes = [searches[s][1] for s in group]
        traces = [InstanceTrace() for _ in group]
        w = np.zeros((len(group), m))
        v = np.zeros_like(w)
        grad = np.empty_like(w)
        mean_dl = np.empty(len(group))
        for it in range(params.iterations):
            q = np.maximum(w + center, 0.0)
            q /= q.sum(axis=1, keepdims=True)
            for j, rows in by_pool.items():
                with naming(ids[j]):
                    draws = [_draw(substream(params.seed, _STREAM_GRAD, j, it), q[r], (sizes[r], n))
                             for r in rows]
                    idx = draws[0] if len(draws) == 1 else np.concatenate(draws)
                    grad[rows], mean_dl[rows] = _score_gradients(
                        idx, batch_shifted_loss(spec, pds[j], idx), q[rows],
                        [sizes[r] for r in rows], center=True)
            v = params.momentum * grad + (1.0 - params.momentum) * v
            w = w + (gradmax(v, rho_ind) - center) / params.iterations
            divergence = ((q - center) ** 2 / center).sum(axis=1)
            for r, trace in enumerate(traces):
                trace.objective.append(float(mean_dl[r]) + 1.0)
                trace.grad_norm.append(float(np.linalg.norm(grad[r])))
                trace.divergence.append(float(divergence[r]))
        for r, s in enumerate(group):
            results[s] = (w[r], traces[r])
    return results


def estimate_instance_loss(spec: LossSpec, pd: PoolData, w: np.ndarray, params: FwParams,
                           instance_index: int = 0) -> float:
    """Monte Carlo mean of DL' under the converged within-instance offset."""
    q = offset_to_distribution(w)
    q = q / q.sum()
    n = _draw_count(params.draw_size, q.shape[0])
    rng = substream(params.seed, _STREAM_LAMBDA, instance_index, 0)
    idx = _draw(rng, q, (params.num_samples2, n))
    return float(batch_shifted_loss(spec, pd, idx).mean())


def fw_outer(instance_losses: np.ndarray, rho_xi: float) -> np.ndarray:
    """Across-instance offset: one exact linear maximization over the xi ball."""
    lam = np.asarray(instance_losses, dtype=np.float64)
    k = lam.shape[0]
    return gradmax(lam, rho_xi) - 1.0 / k


@dataclass(eq=False)
class WorstCaseReport:
    """Converged shift, per-instance losses, worst-case value, and diagnostics."""

    shift: HierarchicalShift
    instance_losses: np.ndarray
    value: float
    budget: UncertaintyBudget
    params: FwParams
    spec: LossSpec
    instance_ids: list[str]
    traces: list[InstanceTrace]


def find_worst_case(cohort: Cohort, predictor: Predictor, spec: LossSpec,
                    budget: UncertaintyBudget, params: FwParams,
                    workers: int | None = None) -> WorstCaseReport:
    """Run the full two-level search over a cohort.

    The reported value is <induced instance distribution, instance losses> + 1,
    the worst-case expected decision loss. All searches run in _fw_lockstep, one
    call per contiguous part of the instances: min(workers, instances) parts,
    each in its own process when there are two or more. Each search is bitwise
    its own fw_inner run, so results are identical for any worker count.
    """
    pds = prepare_pools(cohort, predictor, [spec], params.draw_size)
    ids, k = cohort.instance_ids, len(pds)
    n = max(1, min(workers or 1, k))
    parts = [range(k * p // n, k * (p + 1) // n) for p in range(n)]
    calls = [(spec, {j: pds[j] for j in part}, ids, [(j, params.num_samples) for j in part],
              budget.rho_ind, params) for part in parts]
    if n > 1:
        # imported here: multiprocessing adds about 1.7 MB to every process's peak RSS
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=n) as pool_exec:
            found = [r for part in pool_exec.map(_fw_lockstep, *zip(*calls)) for r in part]
    else:
        found = _fw_lockstep(*calls[0])

    within = tuple(w for w, _ in found)
    lam = np.empty(k)
    for j, (pd, w) in enumerate(zip(pds, within)):
        with naming(ids[j]):
            lam[j] = estimate_instance_loss(spec, pd, w, params, j)
    across = fw_outer(lam, budget.rho_xi)
    shift = HierarchicalShift(across=across, within=within)
    value = float(offset_to_distribution(across) @ lam + 1.0)
    return WorstCaseReport(shift=shift, instance_losses=lam, value=value, budget=budget,
                           params=params, spec=spec, instance_ids=ids,
                           traces=[trace for _, trace in found])


def report_to_dict(report: WorstCaseReport, cohort_path: str | None = None,
                   predictor_path: str | None = None) -> dict:
    return {
        "value": report.value,
        "instance_losses": report.instance_losses.tolist(),
        "shift": shift_to_dict(report.shift, report.instance_ids, report.budget),
        "loss": loss_spec_to_dict(report.spec),
        "params": asdict(report.params),
        "traces": [asdict(t) for t in report.traces],
        "inputs": {"cohort": cohort_path, "predictor": predictor_path},
    }


def save_report(report: WorstCaseReport, path: str, cohort_path: str | None = None,
                predictor_path: str | None = None) -> None:
    write_json(report_to_dict(report, cohort_path, predictor_path), path)


def load_report(path: str) -> WorstCaseReport:
    """The WorstCaseReport that save_report wrote to path; the file's "inputs"
    paths are not part of it.

    This is the one check of a saved report: a missing key, parameters FwParams
    rejects, lengths that disagree, a non-finite number, or a shift that
    is_feasible rejects under the report's own budget is a DataError naming
    the path.
    """
    return read_json(path, "report", DataError, _report_from_dict)


def _report_from_dict(raw: dict) -> WorstCaseReport:
    shift, ids, budget = shift_from_dict(raw["shift"])
    numbers = np.array([raw["value"], *raw["instance_losses"]], dtype=np.float64)
    traces = [InstanceTrace(**{f.name: [float(x) for x in t[f.name]] for f in fields(InstanceTrace)})
              for t in raw["traces"]]
    if not np.isfinite(numbers).all():
        raise DataError("value and instance losses must be finite")
    if any(len({len(column) for column in astuple(t)}) > 1 for t in traces):
        raise DataError("a trace's columns differ in length")
    if not len(ids) == len(raw["shift"]["within"]) == numbers.size - 1 == len(traces):
        raise DataError(f"{len(ids)} instance ids, but within offsets, instance losses and "
                        "traces do not each have one entry per instance")
    ok, why = is_feasible(shift, budget)
    if not ok:
        raise DataError(f"shift outside the report's budget: {why}")
    return WorstCaseReport(shift=shift, instance_losses=numbers[1:], value=float(numbers[0]),
                           budget=budget, params=FwParams(**raw["params"]),
                           spec=parse_loss_spec(raw["loss"]), instance_ids=ids, traces=traces)
