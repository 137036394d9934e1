"""Cross-metric evaluation of converged shifts and oracle-ratio curves.

matrix_from_shifts plays shifts forward: instances are drawn from each shift's
induced across-instance distribution, problems from each induced
within-instance distribution, and the average decision loss (not the shifted
variant) comes back with a Monte Carlo standard error over the instance draws,
one row per shift and one column per metric.

cross_metric_matrix arranges those numbers the way the headline comparison
does: row = metric whose worst case produced the shift, column = metric the
shift is evaluated on. diagonal_normalize reads each column as a share of its
diagonal entry, the column metric's own worst case, by the sign rule of
_value_ratio, which the oracle-ratio curve reads its ratios by too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Cohort
from .engine import (_STREAM_EVAL, FwParams, WorstCaseReport, _draw, _draw_count,
                     _fw_lockstep, find_worst_case, prepare_pools, substream)
from .errors import ConfigError, DataError, NumericalError, at_least, naming, number
from .losses import LossSpec, _block_rows, batch_shifted_loss
from .oracle import (RESTARTS, check_enumeration, check_restarts, closed_form, exact_objective,
                     oracle_maximize, pool_objective)
from .predictors import Predictor
from .uncertainty import HierarchicalShift, UncertaintyBudget, offset_to_distribution

INSTANCE_DRAWS = 200  # default outer (instance) draws of an evaluation
PROBLEM_DRAWS = 4000  # default problems drawn per outer draw


@dataclass(eq=False)
class CrossMetricMatrix:
    """Row metric drives the shift, column metric scores it."""

    row_metrics: list[str]
    col_metrics: list[str]
    values: np.ndarray
    stderr: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        r, c = len(self.row_metrics), len(self.col_metrics)
        self.values = np.asarray(self.values, dtype=np.float64)
        self.stderr = np.asarray(self.stderr, dtype=np.float64)
        if self.values.shape != (r, c) or self.stderr.shape != (r, c):
            raise ValueError(f"matrix shape {self.values.shape} does not match {r} x {c} labels")


def metric_names(specs: list[LossSpec]) -> list[str]:
    """Kind names, suffixed on repeats so duplicate specs stay distinguishable."""
    names, seen = [], {}
    for spec in specs:
        seen[spec.kind] = seen.get(spec.kind, 0) + 1
        names.append(spec.kind if seen[spec.kind] == 1 else f"{spec.kind}#{seen[spec.kind]}")
    return names


def matrix_from_shifts(cohort: Cohort, predictor: Predictor, row_names: list[str],
                       shifts: list[HierarchicalShift], col_specs: list[LossSpec],
                       num_instance_draws: int = INSTANCE_DRAWS,
                       num_problem_draws: int = PROBLEM_DRAWS,
                       draw_size: int | None = None, seed: int = 0) -> CrossMetricMatrix:
    """Mean and standard error of each column spec's decision loss under each
    row's shift. Shifts are taken as given: is_feasible checks one against a
    budget, as load_report does for every report it reads.

    One outer draw picks an instance from the shift's induced across-instance
    distribution and averages the loss of num_problem_draws problems from that
    instance's induced distribution; the standard error is over the outer
    draws. Every column scores the same draws and every row draws from the
    same (seed, _STREAM_EVAL, instance) streams, so column c is bitwise a
    matrix of col_specs[c] alone and row r one of shifts[r] alone, whatever
    the scheduling. Problems are drawn and scored in batches of whole outer
    draws, at most losses._BLOCK_CELLS indices (problems x draw size) each but
    at least one outer draw, so memory does not grow with num_instance_draws;
    an outer draw above the bound still holds its indices whole, in _draw's
    dtype for the pool, and only its uniforms and scoring temporaries are
    bounded, by blocks of rows.
    Every input, every pool against every column, is checked and each pool is
    predicted once, before the first draw.
    """
    if len(row_names) != len(shifts):
        raise ConfigError("one row name per shift required")
    num_instance_draws = at_least(num_instance_draws, 1, "num_instance_draws")
    num_problem_draws = at_least(num_problem_draws, 1, "num_problem_draws")
    seed = at_least(seed, 0, "seed")
    k = len(cohort.pools)
    for shift in shifts:
        if shift.across.shape != (k,):
            raise DataError(f"shift covers {shift.across.shape[0]} instances, cohort has {k}")
        for pool, w in zip(cohort.pools, shift.within):
            if w.shape != (len(pool),):
                raise DataError(f"instance {pool.instance_id!r}: shift offset has {w.shape[0]} "
                                f"coordinates, pool has {len(pool)}")
    pds = prepare_pools(cohort, predictor, col_specs, draw_size)

    means = np.empty((len(shifts), len(col_specs)))
    stderr = np.zeros_like(means)
    outer_means = np.empty((len(col_specs), num_instance_draws))
    for r, shift in enumerate(shifts):
        q_xi = offset_to_distribution(shift.across)
        rng = substream(seed, _STREAM_EVAL, 0)
        picks = _draw(rng, q_xi / q_xi.sum(), num_instance_draws)
        for j, (pool, pd) in enumerate(zip(cohort.pools, pds)):
            where = np.nonzero(picks == j)[0]
            if where.size == 0:
                continue
            q = offset_to_distribution(shift.within[j])
            q = q / q.sum()
            n = _draw_count(draw_size, len(pool))
            rng_j = substream(seed, _STREAM_EVAL, 1 + j)
            # batched draws continue the generator's stream, so batching leaves the result unchanged
            step = max(1, _block_rows(n) // num_problem_draws)
            for lo in range(0, where.size, step):
                outer = where[lo:lo + step]
                idx = _draw(rng_j, q, (outer.size * num_problem_draws, n))
                for c, spec in enumerate(col_specs):
                    dl = batch_shifted_loss(spec, pd, idx).reshape(outer.size, num_problem_draws)
                    outer_means[c, outer] = (dl + 1.0).mean(axis=1)
        means[r] = outer_means.mean(axis=1)
        if num_instance_draws > 1:
            stderr[r] = outer_means.std(axis=1, ddof=1) / np.sqrt(num_instance_draws)
    return CrossMetricMatrix(row_metrics=list(row_names), col_metrics=metric_names(col_specs),
                             values=means, stderr=stderr)


def cross_metric_matrix(cohort: Cohort, predictor: Predictor, specs: list[LossSpec],
                        budget: UncertaintyBudget, params: FwParams,
                        num_instance_draws: int = INSTANCE_DRAWS,
                        num_problem_draws: int = PROBLEM_DRAWS, workers: int | None = None
                        ) -> tuple[CrossMetricMatrix, list[WorstCaseReport]]:
    """All specs checked on every pool, then a worst-case shift per metric and the matrix."""
    prepare_pools(cohort, predictor, specs, params.draw_size)
    reports = [find_worst_case(cohort, predictor, spec, budget, params, workers=workers)
               for spec in specs]
    matrix = matrix_from_shifts(cohort, predictor, metric_names(specs),
                                [rep.shift for rep in reports], specs,
                                num_instance_draws, num_problem_draws,
                                params.draw_size, params.seed)
    return matrix, reports


_ZERO_TOL = 1e-9  # |value| at or below this is zero up to the +1 correction's float noise


def _value_ratio(achieved, optimal: float):
    """The one rule for achieved (a float or an array) as a share of the worst case
    optimal: achieved / optimal, or optimal / achieved for a negative optimal, whose
    worst is the value nearest zero. A zero optimal (up to _ZERO_TOL) is matched only
    by zero, share 1; any other value there, or a zero against a negative optimal,
    is a NumericalError."""
    achieved = np.asarray(achieved, dtype=np.float64)
    if abs(optimal) <= _ZERO_TOL:
        off = achieved[np.abs(achieved) > _ZERO_TOL]
        if off.size:
            raise NumericalError(f"worst value is zero but a value is {float(off[0])!r}; "
                                 "share undefined")
        return np.ones_like(achieved)
    if optimal > 0.0:
        return achieved / optimal
    if np.any(achieved == 0.0):
        raise NumericalError(f"a value is zero against the negative worst value "
                             f"{float(optimal)!r}; share undefined")
    return optimal / achieved


def diagonal_normalize(matrix: CrossMetricMatrix) -> CrossMetricMatrix:
    """Each column as a share of its diagonal entry by _value_ratio's sign rule.
    The standard error of a share is se/|diagonal| for a positive diagonal and
    |share| se/|entry| for a negative one; a zero column's stay as they are."""
    if matrix.normalized:
        raise ConfigError("matrix is already normalized")
    if matrix.row_metrics != matrix.col_metrics:  # so the matrix is square
        raise ConfigError("diagonal normalization needs matching row and column metrics")
    values = np.empty_like(matrix.values)
    stderr = matrix.stderr.copy()
    for j, name in enumerate(matrix.col_metrics):
        entries, diag, se = matrix.values[:, j], matrix.values[j, j], matrix.stderr[:, j]
        try:
            values[:, j] = _value_ratio(entries, diag)
        except NumericalError as exc:
            raise NumericalError(f"column {name!r}: {exc}") from exc
        if diag > _ZERO_TOL:
            stderr[:, j] = se / diag
        elif diag < -_ZERO_TOL:
            stderr[:, j] = np.abs(values[:, j]) * (se / np.abs(entries))
    return replace(matrix, values=values, stderr=stderr, normalized=True)


@dataclass(eq=False)
class OracleRatioCurve:
    """Per-pool achieved-over-optimal ratios along a gradient-sample grid."""

    grid: list[int]
    instance_ids: list[str]
    ratios: np.ndarray  # (pools, grid points)

    def __post_init__(self):
        self.ratios = np.asarray(self.ratios, dtype=np.float64)
        if self.ratios.shape != (len(self.instance_ids), len(self.grid)):
            raise ValueError("ratio matrix must be pools x grid points")

    @property
    def mean(self) -> np.ndarray:
        return self.ratios.mean(axis=0)

    @property
    def stderr(self) -> np.ndarray:
        if self.ratios.shape[0] < 2:
            return np.zeros(len(self.grid))
        return self.ratios.std(axis=0, ddof=1) / np.sqrt(self.ratios.shape[0])


def check_enumerations(cohort: Cohort, spec: LossSpec, draw_size: int | None) -> list[int]:
    """Each pool's draw size, once every pool's enumeration is known to fit
    ENUM_CAP, for a spec that enumerates (pool_objective); a NumericalError
    names the first pool that does not."""
    draws = [_draw_count(draw_size, len(pool)) for pool in cohort.pools]
    if not closed_form(spec):
        for pool, n in zip(cohort.pools, draws):
            with naming(pool.instance_id):
                check_enumeration(len(pool), n)
    return draws


def oracle_ratio_curve(cohort: Cohort, predictor: Predictor, spec: LossSpec,
                       budget: UncertaintyBudget, grid: list[int], params: FwParams | None = None,
                       oracle_restarts: int = RESTARTS) -> OracleRatioCurve:
    """Search quality against the exact oracle as gradient samples grow.

    Per pool and grid point, the inner search runs with that many gradient
    samples; its converged distribution is scored exactly by the pool's
    objective (pool_objective) and divided by the oracle maximum. The oracle
    ascends from the search outputs too, so every ratio is at most 1 up to
    float noise. Searches and oracle run at params.seed.

    Every pool is checked, and its enumeration size where the loss enumerates,
    before any search runs. Then all
    pool x grid searches run in lockstep in one _fw_lockstep call, each
    bitwise its own fw_inner run, so a round holds one pool's stacked draws:
    sum(grid) x draw size rows. Each pool's objective is then formed and
    maximized in turn.
    """
    grid = [number(g, int, "sample grid point") for g in grid]
    if not grid or any(g < 1 for g in grid):
        raise ConfigError("sample grid must be non-empty positive integers")
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"sample grid must be strictly increasing, got {grid}")
    oracle_restarts = check_restarts(oracle_restarts, "oracle_restarts")
    base = params or FwParams()
    pds = prepare_pools(cohort, predictor, [spec], base.draw_size)
    draws = check_enumerations(cohort, spec, base.draw_size)

    searches = [(j, g) for j in range(len(pds)) for g in grid]
    found = _fw_lockstep(spec, dict(enumerate(pds)), cohort.instance_ids, searches,
                         budget.rho_ind, base)
    ratios = np.empty((len(cohort.pools), len(grid)))
    for j, (pd, n) in enumerate(zip(pds, draws)):
        objective = pool_objective(spec, pd, n)
        qs = [offset_to_distribution(w) for w, _ in found[j * len(grid):(j + 1) * len(grid)]]
        achieved = [exact_objective(objective, q) + 1.0 for q in qs]
        _, best = oracle_maximize(objective, budget.rho_ind, restarts=oracle_restarts,
                                  seed=base.seed, extra_starts=qs)
        with naming(cohort.instance_ids[j]):
            ratios[j] = _value_ratio(achieved, best + 1.0)
    return OracleRatioCurve(grid=grid, instance_ids=cohort.instance_ids, ratios=ratios)
