"""Exact small-instance machinery: enumerate every possible draw, differentiate the
expected shifted loss in closed form, and maximize it with multi-start ascent.

The expected shifted loss under individual weights q is a polynomial
F(q) = sum over multisets of multinomial(n; counts) * prod q^counts * DL'.
With DL' <= 0 everywhere, all second partials of F are <= 0, which is what the
search engine's approximation guarantee rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import ConfigError, NumericalError
from .losses import LossSpec, PoolData, batch_shifted_loss
from .uncertainty import _ball_simplex, gradmax, uniform_center

ENUM_CAP = 100_000
RESTARTS = 20  # default ascent starts of oracle_maximize
_TINY = 1e-200  # preserves the exact boundary limit of grad terms with count 1
_BATCH_CELLS = 1 << 20  # (weight vector, multiset) cells per block of a batched exact_objective
_GRID_STEP = 1e-3  # lattice spacing of oracle_maximize's grid certificate for m <= 3
_ASCENT_STEPS = 250  # accepted steps after which an ascent stops
_GAP_TOL = 1e-6  # an ascent row stops once its Frank-Wolfe gap is at most this times max(1, |F|)


@dataclass(frozen=True, eq=False)
class ProblemEnumeration:
    """Every distinct multiset of draws, its multinomial weight, and its shifted loss."""

    counts: np.ndarray  # (S, m) draw counts per multiset, as float64 for the matmuls
    coeffs: np.ndarray  # (S,) multinomial coefficients
    losses: np.ndarray  # (S,) DL' per multiset
    pool_size: int
    draw_size: int


def enumeration_size(pool_size: int, draw_size: int) -> int:
    return math.comb(pool_size + draw_size - 1, draw_size)


def check_enumeration(pool_size: int, draw_size: int) -> None:
    """Raise NumericalError, naming the sizes, if C(m + n - 1, n) exceeds ENUM_CAP,
    or if the largest multinomial coefficient, the one of the most even
    counts, exceeds the float64 range."""
    size = enumeration_size(pool_size, draw_size)
    if size > ENUM_CAP:
        raise NumericalError(f"enumeration needs C({pool_size}+{draw_size}-1, {draw_size}) = "
                             f"{size} multisets, above the cap {ENUM_CAP}")
    even = draw_size // pool_size + (np.arange(pool_size) < draw_size % pool_size)
    if not np.isfinite(_multinomials(even[None, :], draw_size)[0]):
        raise NumericalError(f"enumeration of {draw_size} draws from a pool of {pool_size}: "
                             "a multinomial coefficient exceeds the float64 range")


def enumerate_problems(spec: LossSpec, pd: PoolData, draw_size: int) -> ProblemEnumeration:
    """Enumerate all draws-with-replacement of draw_size individuals from pd.

    Refuses when C(m + n - 1, n) exceeds ENUM_CAP, or when a multinomial
    coefficient exceeds the float64 range; both errors name the sizes.
    """
    m = pd.size
    if draw_size < 1:
        raise ValueError(f"draw_size must be >= 1, got {draw_size}")
    check_enumeration(m, draw_size)

    combos = list(combinations_with_replacement(range(m), draw_size))
    idx = np.array(combos, dtype=np.int64)
    counts = np.zeros((len(combos), m), dtype=np.int64)
    rows = np.repeat(np.arange(len(combos)), draw_size)
    np.add.at(counts, (rows, idx.ravel()), 1)

    coeffs = _multinomials(counts, draw_size)
    losses = batch_shifted_loss(spec, pd, idx)
    return ProblemEnumeration(counts=counts.astype(np.float64), coeffs=coeffs, losses=losses,
                              pool_size=m, draw_size=draw_size)


def _multinomials(counts: np.ndarray, n: int) -> np.ndarray:
    """n! / prod_i counts_i! for each row of the integer counts; inf past float64.

    The factorials are kept as mantissa * 2^exponent, so none overflows on the
    way. Up to 22! each is exact, and so is every product of them a row forms,
    so for n <= 22 a coefficient is the correctly rounded quotient.
    """
    mant = np.ones(n + 1)
    expo = np.zeros(n + 1, dtype=np.int64)
    for i in range(2, n + 1):
        mant[i], e = math.frexp(mant[i - 1] * i)
        expo[i] = expo[i - 1] + e
    with np.errstate(over="ignore"):
        return np.ldexp(mant[n] / mant[counts].prod(axis=1),
                        expo[n] - expo[counts].sum(axis=1))


def _terms(enum: ProblemEnumeration, q: np.ndarray) -> np.ndarray:
    """coeffs * DL' * prod_i q_i^counts_si per multiset, exact at the simplex
    boundary: (S,) for one q of shape (m,), (R, S) for the rows of an (R, m)
    batch. F at each q is the sum along the last axis."""
    terms = np.log(np.maximum(q, _TINY)) @ enum.counts.T
    np.exp(terms, out=terms)  # one (R, S) buffer; the products are those of the unfused form
    terms *= enum.coeffs * enum.losses
    return terms


def _gradient_from_terms(enum: ProblemEnumeration, terms: np.ndarray,
                         q: np.ndarray) -> np.ndarray:
    return (terms @ enum.counts) / np.maximum(q, _TINY)


def _checked_q(enum: ProblemEnumeration, q, batch: bool = False) -> np.ndarray:
    """q as float64, checked to be one point (m,) or, where batch allows, (R, m) rows."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape[-1:] != (enum.pool_size,) or q.ndim > (2 if batch else 1):
        raise ValueError(f"q must have shape ({enum.pool_size},), or (R, m) for a batch, "
                         f"got {q.shape}")
    return q


def exact_objective(enum: ProblemEnumeration, q: np.ndarray) -> float | np.ndarray:
    """F(q): the exact expected shifted loss under individual weights q, a float
    for one point (m,); for the rows of an (R, m) batch, (R,) values formed in
    blocks of at most _BATCH_CELLS terms, so memory does not grow with the
    enumeration size."""
    q = _checked_q(enum, q, batch=True)
    if q.ndim == 1:
        return float(_terms(enum, q).sum())
    out = np.empty(q.shape[0])
    step = max(1, _BATCH_CELLS // enum.coeffs.shape[0])
    for start in range(0, q.shape[0], step):
        out[start:start + step] = _terms(enum, q[start:start + step]).sum(axis=1)
    return out


def exact_gradient(enum: ProblemEnumeration, q: np.ndarray) -> np.ndarray:
    """dF/dq, valid on the closed simplex (boundary handled by the count-1 limit)."""
    q = _checked_q(enum, q)
    if np.any(q < 0):
        raise ValueError("q must be non-negative")
    return _gradient_from_terms(enum, _terms(enum, q), q)


def exact_hessian(enum: ProblemEnumeration, q: np.ndarray) -> np.ndarray:
    """All second partials of F. Off-diagonal (a, b): sum w c_a c_b / (q_a q_b);
    diagonal (a, a): sum w c_a (c_a - 1) / q_a^2."""
    q = _checked_q(enum, q)
    if np.any(q <= 0):
        raise ValueError("q must be strictly positive for the Hessian")
    wp = _terms(enum, q)
    counts = enum.counts
    second = counts.T @ (wp[:, None] * counts)  # sum w c_a c_b
    first = counts.T @ wp  # sum w c_a
    hess = second / np.outer(q, q)
    np.fill_diagonal(hess, (np.diag(second) - first) / q**2)
    return hess


def _project_ball_simplex(x: np.ndarray, rho: float) -> np.ndarray:
    """Euclidean projection onto the simplex intersected with the chi-square ball
    around the uniform center, of one point x (m,) or of each row of a batch
    (R, m). Its KKT point (x - nu)_+ / s, with s = 1 + lam m >= 1 for the ball's
    multiplier lam, is gradmax's family with t = m / s, so _ball_simplex solves
    it with t capped at m; where the ball is inactive, the cap gives the plain
    simplex projection."""
    m = x.shape[-1]
    return _ball_simplex(x, uniform_center(m), rho, float(m))


def _bb_step(step: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each row's next step after an accepted move s = q_new - q and gradient
    change y = g - g_new: the Barzilai-Borwein step <s, s> / <s, y> clipped to
    [step / 4, 4 step]; 4 step if <s, y> <= 0."""
    ss, sy = (s * s).sum(axis=1), (s * y).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        bb = np.where(sy > 0, ss / sy, np.inf)
    return np.clip(bb, 0.25 * step, 4.0 * step)


def _ascend(enum: ProblemEnumeration, q0: np.ndarray, rho: float
            ) -> tuple[np.ndarray, np.ndarray]:
    """Projected gradient ascent on F from every row of q0 (R, m) in lockstep.

    Each row keeps its own point, value, gradient, step and counts. Its first
    step is 0.1 / |gradient|; a trial that raises F by more than 1e-14 is
    accepted and sets the next step by _bb_step (Barzilai and Borwein 1988;
    Birgin, Martinez and Raydan 2000), and a rejected one halves it: 356 rounds
    on the fig2 benchmark's 16 ascents, where growing the step by 1.3 took 639. A row
    stops once its Frank-Wolfe gap <g, gradmax(g) - q>, g the gradient at its
    point q, is at most _GAP_TOL * max(1, |F(q)|), so a start can stop before
    any trial; F need not be concave, so the gap measures stationarity, not
    the shortfall. Backstops: _ASCENT_STEPS accepted steps, 30 rejections in a
    row, or a step below 1e-13. Each round makes one solver call on the live
    rows' trial points (t_max = m, the projection) stacked on the moved rows'
    gradients (t_max = inf, gradmax), then one terms kernel call on the trials
    of the rows the gap keeps. Returns the final points and values.
    """
    q = np.array(q0, dtype=np.float64)
    terms = _terms(enum, q)
    f = terms.sum(axis=1)
    g = _gradient_from_terms(enum, terms, q)
    step = 0.1 / (np.linalg.norm(g, axis=1) + 1e-12)
    accepted = np.zeros(q.shape[0], dtype=np.int64)
    rejected = np.zeros(q.shape[0], dtype=np.int64)
    live = moved = np.arange(q.shape[0])
    while live.size:
        x = _ball_simplex(np.vstack([q[live] + step[live, None] * g[live], g[moved]]),
                          uniform_center(q.shape[1]), rho,
                          np.repeat([q.shape[1], np.inf], [live.size, moved.size]))
        gap = ((x[live.size:] - q[moved]) * g[moved]).sum(axis=1)
        keep = ~np.isin(live, moved[gap <= _GAP_TOL * np.maximum(1.0, np.abs(f[moved]))])
        live, q_try = live[keep], x[:live.size][keep]
        terms = _terms(enum, q_try)
        f_try = terms.sum(axis=1)
        up = f_try > f[live] + 1e-14
        win, lose = live[up], live[~up]
        g_try = _gradient_from_terms(enum, terms[up], q_try[up])
        step[win] = _bb_step(step[win], q_try[up] - q[win], g[win] - g_try)
        q[win], f[win], g[win] = q_try[up], f_try[up], g_try
        accepted[win] += 1
        rejected[win] = 0
        step[lose] *= 0.5
        rejected[lose] += 1
        stop = np.where(up, accepted[live] >= _ASCENT_STEPS,
                        (rejected[live] >= 30) | (step[live] < 1e-13))
        moved = live[up & ~stop]
        live = live[~stop]
    return q, f


def frank_wolfe_gap(enum: ProblemEnumeration, q: np.ndarray, rho: float) -> float:
    """<dF(q), gradmax(dF(q)) - q>: 0 at a stationary point; F is not concave, so not a bound."""
    g = exact_gradient(enum, q)
    return float(((gradmax(g, rho) - q) * g).sum())


def _grid_points(m: int, step: float) -> np.ndarray:
    ticks = int(round(1.0 / step))
    if m == 2:
        a = np.arange(ticks + 1) / ticks
        return np.stack([a, 1.0 - a], axis=1)
    if m == 3:
        i, j = np.triu_indices(ticks + 1)  # row-major (i, i + j) for i + j <= ticks
        a, b = i / ticks, (j - i) / ticks
        return np.stack([a, b, 1.0 - a - b], axis=1)
    raise ValueError(f"grid certification supports m <= 3, got {m}")


def oracle_maximize(enum: ProblemEnumeration, rho: float, restarts: int = RESTARTS,
                    seed: int = 0, extra_starts: list[np.ndarray] | None = None
                    ) -> tuple[np.ndarray, float]:
    """Maximize F over the within-instance feasible set, independent of the engine.

    Multi-start projected gradient ascent from the center, vertex-leaning
    points, Dirichlet draws, and any caller-supplied extra starts (so the result
    dominates every point handed in); for pools of size <= 3 the best point of
    a dense grid is one more start, which certifies the value to within about
    the grid spacing _GRID_STEP. All starts ascend together in one _ascend
    call, holding (starts, multisets) arrays.
    """
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    if restarts < 1:
        raise ConfigError(f"--restarts must be >= 1, got {restarts}")
    m = enum.pool_size
    u = np.full(m, 1.0 / m)
    if rho == 0:
        return u, exact_objective(enum, u)

    rng = np.random.default_rng(seed)
    lean = np.full((m, m), 0.05 / max(m - 1, 1))
    np.fill_diagonal(lean, 0.95)
    draws = rng.dirichlet(np.ones(m), size=max(restarts, m + 1) - (m + 1))
    extra = np.reshape(np.asarray(extra_starts or [], dtype=np.float64), (-1, m))
    starts = [u[None, :], _project_ball_simplex(np.vstack([lean, draws, extra]), rho)]
    if 2 <= m <= 3:
        pts = _grid_points(m, _GRID_STEP)
        divs = m * (pts**2).sum(axis=1) - 1.0
        pts = pts[divs <= rho + 1e-9]
        if pts.shape[0]:
            starts.append(pts[[int(np.argmax(exact_objective(enum, pts)))]])

    q, f = _ascend(enum, np.vstack(starts), rho)
    best = int(np.argmax(f))  # ties go to the earlier start
    return q[best], float(f[best])
