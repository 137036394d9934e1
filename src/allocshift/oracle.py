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

from .errors import NumericalError
from .losses import LossSpec, PoolData, batch_shifted_loss
from .uncertainty import _ball_simplex, uniform_center

ENUM_CAP = 100_000
_TINY = 1e-200  # preserves the exact boundary limit of grad terms with count 1
_BATCH_ROWS = 65536  # weight vectors per block in exact_objective_batch
_GRID_STEP = 1e-3  # lattice spacing of oracle_maximize's grid certificate for m <= 3


@dataclass(frozen=True, eq=False)
class ProblemEnumeration:
    """Every distinct multiset of draws, its multinomial weight, and its shifted loss."""

    counts: np.ndarray  # (S, m) draw counts per multiset
    coeffs: np.ndarray  # (S,) multinomial coefficients
    losses: np.ndarray  # (S,) DL' per multiset
    pool_size: int
    draw_size: int


def enumeration_size(pool_size: int, draw_size: int) -> int:
    return math.comb(pool_size + draw_size - 1, draw_size)


def enumerate_problems(spec: LossSpec, pd: PoolData, draw_size: int,
                       cap: int = ENUM_CAP) -> ProblemEnumeration:
    """Enumerate all draws-with-replacement of draw_size individuals from pd.

    Refuses when C(m + n - 1, n) exceeds the cap; the error names the size.
    """
    m = pd.size
    if draw_size < 1:
        raise ValueError(f"draw_size must be >= 1, got {draw_size}")
    size = enumeration_size(m, draw_size)
    if size > cap:
        raise NumericalError(
            f"enumeration needs C({m}+{draw_size}-1, {draw_size}) = {size} multisets, above the cap {cap}")

    combos = list(combinations_with_replacement(range(m), draw_size))
    idx = np.array(combos, dtype=np.int64)
    counts = np.zeros((len(combos), m), dtype=np.int64)
    rows = np.repeat(np.arange(len(combos)), draw_size)
    np.add.at(counts, (rows, idx.ravel()), 1)

    n_fact = math.factorial(draw_size)
    coeffs = np.array([n_fact / math.prod(math.factorial(int(c)) for c in row if c > 1)
                       for row in counts], dtype=np.float64)

    losses = batch_shifted_loss(spec, pd, idx)
    return ProblemEnumeration(counts=counts, coeffs=coeffs, losses=losses,
                              pool_size=m, draw_size=draw_size)


def _terms(enum: ProblemEnumeration, q: np.ndarray) -> np.ndarray:
    """coeffs * DL' * prod_i q_i^counts_si per multiset, exact at the simplex
    boundary; F(q) is their sum."""
    qc = np.maximum(q, _TINY)
    return enum.coeffs * enum.losses * np.exp(enum.counts @ np.log(qc))


def _gradient_from_terms(enum: ProblemEnumeration, terms: np.ndarray,
                         q: np.ndarray) -> np.ndarray:
    return (enum.counts.T @ terms) / np.maximum(q, _TINY)


def exact_objective(enum: ProblemEnumeration, q: np.ndarray) -> float:
    """F(q): the exact expected shifted loss under individual weights q."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (enum.pool_size,):
        raise ValueError(f"q must have shape ({enum.pool_size},), got {q.shape}")
    return float(_terms(enum, q).sum())


def exact_objective_batch(enum: ProblemEnumeration, qs: np.ndarray) -> np.ndarray:
    """F evaluated on each row of qs."""
    qs = np.asarray(qs, dtype=np.float64)
    w = enum.coeffs * enum.losses
    out = np.empty(qs.shape[0])
    ct = enum.counts.T.astype(np.float64)
    for start in range(0, qs.shape[0], _BATCH_ROWS):
        block = np.maximum(qs[start:start + _BATCH_ROWS], _TINY)
        out[start:start + _BATCH_ROWS] = np.exp(np.log(block) @ ct) @ w
    return out


def exact_gradient(enum: ProblemEnumeration, q: np.ndarray) -> np.ndarray:
    """dF/dq, valid on the closed simplex (boundary handled by the count-1 limit)."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (enum.pool_size,):
        raise ValueError(f"q must have shape ({enum.pool_size},), got {q.shape}")
    if np.any(q < 0):
        raise ValueError("q must be non-negative")
    return _gradient_from_terms(enum, _terms(enum, q), q)


def exact_hessian(enum: ProblemEnumeration, q: np.ndarray) -> np.ndarray:
    """All second partials of F. Off-diagonal (a, b): sum w c_a c_b / (q_a q_b);
    diagonal (a, a): sum w c_a (c_a - 1) / q_a^2."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (enum.pool_size,):
        raise ValueError(f"q must have shape ({enum.pool_size},), got {q.shape}")
    if np.any(q <= 0):
        raise ValueError("q must be strictly positive for the Hessian")
    wp = _terms(enum, q)
    counts = enum.counts.astype(np.float64)
    second = counts.T @ (wp[:, None] * counts)  # sum w c_a c_b
    first = counts.T @ wp  # sum w c_a
    hess = second / np.outer(q, q)
    np.fill_diagonal(hess, (np.diag(second) - first) / q**2)
    return hess


def check_dr_submodular(enum: ProblemEnumeration, q: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff every Hessian entry at q is <= tol."""
    return bool(np.all(exact_hessian(enum, q) <= tol))


def _project_ball_simplex(x: np.ndarray, rho: float) -> np.ndarray:
    """Euclidean projection onto the simplex intersected with the chi-square ball
    around the uniform center. Its KKT point (x - nu)_+ / s, with s = 1 + lam m >= 1
    for the ball's multiplier lam, is gradmax's family with t = m / s, so
    _ball_simplex solves it with t capped at m; where the ball is inactive, the
    cap gives the plain simplex projection."""
    m = x.shape[0]
    if rho <= 0:
        return uniform_center(m)
    return _ball_simplex(x, uniform_center(m), rho, float(m))


def _ascend(enum: ProblemEnumeration, q0: np.ndarray, rho: float,
            iterations: int = 250) -> tuple[np.ndarray, float]:
    # the accepted point's terms give both its objective and the next gradient
    q = q0
    terms = _terms(enum, q)
    f = float(terms.sum())
    step = None
    for _ in range(iterations):
        g = _gradient_from_terms(enum, terms, q)
        if step is None:
            step = 0.1 / (float(np.linalg.norm(g)) + 1e-12)
        improved = False
        for _ in range(30):
            q_try = _project_ball_simplex(q + step * g, rho)
            terms_try = _terms(enum, q_try)
            f_try = float(terms_try.sum())
            if f_try > f + 1e-14:
                q, f, terms = q_try, f_try, terms_try
                step *= 1.3
                improved = True
                break
            step *= 0.5
            if step < 1e-13:
                break
        if not improved:
            break
    return q, f


def _grid_points(m: int, step: float) -> np.ndarray:
    ticks = int(round(1.0 / step))
    if m == 2:
        a = np.arange(ticks + 1) / ticks
        return np.stack([a, 1.0 - a], axis=1)
    if m == 3:
        i, j = np.meshgrid(np.arange(ticks + 1), np.arange(ticks + 1), indexing="ij")
        keep = (i + j) <= ticks
        a = i[keep] / ticks
        b = j[keep] / ticks
        return np.stack([a, b, 1.0 - a - b], axis=1)
    raise ValueError(f"grid certification supports m <= 3, got {m}")


def oracle_maximize(enum: ProblemEnumeration, rho: float, restarts: int = 20, seed: int = 0,
                    extra_starts: list[np.ndarray] | None = None) -> tuple[np.ndarray, float]:
    """Maximize F over the within-instance feasible set, independent of the engine.

    Multi-start projected gradient ascent from the center, vertex-leaning
    points, Dirichlet draws, and any caller-supplied extra starts (so the result
    dominates every point handed in); for pools of size <= 3 a dense grid
    certifies the value to within about the grid spacing _GRID_STEP.
    """
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    m = enum.pool_size
    u = np.full(m, 1.0 / m)
    if rho == 0:
        return u, exact_objective(enum, u)

    rng = np.random.default_rng(seed)
    starts = [u]
    for i in range(m):
        lean = np.full(m, 0.05 / max(m - 1, 1))
        lean[i] = 0.95
        starts.append(_project_ball_simplex(lean, rho))
    while len(starts) < max(restarts, m + 1):
        starts.append(_project_ball_simplex(rng.dirichlet(np.ones(m)), rho))
    for q0 in extra_starts or []:
        starts.append(_project_ball_simplex(np.asarray(q0, dtype=np.float64), rho))

    best_q, best_f = None, -np.inf
    for q0 in starts:
        q, f = _ascend(enum, q0, rho)
        if f > best_f:
            best_q, best_f = q, f

    if 2 <= m <= 3:
        pts = _grid_points(m, _GRID_STEP)
        divs = m * (pts**2).sum(axis=1) - 1.0
        pts = pts[divs <= rho + 1e-9]
        if pts.shape[0]:
            vals = exact_objective_batch(enum, pts)
            gi = int(np.argmax(vals))
            q, f = _ascend(enum, pts[gi], rho)
            if vals[gi] > best_f:
                best_q, best_f = pts[gi], float(vals[gi])
            if f > best_f:
                best_q, best_f = q, f

    return best_q, best_f
