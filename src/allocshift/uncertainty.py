"""Chi-square uncertainty sets over instance and individual weights.

Divergence convention: D(q, p) = sum((q_i - p_i)^2 / p_i), with no 1/2 factor.
Offsets are distributions minus the uniform center, so the zero offset is the
empirical (uniform over observed support) distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfeasibleOffsetError, NumericalError, _set_number

_SUM_TOL = 1e-9
_FEAS_TOL = 1e-9
_KKT_TOL = 1e-12  # relative: rounding puts exact-zero support boundaries on either side


@dataclass(frozen=True)
class UncertaintyBudget:
    """Radii of the two chi-square balls: within-instance and across-instance."""

    rho_ind: float
    rho_xi: float

    def __post_init__(self):
        for name in ("rho_ind", "rho_xi"):
            _set_number(self, name, float)
            if not 0 <= getattr(self, name) < np.inf:  # NaN fails too
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")


def chi_square_div(q: np.ndarray, p: np.ndarray) -> float:
    """sum((q - p)^2 / p). Both arguments must be probability vectors; p strictly positive."""
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if q.shape != p.shape:
        raise ValueError(f"length mismatch: q has shape {q.shape}, p has shape {p.shape}")
    if not (np.isfinite(q).all() and np.isfinite(p).all()):
        raise ValueError("q and p must be finite")
    if np.any(p <= 0):
        raise ValueError("p must be strictly positive in every coordinate")
    if abs(q.sum() - 1.0) > _SUM_TOL or np.any(q < -_SUM_TOL):
        raise ValueError("q is not a probability vector")
    if abs(p.sum() - 1.0) > _SUM_TOL:
        raise ValueError("p is not a probability vector")
    return float(((q - p) ** 2 / p).sum())


def uniform_center(m: int) -> np.ndarray:
    if m < 1:
        raise ValueError(f"need at least one coordinate, got {m}")
    return np.full(m, 1.0 / m)


def offset_to_distribution(w: np.ndarray) -> np.ndarray:
    """q = w + 1/m. The offset must be finite, sum to zero and keep every coordinate >= 0."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] < 1:
        raise InfeasibleOffsetError(f"offset must be a non-empty vector, got shape {w.shape}")
    m = w.shape[0]
    if not np.isfinite(w).all():
        raise InfeasibleOffsetError(f"offset coordinate {int(np.argmin(np.isfinite(w)))} is not finite")
    if abs(w.sum()) > _SUM_TOL:
        raise InfeasibleOffsetError(f"offset sums to {w.sum():.3e}, expected 0")
    q = w + 1.0 / m
    if np.any(q < -_SUM_TOL):
        raise InfeasibleOffsetError(f"offset drives coordinate {int(np.argmin(q))} below zero")
    return np.maximum(q, 0.0)


@dataclass(frozen=True, eq=False)
class HierarchicalShift:
    """Across-instance offset plus one within-instance offset per pool."""

    across: np.ndarray
    within: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "across", np.asarray(self.across, dtype=np.float64))
        object.__setattr__(self, "within", tuple(np.asarray(w, dtype=np.float64) for w in self.within))
        offset_to_distribution(self.across)  # validates
        if self.across.shape[0] != len(self.within):
            raise InfeasibleOffsetError(
                f"across offset has {self.across.shape[0]} entries but there are {len(self.within)} pools")
        for j, w in enumerate(self.within):
            try:
                offset_to_distribution(w)
            except InfeasibleOffsetError as exc:
                raise InfeasibleOffsetError(f"instance {j}: {exc}") from exc

    @property
    def instance_distribution(self) -> np.ndarray:
        return offset_to_distribution(self.across)

    def individual_distribution(self, j: int) -> np.ndarray:
        return offset_to_distribution(self.within[j])


def shift_to_dict(shift: HierarchicalShift, instance_ids: list[str],
                  budget: UncertaintyBudget) -> dict:
    return {
        "across": shift.across.tolist(),
        "within": {iid: shift.within[j].tolist() for j, iid in enumerate(instance_ids)},
        "instance_ids": list(instance_ids),
        "budget": {"rho_ind": budget.rho_ind, "rho_xi": budget.rho_xi},
    }


def shift_from_dict(raw: dict) -> tuple[HierarchicalShift, list[str], UncertaintyBudget]:
    ids = list(raw["instance_ids"])
    shift = HierarchicalShift(
        across=np.array(raw["across"], dtype=np.float64),
        within=tuple(np.array(raw["within"][iid], dtype=np.float64) for iid in ids),
    )
    budget = UncertaintyBudget(rho_ind=raw["budget"]["rho_ind"], rho_xi=raw["budget"]["rho_xi"])
    return shift, ids, budget


def is_feasible(shift: HierarchicalShift, budget: UncertaintyBudget) -> tuple[bool, str | None]:
    """Check every ball constraint; returns (flag, first violation description).
    The simplex constraints hold already: HierarchicalShift checks them when built."""
    div = chi_square_div(shift.instance_distribution, uniform_center(shift.across.shape[0]))
    if div > budget.rho_xi + _FEAS_TOL:
        return False, f"across offset: divergence {div:.6f} exceeds rho_xi {budget.rho_xi:.6f}"
    for j, w in enumerate(shift.within):
        div = chi_square_div(shift.individual_distribution(j), uniform_center(w.shape[0]))
        if div > budget.rho_ind + _FEAS_TOL:
            return False, f"instance {j}: divergence {div:.6f} exceeds rho_ind {budget.rho_ind:.6f}"
    return True, None


def _ball_simplex(v: np.ndarray, p: np.ndarray, rho: float,
                  t_max: float | np.ndarray) -> np.ndarray:
    """The point q_i = p_i (1 + t (v_i - mu))_+ on the simplex with D(q, p) <= rho,
    taking the largest scale t <= t_max the ball allows, for one row v of shape
    (m,) or for each row of a batch (R, m); every row shares p and rho, and
    t_max is a scalar or one value per row.

    This is the KKT point of both ball-and-simplex problems: argmax <v, q>
    (t_max = inf, gradmax) and, around the uniform center, the Euclidean
    projection of v (t_max = m, oracle). Rho = 0 gives the center. A row with
    t_max = inf whose ball allows any t takes the limit t -> inf, the first of:
    the center if v is constant; the best vertex (ties toward the smaller
    index) if it fits; the center on a tied maximum's face if that fits.
    Otherwise the support A is a top-k set of v; with mass P, p-weighted mean
    vbar and variance V, the sum gives q_A = p_A (1/P + t (v_A - vbar)) and
    D(q, p) = t^2 V + (1 - P)/P, so t = min(t_max, sqrt((rho - (1 - P)/P) / V)).
    One row-wise sort and cumulative sums score every k at once, and each row's
    q is read off its KKT-consistent k (last member >= 0, next item <= 0, each
    relative to the size of the terms). O(R m log m); a row is computed the same
    way, bit for bit, alone or in a batch.
    """
    rows = np.atleast_2d(v)
    if rho == 0:
        return np.broadcast_to(p, np.shape(v)).copy()
    cap = np.empty((rows.shape[0], 1))
    cap[:, 0] = t_max

    def fits(x):
        return ((x - p) ** 2 / p).sum(axis=1, keepdims=True) <= rho + 1e-12

    top, low = rows.max(axis=1, keepdims=True), rows.min(axis=1, keepdims=True)
    limit = np.isinf(cap)
    flat = limit & (top - low <= 1e-14 * np.maximum(1.0, np.maximum(top, -low)))
    vertex = np.arange(rows.shape[1]) == rows.argmax(axis=1)[:, None]
    at_vertex = limit & fits(vertex)
    tie = rows >= top - 1e-12 * np.maximum(1.0, np.abs(top))
    on_face, face = limit & (tie.sum(axis=1, keepdims=True) > 1), 0.0
    if on_face.any():
        face = np.where(tie, p, 0.0)
        np.divide(face, face.sum(axis=1, keepdims=True), out=face, where=on_face)
        on_face &= fits(face)
    rest = ~(flat | at_vertex | on_face)[:, 0]
    if rest.all():  # the general path gives these rows bitwise, 4-22 us slower per call at m = 8
        return _kkt_point(rows, p, rho, cap).reshape(np.shape(v))
    q = np.where(flat, p, np.where(at_vertex, vertex, np.where(on_face, face, 0.0)))
    if rest.any():
        q[rest] = _kkt_point(rows[rest], p, rho, cap[rest])
    return q.reshape(np.shape(v))


def _kkt_point(rows: np.ndarray, p: np.ndarray, rho: float, t_max: np.ndarray) -> np.ndarray:
    """_ball_simplex's closed-form point for rows (R, m) of finite scale; t_max is (R, 1)."""
    r = np.arange(rows.shape[0])[:, None]
    order = np.argsort(-rows, axis=1, kind="stable")
    ps = p[order]
    vs = rows[r, order]
    vs = vs - vs[:, :1]  # the problem is shift invariant
    mass = np.cumsum(ps, axis=1)
    vbar = np.cumsum(ps * vs, axis=1) / mass
    # weighted Welford sums: b - a^2/P would cancel on a nearly tied support
    prev = np.concatenate([np.zeros((rows.shape[0], 1)), vbar[:, :-1]], axis=1)
    var = np.cumsum(ps * (vs - prev) * (vs - vbar), axis=1)
    inv = 1.0 / mass
    slack = rho + 1.0 - inv
    nxt = np.concatenate([vs[:, 1:], vs[:, -1:]], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.minimum(np.where(var > 0, np.sqrt(slack / var), np.inf), t_max)  # nan: no t fits
        last = inv + t * (vs - vbar)
        following = inv + t * (nxt - vbar)
        following[:, -1] = -np.inf
        # lift's terms are 1/P and t |v - vbar| <= t |v_next|; rounding grows with them
        miss = np.where((slack >= 0) & np.isfinite(t),
                        np.maximum(-last, following) / (inv - t * nxt), np.inf)
    k = np.argmin(miss, axis=1)[:, None]  # each row's support is its first k + 1 items
    if not (miss[r, k] <= _KKT_TOL).all():
        raise NumericalError(f"no KKT-consistent support for the ball of radius {rho!r}")

    lift = inv[r, k] + t[r, k] * (vs - vbar[r, k])
    q = np.zeros(rows.shape)
    q[r, order] = np.where(np.arange(rows.shape[1]) <= k, np.maximum(ps * lift, 0.0), 0.0)
    q /= q.sum(axis=1, keepdims=True)
    div = ((q - p) ** 2 / p).sum(axis=1, keepdims=True)
    out = div > rho  # rounding left q just outside: pull it toward the center
    if out.any():
        q = np.where(out, p + (q - p) * np.sqrt(rho / np.maximum(div, rho)), q)
    return q


def gradmax(v: np.ndarray, rho: float) -> np.ndarray:
    """argmax of <v, q> over the simplex intersected with the chi-square ball
    around the uniform center, for one v of shape (m,) or for each row of a
    batch (R, m): _ball_simplex with t_max = inf, which documents the constant,
    vertex and tied-face cases. Each row of a batch is bitwise its one-row
    call. Positive rescaling of v leaves the argmax unchanged."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2):
        raise ValueError(f"v must have shape (m,) or (R, m), got {v.shape}")
    if not rho >= 0:  # NaN fails too
        raise ValueError(f"rho must be >= 0, got {rho}")
    return _ball_simplex(v, uniform_center(v.shape[-1]), rho, np.inf)


def random_feasible_shift(pool_sizes: list[int], budget: UncertaintyBudget,
                          rng: np.random.Generator) -> HierarchicalShift:
    """Draw a random shift strictly inside both balls: a Dirichlet draw, pulled
    toward uniform to at most 0.95 of each ball's radius."""
    def pull(m: int, rho: float) -> np.ndarray:
        u = uniform_center(m)
        if m == 1 or rho == 0:
            return np.zeros(m)
        x = rng.dirichlet(np.ones(m))
        div = chi_square_div(x, u)
        if div > 0:
            t = min(1.0, 0.95 * float(np.sqrt(rho / div)))
        else:
            t = 1.0
        q = u + t * (x - u)
        return q - u

    k = len(pool_sizes)
    return HierarchicalShift(
        across=pull(k, budget.rho_xi),
        within=tuple(pull(m, budget.rho_ind) for m in pool_sizes),
    )
