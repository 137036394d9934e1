import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocshift import (ConfigError, HierarchicalShift, InfeasibleOffsetError, NumericalError,
                        UncertaintyBudget, chi_square_div, gradmax, is_feasible,
                        offset_to_distribution, random_feasible_shift,
                        shift_from_dict, shift_to_dict, uniform_center)
from allocshift.oracle import _project_ball_simplex
from allocshift.uncertainty import _ball_simplex, _kkt_point


def simplex_grid(m, step):
    """All probability vectors on a lattice with the given step."""
    ticks = int(round(1.0 / step))
    if m == 2:
        a = np.arange(ticks + 1) / ticks
        return np.stack([a, 1 - a], axis=1)
    pts = []
    if m == 3:
        for i in range(ticks + 1):
            for j in range(ticks + 1 - i):
                pts.append((i / ticks, j / ticks, (ticks - i - j) / ticks))
    else:
        for i in range(ticks + 1):
            for j in range(ticks + 1 - i):
                for k in range(ticks + 1 - i - j):
                    pts.append((i / ticks, j / ticks, k / ticks,
                                (ticks - i - j - k) / ticks))
    return np.array(pts)


def grid_best(v, p, rho, step):
    pts = simplex_grid(len(v), step)
    divs = ((pts - p) ** 2 / p).sum(axis=1)
    pts = pts[divs <= rho + 1e-12]
    vals = pts @ v
    i = int(np.argmax(vals))
    return pts[i], float(vals[i])


def test_chi_square_frozen():
    q = np.array([0.4, 0.2, 0.2, 0.2])
    p = np.full(4, 0.25)
    assert chi_square_div(q, p) == pytest.approx(0.12, abs=1e-12)
    assert chi_square_div(p, p) == 0.0


def test_uncertainty_budget_validation():
    with pytest.raises(ValueError):
        UncertaintyBudget(rho_ind=-1.0, rho_xi=0.0)


def test_offset_round_trip():
    q = np.array([0.7, 0.1, 0.2])
    assert np.allclose(offset_to_distribution(q - 1.0 / 3.0), q)
    with pytest.raises(InfeasibleOffsetError):
        offset_to_distribution(np.array([0.9, -0.6]))  # coordinate below -1/m
    with pytest.raises(InfeasibleOffsetError):
        offset_to_distribution(np.array([0.5, 0.1]))  # does not sum to 0


@pytest.mark.parametrize("w", [[np.nan, 0.0], [np.inf, -np.inf], [0.1, np.nan, -0.1]])
def test_non_finite_offsets_are_infeasible(w):
    w = np.array(w)
    with pytest.raises(InfeasibleOffsetError):
        offset_to_distribution(w)
    with pytest.raises(InfeasibleOffsetError):
        HierarchicalShift(across=w, within=tuple(np.zeros(2) for _ in w))
    with pytest.raises(InfeasibleOffsetError):
        HierarchicalShift(across=np.zeros(1), within=(w,))
    p = uniform_center(w.size)
    with pytest.raises(ValueError):
        chi_square_div(w + p, p)
    with pytest.raises(ValueError):
        chi_square_div(p, w + p)


def test_nan_radius_rejected():
    with pytest.raises(ValueError):
        UncertaintyBudget(rho_ind=np.nan, rho_xi=1.0)
    with pytest.raises(ValueError):
        UncertaintyBudget(rho_ind=1.0, rho_xi=np.nan)


@pytest.mark.parametrize("rho_ind, rho_xi, match", [
    (np.inf, 1.0, "rho_ind must be finite and >= 0, got inf"),
    (1.0, np.inf, "rho_xi must be finite and >= 0, got inf"),
    ("1", 1.0, "rho_ind must be a number, got '1'"),
    (True, 1.0, "rho_ind must be a number, got True"),
])
def test_uncertainty_budget_follows_the_number_rule(rho_ind, rho_xi, match):
    # an infinite radius once ran a whole search that no report could hold, a
    # string raised a TypeError, and True read as 1
    with pytest.raises(ConfigError, match=match):
        UncertaintyBudget(rho_ind, rho_xi)


def test_gradmax_frozen_example():
    q = gradmax(np.array([1.0, 0.0]), uniform_center(2), 0.5)
    assert q[0] == pytest.approx(0.8535533905932737, abs=1e-9)
    assert q[1] == pytest.approx(0.1464466094067263, abs=1e-9)


def test_gradmax_degenerate_cases():
    u = uniform_center(3)
    assert np.allclose(gradmax(np.array([0.3, 0.3, 0.3]), u, 1.0), u)
    assert np.allclose(gradmax(np.array([5.0, 1.0, 0.0]), u, 0.0), u)
    # huge radius: vertex on the argmax, ties resolved to the smaller index
    big = gradmax(np.array([2.0, 2.0, 1.0]), u, 100.0)
    assert np.allclose(big, [1.0, 0.0, 0.0])
    assert np.allclose(gradmax(np.array([1.0, 0.0, 0.0]), u, 100.0), [1.0, 0.0, 0.0])
    # small radius with tied coordinates: mass splits across the tied pair
    tied = gradmax(np.array([2.0, 2.0, 1.0]), u, 0.1)
    assert tied[0] == pytest.approx(tied[1], abs=1e-12)
    assert tied[0] > 1.0 / 3.0 > tied[2]


def test_gradmax_beats_grid(rng):
    for trial in range(120):
        m = int(rng.integers(2, 5))
        p = uniform_center(m)
        v = rng.normal(size=m) * float(rng.uniform(0.5, 4))
        rho = float(rng.uniform(0.02, 2.0 * m))
        q = gradmax(v, p, rho)
        assert abs(q.sum() - 1.0) < 1e-9
        assert (q >= -1e-12).all()
        assert chi_square_div(np.maximum(q, 0) / q.sum(), p) <= rho + 1e-9
        step = 0.01 if m < 4 else 0.04
        _, val = grid_best(v, p, rho, step)
        assert q @ v >= val - 1e-3, (m, rho, trial)


def test_gradmax_nonuniform_center(rng):
    p = np.array([0.5, 0.3, 0.2])
    for _ in range(40):
        v = rng.normal(size=3)
        rho = float(rng.uniform(0.05, 3.0))
        q = gradmax(v, p, rho)
        assert chi_square_div(np.maximum(q, 0) / q.sum(), p) <= rho + 1e-9
        _, val = grid_best(v, p, rho, 0.01)
        assert q @ v >= val - 1e-3


def test_gradmax_dim4_matches_slsqp(rng):
    scipy_opt = pytest.importorskip("scipy.optimize")
    p = uniform_center(4)
    for _ in range(25):
        v = rng.normal(size=4)
        rho = float(rng.uniform(0.05, 3.0))
        q = gradmax(v, p, rho)
        res = scipy_opt.minimize(
            lambda x: -(x @ v), p, method="SLSQP",
            bounds=[(0.0, 1.0)] * 4,
            constraints=[{"type": "eq", "fun": lambda x: x.sum() - 1.0},
                         {"type": "ineq", "fun": lambda x: rho - ((x - p) ** 2 / p).sum()}],
            options={"maxiter": 200, "ftol": 1e-12})
        assert q @ v >= -res.fun - 1e-6


def test_gradmax_exact_zero_boundary():
    # item 0 sits exactly on the support boundary (its KKT value is 0), so
    # supports {1, 2} and {0, 1, 2} both fit, each only up to rounding
    q = gradmax(np.array([-0.4, 0.2, -0.0]), uniform_center(3), 0.56)
    assert np.allclose(q, [0.0, 0.6, 0.4], rtol=0, atol=1e-12)
    # the same on a support of mass P = 4e-8: lift's terms are about 1/P, so
    # rounding misses the boundary by far more than an absolute 1e-12. The
    # zero-valued items sit on it, and the optimum is q_A = v_A / sum(v_A)
    m, vals = 400, np.array([1.0, 0.5, 0.2, 0.1])
    p = np.full(m, (1 - 4e-8) / (m - 4))
    p[:4] = 1e-8
    v = np.zeros(m)
    v[:4] = vals
    rho = 40123455.79012345  # t^2 V + (1 - P)/P with t = 1 / (P vbar)
    q = gradmax(v, p, rho)
    assert np.allclose(q, np.append(vals / vals.sum(), np.zeros(m - 4)), rtol=0, atol=1e-10)
    assert chi_square_div(q, p) <= rho


def test_gradmax_reaches_the_ball():
    # the optimum lies on the ball, not strictly inside it
    p = uniform_center(6)
    q = gradmax(np.array([1.0, 0.2, -3.3, -0.2, -0.5, 0.9]), p, 4.5)
    assert abs(chi_square_div(q, p) - 4.5) <= 1e-12


@st.composite
def ball_problems(draw):
    """(v, center, rho, rng): a uniform or Dirichlet center, v rounded and
    sometimes tied, rho log-uniform over [1e-3, 2m]."""
    m = draw(st.integers(2, 12), label="m")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    alpha = draw(st.sampled_from([None, 1.0, 3.0]), label="dirichlet alpha")
    p = uniform_center(m) if alpha is None else rng.dirichlet(np.full(m, alpha))
    v = rng.normal(size=m) * draw(st.sampled_from([0.01, 1.0, 30.0]), label="scale")
    v = np.round(v, draw(st.sampled_from([0, 1, 3, 15]), label="decimals"))
    if draw(st.booleans(), label="ties"):
        v[rng.integers(0, m, size=m // 2)] = v[int(rng.integers(0, m))]
    rho = float(np.exp(draw(st.floats(np.log(1e-3), np.log(2.0 * m)), label="log rho")))
    return v, p, rho, rng


def feasible_points(p, rho, rng):
    """Vertices and Dirichlet draws, each pulled toward p onto or inside the ball."""
    m = p.shape[0]
    pts = np.concatenate([np.eye(m), rng.dirichlet(np.ones(m), size=8)])
    divs = ((pts - p) ** 2 / p).sum(axis=1)
    pull = np.minimum(1.0, np.sqrt(rho / divs))[:, None]
    return p + pull * (pts - p)


def assert_feasible(q, p, rho):
    assert abs(q.sum() - 1.0) <= 1e-12
    assert (q >= 0).all()
    assert chi_square_div(q, p) <= rho + 1e-12


@settings(max_examples=300, deadline=None, derandomize=True)
@given(problem=ball_problems())
def test_gradmax_property(problem):
    v, p, rho, rng = problem
    q = gradmax(v, p, rho)
    assert_feasible(q, p, rho)
    assert (v @ q >= feasible_points(p, rho, rng) @ v - 1e-12).all()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(problem=ball_problems())
def test_projection_property(problem):
    x, _, rho, rng = problem
    m = x.shape[0]
    u = uniform_center(m)
    # a batch: x, a permutation of it (same ties), and x plus noise
    rows = np.stack([x, rng.permutation(x), x + rng.normal(size=m) * max(np.ptp(x), 1e-3)])
    batch = _project_ball_simplex(rows, rho)
    feasible = feasible_points(u, rho, rng)
    for xi, q in zip(rows, batch):
        assert np.array_equal(q, _project_ball_simplex(xi, rho))
        assert_feasible(q, u, rho)
        # q is the projection iff <x - q, r - q> <= 0 for every feasible r
        assert ((feasible - q) @ (xi - q) <= 1e-9).all()


def test_ball_simplex_rows_match_one_row_calls():
    rng = np.random.default_rng(12)
    m = 8
    centers = [uniform_center(m), rng.dirichlet(np.full(m, 0.05))]
    assert (centers[1] > 0).all()
    for p in centers:
        v = rng.normal(size=(12, m))
        v[6:9] = np.round(v[6:9], 1)  # tied values
        v[9:, :2] = v[9:].max(axis=1, keepdims=True)  # tied maxima
        # t_max = inf needs an active ball: no vertex or tied face may fit
        big = p.max() + p[:2].sum()
        for rho, t_max in ((0.4 * (1 - big) / big, np.inf), (0.5, m), (2.0 * m, m)):
            batch = _ball_simplex(v, p, rho, t_max)
            for row, q in zip(v, batch):
                assert np.array_equal(q, _ball_simplex(row, p, rho, t_max))
                assert_feasible(q, p, rho)
    # frozen rows: an exact-zero support boundary (see
    # test_gradmax_exact_zero_boundary), and rows whose rounding leaves q
    # outside the ball so it is pulled toward the center
    for v, rho, t_max in (([-0.4, 0.2, -0.0], 0.56, np.inf),
                          ([1.5, -1.5, -2.5, 0.6], 2.95, np.inf),
                          ([-0.7, -0.2, -0.5, 0.6, 0.0, -0.3], 2.45, 6.0)):
        m = len(v)
        p = uniform_center(m)
        rows = np.vstack([v, rng.normal(size=(3, m))])
        batch = _ball_simplex(rows, p, rho, t_max)
        for row, q in zip(rows, batch):
            assert np.array_equal(q, _ball_simplex(row, p, rho, t_max))
        assert chi_square_div(batch[0], p) <= rho
    assert np.allclose(_ball_simplex(np.array([[-0.4, 0.2, -0.0]]), uniform_center(3), 0.56,
                                     np.inf), [[0.0, 0.6, 0.4]], rtol=0, atol=1e-12)


def test_ball_simplex_batch_raises_for_one_bad_row():
    # a NaN row has no KKT-consistent support; a constant row, which has none
    # with a finite scale either, takes the t -> inf limit: the center
    p = uniform_center(4)
    rows = np.array([[0.3, -0.2, 0.1, 0.5], [0.7, np.nan, 0.7, 0.7], [1.0, 0.0, -1.0, 0.2]])
    for row in rows[[0, 2]]:
        _ball_simplex(row, p, 0.5, np.inf)
    with pytest.raises(NumericalError, match="no KKT-consistent support"):
        _ball_simplex(rows, p, 0.5, np.inf)
    rows[1] = 0.7
    assert np.array_equal(_ball_simplex(rows, p, 0.5, np.inf)[1], p)


def reference_gradmax(v, p, rho):
    """gradmax as a chain of one-row cases: the center for rho = 0 or a
    constant v, the best vertex if it fits, the tied face if it fits, and the
    closed-form KKT point with t uncapped otherwise."""
    if rho == 0 or np.ptp(v) <= 1e-14 * max(1.0, float(np.abs(v).max())):
        return p.copy(), "center"
    best = int(np.argmax(v))
    vertex = np.zeros_like(p)
    vertex[best] = 1.0
    if float(((vertex - p) ** 2 / p).sum()) <= rho + 1e-12:
        return vertex, "vertex"
    tie = v >= v[best] - 1e-12 * max(1.0, abs(float(v[best])))
    if tie.sum() > 1:
        face = np.where(tie, p, 0.0)
        face = face / face.sum()
        if float(((face - p) ** 2 / p).sum()) <= rho + 1e-12:
            return face, "face"
    return _kkt_point(v[None, :], p, rho, np.array([[np.inf]]))[0], "ball"


def assert_linear_oracle_rows(rows, p, rho):
    """Each row of one batched t_max = inf call is bitwise its reference, and a
    batch mixing t_max = inf and t_max = m rows gives each row its own solve."""
    batch = _ball_simplex(rows, p, rho, np.inf)
    cases = []
    for row, q in zip(rows, batch):
        want, case = reference_gradmax(row, p, rho)
        assert np.array_equal(q, want), (row, case)
        assert np.array_equal(gradmax(row, p, rho), want), (row, case)
        cases.append(case)
    m = rows.shape[1]
    mixed = _ball_simplex(np.vstack([rows, rows]), p, rho,
                          np.repeat([np.inf, m], rows.shape[0]))
    assert np.array_equal(mixed[:rows.shape[0]], batch)
    assert np.array_equal(mixed[rows.shape[0]:], _ball_simplex(rows, p, rho, float(m)))
    return cases


def test_linear_oracle_pinned_cases():
    u = uniform_center(8)
    cases = {
        "vertex": ([np.arange(8.0)], 10.0),  # every vertex fits at rho 10 > m - 1
        "face": ([[3.0, 3, 3, 1, 0, 0, 0, 0]], 2.0),  # no vertex fits; the tied face does
        "center": ([np.ones(8), np.full(8, -2.5)], 0.3),
        "ball": ([np.arange(8.0), [3.0, 3, 3, 1, 0, 0, 0, 0]], 0.3),
    }
    for case, (rows, rho) in cases.items():
        assert assert_linear_oracle_rows(np.array(rows, dtype=np.float64), u, rho) == \
            [case] * len(rows)
    got = _ball_simplex(np.array([np.arange(8.0), [3.0, 3, 3, 1, 0, 0, 0, 0], np.ones(8)]),
                        u, 10.0, np.inf)
    assert np.array_equal(got[0], np.eye(8)[7])
    assert np.array_equal(got[2], u)
    assert np.array_equal(_ball_simplex(np.array([3.0, 3, 3, 1, 0, 0, 0, 0]), u, 2.0, np.inf),
                          np.array([1 / 3, 1 / 3, 1 / 3, 0, 0, 0, 0, 0]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(problem=ball_problems())
def test_linear_oracle_property(problem):
    v, p, rho, rng = problem
    m = v.shape[0]
    tied = v.copy()
    tied[rng.permutation(m)[:2]] = v.max()
    rows = np.stack([v, tied, np.full(m, v[0]), rng.normal(size=m), rng.permutation(v)])
    assert_linear_oracle_rows(rows, p, rho)


def test_hierarchical_shift_validation():
    with pytest.raises(InfeasibleOffsetError):
        HierarchicalShift(across=np.array([0.5, 0.1]), within=(np.zeros(2), np.zeros(2)))
    shift = HierarchicalShift(across=np.array([0.25, -0.25]),
                              within=(np.array([0.1, -0.1]), np.zeros(2)))
    assert np.allclose(shift.instance_distribution, [0.75, 0.25])
    assert np.allclose(shift.individual_distribution(0), [0.6, 0.4])


def test_shift_dict_round_trip():
    budget = UncertaintyBudget(rho_ind=1.0, rho_xi=0.5)
    shift = HierarchicalShift(across=np.array([0.25, -0.25]),
                              within=(np.array([0.1, -0.1]), np.array([0.0, 0.0])))
    raw = shift_to_dict(shift, ["a", "b"], budget)
    again, ids, budget2 = shift_from_dict(raw)
    assert ids == ["a", "b"]
    assert budget2 == budget
    assert np.allclose(again.across, shift.across)
    for w1, w2 in zip(again.within, shift.within):
        assert np.allclose(w1, w2)


def test_is_feasible_reports_violation():
    budget = UncertaintyBudget(rho_ind=0.01, rho_xi=100.0)
    shift = HierarchicalShift(across=np.array([0.25, -0.25]),
                              within=(np.array([0.3, -0.3]), np.zeros(2)))
    ok, why = is_feasible(shift, budget)
    assert not ok and "instance" in why
    ok2, why2 = is_feasible(shift, UncertaintyBudget(rho_ind=10.0, rho_xi=10.0))
    assert ok2 and why2 is None


def test_random_feasible_shift(rng):
    budget = UncertaintyBudget(rho_ind=0.5, rho_xi=0.25)
    for _ in range(30):
        shift = random_feasible_shift([3, 4, 2], budget, rng)
        ok, why = is_feasible(shift, budget)
        assert ok, why


@settings(max_examples=300, deadline=None, derandomize=True)
@given(problem=ball_problems())
def test_gradmax_batch_rows_match_one_row_calls(problem):
    v, p, rho, rng = problem
    m = v.shape[0]
    tied = v.copy()
    tied[rng.permutation(m)[:2]] = v.max()
    rows = np.stack([v, tied, np.full(m, v[0]), rng.normal(size=m), rng.permutation(v)])
    # and rows five times as wide, past numpy's 8-way unrolled row sums
    wide = np.round(rng.normal(size=(6, 5 * m)), 1)
    for rows, p in ((rows, p), (wide, uniform_center(5 * m))):
        batch = gradmax(rows, p, rho)
        assert batch.shape == rows.shape
        for row, q in zip(rows, batch):
            assert q.tobytes() == gradmax(row, p, rho).tobytes()


def test_gradmax_rejects_mismatched_shapes():
    u = uniform_center(3)
    for v in (np.zeros(4), np.zeros((2, 4)), np.zeros((2, 2, 3)), np.float64(1.0)):
        with pytest.raises(ValueError, match="length mismatch"):
            gradmax(v, u, 1.0)
    with pytest.raises(ValueError, match="length mismatch"):
        gradmax(np.zeros(3), np.full((1, 3), 1 / 3), 1.0)
