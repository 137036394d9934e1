import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from allocshift import (NumericalError, chi_square_div, gradmax,
                        enumerate_problems, enumeration_size, exact_gradient,
                        exact_hessian, exact_objective, oracle_maximize,
                        pool_data)
from allocshift import oracle
from allocshift.losses import MisclassRate, TopK
from allocshift.oracle import _ascend, _project_ball_simplex
from allocshift.uncertainty import _ball_simplex
from conftest import random_binary_setup, random_regression_setup, tiny_setup

from conftest import binary_specs, regression_specs


def tiny_enum(labels, scores, draw_size, losses=None):
    """Enumeration for a small pool; optionally overwrite the per-multiset losses."""
    _, pool, predictor = tiny_setup("p", labels, scores)
    spec = MisclassRate()
    enum = enumerate_problems(spec, pool_data(pool, predictor, spec), draw_size)
    if losses is not None:
        enum = dataclasses.replace(enum, losses=np.asarray(losses, dtype=np.float64))
    return enum


def test_enumeration_counts_and_coeffs():
    enum = tiny_enum([0, 1], [0.2, 0.8], 2)
    assert enumeration_size(2, 2) == 3
    assert enum.counts.tolist() == [[2, 0], [1, 1], [0, 2]]
    assert enum.coeffs.tolist() == [1.0, 2.0, 1.0]
    # three individuals, two draws: C(4, 2) = 6 multisets, coeff 2 on mixed rows
    enum3 = tiny_enum([0, 1, 0], [0.2, 0.8, 0.4], 2)
    assert enum3.counts.shape == (6, 3)
    assert sorted(enum3.coeffs.tolist()) == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    assert enum3.coeffs.sum() == 2**2 + 5  # sum of multinomials = m^n


def test_enumeration_cap_names_size(monkeypatch):
    monkeypatch.setattr(oracle, "ENUM_CAP", 10)
    _, pool, predictor = tiny_setup("p", [0, 1, 0, 1], [0.2, 0.8, 0.4, 0.6])
    spec = MisclassRate()
    with pytest.raises(NumericalError, match=r"C\(4\+3-1, 3\) = 20"):
        enumerate_problems(spec, pool_data(pool, predictor, spec), 3)


def test_enumeration_multinomials_exact_and_bounded():
    # up to 22! the coefficients are the correctly rounded n! / prod c!
    enum = tiny_enum([0, 1, 0], [0.2, 0.8, 0.4], 22)
    want = [math.factorial(22) / math.prod(math.factorial(int(c)) for c in row)
            for row in enum.counts]
    assert enum.coeffs.tolist() == want
    # 1000! overflows float64, but C(1000, k) does not
    _, pool, predictor = tiny_setup("p", [0, 1], [0.2, 0.8])
    spec = MisclassRate()
    pd = pool_data(pool, predictor, spec)
    enum = enumerate_problems(spec, pd, 1000)
    want = np.array([float(math.comb(1000, int(c))) for c in enum.counts[:, 0]])
    assert np.allclose(enum.coeffs, want, rtol=1e-14, atol=0)
    # C(1100, 550) does: only 1101 multisets, under the cap, yet unrepresentable
    with pytest.raises(NumericalError, match="1100 draws from a pool of 2"):
        enumerate_problems(spec, pd, 1100)


@pytest.mark.parametrize("m, draws", [(2, range(1025, 1035)), (3, range(650, 656))])
def test_enumeration_check_reads_the_largest_multinomial(monkeypatch, m, draws):
    # the most even counts have the largest coefficient, so check_enumeration's
    # one-row test agrees with every coefficient of the enumeration across the
    # float64 boundary (n = 1030 for m = 2, 653 for m = 3)
    monkeypatch.setattr(oracle, "ENUM_CAP", 10**6)
    for n in draws:
        c = np.arange(n + 1)
        if m == 2:
            counts = np.stack([c, n - c], axis=1)
        else:
            a, b = np.triu_indices(n + 1)
            counts = np.stack([a, b - a, n - b], axis=1)
        fits = np.isfinite(oracle._multinomials(counts, n)).all()
        try:
            oracle.check_enumeration(m, n)
        except NumericalError as exc:
            assert not fits and f"{n} draws from a pool of {m}" in str(exc), n
        else:
            assert fits, n


def test_exact_objective_frozen():
    enum = tiny_enum([0, 1], [0.2, 0.8], 2, losses=[-1.0, -0.5, 0.0])
    assert exact_objective(enum, np.array([0.5, 0.5])) == pytest.approx(-0.5, abs=1e-15)
    # vertex: only the pure-A multiset survives
    assert exact_objective(enum, np.array([1.0, 0.0])) == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(ValueError):
        exact_objective(enum, np.array([0.5, 0.3, 0.2]))


def test_exact_objective_batch_matches_loop(rng):
    enum = tiny_enum([0, 1, 1], [0.2, 0.8, 0.6], 3)
    qs = rng.dirichlet(np.ones(3), size=50)
    batch = exact_objective(enum, qs)
    looped = np.array([exact_objective(enum, q) for q in qs])
    assert np.allclose(batch, looped, atol=1e-14)


def test_terms_kernel_holds_one_buffer(rng):
    # the exponential and the coefficient product are taken in place, so the
    # kernel's traced peak is one (rows, multisets) array plus small temporaries,
    # and every term is bitwise the unfused product
    _, pool, predictor = random_binary_setup(rng, m=8)
    spec = MisclassRate()
    enum = enumerate_problems(spec, pool_data(pool, predictor, spec), 6)
    qs = rng.dirichlet(np.ones(8), size=40)
    tracemalloc.start()
    try:
        terms = oracle._terms(enum, qs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * terms.nbytes, peak / terms.nbytes
    log_q = np.log(np.maximum(qs, oracle._TINY))
    assert np.array_equal(terms, enum.coeffs * enum.losses * np.exp(log_q @ enum.counts.T))


def central_diff_gradient(enum, q, h=1e-6):
    g = np.zeros_like(q)
    for a in range(len(q)):
        e = np.zeros_like(q)
        e[a] = h
        g[a] = (exact_objective(enum, q + e) - exact_objective(enum, q - e)) / (2 * h)
    return g


def test_exact_gradient_matches_finite_differences(rng):
    for labels, scores, n in ([[0, 1], [0.3, 0.7], 2],
                              [[0, 1, 1], [0.2, 0.8, 0.6], 3]):
        enum = tiny_enum(labels, scores, n, losses=rng.uniform(-1, 0, enum_size(len(labels), n)))
        for _ in range(10):
            q = rng.dirichlet(np.ones(len(labels)))
            q = 0.9 * q + 0.1 / len(labels)  # keep away from the boundary
            assert np.allclose(exact_gradient(enum, q),
                               central_diff_gradient(enum, q), atol=1e-6)


def enum_size(m, n):
    return enumeration_size(m, n)


def test_exact_gradient_boundary_limit():
    # F = -qA^2 - qA qB with qA = 0: dF/dqA -> -qB, dF/dqB -> 0
    enum = tiny_enum([0, 1], [0.2, 0.8], 2, losses=[-1.0, -0.5, 0.0])
    g = exact_gradient(enum, np.array([0.0, 1.0]))
    assert g == pytest.approx([-1.0, 0.0], abs=1e-12)
    with pytest.raises(ValueError):
        exact_gradient(enum, np.array([-0.1, 1.1]))


def test_exact_hessian_frozen():
    # F(q) = -qA^2 - qA qB: d2/dA2 = -2, d2/dAdB = -1, d2/dB2 = 0
    enum = tiny_enum([0, 1], [0.2, 0.8], 2, losses=[-1.0, -0.5, 0.0])
    hess = exact_hessian(enum, np.array([0.3, 0.7]))
    assert np.allclose(hess, [[-2.0, -1.0], [-1.0, 0.0]], atol=1e-12)
    with pytest.raises(ValueError):
        exact_hessian(enum, np.array([0.0, 1.0]))


def test_exact_hessian_matches_finite_differences(rng):
    enum = tiny_enum([0, 1, 1], [0.2, 0.8, 0.6], 2,
                     losses=rng.uniform(-1, 0, enum_size(3, 2)))
    q = np.array([0.3, 0.45, 0.25])
    hess = exact_hessian(enum, q)
    h = 1e-5
    for a in range(3):
        e = np.zeros(3)
        e[a] = h
        fd = (central_diff_gradient(enum, q + e) - central_diff_gradient(enum, q - e)) / (2 * h)
        assert np.allclose(hess[a], fd, atol=1e-4)
    assert np.allclose(hess, hess.T, atol=1e-12)


def test_dr_submodular_on_random_instances(rng):
    for trial in range(12):
        if trial % 2 == 0:
            _, pool, predictor = random_binary_setup(rng, m=4)
            specs = binary_specs(4, 2)
        else:
            _, pool, predictor = random_regression_setup(rng, m=4)
            specs = regression_specs()
        for spec in specs:
            enum = enumerate_problems(spec, pool_data(pool, predictor, spec), 2)
            for _ in range(5):
                q = rng.dirichlet(np.ones(4)) * 0.9 + 0.025
                assert np.all(exact_hessian(enum, q) <= 1e-9), (trial, spec.kind)


def test_project_ball_simplex(rng):
    for _ in range(100):
        m = int(rng.integers(2, 6))
        rho = float(rng.uniform(0.05, 2.0))
        x = rng.normal(size=m)
        p = _project_ball_simplex(x, rho)
        u = np.full(m, 1.0 / m)
        assert abs(p.sum() - 1.0) < 1e-9
        assert (p >= -1e-12).all()
        assert chi_square_div(np.maximum(p, 0) / p.sum(), u) <= rho + 1e-9
        # projecting a feasible point is (nearly) the identity
        again = _project_ball_simplex(p, rho)
        assert np.allclose(again, p, atol=1e-8)


def sequential_ascent(enum, q0, rho):
    """One start at a time in a plain loop: the reference for the lockstep
    _ascend. Also returns the rule that stopped it and its number of trials."""
    q, f, g, trials = q0, exact_objective(enum, q0), exact_gradient(enum, q0), 0
    step = 0.1 / (np.sqrt((g * g).sum()) + 1e-12)
    for _ in range(250):
        if ((gradmax(g, rho) - q) * g).sum() <= \
                oracle._GAP_TOL * max(1.0, abs(f)):
            return q, f, "gap", trials
        for _ in range(30):
            trials += 1
            q_try = _project_ball_simplex(q + step * g, rho)
            f_try = exact_objective(enum, q_try)
            if f_try > f + 1e-14:
                g_try = exact_gradient(enum, q_try)
                s, y = q_try - q, g - g_try  # Barzilai-Borwein, clipped to [1/4, 4] x step
                bb = (s * s).sum() / (s * y).sum() if (s * y).sum() > 0 else np.inf
                q, f, g, step = q_try, f_try, g_try, min(max(bb, step / 4), 4 * step)
                break
            step *= 0.5
            if step < 1e-13:
                return q, f, "step floor", trials
        else:
            return q, f, "30 rejections", trials
    return q, f, "250 steps", trials


def test_ascend_matches_sequential_reference(monkeypatch):
    rng = np.random.default_rng(4)
    enum = tiny_enum([0] * 5, rng.uniform(0.1, 0.9, 5), 4,
                     losses=-1e3 * rng.uniform(0, 1, enum_size(5, 4)))
    rho = float(rng.uniform(0.05, 1.5))
    q0 = _project_ball_simplex(rng.dirichlet(np.ones(5), size=10), rho)

    q, f = _ascend(enum, q0, rho)
    ref = [sequential_ascent(enum, row, rho) for row in q0]
    for i, (q_ref, f_ref, _, _) in enumerate(ref):
        # a batched matmul rounds differently from a one-row one; where F is
        # flat near the optimum that can flip an accept decision, which moves
        # q by up to about 1e-8 and F only in its last bits
        assert abs(f[i] - f_ref) <= 1e-12 * abs(f_ref), (i, f[i], f_ref)
        assert np.allclose(q[i], q_ref, rtol=0, atol=1e-6), (i, q[i], q_ref)

    # elementwise forms of the same sums round alike for a row alone and in
    # any batch, so with them each row must retrace its reference exactly,
    # trial for trial, whichever rule stops it
    def terms(enum, q):
        logq = np.log(np.maximum(q, oracle._TINY))
        return enum.coeffs * enum.losses * np.exp((logq[..., None, :] * enum.counts).sum(-1))

    def gradient(enum, terms, q):
        return (terms[..., :, None] * enum.counts).sum(-2) / np.maximum(q, oracle._TINY)

    live = []

    def solve(v, p, rho, t_max):
        live.append(int(np.isfinite(t_max).sum()))
        return _ball_simplex(v, p, rho, t_max)

    monkeypatch.setattr(oracle, "_terms", terms)
    monkeypatch.setattr(oracle, "_gradient_from_terms", gradient)
    monkeypatch.setattr(oracle, "_ball_simplex", solve)
    # at the module's tolerance and at 1e-8 the gap stops every row; at 1e-8
    # three rows pass through a gap in (1e-8, 2e-8], so a gap computed 2x off
    # moves where they stop. At -inf it stops none; the backstops stop them all.
    # The fixture is a 5-person pool with 4 draws (70 multisets): on smaller
    # ones the spectral step stops most rows after 5-9 trials, so too few
    # rows stop at distinct rounds for the count check below to mean much
    reasons = set()
    for tol in (oracle._GAP_TOL, 1e-8, -np.inf):
        monkeypatch.setattr(oracle, "_GAP_TOL", tol)
        live.clear()
        q, f = _ascend(enum, q0, rho)
        rounds = live[:]
        ref = [sequential_ascent(enum, row, rho) for row in q0]
        reasons |= {r[2] for r in ref}
        assert len({r[3] for r in ref}) > len(ref) // 2  # rows stop at different rounds
        # the trials projected in round t are those of the rows with at least
        # t trials, and of the rows whose gap stops them after t - 1
        ends = [r[3] + (r[2] == "gap") for r in ref]
        assert rounds == [sum(e >= t for e in ends) for t in range(1, max(ends) + 1)]
        for i, (q_ref, f_ref, _, _) in enumerate(ref):
            assert np.array_equal(q[i], q_ref) and f[i] == f_ref, i
    assert reasons == {"gap", "250 steps", "30 rejections", "step floor"}


def test_gap_rule_costs_at_most_its_tolerance(monkeypatch):
    # stopping each ascent row at a gap of _GAP_TOL * max(1, |F|) ends it on a
    # prefix of the path it takes at _GAP_TOL = 0 (where only a gap <= 0
    # stops it), so the optimum can only fall; batches of other sizes round F
    # in its last bits, hence the few-ulp allowance. F need not be concave, so
    # the gap does not bound the shortfall; with the spectral step it was at
    # most 1.2e-7 relative over 700 random enumerations (pools of 2-5, draws of
    # 2-4), and is held to _GAP_TOL here
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(16):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        if trial % 2 == 0:
            _, pool, predictor = random_binary_setup(rng, m=m)
            specs = binary_specs(m, n)
        else:
            _, pool, predictor = random_regression_setup(rng, m=m)
            specs = regression_specs()
        rho = float(rng.uniform(0.05, m))
        for spec in specs:
            enum = enumerate_problems(spec, pool_data(pool, predictor, spec), n)
            _, val = oracle_maximize(enum, rho, restarts=6, seed=trial)
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_GAP_TOL", 0.0)
                _, full = oracle_maximize(enum, rho, restarts=6, seed=trial)
            scale = max(1.0, abs(full))
            assert val <= full + 4e-16 * scale, (trial, spec, val, full)
            assert full - val <= oracle._GAP_TOL * scale, (trial, spec, val, full)
            worst = max(worst, (full - val) / scale)
    assert worst > 0  # the rule did stop some rows short


def test_spectral_step_loses_no_optimum(monkeypatch):
    # _ascend's clipped Barzilai-Borwein step against the rule it replaced,
    # which grew an accepted step by 1.3: on every enumeration the optimum may
    # fall by at most the gap rule's tolerance, and the solver calls (one per
    # ascent round, plus one start projection per maximize) must fall in total.
    # Over these 24 pools (84 enumerations) the largest fall was 2.0e-8
    # relative, and the calls fell from 2837 to 1805
    rng = np.random.default_rng(1988)
    calls = {"spectral": 0, "grow": 0}
    rule = ["spectral"]

    def counted(*args):
        calls[rule[0]] += 1
        return _ball_simplex(*args)

    monkeypatch.setattr(oracle, "_ball_simplex", counted)
    for trial in range(24):
        m, n = int(rng.integers(2, 9)), int(rng.integers(2, 6))
        if trial % 2 == 0:
            _, pool, predictor = random_binary_setup(rng, m=m)
            specs = binary_specs(m, n)
        else:
            _, pool, predictor = random_regression_setup(rng, m=m)
            specs = regression_specs()
        rho = float(rng.uniform(0.05, m))
        for spec in specs:
            enum = enumerate_problems(spec, pool_data(pool, predictor, spec), n)
            rule[0] = "spectral"
            _, val = oracle_maximize(enum, rho, restarts=6, seed=trial)
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_bb_step", lambda step, s, y: 1.3 * step)
                rule[0] = "grow"
                _, old = oracle_maximize(enum, rho, restarts=6, seed=trial)
            assert val >= old - oracle._GAP_TOL * max(1.0, abs(old)), (trial, spec, val, old)
    assert calls["spectral"] < calls["grow"], calls


def test_oracle_maximize_beats_dense_grid(rng):
    for m, n in ((2, 3), (3, 2)):
        labels = [int(v) for v in rng.integers(0, 2, m)]
        scores = [float(v) for v in rng.uniform(0.1, 0.9, m)]
        enum = tiny_enum(labels, scores, n, losses=rng.uniform(-1, 0, enum_size(m, n)))
        rho = float(rng.uniform(0.1, 1.0))
        q, val = oracle_maximize(enum, rho, restarts=10)
        assert val == pytest.approx(exact_objective(enum, q), abs=1e-12)
        u = np.full(m, 1.0 / m)
        assert chi_square_div(np.maximum(q, 0) / q.sum(), u) <= rho + 1e-6
        # a dense feasible grid cannot beat the oracle by more than a hair
        ticks = 200
        if m == 2:
            a = np.arange(ticks + 1) / ticks
            pts = np.stack([a, 1 - a], axis=1)
        else:
            pts = np.array([(i / ticks, j / ticks, (ticks - i - j) / ticks)
                            for i in range(ticks + 1) for j in range(ticks + 1 - i)])
        divs = ((pts - u) ** 2 / u).sum(axis=1)
        grid_val = exact_objective(enum, pts[divs <= rho]).max()
        assert val >= grid_val - 1e-6


def test_oracle_grid_memory_is_bounded():
    # the 3-person grid's ~500k points against 231 multisets would make
    # (points, multisets) temporaries of ~900 MB each; blocking by cells keeps
    # the peak flat in the enumeration size
    _, pool, predictor = tiny_setup("p", [1, 0, 1], [0.9, 0.8, 0.1])
    spec = TopK(k=2)
    enum = enumerate_problems(spec, pool_data(pool, predictor, spec), 20)
    tracemalloc.start()
    try:
        q, val = oracle_maximize(enum, 0.5, restarts=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak / 2**20
    # other blocks give bitwise the same values; the grid's best point and the optimum are frozen
    pts = oracle._grid_points(3, oracle._GRID_STEP)
    vals = exact_objective(enum, pts)
    blocks = [oracle._terms(enum, pts[lo:lo + 3000]).sum(axis=1)
              for lo in range(0, pts.shape[0], 3000)]
    assert np.array_equal(vals, np.concatenate(blocks))
    assert int(np.argmax(vals)) == 500 and pts[500].tolist() == [0.0, 0.5, 0.5]
    assert q.tolist() == [0.0, 0.5, 0.5]
    assert val == -2.09808349609375e-05 == vals[500]


def test_oracle_rho_zero_is_center():
    enum = tiny_enum([0, 1], [0.2, 0.8], 2, losses=[-1.0, -0.5, 0.0])
    q, val = oracle_maximize(enum, 0.0)
    assert np.allclose(q, [0.5, 0.5])
    assert val == pytest.approx(-0.5, abs=1e-15)
    with pytest.raises(ValueError):
        oracle_maximize(enum, -0.5)


def test_oracle_dominates_extra_starts(rng):
    enum = tiny_enum([0, 1, 1], [0.2, 0.8, 0.6], 2,
                     losses=rng.uniform(-1, 0, enum_size(3, 2)))
    rho = 0.8
    handed = [rng.dirichlet(np.ones(3)) for _ in range(5)]
    _, val = oracle_maximize(enum, rho, restarts=4, extra_starts=handed)
    for q0 in handed:
        q0 = _project_ball_simplex(q0, rho)
        assert val >= exact_objective(enum, q0) - 1e-12
