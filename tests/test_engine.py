import ast
import dataclasses
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocshift import (ConfigError, DataError, FwParams, NumericalError,
                        UncertaintyBudget, WorstCaseReport,
                        enumerate_problems, estimate_gradient,
                        estimate_instance_loss, exact_gradient, exact_objective,
                        find_worst_case,
                        fw_inner, fw_outer, gradmax, load_report, offset_to_distribution,
                        pool_data, report_to_dict, save_report, substream, uniform_center)
from allocshift import engine, losses
from allocshift.losses import (CrossEntropy, Knapsack, MisclassRate, Mse, NashWelfare,
                               TopK, batch_shifted_loss)
from conftest import (binary_specs, make_cohort, make_pool, random_binary_setup,
                      regression_specs, table_for, tiny_setup)


def test_substream_determinism_and_independence():
    a1 = substream(7, 0, 3, 1).random(5)
    a2 = substream(7, 0, 3, 1).random(5)
    assert np.array_equal(a1, a2)
    b = substream(7, 0, 3, 2).random(5)
    c = substream(8, 0, 3, 1).random(5)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


@pytest.mark.parametrize("center", [False, True])
@pytest.mark.parametrize("q", [[0.1, 0.2, 0.3, 0.15, 0.25], [0.4, 0.0, 0.25, 0.35, 0.0]])
def test_gradient_batch_matches_dense_counts(rng, center, q):
    # the bincount estimator against the dense (S, m) count-matrix reference
    _, pool, predictor = random_binary_setup(rng, m=5)
    spec = TopK(k=2)
    pd = pool_data(pool, predictor, spec)
    q = np.array(q)
    num_samples, draw_size = 300, 3
    grad, mean_dl = estimate_gradient(spec, pd, q, num_samples, draw_size, substream(4, 9),
                                      center=center)
    idx = substream(4, 9).choice(5, size=(num_samples, draw_size), p=q)
    dl = batch_shifted_loss(spec, pd, idx)
    counts = np.zeros((num_samples, 5))
    for s in range(num_samples):
        for a in idx[s]:
            counts[s, a] += 1.0
    w = dl - dl.mean() if center else dl
    inv_q = np.where(q > 0, 1.0 / np.where(q > 0, q, 1.0), 0.0)
    expected = (w[:, None] * counts).mean(axis=0) * inv_q
    assert mean_dl == pytest.approx(dl.mean(), rel=1e-12, abs=1e-15)
    np.testing.assert_allclose(grad, expected, rtol=1e-12, atol=1e-15)
    assert np.all(grad[q == 0] == 0.0)


def test_estimate_gradient_frozen_two_individuals():
    # q = (1, 0), draw one individual: only A is ever drawn. With DL'(A) = 0 the
    # A-coordinate averages to 0 and the never-drawn B-coordinate is the 0 limit
    # times its 1/q weight, i.e. exactly 0 there but -1 for DL'(A) = -1.
    _, pool, predictor = tiny_setup("p", [1, 1], [0.9, 0.1])
    spec = MisclassRate()
    pd = pool_data(pool, predictor, spec)
    g, _ = estimate_gradient(spec, pd, np.array([1.0, 0.0]),
                             num_samples=500, draw_size=1, rng=substream(0, 3))
    assert g[1] == 0.0
    assert g[0] == pytest.approx(-1.0, abs=1e-12)
    # q must be a probability vector over the pool
    for bad in ([0.7, 0.7], [1.2, -0.2], [1.0]):
        with pytest.raises(ValueError):
            estimate_gradient(spec, pd, np.array(bad), 10, 1, substream(0, 3))


@pytest.mark.parametrize("name, value, want", [
    ("num_samples", 2.5, "an integer, got 2.5"), ("num_samples", True, "an integer, got True"),
    ("num_samples", "5", "an integer, got '5'"), ("num_samples", 0, ">= 1, got 0"),
    ("draw_size", 2.5, "an integer, got 2.5"), ("draw_size", True, "an integer, got True"),
    ("draw_size", "5", "an integer, got '5'"), ("draw_size", 0, ">= 1, got 0"),
])
def test_estimate_gradient_counts_follow_the_number_rule(name, value, want):
    # 2.5 and "5" once raised TypeError (exit 1), and num_samples=0 returned NaN
    # with a "Mean of empty slice" RuntimeWarning
    _, pool, predictor = tiny_setup("p", [1, 0, 1], [0.9, 0.1, 0.5])
    spec = MisclassRate()
    pd = pool_data(pool, predictor, spec)
    counts = {"num_samples": 10, "draw_size": 2}
    q = np.full(3, 1 / 3)
    with pytest.raises(ConfigError, match=f"^{name} must be {re.escape(want)}$"):
        estimate_gradient(spec, pd, q, rng=substream(0, 3), **{**counts, name: value})
    # a whole float counts as its integer
    whole, _ = estimate_gradient(spec, pd, q, 10.0, 2.0, substream(0, 3))
    assert bits(whole) == bits(estimate_gradient(spec, pd, q, 10, 2, substream(0, 3))[0])


def _weights(kind, m):
    rng = np.random.default_rng(m)
    if kind == "uniform":
        return np.full(m, 1.0 / m)
    if kind == "dirichlet1":
        return rng.dirichlet(np.ones(m))
    if kind == "dirichlet005":
        return rng.dirichlet(np.full(m, 0.05))
    q = rng.dirichlet(np.ones(m))
    if kind == "zero_runs":  # zero mass first, last and in a run
        q[0] = q[-1] = 0.0
        q[m // 3:m // 3 + m // 4] = 0.0
    else:  # "tiny": masses of 1e-12 put several breakpoints in one bucket
        q[1::2] = 1e-12
    return q / q.sum()


def _table_size(m):
    return 1 << (16 * m - 1).bit_length()


def _assert_draw_matches_choice(q, shape, seed):
    # choice's values and generator state, held in the pool's narrowest unsigned dtype
    ref, rng = substream(seed, 5), substream(seed, 5)
    want = ref.choice(q.size, size=shape, p=q)
    got = engine._draw(rng, q, shape)
    assert got.dtype == np.min_scalar_type(q.size - 1) and got.shape == want.shape
    assert np.array_equal(got, want)
    assert rng.random() == ref.random()  # the stream continues where choice leaves it


@pytest.mark.parametrize("kind", ["uniform", "dirichlet1", "dirichlet005", "zero_runs", "tiny"])
@pytest.mark.parametrize("m", [5, 40, 1000])
def test_draw_matches_choice(kind, m):
    q = _weights(kind, m)
    k = _table_size(m)
    # each side of the table threshold, 1-d and 2-d
    for seed, shape in enumerate([(k,), (k // 8, 8), (k + 1,), (3 * k, 7), 5 * k]):
        _assert_draw_matches_choice(q, shape, seed)


class _FixedUniforms(np.random.Generator):
    """A generator whose random() repeats chosen values to the requested shape."""

    def __init__(self, u):
        super().__init__(np.random.PCG64(0))
        self.u = u

    def random(self, size=None, dtype=np.float64, out=None):
        return np.resize(self.u, size)


@pytest.mark.parametrize("kind", ["uniform", "dirichlet1", "zero_runs", "tiny"])
@pytest.mark.parametrize("m", [8, 40])
def test_draw_matches_choice_on_breakpoints(kind, m):
    # uniforms exactly on the cdf breakpoints and bucket edges, and one ulp either side
    q = _weights(kind, m)
    cdf = q.cumsum()
    cdf /= cdf[-1]
    k = _table_size(m)
    u = np.concatenate([cdf, np.arange(k) / k])
    u = np.concatenate([u, np.nextafter(u, 0.0), np.nextafter(u, 1.0)])
    u = u[(u >= 0.0) & (u < 1.0)]
    for shape in [(k,), (2 * k + 1,), (len(u), 3)]:
        want = _FixedUniforms(u).choice(m, size=shape, p=q)
        assert np.array_equal(engine._draw(_FixedUniforms(u), q, shape), want)


def test_draw_matches_choice_edge_cases():
    _assert_draw_matches_choice(np.ones(1), (20, 3), 0)  # m = 1, above its 16-entry table
    _assert_draw_matches_choice(np.ones(1), (4,), 1)
    _assert_draw_matches_choice(np.array([0.0, 0.0, 1.0, 0.0]), (100, 3), 2)
    _assert_draw_matches_choice(np.full(8, 0.125), (1000, 3), 7)  # breakpoints on bucket edges
    _assert_draw_matches_choice(np.array([1e-12, 1.0 - 2e-12, 1e-12]), 10 ** 6, 3)
    _assert_draw_matches_choice(_weights("dirichlet1", 7), (0, 3), 4)
    # a pool of 5000: a draw smaller than the pool, and one above its 131072-entry table
    _assert_draw_matches_choice(_weights("dirichlet005", 5000), (50, 10), 5)
    _assert_draw_matches_choice(_weights("tiny", 5000), (20000, 10), 6)


@pytest.mark.parametrize("cells", [3, 10], ids=["one-row-blocks", "uneven-blocks"])
def test_blocked_draw_matches_choice(monkeypatch, cells):
    # flat blocks of 3 uniforms (one row of 3), or of 10, which split rows and
    # leave a short last block; 1-d and empty shapes; each side of the table threshold
    monkeypatch.setattr(losses, "_BLOCK_CELLS", cells)
    for seed, (kind, m) in enumerate([("dirichlet1", 5), ("zero_runs", 40), ("tiny", 40)]):
        k = _table_size(m)
        for shape in [(7, 3), (k // 3 + 1, 3), (5 * k + 1, 3), (k + 7,), (0, 3)]:
            _assert_draw_matches_choice(_weights(kind, m), shape, seed)


@pytest.mark.parametrize("dtype, m", [(np.uint8, 1), (np.uint8, 40), (np.uint8, 256),
                                      (np.uint16, 257), (np.uint16, 300)])
@pytest.mark.parametrize("cells", [None, 100], ids=["default-blocks", "uneven-blocks"])
def test_compact_draw_matches_choice(monkeypatch, dtype, m, cells):
    # the pool's narrowest dtype holds choice's values and leaves its generator
    # state; one block and several, blocks of 100 splitting rows of 3 and 7,
    # each side of the table threshold, and a largest index of 255 in one byte
    assert np.min_scalar_type(m - 1) == dtype
    if cells is not None:
        monkeypatch.setattr(losses, "_BLOCK_CELLS", cells)
    k = _table_size(m)
    for seed, kind in enumerate(["dirichlet1", "zero_runs", "tiny"] if m > 1 else ["uniform"]):
        for shape in [(k // 3, 3), (k // 3 + 1, 3), (k + 7,), (2 * k + 1, 7)]:
            _assert_draw_matches_choice(_weights(kind, m), shape, seed)
    assert (engine._draw(substream(0, 5), np.eye(m)[m - 1], k + 1) == m - 1).all()


@pytest.mark.parametrize("center", [False, True])
@pytest.mark.parametrize("cells", [4, 9], ids=["one-row-blocks", "uneven-blocks"])
def test_blocked_gradient_counts_match_bincount(rng, monkeypatch, center, cells):
    # three searches of 11, 1 and 30 rows of 4 draws from a pool of 6, counted in
    # blocks of one row or of two rows, against one bincount per search
    monkeypatch.setattr(losses, "_BLOCK_CELLS", cells)
    sizes, n, m = [11, 1, 30], 4, 6
    q = rng.dirichlet(np.ones(m), size=len(sizes))
    q[1, 2] = 0.0
    q[1] /= q[1].sum()
    idx = rng.integers(0, m, size=(sum(sizes), n))
    idx[11] = [0, 1, 3, 3]  # search 1 never draws member 2
    dl = -rng.uniform(0, 1, size=sum(sizes))
    grads, means = engine._score_gradients(idx, dl, q, sizes, center)
    compact = engine._score_gradients(idx.astype(np.uint8), dl, q, sizes, center)
    assert np.array_equal(compact[0], grads) and np.array_equal(compact[1], means)
    lo = 0
    for r, size in enumerate(sizes):
        w = dl[lo:lo + size] - dl[lo:lo + size].mean() if center else dl[lo:lo + size]
        sums = np.bincount(idx[lo:lo + size].ravel(), weights=np.repeat(w, n), minlength=m)
        inv_q = np.where(q[r] > 0, 1.0 / np.maximum(q[r], 1e-300), 0.0)
        assert np.array_equal(grads[r], sums / size * inv_q)
        assert means[r] == dl[lo:lo + size].mean()
        lo += size


@pytest.mark.parametrize("bad", [[0.5, 0.6, -0.1], [0.5, np.nan, 0.5], [0.5, 0.5 + 1e-6, 0.0],
                                 [np.inf, 0.5, 0.5], [[0.5, 0.5]], []])
def test_draw_rejects_bad_weights(bad):
    q = np.array(bad, dtype=np.float64)
    with pytest.raises(ValueError):
        engine._draw(substream(0, 1), q, (10, 2))
    with pytest.raises(ValueError):
        engine._draw(substream(0, 1), q, (10 ** 5, 2))
    if q.ndim == 1 and q.size == 3:
        _, pool, predictor = tiny_setup("p", [1, 0, 1], [0.9, 0.1, 0.5])
        pd = pool_data(pool, predictor, MisclassRate())
        with pytest.raises(ValueError):
            estimate_gradient(MisclassRate(), pd, q, 10, 1, substream(0, 3))


def test_one_sampler():
    # every weighted draw in the package goes through engine._draw
    for path in sorted(pathlib.Path(engine.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if isinstance(node, ast.FunctionDef) and node.name == "_draw":
                lines[node.lineno - 1:node.end_lineno] = []
        hits = [line.strip() for line in lines if ".choice(" in line]
        assert not hits, f"{path.name} draws outside engine._draw: {hits}"


def test_estimate_gradient_frozen_uniform():
    # DL'(draw A) = 0, DL'(draw B) = -1, q uniform, single draw: the exact
    # objective is q_A*0 + q_B*(-1), whose gradient is (0, -1); the estimator
    # converges there and finite differences on the enumeration agree.
    _, pool, predictor = tiny_setup("p", [1.0, 0.0], [0.2, 0.2])
    spec = MisclassRate()
    pd = pool_data(pool, predictor, spec)
    q = np.array([0.5, 0.5])
    g, _ = estimate_gradient(spec, pd, q, num_samples=300_000,
                             draw_size=1, rng=substream(2, 3))
    assert np.allclose(g, [0.0, -1.0], atol=0.01)
    enum = enumerate_problems(spec, pd, 1)
    assert np.allclose(exact_gradient(enum, q), [0.0, -1.0], atol=1e-12)


def test_estimate_gradient_constant_loss(rng):
    # every draw classifies correctly, so DL' is identically -1 and each
    # coordinate of the estimate concentrates on -draw_size
    _, pool, predictor = tiny_setup("p", [0, 0, 0], [0.2, 0.3, 0.1])
    pd = pool_data(pool, predictor, MisclassRate())
    for n in (1, 2, 3):
        g, _ = estimate_gradient(MisclassRate(), pd, np.full(3, 1 / 3),
                                 num_samples=200_000, draw_size=n, rng=substream(n, 3))
        assert np.allclose(g, -n, atol=0.05), n


def test_estimate_gradient_memory_is_bounded_by_index_array(rng):
    # S = 35,000 problems of 60 draws: beyond the (S, n) int64 index array,
    # the uniforms, scoring temporaries and count weights live one block at a time
    _, pool, predictor = random_binary_setup(rng, m=60)
    pd = pool_data(pool, predictor, MisclassRate())
    num_samples, draw_size = 35_000, 60
    tracemalloc.start()
    try:
        grad, _ = estimate_gradient(MisclassRate(), pd, np.full(60, 1 / 60), num_samples,
                                    draw_size, substream(0, 8), center=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * num_samples * draw_size * 8, peak / 2**20
    assert np.isfinite(grad).all()


def test_estimate_gradient_holds_compact_indices(rng):
    # S = 35,000 problems of 40 draws from a 40-member pool: the index array is
    # 1.4 MB of uint8 (11.2 MB as int64), and one block's temporaries fit in as much again
    _, pool, predictor = random_binary_setup(rng, m=40)
    pd = pool_data(pool, predictor, MisclassRate())
    num_samples, draw_size = 35_000, 40
    tracemalloc.start()
    try:
        grad, _ = estimate_gradient(MisclassRate(), pd, np.full(40, 1 / 40), num_samples,
                                    draw_size, substream(0, 8), center=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * num_samples * draw_size, peak / 2**20
    assert np.isfinite(grad).all()


def test_estimate_gradient_matches_exact(rng):
    _, pool, predictor = random_binary_setup(rng, m=3)
    spec = TopK(k=1)
    pd = pool_data(pool, predictor, spec)
    enum = enumerate_problems(spec, pd, 2)
    q = np.array([0.5, 0.3, 0.2])
    g, _ = estimate_gradient(spec, pd, q, num_samples=400_000,
                             draw_size=2, rng=substream(5, 3))
    exact = exact_gradient(enum, q)
    assert np.allclose(g, exact, atol=0.03)


def fw_two_point_setup():
    """Two individuals: drawing A alone scores DL = 1, B alone DL = 0."""
    pool = make_pool("p", [1.0, 0.0])
    predictor = table_for([pool], [[0.0, 0.0]])  # both predicted negative
    cohort = make_cohort([pool])
    return cohort, pool, predictor


def misclass_pd(pool, predictor):
    return pool_data(pool, predictor, MisclassRate())


def test_fw_inner_concentrates_on_bad_individual():
    _, pool, predictor = fw_two_point_setup()
    params = FwParams(iterations=15, num_samples=4000, num_samples2=2000,
                      draw_size=1, seed=0)
    budget = UncertaintyBudget(rho_ind=50.0, rho_xi=0.0)
    pd = misclass_pd(pool, predictor)
    w, trace = fw_inner(MisclassRate(), pd, budget.rho_ind, params)
    q = offset_to_distribution(w)
    assert q[0] >= 0.99
    # objective estimate at the converged offset, in expected-decision-loss units
    final = estimate_instance_loss(MisclassRate(), pd, w, params) + 1.0
    assert final >= 0.99
    assert len(trace.objective) == params.iterations
    assert len(trace.grad_norm) == params.iterations
    assert all(d <= budget.rho_ind + 1e-9 for d in trace.divergence)


def test_fw_inner_rho_zero_keeps_center():
    _, pool, predictor = fw_two_point_setup()
    params = FwParams(iterations=5, num_samples=500, num_samples2=500, draw_size=1)
    w, _ = fw_inner(MisclassRate(), misclass_pd(pool, predictor), 0.0, params)
    assert np.allclose(w, 0.0)


def test_fw_inner_constant_loss_trace():
    # all-ones labels, all-zero scores: every singleton draw misclassifies, so
    # the trace objective equals the constant decision loss at every iterate
    pool = make_pool("p", [1.0, 1.0, 1.0])
    predictor = table_for([pool], [[0.0, 0.0, 0.0]])
    params = FwParams(iterations=6, num_samples=800, num_samples2=500, draw_size=1)
    _, trace = fw_inner(MisclassRate(), misclass_pd(pool, predictor), 2.0, params)
    assert np.allclose(trace.objective, 1.0)


def test_fw_inner_iterates_feasible(rng):
    _, pool, predictor = random_binary_setup(rng, m=4)
    pd = pool_data(pool, predictor, TopK(k=1))
    for T in (1, 3, 10):
        params = FwParams(iterations=T, num_samples=300, num_samples2=200,
                          draw_size=2, seed=2)
        budget = UncertaintyBudget(rho_ind=0.7, rho_xi=0.0)
        w, trace = fw_inner(TopK(k=1), pd, budget.rho_ind, params)
        q = offset_to_distribution(w)
        assert (q >= -1e-12).all() and abs(q.sum() - 1.0) < 1e-9
        assert trace.divergence[-1] <= budget.rho_ind + 1e-9


def test_estimate_instance_loss_constant_cases():
    _, pool, predictor = fw_two_point_setup()
    params = FwParams(num_samples2=3000, draw_size=1, seed=4)
    pd = misclass_pd(pool, predictor)
    # point mass on the misclassified individual: DL' = 0 shifted from DL = 1
    w = np.array([0.5, -0.5])
    assert estimate_instance_loss(MisclassRate(), pd, w, params) == pytest.approx(0.0, abs=1e-12)
    # point mass on the correct one: DL' = -1 exactly
    w2 = np.array([-0.5, 0.5])
    assert estimate_instance_loss(MisclassRate(), pd, w2, params) == pytest.approx(-1.0, abs=1e-12)


def test_estimate_instance_loss_matches_exact_mixture():
    _, pool, predictor = fw_two_point_setup()
    params = FwParams(num_samples2=1_000_000, draw_size=1, seed=9)
    est = estimate_instance_loss(MisclassRate(), misclass_pd(pool, predictor), np.zeros(2),
                                 params)
    # exact mean of DL' under uniform singleton draws: (0 + -1) / 2
    assert est == pytest.approx(-0.5, abs=0.005)


def test_fw_outer_examples():
    lam = np.array([-0.2, -0.9])
    big = fw_outer(lam, 100.0)
    assert np.allclose(offset_to_distribution(big), [1.0, 0.0])
    assert np.allclose(fw_outer(np.array([-0.4, -0.4, -0.4]), 3.0), 0.0)
    assert np.allclose(fw_outer(lam, 0.0), 0.0)


def cohort_for_find(seed=0):
    pool_a = make_pool("a", [1.0, 0.0])
    pool_b = make_pool("b", [0.0, 0.0])
    predictor = table_for([pool_a, pool_b], [[0.0, 0.0], [0.0, 0.0]])
    return make_cohort([pool_a, pool_b]), predictor


def test_find_worst_case_zero_radii_is_empirical_mean():
    cohort, predictor = cohort_for_find()
    params = FwParams(iterations=4, num_samples=400, num_samples2=200_000,
                      draw_size=1, seed=3)
    report = find_worst_case(cohort, predictor, MisclassRate(),
                             UncertaintyBudget(0.0, 0.0), params)
    assert np.allclose(report.shift.across, 0.0)
    for w in report.shift.within:
        assert np.allclose(w, 0.0)
    # pool a: half the singleton draws misclassify; pool b: none do
    assert report.value == pytest.approx(0.25, abs=0.01)


def test_find_worst_case_value_identity_and_determinism():
    cohort, predictor = cohort_for_find()
    params = FwParams(iterations=6, num_samples=1500, num_samples2=1500,
                      draw_size=1, seed=11)
    budget = UncertaintyBudget(rho_ind=2.0, rho_xi=6.25)
    r1 = find_worst_case(cohort, predictor, MisclassRate(), budget, params)
    r2 = find_worst_case(cohort, predictor, MisclassRate(), budget, params)
    d1 = json.dumps(report_to_dict(r1), sort_keys=True)
    d2 = json.dumps(report_to_dict(r2), sort_keys=True)
    assert d1 == d2
    lam = np.asarray(r1.instance_losses)
    xi = offset_to_distribution(r1.shift.across)
    assert r1.value == pytest.approx(float(xi @ lam + 1.0), abs=1e-9)
    assert r1.instance_ids == ["a", "b"]
    # the worst case tilts toward the instance with the misclassified member
    assert xi[0] > 0.9


def mixed_cohort(seed=0):
    """Five pools of three sizes, so a worker's part and a lockstep size group
    can each hold pools of another size."""
    rng = np.random.default_rng(seed)
    pools, scores = [], []
    for pid, m in zip("abcde", [3, 5, 3, 6, 5]):
        pools.append(make_pool(pid, rng.integers(0, 2, size=m).astype(float)))
        scores.append(rng.uniform(0.05, 0.95, size=m))
    return make_cohort(pools), table_for(pools, scores)


MIXED_PARAMS = FwParams(iterations=3, num_samples=300, num_samples2=300, draw_size=2, seed=5)
MIXED_BUDGET = UncertaintyBudget(rho_ind=1.0, rho_xi=1.0)


def test_find_worst_case_workers_match():
    # 2 and 3 workers split the 5 instances unevenly, 8 workers get one each
    cohort, predictor = mixed_cohort()
    serial = find_worst_case(cohort, predictor, TopK(k=2), MIXED_BUDGET, MIXED_PARAMS,
                             workers=1)
    want = json.dumps(report_to_dict(serial), sort_keys=True)
    for workers in (2, 3, 8):
        parallel = find_worst_case(cohort, predictor, TopK(k=2), MIXED_BUDGET, MIXED_PARAMS,
                                   workers=workers)
        assert json.dumps(report_to_dict(parallel), sort_keys=True) == want, workers


def test_find_worst_case_instances_are_one_search_runs():
    # all instances search in one lockstep call; each instance's offset, trace and
    # loss are bitwise its own fw_inner run plus estimate_instance_loss
    cohort, predictor = mixed_cohort(1)
    spec = TopK(k=2)
    report = find_worst_case(cohort, predictor, spec, MIXED_BUDGET, MIXED_PARAMS, workers=1)
    for j, pool in enumerate(cohort.pools):
        pd = pool_data(pool, predictor, spec)
        w, trace = fw_inner(spec, pd, MIXED_BUDGET.rho_ind, MIXED_PARAMS, j)
        assert bits(report.shift.within[j]) == bits(w), j
        assert [bits(c) for c in dataclasses.astuple(report.traces[j])] == \
            [bits(c) for c in dataclasses.astuple(trace)], j
        assert bits(report.instance_losses[j]) == bits(
            estimate_instance_loss(spec, pd, w, MIXED_PARAMS, j)), j


def test_single_worker_runs_do_not_import_multiprocessing():
    # the process pool is imported only for workers > 1: importing it put about
    # 1.7 MB on the peak RSS of every CLI call, most of which run one worker
    code = "import sys, allocshift.cli; print('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "False"


def test_find_worst_case_rejects_k_over_draw_size():
    cohort, predictor = cohort_for_find()
    params = FwParams(iterations=2, num_samples=100, num_samples2=100, draw_size=1)
    with pytest.raises(ConfigError, match="k=3 exceeds draw_size=1"):
        find_worst_case(cohort, predictor, TopK(k=3), UncertaintyBudget(1.0, 1.0), params)


def test_find_worst_case_error_names_instance():
    # draw_size defaults to each pool's size; the one-member pool cannot host
    # a top-3 selection and the error says which instance failed
    pool_a = make_pool("a", [1.0, 0.0, 1.0])
    pool_b = make_pool("bad-pool", [0.0])
    predictor = table_for([pool_a, pool_b], [[0.0, 0.0, 0.0], [0.0]])
    cohort = make_cohort([pool_a, pool_b])
    params = FwParams(iterations=2, num_samples=100, num_samples2=100)
    with pytest.raises(ValueError, match="bad-pool"):
        find_worst_case(cohort, predictor, TopK(k=3), UncertaintyBudget(1.0, 1.0), params)


@pytest.mark.parametrize("labels, scores, costs, spec, match", [
    ([1.0, 0.0], [0.5, float("nan")], None, MisclassRate(), "scores must be finite"),
    ([1.0, 2.0], [1.0, 0.0], None, NashWelfare(budget=1.0), "positive predicted incomes"),
    ([1.0, 0.0], [0.9, 0.1], [0.4, 1.0], Knapsack(budget=1), "costs must be integers"),
], ids=["nonfinite-score", "nash-zero-income", "fractional-cost"])
def test_find_worst_case_checks_pools_before_search(monkeypatch, labels, scores, costs,
                                                    spec, match):
    def search(*args):
        raise AssertionError("the search started on an unscorable pool")

    monkeypatch.setattr(engine, "_fw_lockstep", search)
    pool = make_pool("bad-pool", labels, costs=costs)
    cohort = make_cohort([pool], task=spec.task)
    params = FwParams(iterations=2, num_samples=50, num_samples2=50, draw_size=1)
    with pytest.raises(DataError, match=f"instance 'bad-pool': .*{match}"):
        find_worst_case(cohort, table_for([pool], [scores]), spec,
                        UncertaintyBudget(1.0, 1.0), params)


@pytest.mark.parametrize("error", [
    UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"),
    NumericalError("loss blew up"),
], ids=["multi-argument", "library-error"])
def test_find_worst_case_worker_errors_name_instance(monkeypatch, error):
    def failing_loss(spec, pd, idx):
        raise error

    monkeypatch.setattr(engine, "batch_shifted_loss", failing_loss)
    cohort, predictor = cohort_for_find()
    params = FwParams(iterations=2, num_samples=50, num_samples2=50, draw_size=1)
    with pytest.raises(type(error)) as info:
        find_worst_case(cohort, predictor, MisclassRate(), UncertaintyBudget(1.0, 1.0), params)
    if isinstance(error, NumericalError):
        # library errors carry the instance in their message
        assert str(info.value) == "instance 'a': loss blew up"
    else:
        # other types are re-raised as they are, with the instance as a note
        assert info.value is error
        assert info.value.reason == "invalid start byte"
        assert "in instance 'a'" in info.value.__notes__


def test_prepare_pools_errors_name_instance():
    # a predictor fault while a pool is scored, before any search, carries the
    # instance as a note that names no search
    class WidthMismatch:
        def score_matrix(self, numeric, categorical):
            raise ValueError("matmul: input operand 1 has a mismatch in its core dimension")

    cohort, _ = cohort_for_find()
    with pytest.raises(ValueError) as info:
        engine.prepare_pools(cohort, WidthMismatch(), [MisclassRate()], None)
    assert str(info.value).startswith("matmul:")
    assert info.value.__notes__ == ["in instance 'a'"]


def test_find_worst_case_loss_estimate_errors_name_instance(monkeypatch):
    def failing_estimate(spec, pd, w, params, j):
        raise NumericalError("estimate blew up")

    monkeypatch.setattr(engine, "estimate_instance_loss", failing_estimate)
    cohort, predictor = cohort_for_find()
    params = FwParams(iterations=2, num_samples=50, num_samples2=50, draw_size=1)
    with pytest.raises(NumericalError, match="^instance 'a': estimate blew up$"):
        find_worst_case(cohort, predictor, MisclassRate(), UncertaintyBudget(1.0, 1.0), params)


def test_report_round_trip(tmp_path):
    cohort, predictor = cohort_for_find()
    params = FwParams(iterations=3, num_samples=300, num_samples2=300,
                      draw_size=1, seed=8)
    report = find_worst_case(cohort, predictor, MisclassRate(),
                             UncertaintyBudget(1.0, 0.5), params)
    path = tmp_path / "report.json"
    save_report(report, str(path), cohort_path="cohort.json", predictor_path="model.json")
    again = load_report(str(path))
    # the report the search returned, field for field; the input paths stay in the file
    assert isinstance(again, WorstCaseReport)
    assert again.value == report.value
    assert again.instance_ids == report.instance_ids == ["a", "b"]
    assert np.array_equal(again.instance_losses, report.instance_losses)
    assert np.array_equal(again.shift.across, report.shift.across)
    assert len(again.shift.within) == len(report.shift.within)
    for w1, w2 in zip(again.shift.within, report.shift.within):
        assert np.array_equal(w1, w2)
    assert again.budget == report.budget
    assert again.params == report.params
    assert again.spec == report.spec
    assert again.traces == report.traces
    assert json.loads(path.read_text())["inputs"] == {"cohort": "cohort.json",
                                                      "predictor": "model.json"}
    # byte determinism of the serialized form
    save_report(report, str(tmp_path / "again.json"), cohort_path="cohort.json",
                predictor_path="model.json")
    assert (tmp_path / "report.json").read_bytes() == (tmp_path / "again.json").read_bytes()


def test_fw_params_validation():
    with pytest.raises(ConfigError):
        FwParams(iterations=0)
    with pytest.raises(ConfigError):
        FwParams(num_samples=0)


@pytest.mark.parametrize("field, value, want", [
    ("iterations", 2.5, "an integer"), ("num_samples", "10", "an integer"),
    ("num_samples2", True, "an integer"), ("draw_size", 2.5, "an integer"),
    ("seed", 1.5, "an integer"),
])
def test_fw_params_follow_the_number_rule(field, value, want):
    # FwParams(iterations=2.5, seed=1.5) once constructed
    with pytest.raises(ConfigError, match=f"{field} must be {want}, got {value!r}"):
        FwParams(**{field: value})
    params = FwParams(iterations=3.0, draw_size=np.int64(2), seed=4.0)
    assert (params.iterations, params.draw_size, params.seed) == (3, 2, 4)
    assert all(type(v) is int for v in (params.iterations, params.draw_size, params.seed))


_KINDS = ["cross_entropy", "fairness_gini", "knapsack", "misclass_rate", "mse",
          "nash_welfare", "top_k"]
_SE_BOUND = 5.0  # Monte Carlo standard errors allowed between estimate and exact value


@pytest.mark.parametrize("kind", _KINDS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_estimates_match_exact_oracle(kind, data):
    # on random small pools, the sampled instance loss and the (uncentred) gradient
    # agree with the enumeration oracle's exact values within _SE_BOUND standard errors
    # scores may tie: each member's score is free or one of three shared values
    m = data.draw(st.integers(2, 4), label="m")
    n = data.draw(st.integers(1, 3), label="n")
    spec = {s.kind: s for s in binary_specs(m, n) + regression_specs()}[kind]
    if spec.task == "regression":
        incomes = st.floats(0.5, 6.0)
        labels = data.draw(st.lists(incomes, min_size=m, max_size=m), label="labels")
        scores = data.draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]) | incomes,
                                    min_size=m, max_size=m), label="scores")
    else:
        labels = data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=m, max_size=m),
                           label="labels")
        scores = data.draw(st.lists(st.sampled_from([0.25, 0.5, 0.75]) | st.floats(0.05, 0.95),
                                    min_size=m, max_size=m), label="scores")
    costs = data.draw(st.lists(st.integers(1, 3), min_size=m, max_size=m), label="costs")
    groups = data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m), label="groups")
    weights = np.array(data.draw(st.lists(st.integers(0, 4), min_size=m, max_size=m)
                                 .filter(any), label="weights"), dtype=float)
    seed = data.draw(st.integers(0, 1000), label="seed")

    pool = make_pool("p", labels, costs=costs, groups=groups)
    pd = pool_data(pool, table_for([pool], [scores]), spec)
    enum = enumerate_problems(spec, pd, n)
    num = 4000
    params = FwParams(num_samples2=num, draw_size=n, seed=seed)
    w = weights / weights.sum() - 1.0 / m
    q = offset_to_distribution(w)
    q = q / q.sum()

    mean = exact_objective(enum, q)
    second = exact_objective(dataclasses.replace(enum, losses=enum.losses ** 2), q)
    se = np.sqrt(max(second - mean ** 2, 0.0) / num)
    est = estimate_instance_loss(spec, pd, w, params)
    assert abs(est - mean) <= _SE_BOUND * se + 1e-9, (est, mean, se)

    # per coordinate a with q_a > 0: X_a = DL' * count(a) / q_a over the multisets
    grad, _ = estimate_gradient(spec, pd, q, num, n, substream(seed, 5))
    probs = enum.coeffs * np.exp(enum.counts @ np.log(np.maximum(q, 1e-300)))
    live = q > 0
    x = enum.losses[:, None] * enum.counts[:, live] / q[live]
    se_g = np.sqrt(np.maximum(probs @ x ** 2 - (probs @ x) ** 2, 0.0) / num)
    exact = exact_gradient(enum, q)[live]
    assert np.all(np.abs(grad[live] - exact) <= _SE_BOUND * se_g + 1e-9), (grad, exact, se_g)


def test_tied_scores_leave_loss_independent_of_draw_order():
    # two individuals with equal scores and different labels, three draws, top-2: the
    # sampler's objective averages DL' over ordered draws, the oracle over multisets;
    # the tie goes to the smaller pool index in both, and both read -0.625
    pool = make_pool("p", [0.0, 1.0])
    spec = TopK(k=2)
    pd = pool_data(pool, table_for([pool], [[0.5, 0.5]]), spec)
    draws = np.array(list(itertools.product(range(2), repeat=3)))
    ordered = float(batch_shifted_loss(spec, pd, draws).mean())
    assert exact_objective(enumerate_problems(spec, pd, 3), np.full(2, 0.5)) == \
        pytest.approx(ordered, abs=1e-12)


def reference_fw_inner(spec, pd, rho_ind, params, instance_index=0):
    """The one-search loop that _fw_lockstep replaced: a 1-d state, one
    estimate_gradient call and one one-row gradmax call per iteration."""
    m = pd.size
    n = engine._draw_count(params.draw_size, m)
    center = uniform_center(m)
    w, v = np.zeros(m), np.zeros(m)
    trace = engine.InstanceTrace()
    for it in range(params.iterations):
        q = np.maximum(w + center, 0.0)
        q = q / q.sum()
        rng = substream(params.seed, engine._STREAM_GRAD, instance_index, it)
        grad, mean_dl = estimate_gradient(spec, pd, q, params.num_samples, n, rng, center=True)
        v = engine._MOMENTUM * grad + (1.0 - engine._MOMENTUM) * v
        w = w + (gradmax(v, rho_ind) - center) / params.iterations
        trace.objective.append(mean_dl + 1.0)
        trace.grad_norm.append(float(np.linalg.norm(grad)))
        trace.divergence.append(float(((q - center) ** 2 / center).sum()))
    return w, trace


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("kind", ["misclass_rate", "top_k", "fairness_gini", "knapsack",
                                  "nash_welfare"])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_lockstep_rows_match_one_search_runs(kind, data):
    # pools of mixed sizes, some above 16 so row sums are numpy's pairwise sums,
    # searched at several grid points in shuffled order: every lockstep row is
    # bitwise the reference loop's run, and so is fw_inner
    sizes = data.draw(st.lists(st.sampled_from([2, 5, 17, 40]), min_size=1, max_size=4),
                      label="pool sizes")
    n = data.draw(st.integers(2, 4), label="draw size")
    grid = data.draw(st.lists(st.integers(1, 80), min_size=1, max_size=3, unique=True),
                     label="grid")
    seed = data.draw(st.integers(0, 1000), label="seed")
    rho = data.draw(st.sampled_from([0.0, 0.3, 2.0, 60.0]), label="rho")
    spec = {s.kind: s for s in binary_specs(n, n) + regression_specs()}[kind]
    rng = np.random.default_rng(seed)
    pools, scores = [], []
    for j, m in enumerate(sizes):
        if spec.task == "regression":
            labels, s = rng.uniform(0.5, 6.0, size=m), rng.uniform(0.5, 6.0, size=m)
        else:
            labels = rng.integers(0, 2, size=m).astype(float)
            s = np.round(rng.uniform(0.05, 0.95, size=m), 1)  # some scores tie
        pools.append(make_pool(j, labels, costs=rng.integers(1, 4, size=m).astype(float),
                               groups=rng.integers(0, 2, size=m)))
        scores.append(s)
    predictor = table_for(pools, scores)
    pds = {j: pool_data(pool, predictor, spec) for j, pool in enumerate(pools)}
    searches = data.draw(st.permutations([(j, g) for j in pds for g in grid]), label="order")
    params = FwParams(iterations=3, draw_size=n, seed=seed)

    got = engine._fw_lockstep(spec, pds, [pool.instance_id for pool in pools], searches, rho,
                              params)
    assert len(got) == len(searches)
    for (j, g), (w, trace) in zip(searches, got):
        one = dataclasses.replace(params, num_samples=g)
        for want_w, want in (reference_fw_inner(spec, pds[j], rho, one, j),
                             fw_inner(spec, pds[j], rho, one, j)):
            assert bits(w) == bits(want_w), (j, g)
            for name in ("objective", "grad_norm", "divergence"):
                assert bits(getattr(trace, name)) == bits(getattr(want, name)), (j, g, name)
