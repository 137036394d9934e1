import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocshift import (ConfigError, CrossEntropy, DataError, FairnessGini,
                        Knapsack, MisclassRate, Mse, NashWelfare, PoolData, TopK,
                        allocate_waterfill, batch_decision_loss,
                        batch_shifted_loss, gini, losses, loss_spec_to_dict,
                        enumerate_problems, parse_loss_spec, pool_data, pool_objective,
                        solve_knapsack, solve_topk)

from conftest import binary_specs, make_pool, table_for


def brute_knapsack(values, costs, budget):
    """Independent oracle: scan subsets in lexicographic index order, keep the
    first one attaining the maximum value among feasible subsets."""
    n = len(values)
    subsets = sorted(itertools.chain.from_iterable(
        itertools.combinations(range(n), r) for r in range(n + 1)))
    best, best_val = (), -1.0
    for combo in subsets:
        if sum(costs[i] for i in combo) <= budget + 1e-9:
            val = sum(values[i] for i in combo)
            if val > best_val + 1e-12:
                best, best_val = combo, val
    return list(best)


def test_solve_topk_stable_ties():
    assert solve_topk(np.array([0.5, 0.9, 0.5]), 2).tolist() == [0, 1]
    assert solve_topk(np.array([0.3, 0.3, 0.3]), 2).tolist() == [0, 1]
    assert solve_topk(np.array([0.1, 0.9]), 1).tolist() == [1]
    with pytest.raises(ValueError):
        solve_topk(np.array([0.1]), 2)


def test_solve_knapsack_frozen():
    sel = solve_knapsack(np.array([0.9, 0.8, 0.7]), np.array([1.0, 2.0, 3.0]), 5)
    assert sel.tolist() == [0, 1]


def test_solve_knapsack_matches_enumeration(rng):
    for _ in range(300):
        n = int(rng.integers(1, 9))
        values = np.round(rng.uniform(0, 1, size=n), 3)
        costs = rng.integers(0, 5, size=n).astype(float)
        budget = int(rng.integers(0, 9))
        got = solve_knapsack(values, costs, budget).tolist()
        want = brute_knapsack(values, costs, budget)
        assert got == want, (values, costs, budget)


def test_topk_is_unit_cost_knapsack(rng):
    for _ in range(200):
        n = int(rng.integers(1, 10))
        k = int(rng.integers(1, n + 1))
        scores = rng.uniform(0, 1, size=n)
        assert solve_topk(scores, k).tolist() == solve_knapsack(scores, np.ones(n), k).tolist()


def test_solve_knapsack_budget_follows_the_number_rule():
    # a budget of 2.9 once ran at 2 through int(); a whole float is its integer
    values, costs = np.array([0.9, 0.8, 0.7]), np.ones(3)
    with pytest.raises(ConfigError, match="budget must be an integer, got 2.9"):
        solve_knapsack(values, costs, 2.9)
    assert solve_knapsack(values, costs, 2.0).tolist() == [0, 1]


def test_knapsack_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_knapsack(np.array([1.0]), np.array([0.5]), 1)  # fractional cost
    with pytest.raises(ValueError):
        solve_knapsack(np.array([1.0]), np.array([-1.0]), 1)
    with pytest.raises(ValueError):
        solve_knapsack(np.array([1.0]), np.array([1.0]), -1)


def test_waterfill_frozen():
    assert allocate_waterfill(np.array([1.0, 3.0]), 2.0).tolist() == [2.0, 0.0]
    assert allocate_waterfill(np.array([2.0, 2.0]), 2.0).tolist() == [1.0, 1.0]
    assert allocate_waterfill(np.array([1.0, 2.0]), 0.0).tolist() == [0.0, 0.0]


def test_waterfill_properties(rng):
    for _ in range(200):
        g = int(rng.integers(1, 6))
        incomes = rng.uniform(0.2, 5.0, size=g)
        budget = float(rng.uniform(0, 8))
        z = allocate_waterfill(incomes, budget)
        assert (z >= -1e-12).all()
        assert z.sum() == pytest.approx(budget, abs=1e-9)
        heights = incomes + z
        level = heights[z > 1e-9]
        if level.size:
            # every funded group sits at one common level, and nobody unfunded is below it
            assert level.max() - level.min() < 1e-9
            assert (heights[z <= 1e-9] >= level.max() - 1e-9).all()


def test_waterfill_maximizes_nash(rng):
    # against random feasible alternatives, water-filling wins on sum log(y + z)
    for _ in range(50):
        g = int(rng.integers(2, 5))
        incomes = rng.uniform(0.2, 4.0, size=g)
        budget = float(rng.uniform(0.5, 5))
        z = allocate_waterfill(incomes, budget)
        best = np.log(incomes + z).sum()
        for _ in range(40):
            alt = rng.dirichlet(np.ones(g)) * budget
            assert np.log(incomes + alt).sum() <= best + 1e-9


def test_gini_frozen():
    assert gini(np.array([1.0, 0.0, 0.0])) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert gini(np.array([1.0, 1.0])) == 0.0
    assert gini(np.array([0.0, 0.0])) == 0.0
    with pytest.raises(ValueError):
        gini(np.array([-0.1, 1.0]))


def _dl(spec, pool, predictor, idx, shifted=False):
    """Decision loss of one drawn problem: a one-row batch of pool indices."""
    score = batch_shifted_loss if shifted else batch_decision_loss
    return float(score(spec, pool_data(pool, predictor, spec), np.array([idx]))[0])


def test_topk_loss_values():
    pool = make_pool("p", [0, 1, 1])
    pred = table_for([pool], [[0.9, 0.6, 0.2]])
    spec = TopK(k=2)
    # drawn {0,1,2}: top-2 by score = {0,1} giving 1 positive; optimum = 2
    assert _dl(spec, pool, pred, [0, 1, 2]) == pytest.approx(0.5)
    # drawn {1,2}: top-2 is everything
    assert _dl(spec, pool, pred, [1, 2]) == 0.0
    # f_opt capped at the positive count: one positive ranked below two negatives
    assert _dl(spec, pool, pred, [0, 0, 1]) == pytest.approx(0.5)
    # every draw positive: prediction cannot lose
    assert _dl(spec, pool, pred, [1, 1, 2]) == 0.0
    assert _dl(spec, pool, pred, [0, 1, 2], shifted=True) == pytest.approx(-0.5)


def test_knapsack_loss_frozen_example():
    # values (0.9, 0.8, 0.7), costs (1, 2, 3), budget 5: prediction picks {0, 1};
    # with true labels (0, 1, 1) the optimum packs {1, 2} for 2, regret 1, DL 0.5
    pool = make_pool("p", [0, 1, 1], costs=[1, 2, 3])
    pred = table_for([pool], [[0.9, 0.8, 0.7]])
    spec = Knapsack(budget=5)
    assert _dl(spec, pool, pred, [0, 1, 2]) == pytest.approx(0.5)


def test_knapsack_budget_default():
    # default budget = max(1, round(0.5 * n * mean pool cost))
    pool = make_pool("p", [1, 1], costs=[2, 4])
    pred = table_for([pool], [[0.9, 0.1]])
    spec = Knapsack()
    pd = PoolData.from_pool(pool, np.array([0.9, 0.1]))
    # n = 2, mean cost 3 -> budget 3: only individual 0 fits
    assert _dl(spec, pool, pred, [0, 1]) == pytest.approx(0.0)


def test_knapsack_unit_costs_flag():
    pool = make_pool("p", [1, 0, 1], costs=[5, 5, 5])
    pred = table_for([pool], [[0.2, 0.9, 0.8]])
    # use_costs=False: unit costs, budget 2 -> picks {1, 2} value 1; optimum 2
    spec = Knapsack(budget=2, use_costs=False)
    assert _dl(spec, pool, pred, [0, 1, 2]) == pytest.approx(0.5)


def test_fairness_gini_loss():
    pool = make_pool("p", [1, 1, 0, 1], groups=[0, 0, 1, 1])
    pred = table_for([pool], [[0.9, 0.8, 0.7, 0.1]])
    spec = FairnessGini(k=2)
    # top-2 = {0, 1}: group 0 TPR = 1 (both positives selected), group 1 TPR = 0
    got = _dl(spec, pool, pred, [0, 1, 2, 3])
    assert got == pytest.approx(gini(np.array([1.0, 0.0])))
    # single represented group -> 0
    assert _dl(spec, pool, pred, [0, 1]) == 0.0


def test_fairness_excludes_groups_without_positives():
    pool = make_pool("p", [1, 0, 0, 1], groups=[0, 1, 1, 2])
    pred = table_for([pool], [[0.9, 0.8, 0.7, 0.1]])
    spec = FairnessGini(k=2)
    # group 1 has no positives: gini over groups 0 and 2 only
    got = _dl(spec, pool, pred, [0, 1, 2, 3])
    assert got == pytest.approx(gini(np.array([1.0, 0.0])))


def test_nash_welfare_loss():
    pool = make_pool("p", [1.0, 3.0])
    pred = table_for([pool], [[3.0, 1.0]])  # predictions flip the incomes
    spec = NashWelfare(budget=2.0)
    # predicted water-fill funds individual 1 (lowest predicted), true optimum funds 0
    f_opt = np.log(np.array([3.0, 3.0]) / 1.0).sum()
    f_pred = np.log(np.array([1.0, 5.0]) / 1.0).sum()
    assert _dl(spec, pool, pred, [0, 1]) == pytest.approx(1 - f_pred / f_opt)


def test_nash_welfare_floor_default_uses_pool_min():
    pool = make_pool("p", [2.0, 4.0])
    pred = table_for([pool], [[2.0, 4.0]])
    spec = NashWelfare(budget=1.0)
    # perfect predictions: zero regret regardless of floor
    assert _dl(spec, pool, pred, [0, 1]) == 0.0


def test_misclass_loss():
    pool = make_pool("p", [1, 0, 1])
    pred = table_for([pool], [[0.9, 0.8, 0.2]])
    spec = MisclassRate()
    assert _dl(spec, pool, pred, [0, 1, 2]) == pytest.approx(2.0 / 3.0)
    assert _dl(spec, pool, pred, [0, 0]) == 0.0
    spec2 = MisclassRate(threshold=0.85)
    # threshold 0.85 flips individual 1 to a correct negative
    assert _dl(spec2, pool, pred, [0, 1, 2]) == pytest.approx(1.0 / 3.0)


def test_cross_entropy_loss_negative():
    pool = make_pool("p", [1, 0])
    pred = table_for([pool], [[0.7, 0.4]])
    spec = CrossEntropy()
    ce = -(np.log(0.7) + np.log(0.6)) / 2
    got = _dl(spec, pool, pred, [0, 1])
    assert got == pytest.approx(-1.0 / ce)
    assert got < 0


def test_mse_loss():
    pool = make_pool("p", [2.0, 4.0])
    pred = table_for([pool], [[3.0, 2.0]])
    spec = Mse(scale=10.0)
    mse = (1.0 + 4.0) / 2
    want = min(1.0, np.log2(mse) / 10.0)
    assert _dl(spec, pool, pred, [0, 1]) == pytest.approx(want)
    # tiny error drives log negative
    pred2 = table_for([pool], [[2.1, 4.1]])
    assert _dl(spec, pool, pred2, [0, 1]) < 0


def test_losses_bounded(rng):
    from conftest import binary_specs
    pool = make_pool("p", [0, 1, 1, 0], costs=[1, 2, 1, 3], groups=[0, 1, 0, 1])
    pred = table_for([pool], [[0.8, 0.6, 0.4, 0.2]])
    pd = PoolData.from_pool(pool, np.array([0.8, 0.6, 0.4, 0.2]))
    idx = rng.integers(0, 4, size=(200, 3))
    for spec in binary_specs(4, 3):
        dl = batch_decision_loss(spec, pd, idx)
        if spec.kind == "cross_entropy":
            assert (dl < 0).all()
        else:
            assert (dl >= 0).all() and (dl <= 1).all()
        assert np.allclose(batch_shifted_loss(spec, pd, idx), dl - 1.0)


def canonical(scores, row):
    """Independent statement of the canonical order: score descending, pool index ascending."""
    return sorted(row, key=lambda i: (-scores[i], i))


_TIED = [0.0, 0.25, 0.5]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_selection_losses_ignore_draw_order(data):
    # scores from a small tied set, members differing in label, group and cost:
    # permuting a row's columns leaves each selection loss bitwise unchanged
    m = data.draw(st.integers(1, 6), label="m")
    n = data.draw(st.integers(1, 6), label="n")
    def pool_list(elements):
        return data.draw(st.lists(elements, min_size=m, max_size=m))
    pd = PoolData(scores=np.array(pool_list(st.sampled_from(_TIED))),
                  labels=np.array(pool_list(st.sampled_from([0.0, 1.0]))),
                  costs=np.array(pool_list(st.integers(0, 3)), dtype=float),
                  groups=np.array(pool_list(st.integers(0, 2))))
    idx = np.array(data.draw(st.lists(st.lists(st.integers(0, m - 1), min_size=n, max_size=n),
                                      min_size=1, max_size=4), label="idx"))
    shuffled = np.array([row[data.draw(st.permutations(range(n)), label="perm")] for row in idx])
    k = data.draw(st.integers(1, n), label="k")
    budget = data.draw(st.none() | st.integers(0, 8), label="budget")
    for spec in (TopK(k=k), FairnessGini(k=k), Knapsack(budget=budget),
                 Knapsack(budget=budget, use_costs=False)):
        assert np.array_equal(batch_decision_loss(spec, pd, shuffled),
                              batch_decision_loss(spec, pd, idx)), spec


def test_selection_losses_frozen_distinct_scores():
    # distinct scores leave no tie to break: these are the values of scoring each
    # row in draw order, as before rows were put in canonical order
    pd = PoolData(scores=np.array([0.9, 0.7, 0.6, 0.3, 0.8]), labels=np.array([1.0, 0, 1, 1, 0]),
                  costs=np.array([1.0, 2, 1, 3, 2]), groups=np.array([0, 1, 1, 0, 1]))
    idx = np.array([[0, 1, 2, 3], [4, 3, 2, 1], [2, 2, 4, 0], [3, 1, 4, 4], [3, 2, 1, 0]])
    assert batch_decision_loss(TopK(k=2), pd, idx).tolist() == [0.5, 1.0, 0.5, 0.5, 0.5]
    assert batch_decision_loss(FairnessGini(k=2), pd, idx).tolist() == [0.5, 0.0, 0.5, 0.0, 0.5]
    assert batch_decision_loss(Knapsack(budget=4), pd, idx).tolist() == \
        [0.0, 1.0, 1.0 / 3.0, 1.0, 0.0]


def test_knapsack_batch_matches_scalar_ties():
    # the batch path runs solve_knapsack's DP on every canonical row at once; with
    # every score tied, a row's canonical order is its pool indices ascending
    pool = make_pool("p", [1, 1, 0, 1], costs=[1, 1, 2, 2])
    scores = [0.5, 0.5, 0.5, 0.5]
    pd = PoolData.from_pool(pool, np.array(scores))
    spec = Knapsack(budget=3)
    idx = np.array(list(itertools.product(range(4), repeat=3)))
    dl = batch_decision_loss(spec, pd, idx)
    for row, want in zip(idx, dl):
        row = canonical(scores, row)
        values = np.array(scores)[row]
        costs = pool.costs[row]
        labels = pool.labels[row]
        sel = brute_knapsack(values, costs, 3)
        f_pred = labels[sel].sum()
        opt = brute_knapsack(labels, costs, 3)
        f_opt = labels[opt].sum()
        assert want == pytest.approx((f_opt - f_pred) / max(f_opt, 1.0), abs=1e-12)
    # rows (2, 0, 1) and (3, 2, 0) become (0, 1, 2) and (0, 2, 3); two members fit,
    # and the first two are taken: positives 0 and 1, then 0 and the negative 2,
    # which leaves out positive 3
    rows = np.array([[2, 0, 1], [0, 1, 2], [3, 2, 0], [0, 2, 3]])
    assert batch_decision_loss(spec, pd, rows).tolist() == [0.0, 0.0, 0.5, 0.5]


# dyadic scores sum exactly, so sets of the same and of different sizes tie
# exactly; the rest sum with rounding (0.1 + 0.2 != 0.3), and the DP and
# brute_knapsack add them in different orders, so ties also hold only to rounding
_SCORES = [0.0, 0.25, 0.5, 0.75, 1.0] + [0.1, 0.2, 0.3, 0.51, 0.52, 0.53, 0.54]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_knapsack_batch_matches_brute_force(data):
    m = data.draw(st.integers(1, 6), label="m")
    n = data.draw(st.integers(1, 10), label="n")
    scores = np.array(data.draw(st.lists(st.sampled_from(_SCORES), min_size=m, max_size=m)))
    labels = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=m, max_size=m)))
    costs = np.array(data.draw(st.lists(st.integers(0, 4), min_size=m, max_size=m)), dtype=float)
    budget = data.draw(st.none() | st.integers(0, 12), label="budget")
    use_costs = data.draw(st.booleans(), label="use_costs")
    idx = np.array(data.draw(st.lists(st.lists(st.integers(0, m - 1), min_size=n, max_size=n),
                                      min_size=1, max_size=5)))
    pd = PoolData(scores=scores, labels=labels, costs=costs, groups=np.zeros(m, dtype=int))
    got = batch_decision_loss(Knapsack(budget=budget, use_costs=use_costs), pd, idx)

    unit = costs if use_costs else np.ones(m)
    b = budget if budget is not None else max(1, round(0.5 * n * unit.mean()))
    for row, dl in zip(idx, got):
        row = canonical(scores, row)
        f_pred = labels[row][brute_knapsack(scores[row], unit[row], b)].sum()
        f_opt = labels[row][brute_knapsack(labels[row], unit[row], b)].sum()
        assert dl == (f_opt - f_pred) / max(f_opt, 1.0), (row, b)


# each row is its own pool slice, so its labels, costs and scores are drawn
# freely; the first two rows hold no positive and only positives
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_knapsack_closed_form_optimum_matches_brute_force(data):
    n = data.draw(st.integers(1, 7), label="n")
    s = data.draw(st.integers(1, 5), label="rows")
    def rows(elements, count):
        return np.array(data.draw(st.lists(st.lists(elements, min_size=n, max_size=n),
                                           min_size=count, max_size=count)), dtype=float)
    labels = np.vstack([np.zeros(n), np.ones(n), rows(st.sampled_from([0.0, 1.0]), s)])
    costs = rows(st.integers(0, 4), s + 2)
    scores = rows(st.sampled_from(_SCORES), s + 2)
    budget = data.draw(st.none() | st.just(0) | st.integers(0, 16), label="budget")
    use_costs = data.draw(st.booleans(), label="use_costs")
    pd = PoolData(scores=scores.ravel(), labels=labels.ravel(), costs=costs.ravel(),
                  groups=np.zeros(labels.size, dtype=int))
    idx = np.arange(labels.size).reshape(labels.shape)
    got = batch_decision_loss(Knapsack(budget=budget, use_costs=use_costs), pd, idx)

    unit = costs if use_costs else np.ones(costs.shape)
    b = budget if budget is not None else max(1, round(0.5 * n * unit.mean()))
    f_opt = losses._knapsack_label_opt(labels, unit, b)
    for row, dl, opt in zip(range(len(labels)), got, f_opt):
        want = labels[row][brute_knapsack(labels[row], unit[row], b)].sum()
        assert opt == want, (row, b)
        if unit[row][labels[row] == 1].sum() <= b:  # every positive fits
            assert opt == labels[row].sum()
        seq = canonical(pd.scores, idx[row])
        f_pred = pd.labels[seq][brute_knapsack(pd.scores[seq], unit.ravel()[seq], b)].sum()
        assert dl == (want - f_pred) / max(want, 1.0), (row, b)


def test_knapsack_batch_rejects_non_binary_labels():
    pd = PoolData(scores=np.array([0.9, 0.1]), labels=np.array([0.5, 2.0]),
                  costs=np.ones(2), groups=np.zeros(2, dtype=int))
    with pytest.raises(DataError, match="0/1 labels"):
        batch_decision_loss(Knapsack(budget=1), pd, np.array([[0, 1]]))


@pytest.mark.parametrize("spec", binary_specs(3, 2), ids=lambda spec: spec.kind)
def test_binary_losses_refuse_non_binary_labels(spec):
    # labels [5, 2, 3] once gave top_k losses of [-3, -1.5] and cross_entropy
    # -1e12; only knapsack refused them
    pool = make_pool("p", np.array([5.0, 2.0, 3.0]))
    match = f"instance 'p': {spec.kind} requires 0/1 labels"
    with pytest.raises(DataError, match=match):
        pool_data(pool, table_for([pool], [[0.9, 0.1, 0.5]]), spec)
    pd = PoolData.from_pool(pool, np.array([0.9, 0.1, 0.5]))
    match = f"^{spec.kind} requires 0/1 labels$"
    with pytest.raises(DataError, match=match):
        batch_decision_loss(spec, pd, np.array([[0, 1], [1, 2]]))
    for objective in (pool_objective, enumerate_problems):
        with pytest.raises(DataError, match=match):
            objective(spec, pd, 2)


@pytest.mark.parametrize("spec, labels, scores, error, match", [
    (MisclassRate(), [1.0, 0.0, 1.0], [0.9, 0.1, np.nan], DataError, "scores must be finite"),
    (NashWelfare(budget=1.0), [1.0, 2.0, 0.0], [1.0, 2.0, 3.0], DataError,
     "positive true incomes"),
    (TopK(k=3), [1.0, 0.0, 1.0], [0.9, 0.1, 0.5], ConfigError, "^k=3 exceeds draw_size=2$"),
    (FairnessGini(k=3), [1.0, 0.0, 1.0], [0.9, 0.1, 0.5], ConfigError,
     "^k=3 exceeds draw_size=2$"),
], ids=["nonfinite-score", "nash-undrawn-income", "top-k-over-draw", "fairness-k-over-draw"])
def test_batch_scoring_checks_the_pool_and_draw_size(spec, labels, scores, error, match):
    # the whole pool is checked on every call, not only the members drawn: no row draws member 2
    pd = PoolData(scores=np.array(scores), labels=np.array(labels), costs=np.ones(3),
                  groups=np.array([0, 1, 0]))
    with pytest.raises(error, match=match):
        batch_decision_loss(spec, pd, np.array([[0, 1], [1, 0]]))


def test_knapsack_tie_break_is_lexicographic():
    # zero-value items tie sets of different sizes: (0, 1) precedes (1,), and a
    # set precedes its extensions, so (0,) beats (0, 1)
    for values, costs, budget, want in (([0.0, 0.5], [1, 1], 2, [0, 1]),
                                        ([0.5, 0.0], [1, 1], 2, [0]),
                                        ([0.0, 0.5, 0.5], [0, 1, 1], 1, [0, 1])):
        assert brute_knapsack(values, costs, budget) == want
        assert solve_knapsack(np.array(values), np.array(costs), budget).tolist() == want
    # the batch path takes the same sets on canonical rows: both orders of pool
    # scores (0, 0.5) become (1, 0), scores (0.5, 0), so the DP picks member 1
    # alone and leaves out the positive member 0
    pool = make_pool("p", [1, 1], costs=[1, 1])
    pd = PoolData.from_pool(pool, np.array([0.0, 0.5]))
    assert batch_decision_loss(Knapsack(budget=2), pd, np.array([[0, 1], [1, 0]])).tolist() == \
        [0.5, 0.5]


def test_knapsack_chunking_leaves_losses_unchanged(rng, monkeypatch):
    pool = make_pool("p", rng.integers(0, 2, size=12), costs=rng.integers(0, 5, size=12))
    pd = PoolData.from_pool(pool, rng.uniform(0, 1, size=12))
    idx = rng.integers(0, 12, size=(300, 7))
    whole = batch_decision_loss(Knapsack(), pd, idx)
    monkeypatch.setattr(losses, "_DP_BYTES", 1)  # one row per chunk
    assert np.array_equal(batch_decision_loss(Knapsack(), pd, idx), whole)


def _every_kind(rng):
    """(spec, pool) cases covering every loss kind on 12-member pools: tied
    scores, a zero cost and a cost above any budget."""
    labels = rng.integers(0, 2, size=12).astype(float)
    scores = np.round(rng.uniform(0, 1, size=12), 1)
    scores[:4] = 0.5
    costs = rng.integers(0, 4, size=12).astype(float)
    costs[[0, 5]] = [0.0, 50.0]
    binary = PoolData.from_pool(make_pool("b", labels, costs=costs,
                                          groups=np.arange(12) % 3), scores)
    incomes = rng.uniform(1, 5, size=12)
    regression = PoolData.from_pool(make_pool("r", incomes), np.round(incomes, 0) + 0.5)
    cases = [(TopK(k=3), binary), (Knapsack(), binary), (Knapsack(budget=4), binary),
             (FairnessGini(k=3), binary), (MisclassRate(), binary), (CrossEntropy(), binary),
             (NashWelfare(budget=3.0), regression), (Mse(), regression)]
    assert {spec.kind for spec, _ in cases} == set(losses._KINDS)
    return cases


@pytest.mark.parametrize("rows", [1, 3], ids=["one-row-blocks", "uneven-blocks"])
def test_blocked_scoring_is_bitwise(rng, monkeypatch, rows):
    # 200 rows of 7 split into blocks of one row, or of three with a short last block
    n = 7
    cases = _every_kind(rng)
    idx = rng.integers(0, 12, size=(200, n))
    whole = [batch_decision_loss(spec, pd, idx) for spec, pd in cases]
    monkeypatch.setattr(losses, "_BLOCK_CELLS", rows * n + (rows > 1))
    assert losses._block_rows(n) == rows
    for (spec, pd), want in zip(cases, whole):
        got = batch_decision_loss(spec, pd, idx)
        assert got.dtype == want.dtype and np.array_equal(got, want), spec.kind
        assert batch_decision_loss(spec, pd, idx[:0]).shape == (0,)


def test_knapsack_batch_memory_is_bounded(rng):
    # n=20, S=35000: subset enumeration would need (35000, 2^20) arrays of
    # 273 GiB each; the chunked DP stays under 64 MiB of traced allocations
    pool = make_pool("p", rng.integers(0, 2, size=40), costs=rng.integers(1, 5, size=40))
    pd = PoolData.from_pool(pool, rng.uniform(0, 1, size=40))
    idx = rng.integers(0, 40, size=(35000, 20))
    tracemalloc.start()
    try:
        dl = batch_decision_loss(Knapsack(), pd, idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak / 2**20
    assert np.all((dl >= 0.0) & (dl <= 1.0))


def test_knapsack_batch_rejects_fractional_costs():
    pool = make_pool("p", [1, 0], costs=[0.4, 1.0])
    pd = PoolData.from_pool(pool, np.array([0.9, 0.1]))
    with pytest.raises(DataError, match="integers"):
        batch_decision_loss(Knapsack(budget=1), pd, np.array([[0, 1]]))
    # the pool's costs are checked, not only those of the members drawn
    for costs, match in (([1.0, 0.4], "integers"), ([1.0, -1.0], "non-negative")):
        pd = PoolData(scores=np.array([0.9, 0.1]), labels=np.array([1.0, 0.0]),
                      costs=np.array(costs), groups=np.zeros(2, dtype=int))
        with pytest.raises(DataError, match=match):
            batch_decision_loss(Knapsack(budget=1), pd, np.array([[0, 0]]))


def test_integer_index_dtypes_score_alike(rng):
    # the engine's compact uint8 and uint16 draws score bitwise as int64 does;
    # a float, bool or string batch is refused, not truncated, read as 0/1 or parsed
    idx = rng.integers(0, 12, size=(200, 7))
    cases = _every_kind(rng)
    for spec, pd in cases:
        want = batch_decision_loss(spec, pd, idx)
        for dtype in (np.uint8, np.uint16):
            assert np.array_equal(batch_decision_loss(spec, pd, idx.astype(dtype)), want), spec.kind
        for bad in (idx + 0.7, idx % 2 == 1, idx.astype(str)):
            with pytest.raises(ValueError, match="integer pool indices"):
                batch_decision_loss(spec, pd, bad)
    with pytest.raises(ValueError, match="got dtype float64"):
        batch_decision_loss(MisclassRate(), cases[0][1], [[0.7, 1.9]])


def test_knapsack_cost_beyond_int64_never_fits():
    # 1e19 is an integral float above int64: the item never fits, and member 1 is taken
    values, costs = np.array([0.9, 0.1]), np.array([1e19, 1.0])
    assert solve_knapsack(values, costs, 1).tolist() == brute_knapsack(values, costs, 1) == [1]
    pd = PoolData(scores=values, labels=np.array([0.0, 1.0]), costs=costs,
                  groups=np.zeros(2, dtype=int))
    assert batch_decision_loss(Knapsack(budget=1), pd, np.array([[0, 1]])).tolist() == [0.0]


def test_knapsack_padded_table_edges_match_brute_force():
    # budget 5: row 0 holds an item dearer than the budget (cost 7, so the table
    # pads cap + 1 = 6 capacities), row 1 zero-cost items, row 2 a cost total of
    # 3, below the budget, and row 3 a second item dearer than the budget; budget
    # 0 leaves only zero-cost items. The second batch pads 3 below cap = 7 (or 4)
    # with n * pad = 15 above it, so the first layers are filled only from
    # cap - 3 * i up, and the trace must stay inside what they fill.
    batches = [
        (np.array([[0.9, 0.5, 0.5, 0.0], [0.0, 0.3, 0.8, 0.3], [0.25, 0.25, 0.5, 0.0],
                   [0.4, 0.9, 0.4, 0.3]]),
         np.array([[7, 1, 2, 2], [0, 0, 3, 1], [1, 1, 1, 0], [2, 9, 2, 1]]), (5, 0)),
        (np.array([[0.5, 0.4, 0.3, 0.9, 0.1], [0.2, 0.2, 0.2, 0.2, 0.2],
                   [0.9, 0.0, 0.6, 0.6, 0.3]]),
         np.array([[3, 3, 1, 2, 3], [1, 2, 3, 1, 2], [2, 0, 3, 3, 1]]), (7, 4)),
    ]
    for values, costs, budgets in batches:
        for budget in budgets:
            chosen = losses._knapsack_rows(values, costs, budget)
            for row in range(len(values)):
                want = brute_knapsack(values[row], costs[row], budget)
                assert np.flatnonzero(chosen[row]).tolist() == want, (budget, row)


def test_knapsack_rows_golden_digest():
    # sha256 of each chosen-set mask, pinned from the row-major DP kernel the
    # capacity-major one replaced: 20,000 rows each at n = 8 and n = 10 with
    # costs 1-4 and the default budget, then tied values (one decimal) with zero
    # costs at budget 0 and 6
    def batches():
        for n, budget in ((8, 10), (10, 12)):
            rng = np.random.default_rng(n)
            yield rng.uniform(0, 1, size=(20000, n)), rng.integers(1, 5, size=(20000, n)), budget
        rng = np.random.default_rng(0)
        values = np.round(rng.uniform(0, 1, size=(20000, 9)), 1)
        costs = rng.integers(0, 4, size=(20000, 9))
        yield values, costs, 0
        yield values, costs, 6

    want = ["6640050497d1bb20e7d8ce99346ee8b3f8da79d5983973a8c03809d30bffd6a1",
            "6fd5d1dbdd5ffa821ec05611c0d6e85471a0e6472eb6bf1e9a355ef8cf7cb9f2",
            "5eea85d2e0e967521dbd45d1ee14bd167df2d85b7c451b06bb40692c1eacd0e6",
            "6b8fb90da40ee73927b0a8e84a0540af149351d927c897554534ae1d71b89f5e"]
    for (values, costs, budget), digest in zip(batches(), want, strict=True):
        chosen = losses._knapsack_rows(values, costs, budget)
        assert chosen.shape == values.shape and chosen.dtype == bool
        assert hashlib.sha256(np.ascontiguousarray(chosen).tobytes()).hexdigest() == digest, budget


def test_knapsack_rows_large_draw_golden_digest():
    # sha256 of each chosen-set mask, pinned from the float-table kernel the
    # decision-byte one replaced: 300 rows each at n = 60 and n = 120 with
    # one-decimal values (many exact and rounding-level ties), costs 0-4 and
    # budgets 0, 40 and 150, so the trace runs through long rows and wide tables
    want = {(60, 0): "24a80241be9b88dd5421fe64e7fa0e620cdac6308fe062713270a705990a0afd",
            (60, 40): "e749582f3a9015b0b133aa922ba56da5f5cfff3d070ed0972ac56c1db57c65c1",
            (60, 150): "d214632e9610bc7b56dc8b282e347bbd2f582c56dba754044aa74c4acb2ebdf1",
            (120, 0): "dd5849274063a6741b053cfb26d3cc6fe183abecb4ee74a855c027eac121d614",
            (120, 40): "5fea05f4d85300eabafb0b91d402553d64a0d5cc54fb3a5f59e7a7aeaa6a4aef",
            (120, 150): "1ef543d2a94237cdaa9d2016193ddb92c6815852a018ef87b09abcefc68c374e"}
    for n in (60, 120):
        rng = np.random.default_rng(n)
        values = np.round(rng.uniform(0, 1, size=(300, n)), 1)
        costs = rng.integers(0, 5, size=(300, n))
        for budget in (0, 40, 150):
            chosen = losses._knapsack_rows(values, costs, budget)
            digest = hashlib.sha256(np.ascontiguousarray(chosen).tobytes()).hexdigest()
            assert digest == want[n, budget], (n, budget)


def test_knapsack_tolerance_belongs_to_the_row():
    # 0.3005 beats 0.3 by 5e-4: above the row's own tolerance of 1e-9, but below
    # the 6e-4 a tolerance taken from the million-times-larger rows would give
    small = np.array([[0.3, 0.3005]])
    costs = np.ones((1, 2), dtype=np.int64)
    alone = losses._knapsack_rows(small, costs, 1)
    assert np.flatnonzero(alone[0]).tolist() == brute_knapsack(small[0], costs[0], 1) == [1]
    values = np.vstack([small * 1e6, small, small * 1e6])
    together = losses._knapsack_rows(values, np.ones((3, 2), dtype=np.int64), 1)
    assert np.array_equal(together[1], alone[0])


def test_parse_loss_spec_round_trip(tmp_path):
    specs = [TopK(k=3), Knapsack(budget=4, use_costs=False), FairnessGini(k=2),
             NashWelfare(budget=1.5, floor=0.3), MisclassRate(threshold=0.4),
             CrossEntropy(), Mse(scale=8.0)]
    for spec in specs:
        d = loss_spec_to_dict(spec)
        assert parse_loss_spec(d) == spec
        assert parse_loss_spec(json.dumps(d)) == spec
    path = tmp_path / "loss.json"
    path.write_text(json.dumps(loss_spec_to_dict(TopK(k=2))))
    assert parse_loss_spec(str(path)) == TopK(k=2)


def test_parse_loss_spec_errors():
    with pytest.raises(ConfigError, match="kind"):
        parse_loss_spec({"k": 2})
    with pytest.raises(ConfigError, match="unknown loss kind"):
        parse_loss_spec({"kind": "ranked"})
    with pytest.raises(ConfigError, match="top_k"):
        parse_loss_spec({"kind": "top_k", "k": 0})
    with pytest.raises(ConfigError):
        parse_loss_spec("{not json")


@pytest.mark.parametrize("raw, match", [
    ({"kind": "top_k", "k": True}, "k must be an integer, got True"),
    ({"kind": "top_k", "k": 2.5}, "k must be an integer, got 2.5"),
    ({"kind": "fairness_gini", "k": "2"}, "k must be an integer, got '2'"),
    ({"kind": "knapsack", "budget": 2.5}, "budget must be an integer, got 2.5"),
    ({"kind": "knapsack", "budget": float("nan")}, "budget must be an integer, got nan"),
    ({"kind": "knapsack", "use_costs": "no"}, "use_costs must be true or false, got 'no'"),
    ({"kind": "knapsack", "use_costs": 0}, "use_costs must be true or false, got 0"),
    ({"kind": "nash_welfare", "budget": True}, "budget must be a number, got True"),
    ({"kind": "nash_welfare", "budget": 1.0, "floor": "0.3"}, "floor must be a number"),
    ({"kind": "misclass_rate", "threshold": "0.5"}, "threshold must be a number"),
    ({"kind": "cross_entropy", "eps": False}, "eps must be a number, got False"),
    ({"kind": "mse", "scale": [10.0]}, "scale must be a number"),
    # a float field is finite: a NaN budget once ran a whole search and saved a
    # report that load_report refuses
    ({"kind": "nash_welfare", "budget": float("nan")},
     "nash_welfare budget must be finite and > 0, got nan"),
    ({"kind": "nash_welfare", "budget": 1.0, "floor": float("inf")},
     "nash_welfare floor must be finite"),
    ({"kind": "cross_entropy", "eps": float("nan")}, "eps must be finite and > 0, got nan"),
    ({"kind": "mse", "scale": float("inf")}, "scale must be finite and > 0, got inf"),
    ({"kind": "mse", "eps": float("nan")}, "eps must be finite and > 0, got nan"),
])
def test_loss_spec_fields_follow_the_number_rule(raw, match):
    # a bool or a string is not a number, an integer field takes no fraction,
    # and use_costs takes only a bool: each was once accepted (True as k = 1,
    # 2.5 truncated to a budget of 2, "no" as true)
    with pytest.raises(ConfigError, match=f"bad parameters for loss '{raw['kind']}': {match}"):
        parse_loss_spec(raw)


def test_loss_spec_numbers_that_stay_accepted():
    # numpy integers and integral floats are integers; the stored value is an int
    assert TopK(k=np.int64(3)) == TopK(k=3) and type(TopK(k=np.int64(3)).k) is int
    assert type(FairnessGini(k=np.int32(2)).k) is int
    assert parse_loss_spec({"kind": "knapsack", "budget": 4.0}) == Knapsack(budget=4)
    assert type(parse_loss_spec({"kind": "knapsack", "budget": 4.0}).budget) is int
    assert Knapsack(budget=np.int64(0), use_costs=np.bool_(False)) == Knapsack(0, False)
    # a float field keeps an integer as given, so a saved spec writes back unchanged
    assert loss_spec_to_dict(parse_loss_spec({"kind": "nash_welfare", "budget": 3})) == \
        {"kind": "nash_welfare", "budget": 3, "floor": None}
