"""Tour of the seven decision-loss metrics on one hand-built pool.

Decision loss (DL) compares the allocation made from predicted scores with
the allocation the true labels would have earned: 0 means the predictions
cost nothing, larger means worse. Decision-blind metrics (misclassification,
cross-entropy, MSE) score individuals independently; decision-based metrics
(top-k, knapsack, fairness Gini, Nash welfare) score the downstream
allocation over the whole drawn set. Cross-entropy and MSE are mapped
through bounded increasing transforms (-1/CE and log2(MSE)/scale capped at
1), so their DL can be negative while still ranking draws the same way.
"""

import numpy as np

from allocshift import (CrossEntropy, FairnessGini, InstancePool, Knapsack,
                        MisclassRate, Mse, NashWelfare, PoolData, TopK,
                        batch_decision_loss, solve_knapsack, solve_topk)


def build_pool(pid, labels, costs, groups):
    m = len(labels)
    return InstancePool(instance_id=pid, ids=[f"{pid}-{i}" for i in range(m)],
                        numeric=np.zeros((m, 1)), categorical=np.zeros((m, 0), dtype=np.int64),
                        labels=labels, costs=costs, groups=groups)


# six individuals: the predictor badly under-scores #3 and over-scores #1
labels = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0])
scores = np.array([0.8, 0.7, 0.6, 0.2, 0.3, 0.1])
costs = np.array([1.0, 2.0, 1.0, 1.0, 2.0, 1.0])
groups = np.array([0, 0, 1, 1, 0, 1])
pool = build_pool("ward", labels, costs, groups)

print("pick 3 by predicted score:", solve_topk(scores, 3).tolist())
print("pick 3 by true label:    ", solve_topk(labels, 3).tolist())
print("knapsack (budget 3) by score:", solve_knapsack(scores, costs, 3).tolist())

# a draw that happens to include the whole pool once: one row of pool indices
pd = PoolData.from_pool(pool, scores)
problem = np.arange(6)[None, :]
for spec in (TopK(k=3), Knapsack(budget=3), FairnessGini(k=3), MisclassRate(),
             CrossEntropy(), Mse()):
    print(f"{spec.kind:15s} DL = {batch_decision_loss(spec, pd, problem)[0]:.4f}")

# Nash welfare wants strictly positive incomes, so use a regression-style pool
incomes = np.array([2.0, 1.0, 4.0, 0.8])
predicted = np.array([1.0, 2.5, 3.5, 1.2])
reg_pool = build_pool("village", incomes, np.ones(4), np.zeros(4, dtype=int))
reg = PoolData.from_pool(reg_pool, predicted)
spec = NashWelfare(budget=2.0)
dl = batch_decision_loss(spec, reg, np.arange(4)[None, :])[0]
print(f"{spec.kind:15s} DL = {dl:.4f} "
      "(log-welfare gap when the budget is split by predicted need)")
