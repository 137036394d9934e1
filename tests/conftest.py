"""Shared builders: hand-assembled pools with table predictors, so every test
controls scores and labels exactly, plus random tiny instances for the
enumeration-oracle property tests."""

import numpy as np
import pytest

from allocshift import (Cohort, CrossEntropy, FairnessGini, IndividualRecord,
                        InstancePool, Knapsack, MisclassRate, Mse, NashWelfare,
                        TablePredictor, TopK)


def make_pool(pid, labels, costs=None, groups=None):
    labels = list(labels)
    costs = list(costs) if costs is not None else [1.0] * len(labels)
    groups = list(groups) if groups is not None else [0] * len(labels)
    recs = [IndividualRecord(id=f"{pid}-{i}", numeric=np.zeros(1), categorical=np.zeros(0, dtype=np.int64),
                             label=float(labels[i]), cost=float(costs[i]), group=int(groups[i]))
            for i in range(len(labels))]
    return InstancePool(instance_id=str(pid), individuals=recs)


def cohorts_equal(a: Cohort, b: Cohort) -> bool:
    """Exact equality, used to verify serialization round trips."""
    if a.task != b.task or a.instance_ids != b.instance_ids:
        return False
    if a.numeric_names != b.numeric_names or a.categorical_names != b.categorical_names:
        return False
    if a.categorical_codes != b.categorical_codes or a.group_codes != b.group_codes:
        return False
    if not np.array_equal(a.standardize_mean, b.standardize_mean):
        return False
    if not np.array_equal(a.standardize_std, b.standardize_std):
        return False
    for pa, pb in zip(a.pools, b.pools):
        if len(pa) != len(pb):
            return False
        for ia, ib in zip(pa.individuals, pb.individuals):
            if ia.id != ib.id or ia.label != ib.label or ia.cost != ib.cost or ia.group != ib.group:
                return False
            if not np.array_equal(ia.numeric, ib.numeric) or not np.array_equal(ia.categorical, ib.categorical):
                return False
    return True


def make_cohort(pools, task="binary"):
    groups = sorted({ind.group for p in pools for ind in p.individuals})
    return Cohort(pools=list(pools), task=task, numeric_names=["x0"],
                  categorical_names=[], categorical_codes=[],
                  group_codes=[str(g) for g in groups],
                  standardize_mean=np.zeros(1), standardize_std=np.ones(1))


def table_for(pools, scores_per_pool):
    table = {}
    for pool, scores in zip(pools, scores_per_pool):
        for ind, s in zip(pool.individuals, scores):
            table[ind.id] = float(s)
    return TablePredictor(scores=table)


def tiny_setup(pid, labels, scores, costs=None, groups=None, task="binary"):
    """One pool plus a table predictor scoring it."""
    pool = make_pool(pid, labels, costs=costs, groups=groups)
    predictor = table_for([pool], [scores])
    cohort = make_cohort([pool], task=task)
    return cohort, pool, predictor


def random_binary_setup(rng, m=None):
    m = m or int(rng.integers(2, 5))
    labels = rng.integers(0, 2, size=m).astype(float)
    if labels.sum() == 0:
        labels[int(rng.integers(0, m))] = 1.0
    scores = rng.uniform(0.05, 0.95, size=m)
    costs = rng.integers(1, 4, size=m).astype(float)
    groups = rng.integers(0, 2, size=m)
    return tiny_setup(f"r{rng.integers(1 << 30)}", labels, scores, costs=costs, groups=groups)


def random_regression_setup(rng, m=None):
    m = m or int(rng.integers(2, 5))
    labels = rng.uniform(0.5, 6.0, size=m)
    scores = rng.uniform(0.5, 6.0, size=m)
    return tiny_setup(f"r{rng.integers(1 << 30)}", labels, scores, task="regression")


def binary_specs(m, n):
    k = min(2, n)
    return [TopK(k=k), Knapsack(), FairnessGini(k=k), MisclassRate(), CrossEntropy()]


def regression_specs():
    return [NashWelfare(budget=2.0), Mse()]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
