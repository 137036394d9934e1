"""Shared builders: hand-assembled pools with table predictors, so every test
controls scores and labels exactly, plus random tiny instances for the
enumeration-oracle property tests."""

import numpy as np
import pytest

from allocshift import (Cohort, CrossEntropy, FairnessGini, InstancePool,
                        Knapsack, MisclassRate, Mse, NashWelfare,
                        TablePredictor, TopK)


def make_pool(pid, labels, costs=None, groups=None):
    m = len(labels)
    return InstancePool(instance_id=str(pid), ids=[f"{pid}-{i}" for i in range(m)],
                        numeric=np.zeros((m, 1)), categorical=np.zeros((m, 0), dtype=np.int64),
                        labels=labels, costs=np.ones(m) if costs is None else costs,
                        groups=np.zeros(m, dtype=np.int64) if groups is None else groups)


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
        if pa.ids != pb.ids:
            return False
        for column in ("numeric", "categorical", "labels", "costs", "groups"):
            if not np.array_equal(getattr(pa, column), getattr(pb, column)):
                return False
    return True


def make_cohort(pools, task="binary"):
    groups = sorted({int(g) for p in pools for g in p.groups})
    return Cohort(pools=list(pools), task=task, numeric_names=["x0"],
                  categorical_names=[], categorical_codes=[],
                  group_codes=[str(g) for g in groups],
                  standardize_mean=np.zeros(1), standardize_std=np.ones(1))


def table_for(pools, scores_per_pool):
    table = {}
    for pool, scores in zip(pools, scores_per_pool):
        for i, s in zip(pool.ids, scores):
            table[i] = float(s)
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
