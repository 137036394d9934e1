"""Cohort data model: individual records grouped into instance pools.

A cohort is a list of pools; each pool is the within-instance universe that
problems are drawn from (with replacement). Pools are disjoint universes:
the same person never appears in two pools, and nothing identifies
individuals across pools.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources

import numpy as np

from .errors import (ConfigError, DataError, EmptyCohortError, ParseError,
                     SchemaError)

BINARY = "binary"
REGRESSION = "regression"


@dataclass(frozen=True, eq=False)
class IndividualRecord:
    """One person: standardized numeric features, coded categoricals, label, cost, group."""

    id: str
    numeric: np.ndarray
    categorical: np.ndarray
    label: float
    cost: float = 1.0
    group: int = 0

    def __post_init__(self):
        object.__setattr__(self, "numeric", np.asarray(self.numeric, dtype=np.float64))
        object.__setattr__(self, "categorical", np.asarray(self.categorical, dtype=np.int64))
        if self.cost < 0:
            raise ValueError(f"cost must be >= 0, got {self.cost} for id {self.id!r}")
        if self.group < 0:
            raise ValueError(f"group code must be >= 0, got {self.group} for id {self.id!r}")


@dataclass(eq=False)
class InstancePool:
    """Ordered individuals for one instance; row order of the source is preserved."""

    instance_id: str
    individuals: list[IndividualRecord]

    def __post_init__(self):
        if not self.individuals:
            raise ValueError(f"instance {self.instance_id!r} has no individuals")
        ids = [ind.id for ind in self.individuals]
        if len(set(ids)) != len(ids):
            raise ValueError(f"instance {self.instance_id!r} has duplicate individual ids")

    def __len__(self) -> int:
        return len(self.individuals)

    @cached_property
    def labels(self) -> np.ndarray:
        return np.array([ind.label for ind in self.individuals], dtype=np.float64)

    @cached_property
    def costs(self) -> np.ndarray:
        return np.array([ind.cost for ind in self.individuals], dtype=np.float64)

    @cached_property
    def groups(self) -> np.ndarray:
        return np.array([ind.group for ind in self.individuals], dtype=np.int64)

    @cached_property
    def numeric(self) -> np.ndarray:
        return np.stack([ind.numeric for ind in self.individuals]).astype(np.float64)

    @cached_property
    def categorical(self) -> np.ndarray:
        return np.stack([ind.categorical for ind in self.individuals]).astype(np.int64)


@dataclass(eq=False)
class Cohort:
    """All pools plus ingestion metadata (code tables, standardization constants)."""

    pools: list[InstancePool]
    task: str = BINARY
    numeric_names: list[str] = field(default_factory=list)
    categorical_names: list[str] = field(default_factory=list)
    categorical_codes: list[list[str]] = field(default_factory=list)
    group_codes: list[str] = field(default_factory=list)
    standardize_mean: np.ndarray = field(default_factory=lambda: np.zeros(0))
    standardize_std: np.ndarray = field(default_factory=lambda: np.ones(0))

    def __post_init__(self):
        if self.task not in (BINARY, REGRESSION):
            raise ValueError(f"task must be {BINARY!r} or {REGRESSION!r}, got {self.task!r}")
        if not self.pools:
            raise EmptyCohortError("cohort has no instance pools")
        ids = [p.instance_id for p in self.pools]
        if len(set(ids)) != len(ids):
            dup = next(i for i in ids if ids.count(i) > 1)
            raise DataError(f"cohort has duplicate instance id {dup!r}")
        if self.task == BINARY:
            for pool in self.pools:
                bad = np.flatnonzero((pool.labels != 0.0) & (pool.labels != 1.0))
                if bad.size:
                    ind = pool.individuals[bad[0]]
                    raise DataError(f"instance {pool.instance_id!r}: individual {ind.id!r} has "
                                    f"label {ind.label!r}, not a 0/1 binary label")
        self.standardize_mean = np.asarray(self.standardize_mean, dtype=np.float64)
        self.standardize_std = np.asarray(self.standardize_std, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.pools)

    @property
    def instance_ids(self) -> list[str]:
        return [p.instance_id for p in self.pools]


@dataclass(frozen=True)
class SchemaConfig:
    """Column names for delimited ingestion. cost/group columns are optional."""

    instance_id: str
    label: str
    numeric: tuple[str, ...] = ()
    categorical: tuple[str, ...] = ()
    id: str | None = None
    cost: str | None = None
    group: str | None = None
    task: str = BINARY
    delimiter: str = ","

    def __post_init__(self):
        if self.task not in (BINARY, REGRESSION):
            raise SchemaError(f"schema task must be {BINARY!r} or {REGRESSION!r}, got {self.task!r}")
        if not self.numeric and not self.categorical:
            raise SchemaError("schema names no feature columns")

    @staticmethod
    def from_json(path: str) -> "SchemaConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        known = {"instance_id", "label", "numeric", "categorical", "id", "cost", "group", "task", "delimiter"}
        bad = set(raw) - known
        if bad:
            raise SchemaError(f"unknown schema keys: {sorted(bad)}")
        for key in ("numeric", "categorical"):
            if key in raw:
                raw[key] = tuple(raw[key])
        try:
            return SchemaConfig(**raw)
        except TypeError as exc:
            raise SchemaError(f"schema file {path!r} is incomplete: {exc}") from exc


def _parse_float(text: str, row: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"row {row}: column {column!r} value {text!r} is not numeric") from None


def _parse_label(text: str, row: int, column: str, task: str) -> float:
    value = _parse_float(text, row, column)
    if task == BINARY and value not in (0.0, 1.0):
        raise ParseError(f"row {row}: column {column!r} value {text!r} is not a 0/1 binary label")
    return value


class _CodeTable:
    """Raw string -> integer code, assigned in first-appearance order."""

    def __init__(self):
        self.codes: dict[str, int] = {}

    def code(self, raw: str) -> int:
        if raw not in self.codes:
            self.codes[raw] = len(self.codes)
        return self.codes[raw]

    def names(self) -> list[str]:
        return list(self.codes)


def load_cohort(path: str, schema: SchemaConfig | None = None) -> Cohort:
    """Load a cohort from delimited text (schema required) or from write_cohort JSON.

    Delimited ingestion standardizes numeric features over the whole cohort and
    replaces categorical/group strings with first-appearance integer codes.
    JSON input is loaded verbatim (already standardized).
    """
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.read(64)
    if head.lstrip().startswith("{"):
        return _cohort_from_json(path)
    if schema is None:
        raise ConfigError(f"{path!r} is delimited text; a schema is required to load it")
    return _load_delimited(path, schema)


def _load_delimited(path: str, schema: SchemaConfig) -> Cohort:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        rows = list(reader)
    if not rows:
        raise EmptyCohortError(f"{path!r} is empty")
    header = [h.strip() for h in rows[0]]
    col = {name: i for i, name in enumerate(header)}

    needed = [schema.instance_id, schema.label, *schema.numeric, *schema.categorical]
    for opt in (schema.id, schema.cost, schema.group):
        if opt is not None:
            needed.append(opt)
    for name in needed:
        if name not in col:
            raise SchemaError(f"column {name!r} not found in {path!r} (header: {header})")

    data_rows = [r for r in rows[1:] if any(cell.strip() for cell in r)]
    if not data_rows:
        raise EmptyCohortError(f"{path!r} has a header but no data rows")

    cat_tables = [_CodeTable() for _ in schema.categorical]
    group_table = _CodeTable()
    by_instance: dict[str, list[IndividualRecord]] = {}
    numeric_rows = []

    for offset, row in enumerate(data_rows):
        rownum = offset + 2  # 1-based, counting the header
        if len(row) != len(header):
            raise ParseError(f"row {rownum}: expected {len(header)} fields, got {len(row)}")
        inst = row[col[schema.instance_id]].strip()
        numeric = [_parse_float(row[col[c]].strip(), rownum, c) for c in schema.numeric]
        categorical = [cat_tables[i].code(row[col[c]].strip()) for i, c in enumerate(schema.categorical)]
        label = _parse_label(row[col[schema.label]].strip(), rownum, schema.label, schema.task)
        cost = 1.0
        if schema.cost is not None:
            cost = _parse_float(row[col[schema.cost]].strip(), rownum, schema.cost)
            if cost < 0:
                raise ParseError(f"row {rownum}: column {schema.cost!r} cost {cost} is negative")
        group = 0
        if schema.group is not None:
            group = group_table.code(row[col[schema.group]].strip())
        rid = row[col[schema.id]].strip() if schema.id is not None else f"{inst}:{rownum}"
        numeric_rows.append(numeric)
        by_instance.setdefault(inst, []).append(
            IndividualRecord(id=rid, numeric=np.array(numeric), categorical=np.array(categorical, dtype=np.int64),
                             label=label, cost=cost, group=group)
        )

    matrix = np.asarray(numeric_rows, dtype=np.float64)
    if matrix.size:
        mean = matrix.mean(axis=0)
        std = matrix.std(axis=0)
        std = np.where(std > 0, std, 1.0)  # constant columns pass through centered
    else:
        mean = np.zeros(0)
        std = np.ones(0)

    pools = []
    for inst, records in by_instance.items():  # first-appearance instance order
        standardized = [
            IndividualRecord(id=r.id, numeric=(r.numeric - mean) / std, categorical=r.categorical,
                             label=r.label, cost=r.cost, group=r.group)
            for r in records
        ]
        pools.append(InstancePool(instance_id=inst, individuals=standardized))

    return Cohort(
        pools=pools,
        task=schema.task,
        numeric_names=list(schema.numeric),
        categorical_names=list(schema.categorical),
        categorical_codes=[t.names() for t in cat_tables],
        group_codes=group_table.names(),
        standardize_mean=mean,
        standardize_std=std,
    )


def write_cohort(cohort: Cohort, path: str) -> None:
    """Serialize a cohort to canonical JSON (sorted keys, round-trip floats)."""
    payload = {
        "task": cohort.task,
        "numeric_names": cohort.numeric_names,
        "categorical_names": cohort.categorical_names,
        "categorical_codes": cohort.categorical_codes,
        "group_codes": cohort.group_codes,
        "standardize_mean": cohort.standardize_mean.tolist(),
        "standardize_std": cohort.standardize_std.tolist(),
        "pools": [
            {
                "instance_id": pool.instance_id,
                "individuals": [
                    {
                        "id": ind.id,
                        "numeric": ind.numeric.tolist(),
                        "categorical": ind.categorical.tolist(),
                        "label": ind.label,
                        "cost": ind.cost,
                        "group": ind.group,
                    }
                    for ind in pool.individuals
                ],
            }
            for pool in cohort.pools
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _cohort_from_json(path: str) -> Cohort:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    try:
        pools = [
            InstancePool(
                instance_id=p["instance_id"],
                individuals=[
                    IndividualRecord(id=i["id"], numeric=np.array(i["numeric"]),
                                     categorical=np.array(i["categorical"], dtype=np.int64),
                                     label=i["label"], cost=i["cost"], group=i["group"])
                    for i in p["individuals"]
                ],
            )
            for p in raw["pools"]
        ]
        return Cohort(
            pools=pools,
            task=raw["task"],
            numeric_names=list(raw["numeric_names"]),
            categorical_names=list(raw["categorical_names"]),
            categorical_codes=[list(c) for c in raw["categorical_codes"]],
            group_codes=list(raw["group_codes"]),
            standardize_mean=np.array(raw["standardize_mean"]),
            standardize_std=np.array(raw["standardize_std"]),
        )
    except KeyError as exc:
        raise SchemaError(f"cohort JSON {path!r} is missing key {exc}") from exc


@dataclass(frozen=True)
class SyntheticSpec:
    """Two-level generator: instance-level latent feature means, individual-level noise."""

    instances: int
    pool_size: int
    numeric_features: int = 2
    categorical_features: int = 0
    categorical_levels: int = 4
    task: str = BINARY
    latent_low: float = -1.0
    latent_high: float = 1.0
    label_noise: float = 0.25
    cost_low: int = 1
    cost_high: int = 4
    groups: int = 2
    income_scale: float = 10.0

    def __post_init__(self):
        if self.instances < 1 or self.pool_size < 1:
            raise ValueError("instances and pool_size must be >= 1")
        if self.numeric_features < 1:
            raise ValueError("numeric_features must be >= 1")
        if self.latent_low > self.latent_high:
            raise ValueError("latent_low must be <= latent_high")
        if self.task not in (BINARY, REGRESSION):
            raise ValueError(f"task must be {BINARY!r} or {REGRESSION!r}")
        if self.cost_low < 0 or self.cost_high < self.cost_low:
            raise ValueError("cost range must satisfy 0 <= cost_low <= cost_high")
        if self.groups < 1:
            raise ValueError("groups must be >= 1")


def generate_synthetic(spec: SyntheticSpec, seed: int) -> Cohort:
    """Draw a synthetic cohort. Identical (spec, seed) pairs produce identical cohorts."""
    rng = np.random.default_rng(seed)
    d = spec.numeric_features
    weights = rng.normal(size=d) / math.sqrt(d)
    pools = []
    all_numeric = []
    raw_pools = []
    for j in range(spec.instances):
        theta = rng.uniform(spec.latent_low, spec.latent_high, size=d)
        x = theta + rng.normal(size=(spec.pool_size, d))
        cats = rng.integers(0, spec.categorical_levels, size=(spec.pool_size, spec.categorical_features))
        logits = x @ weights + rng.normal(0.0, spec.label_noise, size=spec.pool_size)
        if spec.task == BINARY:
            labels = (rng.random(spec.pool_size) < 1.0 / (1.0 + np.exp(-logits))).astype(np.float64)
        else:
            labels = spec.income_scale * np.log1p(np.exp(logits)) + 1.0  # strictly positive incomes
        costs = rng.integers(spec.cost_low, spec.cost_high + 1, size=spec.pool_size).astype(np.float64)
        groups = rng.integers(0, spec.groups, size=spec.pool_size)
        raw_pools.append((x, cats, labels, costs, groups))
        all_numeric.append(x)

    matrix = np.concatenate(all_numeric, axis=0)
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    std = np.where(std > 0, std, 1.0)

    for j, (x, cats, labels, costs, groups) in enumerate(raw_pools):
        records = [
            IndividualRecord(
                id=f"{j}-{i}",
                numeric=(x[i] - mean) / std,
                categorical=cats[i],
                label=float(labels[i]),
                cost=float(costs[i]),
                group=int(groups[i]),
            )
            for i in range(spec.pool_size)
        ]
        pools.append(InstancePool(instance_id=str(j), individuals=records))

    return Cohort(
        pools=pools,
        task=spec.task,
        numeric_names=[f"x{i}" for i in range(d)],
        categorical_names=[f"c{i}" for i in range(spec.categorical_features)],
        categorical_codes=[[str(v) for v in range(spec.categorical_levels)]
                           for _ in range(spec.categorical_features)],
        group_codes=[str(g) for g in range(spec.groups)],
        standardize_mean=mean,
        standardize_std=std,
    )


def demo_cohort_path(task: str = BINARY) -> str:
    """Path of the small bundled cohort for the given task."""
    if task not in (BINARY, REGRESSION):
        raise ValueError(f"task must be {BINARY!r} or {REGRESSION!r}")
    path = resources.files("allocshift").joinpath("assets", f"demo_{task}.json")
    return str(path)
