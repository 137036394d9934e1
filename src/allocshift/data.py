"""Cohort data model: instance pools held as columns, one row per individual.

A cohort is a list of pools; each pool is the within-instance universe that
problems are drawn from (with replacement). A pool holds its individuals' ids
and their features, labels, costs and group codes as arrays in source row
order, checked once when the pool is built. Pools are disjoint universes: the
same person never appears in two pools, and nothing identifies individuals
across pools.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from importlib import resources

import numpy as np

from .errors import (AllocShiftError, ConfigError, DataError, EmptyCohortError,
                     NumericalError, ParseError, SchemaError, _set_number)

BINARY = "binary"
REGRESSION = "regression"


# column -> (dtype, ndim, one row's entry, its rule, mask of the rows that break the rule)
_COLUMNS = {
    "numeric": (np.float64, 2, "numeric features", "finite", lambda c: ~np.isfinite(c).all(axis=1)),
    "categorical": (np.int64, 2, "categorical codes", ">= 0", lambda c: (c < 0).any(axis=1)),
    "labels": (np.float64, 1, "label", "finite", lambda c: ~np.isfinite(c)),
    "costs": (np.float64, 1, "cost", "finite and >= 0", lambda c: ~(np.isfinite(c) & (c >= 0))),
    "groups": (np.int64, 1, "group code", ">= 0", lambda c: c < 0),
}
_JSON_KEYS = ("id", "numeric", "categorical", "label", "cost", "group")  # one individual's keys


@contextmanager
def reading(path: str, what: str, error: type[AllocShiftError] = DataError):
    """The one rule for input files: a failure to open, decode or parse the file
    at path inside the block is raised as error, naming it "what 'path'"; an
    error of that class keeps its class."""
    try:
        yield
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path!r} holds invalid JSON ({exc})") from exc
    except KeyError as exc:
        raise error(f"{what} {path!r} is missing key {exc}") from exc
    except (AllocShiftError, OSError, TypeError, ValueError, csv.Error) as exc:  # bad UTF-8 too
        raise (type(exc) if isinstance(exc, error) else error)(f"{what} {path!r}: {exc}") from exc


def read_json(path: str, what: str, error: type[AllocShiftError] = DataError,
              build=lambda raw: raw):
    """build(the JSON the file at path holds), under reading's rule."""
    with reading(path, what, error), open(path, "r", encoding="utf-8") as fh:
        return build(json.load(fh))


def read_rows(path: str, delimiter: str = ",") -> list[list[str]]:
    """Every row of the delimited text file at path; read it under reading's rule."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh, delimiter=delimiter))


def holds_json(path: str, what: str) -> bool:
    """Whether the file at path starts, after whitespace, with a JSON object."""
    with reading(path, what), open(path, "rb") as fh:
        return fh.read(64).lstrip().startswith(b"{")


def write_json(payload, path: str) -> None:
    """The one writer of JSON artifacts: sorted keys, two-space indent, final newline.
    The text is formed before the file is opened, so a payload holding a
    non-finite number, which JSON cannot hold, is a NumericalError that leaves no file."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"{path}: JSON cannot hold a non-finite number") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


@dataclass(eq=False)
class InstancePool:
    """One instance's individuals as columns, in source row order.

    Row i of every column belongs to individual ids[i]: numeric is (m, d)
    standardized features, categorical (m, c) integer codes (c may be 0), and
    labels, costs and groups hold one value each.
    """

    instance_id: str
    ids: list[str]
    numeric: np.ndarray
    categorical: np.ndarray
    labels: np.ndarray
    costs: np.ndarray
    groups: np.ndarray

    def __post_init__(self):
        where = f"instance {self.instance_id!r}"
        self.ids = list(self.ids)
        m = len(self.ids)
        if not m:
            raise DataError(f"{where} has no individuals")
        if not all(isinstance(i, str) for i in self.ids):
            raise DataError(f"{where} has an individual id that is not a string")
        if len(set(self.ids)) != m:
            dup = next(i for i, n in Counter(self.ids).items() if n > 1)
            raise DataError(f"{where} has duplicate individual id {dup!r}")
        for name, (dtype, ndim, entry, rule, breaks) in _COLUMNS.items():
            try:
                raw = np.asarray(getattr(self, name))
            except ValueError:  # rows of unequal length
                raw = np.zeros(0)
            with np.errstate(invalid="ignore"):  # a NaN code fails the integer check below
                col = raw.astype(dtype, copy=False) if raw.dtype.kind in "iuf" else None
            if col is None or col.shape[:1] != (m,) or col.ndim != ndim:
                raise DataError(f"{where}: the {name} column is not {m} rows of numbers")
            if dtype is np.int64 and not np.array_equal(col, raw):
                raise DataError(f"{where}: the {name} column holds a code that is not an integer")
            bad = np.flatnonzero(breaks(col))
            if bad.size:
                raise DataError(f"{where}: individual {self.ids[bad[0]]!r} has {entry} "
                                f"{col[bad[0]].tolist()}, which must be {rule}")
            setattr(self, name, col)

    def __len__(self) -> int:
        return len(self.ids)


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
        if len(self.categorical_codes) != len(self.categorical_names):
            raise DataError(f"cohort has {len(self.categorical_codes)} categorical code tables "
                            f"for {len(self.categorical_names)} categorical features")
        widths = (len(self.numeric_names), len(self.categorical_names))
        levels = np.array([len(codes) for codes in self.categorical_codes], dtype=np.int64)
        for pool in self.pools:
            if (pool.numeric.shape[1], pool.categorical.shape[1]) != widths:
                raise DataError(f"instance {pool.instance_id!r} has {pool.numeric.shape[1]} numeric "
                                f"and {pool.categorical.shape[1]} categorical features, but the "
                                f"cohort names {widths[0]} and {widths[1]}")
            bad = np.argwhere(pool.categorical >= levels)
            if bad.size:
                i, c = bad[0]
                raise DataError(f"instance {pool.instance_id!r}: individual {pool.ids[i]!r} has "
                                f"code {pool.categorical[i, c].item()} for categorical feature "
                                f"{self.categorical_names[c]!r}, which has {levels[c]} levels")
        if self.task == BINARY:
            for pool in self.pools:
                bad = np.flatnonzero((pool.labels != 0.0) & (pool.labels != 1.0))
                if bad.size:
                    raise DataError(f"instance {pool.instance_id!r}: individual {pool.ids[bad[0]]!r} "
                                    f"has label {pool.labels[bad[0]].item()!r}, not a 0/1 binary label")
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
        if not all(isinstance(name, str) for name in self.columns):
            raise SchemaError("schema column names must be strings")

    @property
    def columns(self) -> list[str]:  # every column the schema names
        return [self.instance_id, self.label, *self.numeric, *self.categorical,
                *(c for c in (self.id, self.cost, self.group) if c is not None)]

    @staticmethod
    def from_json(path: str) -> "SchemaConfig":
        def build(raw) -> SchemaConfig:
            raw = dict(raw)
            bad = set(raw) - {f.name for f in fields(SchemaConfig)}
            if bad:
                raise SchemaError(f"unknown schema keys: {sorted(bad)}")
            return SchemaConfig(**{key: tuple(value) if key in ("numeric", "categorical") else value
                                   for key, value in raw.items()})

        return read_json(path, "schema file", SchemaError, build)


def _parse_float(text: str, row: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"row {row}: column {column!r} value {text!r} is not numeric") from None
    if not math.isfinite(value):
        raise ParseError(f"row {row}: column {column!r} value {text!r} is not finite")
    return value


def _parse_label(text: str, row: int, column: str, task: str) -> float:
    value = _parse_float(text, row, column)
    if task == BINARY and value not in (0.0, 1.0):
        raise ParseError(f"row {row}: column {column!r} value {text!r} is not a 0/1 binary label")
    return value


def load_cohort(path: str, schema: SchemaConfig | None = None) -> Cohort:
    """Load a cohort from delimited text (schema required) or from write_cohort JSON.

    Delimited ingestion standardizes numeric features over the whole cohort and
    replaces categorical/group strings with first-appearance integer codes.
    JSON input is loaded verbatim (already standardized).
    """
    if holds_json(path, "cohort file"):
        return read_json(path, "cohort JSON", DataError, _cohort_from_dict)
    if schema is None:
        raise ConfigError(f"{path!r} is delimited text; a schema is required to load it")
    return _load_delimited(path, schema)


def _load_delimited(path: str, schema: SchemaConfig) -> Cohort:
    with reading(path, "delimited cohort", ParseError):
        rows = read_rows(path, schema.delimiter)
    if not rows:
        raise EmptyCohortError(f"{path!r} is empty")
    header = [h.strip() for h in rows[0]]
    col = {name: i for i, name in enumerate(header)}

    for name in schema.columns:
        if name not in col:
            raise SchemaError(f"column {name!r} not found in {path!r} (header: {header})")

    data_rows = [r for r in rows[1:] if any(cell.strip() for cell in r)]
    if not data_rows:
        raise EmptyCohortError(f"{path!r} has a header but no data rows")

    cat_codes: list[dict[str, int]] = [{} for _ in schema.categorical]
    group_codes: dict[str, int] = {}  # raw string -> code, in first-appearance order
    by_instance: dict[str, list[int]] = {}  # first-appearance instance order
    ids, numeric, categorical, labels, costs, groups = [], [], [], [], [], []
    for offset, row in enumerate(data_rows):
        rownum = offset + 2  # 1-based, counting the header
        if len(row) != len(header):
            raise ParseError(f"row {rownum}: expected {len(header)} fields, got {len(row)}")
        cell = {name: row[i].strip() for name, i in col.items()}
        inst = cell[schema.instance_id]
        by_instance.setdefault(inst, []).append(offset)
        ids.append(cell[schema.id] if schema.id is not None else f"{inst}:{rownum}")
        numeric.append([_parse_float(cell[c], rownum, c) for c in schema.numeric])
        categorical.append([codes.setdefault(cell[c], len(codes))
                            for codes, c in zip(cat_codes, schema.categorical)])
        labels.append(_parse_label(cell[schema.label], rownum, schema.label, schema.task))
        costs.append(1.0 if schema.cost is None
                     else _parse_float(cell[schema.cost], rownum, schema.cost))
        groups.append(0 if schema.group is None
                      else group_codes.setdefault(cell[schema.group], len(group_codes)))

    matrix = np.asarray(numeric, dtype=np.float64)  # (rows, 0) with no numeric columns
    mean, std = matrix.mean(axis=0), matrix.std(axis=0)
    std = np.where(std > 0, std, 1.0)  # constant columns pass through centered
    columns = [np.asarray(c) for c in ((matrix - mean) / std, categorical, labels, costs, groups)]
    pools = [InstancePool(inst, [ids[r] for r in rows], *(c[rows] for c in columns))
             for inst, rows in by_instance.items()]

    return Cohort(
        pools=pools,
        task=schema.task,
        numeric_names=list(schema.numeric),
        categorical_names=list(schema.categorical),
        categorical_codes=[list(codes) for codes in cat_codes],
        group_codes=list(group_codes),
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
                    dict(zip(_JSON_KEYS, row))
                    for row in zip(pool.ids, *(getattr(pool, c).tolist() for c in _COLUMNS))
                ],
            }
            for pool in cohort.pools
        ],
    }
    write_json(payload, path)


def _cohort_from_dict(raw: dict) -> Cohort:
    pools = [InstancePool(p["instance_id"], *([i[k] for i in p["individuals"]] for k in _JSON_KEYS))
             for p in raw["pools"]]
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


@dataclass(frozen=True)
class SyntheticSpec:
    """Two-level generator: instance-level latent feature means drawn uniformly
    from [-1, 1], individual-level noise, and integer costs from 1 to 4."""

    instances: int
    pool_size: int
    numeric_features: int = 2
    categorical_features: int = 0
    categorical_levels: int = 4
    task: str = BINARY
    label_noise: float = 0.25
    groups: int = 2
    income_scale: float = 10.0

    def __post_init__(self):
        for name, kind in (("instances", int), ("pool_size", int), ("numeric_features", int),
                           ("categorical_features", int), ("categorical_levels", int),
                           ("label_noise", float), ("groups", int), ("income_scale", float)):
            _set_number(self, name, kind)
        if self.instances < 1 or self.pool_size < 1:
            raise ConfigError("instances and pool_size must be >= 1")
        if self.numeric_features < 1:
            raise ConfigError("numeric_features must be >= 1")
        if self.task not in (BINARY, REGRESSION):
            raise ConfigError(f"task must be {BINARY!r} or {REGRESSION!r}")
        if self.groups < 1:
            raise ConfigError("groups must be >= 1")


def generate_synthetic(spec: SyntheticSpec, seed: int) -> Cohort:
    """Draw a synthetic cohort. Identical (spec, seed) pairs produce identical cohorts."""
    rng = np.random.default_rng(seed)
    d = spec.numeric_features
    weights = rng.normal(size=d) / math.sqrt(d)
    raw_pools = []
    for j in range(spec.instances):
        theta = rng.uniform(-1.0, 1.0, size=d)
        x = theta + rng.normal(size=(spec.pool_size, d))
        cats = rng.integers(0, spec.categorical_levels, size=(spec.pool_size, spec.categorical_features))
        logits = x @ weights + rng.normal(0.0, spec.label_noise, size=spec.pool_size)
        if spec.task == BINARY:
            labels = (rng.random(spec.pool_size) < 1.0 / (1.0 + np.exp(-logits))).astype(np.float64)
        else:
            labels = spec.income_scale * np.log1p(np.exp(logits)) + 1.0  # strictly positive incomes
        costs = rng.integers(1, 5, size=spec.pool_size).astype(np.float64)
        groups = rng.integers(0, spec.groups, size=spec.pool_size)
        raw_pools.append((x, cats, labels, costs, groups))

    matrix = np.concatenate([x for x, *_ in raw_pools], axis=0)
    mean, std = matrix.mean(axis=0), matrix.std(axis=0)
    std = np.where(std > 0, std, 1.0)

    pools = [InstancePool(str(j), [f"{j}-{i}" for i in range(spec.pool_size)], (x - mean) / std, *rest)
             for j, (x, *rest) in enumerate(raw_pools)]

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
