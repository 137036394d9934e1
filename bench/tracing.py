"""Spans around the public functions of each allocshift module, installed from outside.

A function is wrapped at every module attribute that binds it, so a call made
through `from .oracle import exact_objective` in another module is traced as
well. A name that no longer exists is recorded as absent rather than raising,
so the benchmark keeps working across refactors of the program.

Spans are kept in memory as (name, tag, start, end, parent) tuples; self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from contextlib import ExitStack, contextmanager

PACKAGE = "allocshift"

# module -> public names (a dotted name is a method of a public class)
TARGETS = {
    "cli": ["main"],
    "data": ["load_cohort"],
    "predictors": ["load_predictor", "predict_pool"],
    "engine": ["find_worst_case", "save_report", "LossCache.shifted"],
    "losses": ["batch_shifted_loss"],
    "uncertainty": ["gradmax"],
    "evaluation": ["matrix_from_shifts", "evaluate_shift_stats", "oracle_ratio_curve"],
    "oracle": ["enumerate_problems", "exact_objective", "exact_gradient", "oracle_maximize"],
    "reporting": ["write_trace_csv", "write_matrix_csv", "write_curve_csv"],
}
SPAN_NAMES = [f"{mod}.{name}" for mod, names in TARGETS.items() for name in names]
SCORE = "losses.batch_shifted_loss"
ENUMERATE = "oracle.enumerate_problems"


def _resolve(dotted: str):
    """(owner, attribute, object) for 'module.name' or 'module.Class.method', or None."""
    mod_name, *path = dotted.split(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
    except ModuleNotFoundError:
        return None
    for attr in path[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    obj = getattr(owner, path[-1], None)
    return None if obj is None else (owner, path[-1], obj)


@contextmanager
def rebound(dotted: str, make_wrapper):
    """Replace the object named by `dotted` with make_wrapper(obj) at every binding
    inside the package for the duration of the block; yields False if it is absent."""
    found = _resolve(dotted)
    if found is None:
        yield False
        return
    owner, attr, original = found
    bindings = [(owner, attr)]
    if isinstance(owner, type(sys)):  # a module-level function: rebind every alias of it
        bindings = [(mod, key) for name, mod in list(sys.modules.items())
                    if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
                    for key, value in list(vars(mod).items()) if value is original]
    wrapper = make_wrapper(original)
    for target, key in bindings:
        setattr(target, key, wrapper)
    try:
        yield True
    finally:
        for target, key in bindings:
            setattr(target, key, original)


class Tracer:
    """Records a span per call of each target, plus the loss and oracle counters."""

    def __init__(self):
        self.spans: list = []
        self.absent: list[str] = []
        self.rows_scored = 0  # rows scored outside the oracle's enumeration
        self.multisets = 0
        self.peak_bytes = 0  # largest tracemalloc peak of one batch_shifted_loss call
        self._stack: list[tuple[int, str]] = []

    def _call(self, name: str, tag: str, fn, args, kwargs):
        i = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        self._stack.append((i, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[i] = (name, tag, start, time.perf_counter(), parent)
            self._stack.pop()

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._call(name, "", fn, args, kwargs)
            if name == ENUMERATE:
                self.multisets += int(result.losses.shape[0])
            return result
        return traced

    def _scored(self, fn):
        """batch_shifted_loss(spec, pd, idx, ...): tagged by loss kind, with rows and memory."""
        @functools.wraps(fn)
        def traced(spec, pd, idx, *args, **kwargs):
            if all(name != ENUMERATE for _, name in self._stack):
                self.rows_scored += int(idx.shape[0])
            tracemalloc.start()
            try:
                return self._call(SCORE, spec.kind, fn, (spec, pd, idx, *args), kwargs)
            finally:
                self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        with ExitStack() as stack:
            for dotted in SPAN_NAMES:
                wrap = self._scored if dotted == SCORE else functools.partial(self._span, dotted)
                if not stack.enter_context(rebound(dotted, wrap)):
                    self.absent.append(dotted)
            yield self

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name (and per SCORE tag as 'SCORE.<kind>'): calls, total_s, self_s."""
        child = [0.0] * len(self.spans)
        for name, tag, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, tag, start, end, _), inner in zip(self.spans, child):
            keys = [name, f"{name}.{tag}"] if tag else [name]
            for key in keys:
                agg = out.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                agg["calls"] += 1
                agg["total_s"] += end - start
                agg["self_s"] += end - start - inner
        return out
