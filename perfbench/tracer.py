"""Outside-in span tracer: wraps the public functions the solver calls.

The modules of ``hprlp`` import each other's functions by name, so a
function is patched in the namespace that calls it (``hprlp.solver.pr_step``,
not ``hprlp.engine.pr_step``).  Class methods are patched on the class.
Every call of a patched function becomes a span with a name, start, end
and the index of the enclosing span.  Spans stay in memory until the
caller folds them into totals with ``self_times`` and clears them.
"""

from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager

import numpy as np

# (module[:class], attribute, span name); the span name's prefix is the
# layer it is charged to
HOOKS = (
    ("hprlp.solver", "pr_step", "engine.pr_step"),
    ("hprlp.solver", "halpern_step", "engine.halpern_step"),
    ("hprlp.solver", "m_norm", "adaptive.m_norm"),
    ("hprlp.solver", "check_restart", "adaptive.check_restart"),
    ("hprlp.solver", "sigma_update", "adaptive.sigma_update"),
    ("hprlp.solver", "relative_residuals", "model.relative_residuals"),
    ("hprlp.solver", "apply_scaling", "solver.apply_scaling"),
    ("hprlp.solver", "estimate_lambda_A", "sparse.estimate_lambda_A"),
    ("hprlp.engine", "project_box", "model.project_box"),
    ("hprlp.engine", "y_update_t1_zero", "engine.y_update_t1_zero"),
    ("hprlp.sparse:SparseMatrix", "matvec", "sparse.matvec"),
    ("hprlp.sparse:SparseMatrix", "rmatvec", "sparse.rmatvec"),
    ("hprlp.engine:NormalEquationSolver", "solve", "engine.normal_solve"),
    ("hprlp.engine:NormalEquationSolver", "__init__", "engine.normal_factor"),
)


def self_times(names, starts, ends, parents) -> dict[str, list]:
    """Per span name: [calls, total seconds, self seconds].

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child = [0.0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    out: dict[str, list] = {}
    for i, name in enumerate(names):
        dur = ends[i] - starts[i]
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur
        row[2] += dur - child[i]
    return out


def nesting_errors(starts, ends, parents) -> int:
    """Spans that were never closed, end before they start, or stick out
    of their parent span.  Zero for a sound trace of one thread."""
    starts, ends, parents = np.asarray(starts), np.asarray(ends), np.asarray(parents)
    bad = ends < starts
    child = parents >= 0
    p = parents[child]
    bad[child] |= (starts[child] < starts[p]) | (ends[child] > ends[p])
    return int(bad.sum())


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _begin(self, name) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _end(self, i):
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        i = self._begin(name)
        try:
            yield
        finally:
            self._end(i)

    def wrap(self, fn, name):
        begin, end = self._begin, self._end

        def traced(*args, **kwargs):
            i = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(i)

        traced.__wrapped__ = fn
        return traced

    def span_cost(self, calls=20_000, reps=5) -> float:
        """Seconds one wrapped call costs more than a plain one: the median
        over ``reps`` tight loops of a no-op.  Drops every recorded span."""

        def noop():
            return None

        traced = self.wrap(noop, "trace.calibrate")
        costs = []
        for _ in range(reps):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                traced()
            t2 = time.perf_counter()
            self.clear()
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
        return statistics.median(costs)

    def clear(self):
        if self._stack:
            raise RuntimeError("cannot clear spans while a span is open")
        for lst in (self.names, self.starts, self.ends, self.parents):
            lst.clear()

    def install(self, hooks=HOOKS):
        """Patch every hook; a target that no longer exists is recorded in
        ``missing`` under its span name instead of being patched."""
        self.missing = []
        for target, attr, name in hooks:
            module_name, _, cls_name = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                if cls_name:
                    owner = getattr(owner, cls_name)
                original = owner.__dict__[attr] if cls_name else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
