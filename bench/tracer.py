"""Traced mode: per-layer self times and counts, recorded from outside.

Every public function bound at module level in charvar (and every public
classmethod of its classes) is replaced, at each of its bindings, by a
wrapper that records a span: name, start, end, parent span and op.  The
spans stay in memory and are written out when the run ends.  A layer's
self time is its spans' durations minus the parts their child spans
cover.  Nothing under src/ is changed; the wrappers are removed after
the traced half of the run.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

# (metric, unit).  Counts and self times are per traced op.
PER_LAYER = [
    ("rootsys.positive_roots.self_ms", "ms/op"),
    ("rootsys.positive_roots.misses", "count/op"),
    ("rootsys.positive_roots.roots_built", "count/op"),
    ("rootsys.dimension.calls", "count/op"),
    ("rootsys.highest_root.self_ms", "ms/op"),
    ("rootsys.extended_diagram.self_ms", "ms/op"),
    ("rootsys.classify_diagram.self_ms", "ms/op"),
    ("snf.smith_normal_form.calls", "count/op"),
    ("snf.smith_normal_form.self_ms", "ms/op"),
    ("snf.smith_normal_form.cells", "count/op"),
    ("subalg.levi_table.self_ms", "ms/op"),
    ("subalg.bds_table.self_ms", "ms/op"),
    ("subalg.lattice_index.self_ms", "ms/op"),
    ("groups.from_torsion.calls", "count/op"),
    ("groups.from_torsion.self_ms", "ms/op"),
    ("groups.from_torsion.moduli_in", "count/op"),
    ("groups.parse_group.self_ms", "ms/op"),
    ("groups.center_group.self_ms", "ms/op"),
    ("homotopy.good_locus_homotopy.self_ms", "ms/op"),
    ("homotopy.pi_simple.calls", "count/op"),
    ("homotopy.load_database.self_ms", "ms/op"),
    ("localmodel.parabolic_weights.self_ms", "ms/op"),
    ("localmodel.homology_support.self_ms", "ms/op"),
    ("localmodel.homology_support.degrees_built", "count/op"),
    ("bounds.codim_report.self_ms", "ms/op"),
    ("bounds.classify_singular_locus.self_ms", "ms/op"),
    ("cli.import_ms", "ms"),
    ("cli.run.self_ms", "ms/op"),
    ("trace.overhead_pct", "%"),
]

# Work counted at a layer boundary, from the call's arguments and result.
# A classmethod's arguments start with the class.
COUNTERS = {
    "rootsys.positive_roots": lambda args, result, missed: {"roots_built": len(result) * missed},
    "snf.smith_normal_form": lambda args, result, missed: {
        "cells": len(args[0]) * (len(args[0][0]) if args[0] else 0)},
    "groups.from_torsion": lambda args, result, missed: {"moduli_in": len(args[1])},
    "localmodel.homology_support": lambda args, result, missed: {
        "degrees_built": len(result.dims)},
}

OP_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP_SPAN]
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.op = -1
        self._undo: list = []

    def _span(self, name: str, fn, cached: bool):
        if name == OP_SPAN:
            nid = 0
        else:
            nid = len(self.names)
            self.names.append(name)
        counter = COUNTERS.get(name)
        spans, stack, counts = self.spans, self.stack, self.counts[name]
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            before = fn.cache_info().misses if cached else 0
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.op)
            missed = fn.cache_info().misses - before if cached else 0
            counts["misses"] += missed
            if counter:
                counts.update(counter(args, result, missed))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules) -> None:
        """Wrap every public function at each module-level binding in charvar."""
        done: dict[int, object] = {}

        def wrapped(fn):
            if id(fn) not in done:
                name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
                done[id(fn)] = self._span(name, fn, hasattr(fn, "cache_info"))
            return done[id(fn)]

        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(value) and value.__module__ == module.__name__:
                    for name, member in list(vars(value).items()):
                        if not name.startswith("_") and isinstance(member, classmethod):
                            self._undo.append((value, name, member))
                            setattr(value, name, classmethod(wrapped(member.__func__)))
                elif (callable(value) and not inspect.isclass(value)
                      and getattr(value, "__module__", "").startswith("charvar")):
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapped(value))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def wrap_op(self, run):
        span = self._span(OP_SPAN, run, cached=False)

        def op():
            self.op += 1
            return span()

        return op

    def layer_stats(self) -> tuple[Counter, dict[str, float]]:
        """Calls and self seconds of each traced function."""
        calls, self_s, child = Counter(), defaultdict(float), defaultdict(float)
        for nid, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for idx, (nid, t0, t1, _, _) in enumerate(self.spans):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += t1 - t0 - child[idx]
        return calls, self_s

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": ["name", "start", "end", "parent", "op"],
                       "names": self.names, "spans": self.spans}, fh)


def _throughput(latencies) -> float:
    return len(latencies) / sum(latencies)


def traced_run(loop, seconds: float, modules, path: Path, cli_import_ms) -> dict:
    """Half the run untraced, half traced; per-layer metrics of the traced half."""
    loop.measure(seconds / 2)
    untraced = _throughput(loop.latencies)
    start = len(loop.latencies)

    tracer = Tracer()
    runs = [op.run for op in loop.ops]
    for op in loop.ops:
        op.run = tracer.wrap_op(op.run)
    tracer.install(modules)
    try:
        loop.measure(seconds / 2)
    finally:
        tracer.uninstall()
        for op, run in zip(loop.ops, runs):
            op.run = run
    traced_lat = loop.latencies[start:]
    n_ops = len(traced_lat)
    if not start or not n_ops:
        raise SystemExit("error: every timed op of a half failed")

    calls, self_s = tracer.layer_stats()
    metrics = {}
    for metric, unit in PER_LAYER:
        layer, _, what = metric.rpartition(".")
        if what == "self_ms":
            value = self_s[layer] * 1000 / n_ops
        elif what == "calls":
            value = calls[layer] / n_ops
        elif metric == "cli.import_ms":
            value = cli_import_ms()
        elif metric == "trace.overhead_pct":
            value = (untraced - _throughput(traced_lat)) / untraced * 100
        else:
            value = tracer.counts[layer][what] / n_ops
        metrics[metric] = (value, unit)
    tracer.write(path, {"traced_ops": n_ops})
    return metrics
