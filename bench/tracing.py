"""Span tracing of the toricap layers from outside the package.

``Tracer.install`` replaces every public function of the layer modules,
in every module namespace that holds a reference to it (for example
``toricap.capacities.delta`` as well as ``toricap.geometry.delta``), by a
wrapper that records one span per call: name, start, duration, parent
span and op id.  Spans live in flat arrays in memory and are written out
once, at the end of the run.  A layer's self time is its spans' duration
minus the duration of their child spans.

Iterators returned by a wrapped function (``enumerate_orbit_sets``) are
wrapped too: the span then covers the call plus every ``next`` on the
iterator, and counts the items yielded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import Counter

LAYERS = ("domains", "geometry", "lagrangian", "capacities", "ech", "cli")
SHAPED = {"delta", "eta", "is_monotone", "cube_inclusion", "domain_on_boundary"}
SHAPES = {"Polygon2D": "poly", "Rectilinear2D": "rect", "StandardDomain": "std"}
RULES = ("MonotoneDiagonal", "EtaOnBoundary", "LatticeWitness", "IntervalOnly")
STATUSES = ("FeasibleWitness", "InfeasibleWithinBounds", "Inconclusive")
SEARCH_COUNTERS = ("candidate_factors", "factors_pruned", "factorizations_explored",
                   "enumerations_run")


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.op_id = array("q")
        self.start = array("q")
        self.dur = array("q")
        self.aux = array("q")  # per-name result summary: bool, rule, status or yield count
        self.stack = [-1]
        self.op = -1
        self.active = False
        self.search_counters = Counter()
        self._patched: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        i = len(self.dur)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.op_id.append(self.op)
        self.start.append(time.perf_counter_ns())
        self.dur.append(0)
        self.aux.append(0)
        self.stack.append(i)
        return i

    def _wrap(self, fn, qualname: str):
        short = qualname.rsplit(".", 1)[1]
        if short in SHAPED:
            ids = {cls: self._id(f"{qualname}.{tag}") for cls, tag in SHAPES.items()}
            pick = lambda args: ids.get(type(args[0]).__name__, ids["StandardDomain"])
        else:
            nid = self._id(qualname)
            pick = lambda args: nid
        summarize = self._summarizer(short)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = tracer._open(pick(args))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.dur[i] += clock() - t0
                tracer.stack.pop()
            if summarize is not None:
                tracer.aux[i] = summarize(result)
            if short == "enumerate_orbit_sets":
                return _TracedIterator(tracer, i, result)
            return result

        return wrapper

    def _summarizer(self, short: str):
        if short == "domain_on_boundary":
            return int
        if short == "leq_relation":
            return lambda r: int(r.holds)
        if short == "lagrangian_capacity":
            return lambda r: RULES.index(r.rule.value)
        if short == "obstruction_search":
            def search(r):
                b = r.bounds_used
                for key in SEARCH_COUNTERS:
                    self.search_counters[key] += getattr(b, key)
                return STATUSES.index(r.status.value)
            return search
        return None

    def install(self, package):
        """Wrap the public functions of every layer module, in every namespace."""
        modules = [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]
        layer_names = {f"{package.__name__}.{m}" for m in LAYERS}
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ not in layer_names:
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__name__}")
                setattr(module, attr, wrappers[obj])
                self._patched.append((module, attr, obj))

    def uninstall(self):
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def drop_ops(self, ops):
        """Forget the spans of the given op ids; a kept span's parent is in its own op."""
        if not ops:
            return
        keep = [i for i in range(len(self.dur)) if self.op_id[i] not in ops]
        new_index = {old: new for new, old in enumerate(keep)}
        for name in ("name_id", "op_id", "start", "dur", "aux"):
            column = getattr(self, name)
            setattr(self, name, array(column.typecode, (column[i] for i in keep)))
        self.parent = array("q", (new_index.get(self.parent[i], -1) for i in keep))

    # -- analysis ----------------------------------------------------------

    def layer_stats(self):
        """Calls, self time and total time of every span name."""
        n = len(self.dur)
        child = [0] * n
        parent, dur, name_id = self.parent, self.dur, self.name_id
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls, self_ns, total_ns = Counter(), Counter(), Counter()
        for i in range(n):
            nid = name_id[i]
            calls[nid] += 1
            self_ns[nid] += dur[i] - child[i]
            total_ns[nid] += dur[i]
        return {
            self.names[k]: {"calls": calls[k], "self_s": self_ns[k] / 1e9, "total_s": total_ns[k] / 1e9}
            for k in calls
        }

    def under(self, ancestor: str):
        """Flags marking the spans that have a span named ``ancestor`` above them."""
        target = self._ids.get(ancestor, -2)
        flags = bytearray(len(self.dur))
        for i in range(len(self.dur)):
            p = self.parent[i]
            if p >= 0 and (flags[p] or self.name_id[p] == target):
                flags[i] = 1
        return flags

    def aux_counts(self, name: str, flags=None, exclude=None) -> Counter:
        """Counter of aux values over the spans of one name, optionally filtered."""
        nid = self._ids.get(name, -2)
        out = Counter()
        for i in range(len(self.dur)):
            if self.name_id[i] != nid:
                continue
            if flags is not None and not flags[i]:
                continue
            if exclude is not None and exclude[i]:
                continue
            out[self.aux[i]] += 1
        return out

    def self_outside(self, span_name: str, prefix: str) -> int:
        """Duration of the named spans minus their direct children outside ``prefix``."""
        target = self._ids.get(span_name, -2)
        total = 0
        for i in range(len(self.dur)):
            if self.name_id[i] == target:
                total += self.dur[i]
            p = self.parent[i]
            if p >= 0 and self.name_id[p] == target:
                if not self.names[self.name_id[i]].startswith(prefix):
                    total -= self.dur[i]
        return total

    def write(self, path):
        """All spans as JSON lines: name, start_ns, dur_ns, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.dur)):
                fh.write(json.dumps([self.names[self.name_id[i]], self.start[i], self.dur[i],
                                     self.parent[i], self.op_id[i]]) + "\n")


class _TracedIterator:
    """Charges each ``next`` to the span opened by the wrapped call."""

    def __init__(self, tracer: Tracer, span: int, it):
        self._tracer, self._span, self._it = tracer, span, iter(it)

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        if not tracer.active:
            return next(self._it)
        tracer.stack.append(self._span)
        t0 = time.perf_counter_ns()
        try:
            item = next(self._it)
        finally:
            tracer.dur[self._span] += time.perf_counter_ns() - t0
            tracer.stack.pop()
        tracer.aux[self._span] += 1
        return item

