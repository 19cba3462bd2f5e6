"""Span tracing of cosimplex from outside the package.

The tracer wraps public functions of the cosimplex modules with timing
wrappers, records one span per call (name, start, end, parent span, job id)
in memory, and rolls the spans up into per-layer metrics.  Nothing inside
``src/`` is changed: ``install`` rebinds every module attribute that holds a
wrapped function (modules bind each other's names with ``from .x import``),
and ``restore`` puts the originals back.

Counts recorded at the same boundaries: cells fed to ``Matrix.rref``,
multiply-adds of ``Matrix.__mul__``, bytes through ``io_json`` and the bit
size of the rationals in every ``linalg`` result.  The time spent taking
those counts is excluded from the self time of the enclosing span.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

# (module, attribute, span name).  An attribute "Matrix.x" is a method wrapped
# on the class.  dot and primitive are left out on purpose: they are called per
# vector entry pair and their spans would cost more than the work they time.
TARGETS = (
    ("cosimplex.linalg", "span_basis", "linalg.span_basis"),
    ("cosimplex.linalg", "subspace_leq", "linalg.subspace_test"),
    ("cosimplex.linalg", "subspace_equal", "linalg.subspace_test"),
    ("cosimplex.linalg", "subspace_contains", "linalg.subspace_test"),
    ("cosimplex.linalg", "gram_schmidt", "linalg.orth"),
    ("cosimplex.linalg", "orthogonal_complement_within", "linalg.orth"),
    ("cosimplex.linalg", "Matrix.rref", "linalg.rref"),
    ("cosimplex.linalg", "Matrix.kernel", "linalg.kernel"),
    ("cosimplex.linalg", "Matrix.inverse", "linalg.inverse"),
    ("cosimplex.linalg", "Matrix.__mul__", "linalg.matmul"),
    ("cosimplex.labels", "enumerate_labels", "labels"),
    ("cosimplex.labels", "insertion_sequence", "labels"),
    ("cosimplex.scs", "validate", "scs.validate"),
    ("cosimplex.scs", "saturate", "scs.saturate"),
    ("cosimplex.cohomology", "build_complex", "cohomology.build_complex"),
    ("cosimplex.cohomology", "cohomology", "cohomology.cohomology"),
    ("cosimplex.cohomology", "check_cocycle_identities", "cohomology.identities"),
    ("cosimplex.normal_ext", "classify", "normal_ext.classify"),
    ("cosimplex.normal_ext", "normal_label_table", "normal_ext.label_table"),
    ("cosimplex.tower", "check_tower", "tower.check_tower"),
    ("cosimplex.tower", "check_normal", "tower.check_normal"),
    ("cosimplex.tower", "labeled_subspaces", "tower.labeled_subspaces"),
    ("cosimplex.tower", "build_symmetric_rep", "tower.symrep"),
    ("cosimplex.tower", "check_hessenberg", "tower.hessenberg"),
    ("cosimplex.tower", "check_toy_definetti", "tower.definetti"),
    ("cosimplex.spread", "minimal_sch", "spread.minimal_sch"),
    ("cosimplex.spread", "check_theorem_C", "spread.theorem_c"),
    ("cosimplex.spread", "operator_angle", "spread.operator_angle"),
    ("cosimplex.spread", "check_complete_invariant", "spread.invariant"),
    ("cosimplex.io_json", "load_json", "io_json.load"),
    ("cosimplex.io_json", "dump_json", "io_json.dump"),
)

# Span names whose self time reports as ``<name>.self_s`` and calls as ``.calls``.
LAYER_SPANS = sorted({name for _, _, name in TARGETS})


def _entries(result):
    """Rational entries of a linalg result: Matrix, (Matrix, pivots), vector
    or list of vectors.  Booleans and pivot tuples have none."""
    if hasattr(result, "rows"):
        for row in result.rows:
            yield from row
    elif isinstance(result, tuple) and result and hasattr(result[0], "rows"):
        yield from _entries(result[0])
    elif isinstance(result, (list, tuple)):
        for item in result:
            if isinstance(item, Fraction):
                yield item
            elif isinstance(item, (list, tuple)):
                yield from item


class Tracer:
    """In-memory span recorder with install/restore of the wrappers."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.jobs = []
        self.hidden = {}  # span index -> seconds spent taking counts inside it
        self.stack = [-1]
        self.job = -1
        self.counters = {"rref_cells": 0, "matmul_madds": 0, "io_bytes": 0}
        self.max_bits = 0
        self.results = 0
        self.nonint_results = 0

    # -- recording ------------------------------------------------------------

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self.ends[idx] = perf_counter()
            self.stack.pop()

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.jobs.append(self.job)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def wrap(self, name, fn, count=None):
        """Timing wrapper around ``fn``; ``count(args, result)`` runs after the
        span closes and its time is hidden from the enclosing span."""
        ends, stack = self.ends, self.stack

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if count is not None:
                t0 = perf_counter()
                count(args, result)
                parent = stack[-1]
                if parent >= 0:
                    self.hidden[parent] = self.hidden.get(parent, 0.0) + perf_counter() - t0
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- counts ---------------------------------------------------------------

    def _count_bits(self, result):
        seen = False
        nonint = False
        bits = self.max_bits
        for x in _entries(result):
            seen = True
            num, den = x.numerator, x.denominator
            if den != 1:
                nonint = True
                b = den.bit_length()
                if b > bits:
                    bits = b
            b = num.bit_length()
            if b > bits:
                bits = b
        if seen:
            self.results += 1
            self.nonint_results += nonint
            self.max_bits = bits

    def _counter_for(self, span_name):
        if span_name == "linalg.rref":
            def count(args, result):
                self.counters["rref_cells"] += args[0].nrows * args[0].ncols
                self._count_bits(result)
            return count
        if span_name == "linalg.matmul":
            def count(args, result):
                a, b = args
                inner = b.ncols if hasattr(b, "ncols") else 1
                self.counters["matmul_madds"] += a.nrows * a.ncols * inner
                self._count_bits(result)
            return count
        if span_name.startswith("linalg.") and span_name != "linalg.subspace_test":
            return lambda args, result: self._count_bits(result)
        if span_name == "io_json.load":
            def count(args, result):
                self.counters["io_bytes"] += os.path.getsize(args[0])
            return count
        if span_name == "io_json.dump":
            def count(args, result):
                self.counters["io_bytes"] += len(result.encode("utf-8"))
            return count
        return None

    # -- install / restore ----------------------------------------------------

    def install(self):
        """Wrap every target whose module is already imported; return a
        function that restores every rebound attribute."""
        package = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "cosimplex" or name.startswith("cosimplex."))]
        undo = []
        for mod_name, attr, span_name in TARGETS:
            module = sys.modules.get(mod_name)
            if module is None:
                continue
            count = self._counter_for(span_name)
            if attr.startswith("Matrix."):
                cls = module.Matrix
                meth = attr.split(".", 1)[1]
                orig = cls.__dict__.get(meth)
                if orig is None:  # renamed or removed: the layer reads 0 calls
                    continue
                setattr(cls, meth, self.wrap(span_name, orig, count))
                undo.append((cls, meth, orig))
                continue
            orig = getattr(module, attr, None)
            if orig is None:
                continue
            wrapper = self.wrap(span_name, orig, count)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, orig))

        def restore():
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

        return restore

    # -- output ---------------------------------------------------------------

    def dump(self):
        """Spans, hidden times and counts as one JSON-able dict."""
        return {
            "spans": [self.names, self.starts, self.ends, self.parents, self.jobs],
            "hidden": sorted(self.hidden.items()),
            "counters": self.counters,
            "max_bits": self.max_bits,
            "results": self.results,
            "nonint_results": self.nonint_results,
        }

    def merge(self, data, job):
        """Append the spans and counts of a dumped tracer (a traced child
        process) under the given job id; its root spans become children of
        the span open here."""
        names, starts, ends, parents, _jobs = data["spans"]
        base = len(self.names)
        outer = self.stack[-1]
        self.names.extend(names)
        self.starts.extend(starts)
        self.ends.extend(ends)
        self.parents.extend(p + base if p >= 0 else outer for p in parents)
        self.jobs.extend([job] * len(names))
        for idx, extra in data["hidden"]:
            self.hidden[idx + base] = extra
        for key, value in data["counters"].items():
            self.counters[key] += value
        self.max_bits = max(self.max_bits, data["max_bits"])
        self.results += data["results"]
        self.nonint_results += data["nonint_results"]

    def write_jsonl(self, path):
        """One line per span: name, start, end, parent span index, job id."""
        with open(path, "w", encoding="utf-8") as handle:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.jobs):
                record = dict(zip(("name", "start", "end", "parent", "job"), row))
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def rollup(names, starts, ends, parents, hidden=None):
    """Per span name: call count, total time and self time.

    A span's self time is its duration minus the durations of its direct child
    spans and minus the time the tracer spent counting inside it.  Spans nest
    strictly (one thread), so the children never overlap.
    """
    hidden = hidden or {}
    child = [0.0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    out = {}
    for i, name in enumerate(names):
        dur = ends[i] - starts[i]
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += dur
        entry["self_s"] += dur - child[i] - hidden.get(i, 0.0)
    return out
