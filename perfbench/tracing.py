"""Spans around the calls into each relapprox layer, recorded from outside the package.

`Tracer.install()` replaces every public function of each layer module with
a wrapper that records a span: name, layer, start, end, the span that caused
it, and the id of the operation (Monte Carlo cell, construction, pipeline
pass) it serves.  A function imported by name into another module is
replaced under that name too, so calls between layers are seen wherever they
are made.  `harness` runs trials on a thread pool; while installed, the pool
copies the submitting thread's context into each task, so spans recorded in
pool threads carry the id of the cell that spawned them.  Nothing in the
package itself changes; `uninstall()` restores every binding.

Spans stay in memory; `per_layer_metrics` folds them into the per-layer
numbers, where a span's self time is its duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

LAYERS = (
    "_bitops",
    "set_system",
    "sampling",
    "halving",
    "packing",
    "chaining",
    "generators",
    "harness",
)

# Public methods that are layer entry points in their own right.
METHODS = {
    "set_system": (("SetSystem", "from_masks"),),
    "generators": (("ImplicitIntervals", "error_report"), ("ImplicitIntervals", "materialize")),
}


def layer_name(module_name: str) -> str:
    """Metric prefix of a layer: the module name without its leading underscore."""
    return module_name.lstrip("_")


class Span:
    __slots__ = ("id", "parent", "op", "name", "layer", "t0", "t1", "thread", "info")

    def __init__(self, id, parent, op, name, layer, t0, t1, thread, info):
        self.id = id
        self.parent = parent
        self.op = op
        self.name = name
        self.layer = layer
        self.t0 = t0
        self.t1 = t1
        self.thread = thread
        self.info = info

    def to_json(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


# --- counters taken at the layer boundary ------------------------------------
# Each takes (bound arguments, result or None if the call raised) and returns
# the counts to attach to the span.


def _rows_bytes(args, result):
    a = args["packed"] if "packed" in args else args["a"]
    rows = a.shape[0] if a.ndim > 1 else 1
    return {"rows": rows, "bytes": int(a.nbytes)}


def _restrict(args, result):
    return {"masks": len(args["system"])}


def _relative_error(args, result):
    system = args["system"]
    sets = len(system) if type(system).__name__ == "SetSystem" else 0
    return {"exact": isinstance(args["eps"], Fraction), "sets": sets}


def _iterated_halving(args, result):
    return {"levels": len(result[1].levels)} if result is not None else {}


def _certified(args, result):
    return {"certified": int(result is not None)}


def _greedy(args, result):
    if result is None:
        return {}
    return {"members": result.size, "scanned": len(args["system"])}


def _claim7(args, result):
    return {"passes": int(result.ok)} if result is not None else {}


def _audit_all(args, result):
    return {"audited": result.sets_audited} if result is not None else {}


def _cell(args, result):
    return {"trials": args["trials"]}


COUNTERS = {
    "bitops.intersection_sizes": _rows_bytes,
    "bitops.xor_sizes": _rows_bytes,
    "bitops.popcount_words": _rows_bytes,
    "set_system.restrict": _restrict,
    "sampling.relative_error": _relative_error,
    "halving.iterated_halving": _iterated_halving,
    "halving.certified_halving": _certified,
    "packing.greedy_maximal_packing": _greedy,
    "chaining.claim7_check": _claim7,
    "chaining.telescoping_audit_all": _audit_all,
    "harness.monte_carlo_failure": _cell,
}


class _ContextPool(ThreadPoolExecutor):
    """A thread pool whose tasks run in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.main_thread = threading.get_ident()
        self._ids = itertools.count(1)
        # (id of the enclosing span or 0, id of the operation or None)
        self._ctx = contextvars.ContextVar("perfbench_span", default=(0, None))
        self._restore: list[tuple[object, str, object]] = []

    # -- operations ---------------------------------------------------------

    def run_op(self, op_id: str, fn, *args):
        """Call fn(*args) with every span it records tagged with op_id."""
        token = self._ctx.set((0, op_id))
        try:
            return fn(*args)
        finally:
            self._ctx.reset(token)

    # -- installing wrappers ------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        ctx, spans, ids, clock = self._ctx, self.spans, self._ids, time.perf_counter
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, op = ctx.get()
            sid = next(ids)
            token = ctx.set((sid, op))
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                ctx.reset(token)
                info = None
                if counter is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    info = counter(bound.arguments, result)
                spans.append(
                    Span(sid, parent, op, name, layer, t0, t1, threading.get_ident(), info)
                )

        return wrapper

    def _rebind(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "relapprox" or mod_name.startswith("relapprox.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        for mod_name in LAYERS:
            mod = importlib.import_module(f"relapprox.{mod_name}")
            layer = layer_name(mod_name)
            for attr, value in list(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                ):
                    self._rebind(value, self._wrap(value, f"{layer}.{attr}", layer))
            for cls_name, meth in METHODS.get(mod_name, ()):
                cls = getattr(mod, cls_name)
                raw = vars(cls)[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, f"{layer}.{meth}", layer))
                else:
                    wrapped = self._wrap(raw, f"{layer}.{cls_name}.{meth}", layer)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
        harness = sys.modules["relapprox.harness"]
        self._restore.append((harness, "ThreadPoolExecutor", harness.ThreadPoolExecutor))
        harness.ThreadPoolExecutor = _ContextPool

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()))
                fh.write("\n")


# --- folding spans into metrics -------------------------------------------------


def _covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the part of `interval` covered by the union of `children`."""
    lo, hi = interval
    total, end = 0.0, lo
    for a, b in sorted(children):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class SpanIndex:
    """Spans of a set of operations with self times and nesting resolved."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        children: dict[int, list[tuple[float, float]]] = {}
        for s in spans:
            children.setdefault(s.parent, []).append((s.t0, s.t1))
        self.self_time = {
            s.id: (s.t1 - s.t0) - _covered((s.t0, s.t1), children.get(s.id, []))
            for s in spans
        }

    def _has_ancestor(self, span: Span, pred) -> bool:
        p = self.by_id.get(span.parent)
        while p is not None:
            if pred(p):
                return True
            p = self.by_id.get(p.parent)
        return False

    def entries(self, layer: str) -> list[Span]:
        """Spans of `layer` not nested inside another span of the same layer."""
        return [
            s
            for s in self.spans
            if s.layer == layer and not self._has_ancestor(s, lambda p: p.layer == layer)
        ]

    def calls(self, name: str) -> list[Span]:
        """Spans of function `name` not nested inside another call of it."""
        return [
            s
            for s in self.spans
            if s.name == name and not self._has_ancestor(s, lambda p: p.name == name)
        ]

    @staticmethod
    def busy(spans: list[Span]) -> float:
        return sum(s.t1 - s.t0 for s in spans)

    def self_of(self, spans: list[Span]) -> float:
        return sum(self.self_time[s.id] for s in spans)

    def layer_self(self, layer: str) -> float:
        """Time inside the layer not covered by spans of other layers."""
        return sum(self.self_time[s.id] for s in self.spans if s.layer == layer)

    @staticmethod
    def count(spans: list[Span], key: str) -> int:
        return sum((s.info or {}).get(key, 0) for s in spans)


PER_OP_TIME = "s/op"
PER_OP_COUNT = "count/op"

# name -> (unit, better); the order is the order of the output
PER_LAYER = {
    "bitops.calls": (PER_OP_COUNT, "lower"),
    "bitops.busy_s": (PER_OP_TIME, "lower"),
    "bitops.self_s": (PER_OP_TIME, "lower"),
    "bitops.rows": (PER_OP_COUNT, "lower"),
    "bitops.bytes_computed": ("B/op", "lower"),
    "set_system.busy_s": (PER_OP_TIME, "lower"),
    "set_system.self_s": (PER_OP_TIME, "lower"),
    "set_system.restrict.calls": (PER_OP_COUNT, "lower"),
    "set_system.restrict.busy_s": (PER_OP_TIME, "lower"),
    "set_system.restrict.masks": (PER_OP_COUNT, "lower"),
    "set_system.trace_count.busy_s": (PER_OP_TIME, "lower"),
    "set_system.from_masks.busy_s": (PER_OP_TIME, "lower"),
    "sampling.busy_s": (PER_OP_TIME, "lower"),
    "sampling.self_s": (PER_OP_TIME, "lower"),
    "sampling.uniform_sample.busy_s": (PER_OP_TIME, "lower"),
    "sampling.relative_error.calls": (PER_OP_COUNT, "lower"),
    "sampling.relative_error.busy_s": (PER_OP_TIME, "lower"),
    "sampling.relative_error.self_s": (PER_OP_TIME, "lower"),
    "sampling.relative_error_exact.busy_s": (PER_OP_TIME, "lower"),
    "sampling.sets_verified": (PER_OP_COUNT, "lower"),
    "halving.attempts": (PER_OP_COUNT, "lower"),
    "halving.certified": (PER_OP_COUNT, "higher"),
    "halving.certified_per_attempt": ("ratio", "higher"),
    "halving.levels": (PER_OP_COUNT, "lower"),
    "halving.busy_s": (PER_OP_TIME, "lower"),
    "halving.self_s": (PER_OP_TIME, "lower"),
    "packing.busy_s": (PER_OP_TIME, "lower"),
    "packing.self_s": (PER_OP_TIME, "lower"),
    "packing.greedy.calls": (PER_OP_COUNT, "lower"),
    "packing.greedy.busy_s": (PER_OP_TIME, "lower"),
    "packing.members": (PER_OP_COUNT, "lower"),
    "packing.admit_ratio": ("ratio", "higher"),
    "packing.verify.busy_s": (PER_OP_TIME, "lower"),
    "chaining.busy_s": (PER_OP_TIME, "lower"),
    "chaining.self_s": (PER_OP_TIME, "lower"),
    "chaining.build.self_s": (PER_OP_TIME, "lower"),
    "chaining.claim7.busy_s": (PER_OP_TIME, "lower"),
    "chaining.claim7_attempts": (PER_OP_COUNT, "lower"),
    "chaining.claim7_passes": (PER_OP_COUNT, "higher"),
    "chaining.audit.busy_s": (PER_OP_TIME, "lower"),
    "chaining.sets_audited": (PER_OP_COUNT, "higher"),
    "generators.busy_s": (PER_OP_TIME, "lower"),
    "generators.self_s": (PER_OP_TIME, "lower"),
    "generators.build_s": ("s", "lower"),
    "generators.implicit_verify.calls": (PER_OP_COUNT, "lower"),
    "generators.implicit_verify.busy_s": (PER_OP_TIME, "lower"),
    "harness.cells": (PER_OP_COUNT, "higher"),
    "harness.trials": (PER_OP_COUNT, "higher"),
    "harness.busy_s": (PER_OP_TIME, "lower"),
    "harness.self_s": (PER_OP_TIME, "lower"),
    "trace.spans": (PER_OP_COUNT, "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}


def per_layer_metrics(op_spans: list[Span], ops: int, setup_spans: list[Span]) -> dict:
    """Per-operation layer numbers from the spans of `ops` traced operations,
    plus the family build time from the spans of one set-up.

    `trace.overhead_share` is filled in by the caller, which owns the
    untraced reference timing.
    """
    ix = SpanIndex(op_spans)
    out: dict[str, float] = {}

    def per_op(v):
        return v / ops

    for layer in map(layer_name, LAYERS):
        entries = ix.entries(layer)
        out[f"{layer}.busy_s"] = per_op(ix.busy(entries))
        out[f"{layer}.self_s"] = per_op(ix.layer_self(layer))
        if layer == "bitops":
            out["bitops.calls"] = per_op(len(entries))
            bulk = [s for s in ix.spans if s.layer == "bitops" and s.info]
            out["bitops.rows"] = per_op(ix.count(bulk, "rows"))
            out["bitops.bytes_computed"] = per_op(ix.count(bulk, "bytes"))

    restrict = ix.calls("set_system.restrict")
    out["set_system.restrict.calls"] = per_op(len(restrict))
    out["set_system.restrict.busy_s"] = per_op(ix.busy(restrict))
    out["set_system.restrict.masks"] = per_op(ix.count(restrict, "masks"))
    out["set_system.trace_count.busy_s"] = per_op(ix.busy(ix.calls("set_system.trace_count")))
    out["set_system.from_masks.busy_s"] = per_op(ix.busy(ix.calls("set_system.from_masks")))

    rel = ix.calls("sampling.relative_error")
    exact = [s for s in rel if s.info and s.info["exact"]]
    out["sampling.uniform_sample.busy_s"] = per_op(ix.busy(ix.calls("sampling.uniform_sample")))
    out["sampling.relative_error.calls"] = per_op(len(rel))
    out["sampling.relative_error.busy_s"] = per_op(ix.busy(rel))
    out["sampling.relative_error.self_s"] = per_op(ix.self_of(rel))
    out["sampling.relative_error_exact.busy_s"] = per_op(ix.busy(exact))
    out["sampling.sets_verified"] = per_op(ix.count(rel, "sets"))

    attempts = ix.calls("halving.iterated_halving")
    certified = ix.count(ix.calls("halving.certified_halving"), "certified")
    out["halving.attempts"] = per_op(len(attempts))
    out["halving.certified"] = per_op(certified)
    out["halving.certified_per_attempt"] = certified / len(attempts) if attempts else 0.0
    out["halving.levels"] = per_op(ix.count(attempts, "levels"))

    greedy = ix.calls("packing.greedy_maximal_packing")
    members, scanned = ix.count(greedy, "members"), ix.count(greedy, "scanned")
    out["packing.greedy.calls"] = per_op(len(greedy))
    out["packing.greedy.busy_s"] = per_op(ix.busy(greedy))
    out["packing.members"] = per_op(members)
    out["packing.admit_ratio"] = members / scanned if scanned else 0.0
    out["packing.verify.busy_s"] = per_op(ix.busy(ix.calls("packing.verify_packing")))

    claim7 = ix.calls("chaining.claim7_check")
    audits = ix.calls("chaining.telescoping_audit_all")
    out["chaining.build.self_s"] = per_op(ix.self_of(ix.calls("chaining.build_chain")))
    out["chaining.claim7.busy_s"] = per_op(ix.busy(claim7))
    out["chaining.claim7_attempts"] = per_op(len(claim7))
    out["chaining.claim7_passes"] = per_op(ix.count(claim7, "passes"))
    out["chaining.audit.busy_s"] = per_op(ix.busy(audits))
    out["chaining.sets_audited"] = per_op(ix.count(audits, "audited"))

    setup_ix = SpanIndex(setup_spans)
    out["generators.build_s"] = setup_ix.busy(setup_ix.entries("generators"))
    verify = ix.calls("generators.ImplicitIntervals.error_report")
    out["generators.implicit_verify.calls"] = per_op(len(verify))
    out["generators.implicit_verify.busy_s"] = per_op(ix.busy(verify))

    cells = ix.calls("harness.monte_carlo_failure")
    out["harness.cells"] = per_op(len(cells))
    out["harness.trials"] = per_op(ix.count(cells, "trials"))

    out["trace.spans"] = per_op(len(op_spans))
    return {name: out.get(name, 0.0) for name in PER_LAYER}


def pool_span_violations(tracer: Tracer) -> int:
    """Spans recorded off the main thread whose operation id is missing or
    differs from that of the span that caused them."""
    by_id = {s.id: s for s in tracer.spans}
    bad = 0
    for s in tracer.spans:
        if s.thread == tracer.main_thread:
            continue
        parent = by_id.get(s.parent)
        if s.op is None or parent is None or parent.op != s.op:
            bad += 1
    return bad
