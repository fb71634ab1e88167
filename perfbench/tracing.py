"""Spans around the public seams of each layer, recorded from outside.

The benchmark never edits the program: a traced run replaces selected
functions and methods with timing wrappers for its duration and restores
them afterwards.  Every wrapped call becomes one span — name, start, end,
parent span, process, thread and the operation it served — kept in
memory and written out at the end as Chrome Trace Event JSON (open it in
Perfetto or ``chrome://tracing``).

Pool workers forked by the perplexity sweep inherit the wrappers; a span
that ends in a process other than the one that installed the tracer is
appended to ``spans-<pid>.jsonl`` in the output directory and merged back
by :meth:`Tracer.collect_children`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    pid: int
    tid: int
    op: Any
    start_ns: int
    end_ns: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id, "name": self.name, "parent": self.parent,
            "pid": self.pid, "tid": self.tid, "op": self.op,
            "start_ns": self.start_ns, "end_ns": self.end_ns,
            "attrs": self.attrs,
        }


def _elements(array) -> int:
    return int(np.size(array))


def _plan_attrs(result) -> Dict[str, Any]:
    plan = getattr(result, "plan", None)
    if plan is None:
        return {}
    return {
        "passes": plan.passes,
        "occupancy": plan.occupancy,
        "arena_bytes": plan.arena_bytes,
    }


def _coalesce_attrs(args, kwargs, result) -> Dict[str, Any]:
    useful = 0
    for matrix, lengths in args[0]:
        useful += int(np.sum(lengths)) if lengths is not None else matrix.size
    return {"useful": useful, "coalesced": int(result.scores.size)}


#: (module, attribute path, span name, attrs(args, kwargs, result)).
#: Methods are patched on the class that defines them, so instances built
#: after :meth:`Tracer.install` (and bound methods taken then) are traced.
LAYER_SEAMS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.serve.server", "SoftmaxServer._execute_batch", "serve.tick",
     lambda a, k, r: {"requests": len(a[1])}),
    ("repro.serve.server", "coalesce", "serve.coalesce", _coalesce_attrs),
    ("repro.serve.server", "split", "serve.split", None),
    ("repro.runtime.backend", "ApClusterBackend.run_rows", "backend.run_rows",
     lambda a, k, r: _plan_attrs(r)),
    ("repro.runtime.backend", "_BackendBase.run", "backend.run",
     lambda a, k, r: _plan_attrs(r)),
    ("repro.mapping.cluster", "ApCluster.execute_rows", "cluster.execute", None),
    ("repro.mapping.cluster", "ApCluster.execute", "cluster.execute", None),
    ("repro.mapping.plan", "ExecutionPlan.__init__", "plan.lower", None),
    ("repro.mapping.plan", "ExecutionPlan.execute", "plan.execute",
     lambda a, k, r: {"elements": _elements(a[1])}),
    ("repro.quant.quantizer", "ClippedSoftmaxInputQuantizer.quantize",
     "quant.quantize", None),
    ("repro.ap.compiled", "CompiledEngine.__init__", "compiled.compile", None),
    ("repro.ap.compiled", "CompiledEngine.run", "compiled.run",
     lambda a, k, r: {"elements": _elements(a[1])}),
    ("repro.mapping.plan", "PackedExecutor.run", "vectorized.run",
     lambda a, k, r: {"elements": _elements(a[1])}),
    ("repro.softmax.integer_softmax", "IntegerSoftmax.forward",
     "integer_softmax.forward", lambda a, k, r: {"elements": _elements(a[1])}),
    ("repro.llm.model", "TinyLlamaModel.generate", "llm.generate",
     lambda a, k, r: {"tokens": _elements(r)}),
    ("repro.llm.generate", "_forward_batch", "llm.prefill", None),
    ("repro.llm.generate", "_decode_step", "llm.decode_step", None),
    ("repro.llm.infer", "infer", "llm.infer", None),
    ("repro.experiments.table3_4_perplexity", "evaluate_perplexity",
     "sweep.evaluate", None),
)


#: Root spans that name their own operation instead of the caller's.
ROOT_OPS: Dict[str, Callable] = {
    "serve.tick": lambda args: f"tick-{args[0].stats().ticks}",
}


class Tracer:
    """In-memory span recorder installed over :data:`LAYER_SEAMS`."""

    def __init__(self, spill_dir: str) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self.op: Any = None  # the operation root spans are attributed to
        self._spill_dir = spill_dir
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: List[Tuple[Any, str, Any]] = []
        self._spill = None
        for name in os.listdir(spill_dir):  # left by an interrupted run
            if name.startswith("spans-") and name.endswith(".jsonl"):
                os.remove(os.path.join(spill_dir, name))

    # -- installation ------------------------------------------------------ #
    def install(self) -> "Tracer":
        for module_name, path, span_name, attrs in LAYER_SEAMS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            try:
                for name in owners:
                    owner = getattr(owner, name)
                original = owner.__dict__[attr]
            except (AttributeError, KeyError):
                # A seam renamed by the program: the layer reads as idle.
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrap(span_name, original, attrs))
            self._restore.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- recording ---------------------------------------------------------- #
    def _wrap(self, span_name: str, fn: Callable, attrs: Optional[Callable]):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else None
            span = Span(
                id=next(tracer._ids),
                name=span_name,
                parent=None if parent is None else parent.id,
                pid=os.getpid(),
                tid=threading.get_ident(),
                op=(
                    parent.op if parent is not None
                    else ROOT_OPS[span_name](args) if span_name in ROOT_OPS
                    else tracer.op
                ),
                start_ns=0,
            )
            stack.append(span)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.end_ns = time.perf_counter_ns()
                stack.pop()
                tracer._record(span)
                raise
            span.end_ns = time.perf_counter_ns()
            stack.pop()
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            tracer._record(span)
            return result

        return traced

    def _record(self, span: Span) -> None:
        if span.pid == self._pid:
            self.spans.append(span)
            return
        # A forked pool worker: its memory dies with it, so spill to disk.
        if self._spill is None or self._spill[0] != span.pid:
            path = os.path.join(self._spill_dir, f"spans-{span.pid}.jsonl")
            self._spill = (span.pid, open(path, "a", encoding="utf-8"))
        handle = self._spill[1]
        handle.write(json.dumps(span.to_dict(), default=float) + "\n")
        handle.flush()

    def collect_children(self) -> None:
        """Merge (and delete) the span files forked workers spilled."""
        for name in sorted(os.listdir(self._spill_dir)):
            if not (name.startswith("spans-") and name.endswith(".jsonl")):
                continue
            path = os.path.join(self._spill_dir, name)
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    if line.strip():
                        self.spans.append(Span(**json.loads(line)))
            os.remove(path)

    # -- analysis ----------------------------------------------------------- #
    def window(self, start_ns: int, end_ns: int) -> List[Span]:
        return [s for s in self.spans if start_ns <= s.start_ns < end_ns]


def self_times(spans: List[Span]) -> Dict[str, int]:
    """Per-name self time (duration minus direct children), in ns."""
    child_ns: Dict[Tuple[int, int], int] = {}
    for span in spans:
        if span.parent is not None:
            key = (span.pid, span.parent)
            child_ns[key] = child_ns.get(key, 0) + span.dur_ns
    totals: Dict[str, int] = {}
    for span in spans:
        own = span.dur_ns - child_ns.get((span.pid, span.id), 0)
        totals[span.name] = totals.get(span.name, 0) + own
    return totals


def attribution_table(
    spans: List[Span], window_ns: int, lanes: int
) -> List[Tuple[str, float, float]]:
    """Rows ``(layer, self ms, share)`` that sum to ``lanes`` x the window.

    ``lanes`` is how many threads or processes the workload computes on
    (the server's worker thread, the decoding caller, the sweep's pool
    workers).  The ``unattributed`` row is what no span covers: admission
    and event-loop work, pool start-up, idle time.
    """
    capacity = window_ns * lanes
    rows = sorted(self_times(spans).items(), key=lambda item: -item[1])
    attributed = sum(ns for _, ns in rows)
    rows.append(("unattributed", capacity - attributed))
    return [(name, ns / 1e6, ns / capacity if capacity else 0.0) for name, ns in rows]


def write_chrome_trace(spans: List[Span], path: str, origin_ns: int) -> None:
    """Chrome Trace Event JSON: one complete ("X") event per span."""
    events = [
        {
            "name": s.name,
            "cat": s.name.split(".")[0],
            "ph": "X",
            "ts": (s.start_ns - origin_ns) / 1000.0,
            "dur": s.dur_ns / 1000.0,
            "pid": s.pid,
            "tid": s.tid,
            "args": dict(s.attrs, id=s.id, parent=s.parent, op=s.op),
        }
        for s in spans
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle,
                  default=float)
