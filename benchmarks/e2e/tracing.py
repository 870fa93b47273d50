"""Span tracing for the e2e benchmark's traced pass.

The benchmark records spans from its own files: :class:`Tracer` wraps
public methods of each layer at class level, so no library code
changes.  Wrapping happens only inside the traced worker process,
after set-up and warm-up, and every wrapper is removed again by
:meth:`Tracer.uninstall`.

A span records its name, start, end, parent span and request id.
Parent links follow :mod:`contextvars`; the traced process also wraps
``ThreadPoolExecutor.submit`` so each pool task runs in a copy of the
submitting thread's context, which carries the link across the serving
engine's dispatch pool.

Self time is a span's duration minus the *union* of its children's
intervals.  Children on the span's own thread run one after another,
so their union is the sum of their durations; children on pool threads
overlap each other, so a span that has any is charged the exact union
of all its children's intervals instead.  Self time, call counts and
inclusive time are aggregated per ``(span name, op kind)`` as spans
close, so the totals are exact however many spans run; the raw span
list kept for the trace file is capped at :attr:`Tracer.span_cap`.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.theorem1 import WorstCaseTopKIndex
from repro.core.theorem2 import ExpectedTopKIndex
from repro.durability.durable import DurableTopKIndex
from repro.em.model import EMContext
from repro.replication.cluster import ReplicaSet
from repro.serving.cache import ResultCache
from repro.serving.engine import ServingEngine
from repro.sharding.sharded import ShardedTopKIndex
from repro.structures.interval_stabbing import (
    SegmentTreeIntervalPrioritized,
    StaticIntervalStabbingMax,
)
from repro.structures.range1d_dynamic import DynamicRangeTreap


def _prioritized_or_max(args, kwargs) -> str:
    """A prioritized probe passes a threshold ``tau``; a max probe does not."""
    tau = args[2] if len(args) > 2 else kwargs.get("tau")
    return "structures.prioritized" if tau is not None else "structures.max"


#: ``(class, method, span name or classifier, leaf)``.  A leaf calls no
#: other wrapped method, so its wrapper skips the context bookkeeping.
TARGETS: List[Tuple[type, str, object, bool]] = [
    (ServingEngine, "serve", "serving.serve", False),
    (ResultCache, "get", "serving.cache_get", True),
    (ResultCache, "put", "serving.cache_put", True),
    *[(ShardedTopKIndex, m, f"sharding.{m}", False)
      for m in ("query", "insert", "delete", "checkpoint")],
    *[(ReplicaSet, m, f"replication.{m}", False)
      for m in ("query", "insert", "delete", "checkpoint")],
    *[(DurableTopKIndex, m, f"durability.{m}", False)
      for m in ("query", "insert", "delete", "apply_shipped",
                "replay_unapplied", "checkpoint")],
    *[(ExpectedTopKIndex, m, f"core.{m}", False)
      for m in ("query", "insert", "delete")],
    (WorstCaseTopKIndex, "query", "core.query", False),
    (DynamicRangeTreap, "query", _prioritized_or_max, False),
    (DynamicRangeTreap, "insert", "structures.insert", False),
    (DynamicRangeTreap, "delete", "structures.delete", False),
    (SegmentTreeIntervalPrioritized, "query", "structures.prioritized", False),
    (StaticIntervalStabbingMax, "query", "structures.max", False),
    (EMContext, "read_block", "em.read_block", True),
    (EMContext, "write_block", "em.write_block", True),
]

#: Spans whose integer return value is summed per op kind.
COUNTED_RESULTS = ("durability.replay_unapplied",)


def covered_ns(intervals: List[Tuple[int, int]]) -> int:
    """Length of the union of ``[start, end)`` intervals."""
    if not intervals:
        return 0
    intervals.sort()
    total = 0
    cur_start, cur_end = intervals[0]
    for start, end in intervals[1:]:
        if start > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    return total + cur_end - cur_start


class _Span:
    """An open span: what its children report to it as they close."""

    __slots__ = ("id", "thread", "sequential_ns", "children", "foreign")

    def __init__(self, span_id: int, thread: int) -> None:
        self.id = span_id
        self.thread = thread
        self.sequential_ns = 0   # summed durations of same-thread children
        self.children: List[Tuple[int, int]] = []
        self.foreign = False     # some child ran on another thread

    def add_child(self, start: int, end: int, thread: int) -> None:
        self.children.append((start, end))
        if thread == self.thread:
            self.sequential_ns += end - start  # only this span's thread writes it
        else:
            self.foreign = True

    def covered(self) -> int:
        return covered_ns(self.children) if self.foreign else self.sequential_ns


class _ThreadLog:
    """One thread's aggregates and raw spans (no lock on the hot path)."""

    __slots__ = ("totals", "results", "spans", "root_ns", "dropped")

    def __init__(self) -> None:
        #: ``(name, kind) -> [calls, self ns, inclusive ns]``
        self.totals: Dict[Tuple[str, str], List[int]] = {}
        #: ``(name, kind) -> summed integer results`` (COUNTED_RESULTS)
        self.results: Dict[Tuple[str, str], int] = {}
        self.spans: List[tuple] = []
        self.root_ns = 0
        self.dropped = 0


class Tracer:
    """Class-level method wrappers plus the span aggregates they feed."""

    def __init__(self, span_cap: int = 100_000) -> None:
        self.span_cap = span_cap
        self._logs: List[_ThreadLog] = []
        self._logs_lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "e2e_span", default=None
        )
        self._kind: contextvars.ContextVar = contextvars.ContextVar(
            "e2e_kind", default="other"
        )
        self._request: contextvars.ContextVar = contextvars.ContextVar(
            "e2e_request", default=None
        )
        self._saved: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        for owner, method, name, leaf in TARGETS:
            original = owner.__dict__[method]
            self._saved.append((owner, method, original))
            setattr(owner, method, self._wrap(original, name, leaf))
        original_submit = ThreadPoolExecutor.__dict__["submit"]
        self._saved.append((ThreadPoolExecutor, "submit", original_submit))

        @functools.wraps(original_submit)
        def submit(pool, fn, /, *args, **kwargs):
            context = contextvars.copy_context()
            return original_submit(pool, context.run, fn, *args, **kwargs)

        ThreadPoolExecutor.submit = submit

    def uninstall(self) -> None:
        while self._saved:
            owner, method, original = self._saved.pop()
            setattr(owner, method, original)

    def begin_op(self, kind: str, request: int) -> tuple:
        """Mark the client loop's next call as one op of ``kind``."""
        return (self._kind.set(kind), self._request.set(request))

    def end_op(self, tokens: tuple) -> None:
        self._kind.reset(tokens[0])
        self._request.reset(tokens[1])

    # ------------------------------------------------------------------
    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._logs_lock:
                self._logs.append(log)
        return log

    def _wrap(self, fn: Callable, name, leaf: bool) -> Callable:
        current, close, clock = self._current, self._close, time.perf_counter_ns
        classify = name if callable(name) else None
        get_ident = threading.get_ident

        if leaf:
            @functools.wraps(fn)
            def traced_leaf(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(name, current.get(), None, start, clock(), None)

            return traced_leaf

        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = current.get()
            span = _Span(next(ids), get_ident())
            token = current.set(span)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                current.reset(token)
                label = classify(args, kwargs) if classify is not None else name
                close(label, parent, span, start, end, result)

        return traced

    def _close(self, name, parent, span, start, end, result) -> None:
        duration = end - start
        own = duration - span.covered() if span is not None else duration
        thread = threading.get_ident()
        if parent is not None:
            parent.add_child(start, end, thread)
        log = self._log()
        key = (name, self._kind.get())
        entry = log.totals.get(key)
        if entry is None:
            entry = log.totals[key] = [0, 0, 0]
        entry[0] += 1
        entry[1] += own
        entry[2] += duration
        if parent is None:
            log.root_ns += duration
        if name in COUNTED_RESULTS and isinstance(result, int):
            log.results[key] = log.results.get(key, 0) + result
        if len(log.spans) < self.span_cap:
            log.spans.append((
                span.id if span is not None else None, name, key[1], start, end,
                parent.id if parent is not None else None,
                self._request.get(), thread,
            ))
        else:
            log.dropped += 1

    # ------------------------------------------------------------------
    def totals(self) -> Dict[Tuple[str, str], List[int]]:
        merged: Dict[Tuple[str, str], List[int]] = {}
        for log in self._logs:
            for key, entry in log.totals.items():
                into = merged.setdefault(key, [0, 0, 0])
                for i in range(3):
                    into[i] += entry[i]
        return merged

    @property
    def root_ns(self) -> int:
        return sum(log.root_ns for log in self._logs)

    def calls(self, prefix: str, kind: Optional[str] = None) -> int:
        return sum(
            entry[0] for (name, k), entry in self.totals().items()
            if name.startswith(prefix) and (kind is None or k == kind)
        )

    def self_ns(self, prefix: str, kind: Optional[str] = None) -> int:
        return sum(
            entry[1] for (name, k), entry in self.totals().items()
            if name.startswith(prefix) and (kind is None or k == kind)
        )

    def result_total(self, name: str, kind: str) -> int:
        return sum(log.results.get((name, kind), 0) for log in self._logs)

    def dump(self, path, meta: dict) -> None:
        """Write the spans and aggregates as one JSON document."""
        spans = sorted(
            (span for log in self._logs for span in log.spans),
            key=lambda span: span[3],
        )
        dropped = sum(log.dropped for log in self._logs)
        dropped += max(0, len(spans) - self.span_cap)
        doc = {
            **meta,
            "span_fields": [
                "id", "name", "kind", "start_ns", "end_ns", "parent",
                "request", "thread",
            ],
            "spans": spans[: self.span_cap],
            "dropped_spans": dropped,
            "totals": [
                {"name": name, "kind": kind, "calls": entry[0],
                 "self_ns": entry[1], "inclusive_ns": entry[2]}
                for (name, kind), entry in sorted(self.totals().items())
            ],
            "root_ns": self.root_ns,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
