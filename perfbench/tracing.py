"""In-memory span tracing around each layer's public entry points.

The recorder patches the entry points named in :data:`ENTRY_POINTS`
for the duration of a traced phase and restores them afterwards; no
source file of the system changes.  A span records its name, start,
end, parent span and request id (a span opened with no parent on its
thread starts a new request).  Spans stay in memory; the benchmark
reduces them to per-layer self times and writes a bounded Chrome
trace-event dump at the end of the run.

Layers marked *opaque* absorb everything they call: the application
systems' private databases and the remote sources behind a nickname
are part of that layer's time, not of the integration FDBS.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class EntryPoint:
    """One patched callable: ``owner.attr`` recorded as span ``name``."""

    module: str
    owner: str | None
    attr: str
    name: str
    opaque: bool = False


#: Layer boundaries, outermost first.  ``owner`` None patches a module
#: attribute (the engine's own reference to ``parse_statement``).
ENTRY_POINTS: tuple[EntryPoint, ...] = (
    EntryPoint("repro.serving.session", "ClientSession", "perform", "serving"),
    EntryPoint("repro.fdbs.engine", "Database", "execute", "fdbs.exec"),
    EntryPoint("repro.fdbs.engine", None, "parse_statement", "fdbs.parse"),
    EntryPoint("repro.fdbs.planner", "Planner", "plan_select", "fdbs.plan"),
    EntryPoint("repro.fdbs.storage", "Table", "insert", "fdbs.storage.write"),
    EntryPoint("repro.fdbs.storage", "Table", "update_rid", "fdbs.storage.write"),
    EntryPoint("repro.fdbs.storage", "Table", "delete_rid", "fdbs.storage.write"),
    EntryPoint("repro.fdbs.federation", "RemoteTableFetcher", "fetch",
               "fdbs.federation", opaque=True),
    EntryPoint("repro.fdbs.federation", "RemoteTableFetcher", "count",
               "fdbs.federation", opaque=True),
    EntryPoint("repro.wrapper.udtf_runtime", "FencedFunctionRuntime", "invoke_sql", "wrapper"),
    EntryPoint("repro.wrapper.udtf_runtime", "FencedFunctionRuntime", "invoke_external",
               "wrapper"),
    EntryPoint("repro.wrapper.udtf_runtime", "FencedFunctionRuntime", "invoke_batch",
               "wrapper"),
    EntryPoint("repro.wrapper.wfms_wrapper", "WfmsWrapper", "invoke_foreign", "wrapper"),
    EntryPoint("repro.wfms.api", "WfmsClient", "run_process", "wfms"),
    EntryPoint("repro.appsys.base", "ApplicationSystem", "call", "appsys", opaque=True),
)

#: Span names that are layers (everything the recorder can emit).
LAYERS = tuple(dict.fromkeys(entry.name for entry in ENTRY_POINTS))


class Span:
    """One recorded interval (perf_counter seconds)."""

    __slots__ = ("id", "name", "start", "end", "parent", "request", "thread", "opaque",
                 "child_time")

    def __init__(self, span_id, name, start, parent, request, thread, opaque):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.thread = thread
        self.opaque = opaque
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        """Wall seconds the span covers."""
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the time its direct child spans cover."""
        return self.duration - self.child_time


class SpanRecorder:
    """Collects spans from every thread while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, opaque: bool):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            if stack and stack[-1].opaque:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span = Span(
                next(recorder._ids),
                name,
                0.0,
                parent.id if parent is not None else None,
                parent.request if parent is not None else next(recorder._requests),
                threading.get_ident(),
                opaque,
            )
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_time += span.end - span.start
                recorder.spans.append(span)

        return traced

    def install(self) -> None:
        """Patch every entry point (idempotent per recorder)."""
        import importlib

        if self._saved:
            return
        for entry in ENTRY_POINTS:
            module = importlib.import_module(entry.module)
            owner = module if entry.owner is None else getattr(module, entry.owner)
            original = owner.__dict__[entry.attr] if entry.owner else getattr(owner, entry.attr)
            self._saved.append((owner, entry.attr, original))
            setattr(owner, entry.attr, self._wrap(original, entry.name, entry.opaque))

    def uninstall(self) -> None:
        """Restore every patched entry point."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reductions ---------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Total self time per layer."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for span in self.spans:
            totals[span.name] += span.self_time
        return totals

    def busy_seconds(self) -> dict[str, float]:
        """Total duration per layer (outermost spans of a layer only, so
        recursion is not double counted)."""
        by_id = {span.id: span for span in self.spans}
        totals = dict.fromkeys(LAYERS, 0.0)
        for span in self.spans:
            parent = by_id.get(span.parent)
            nested = False
            while parent is not None:
                if parent.name == span.name:
                    nested = True
                    break
                parent = by_id.get(parent.parent)
            if not nested:
                totals[span.name] += span.duration
        return totals

    def counts(self) -> dict[str, int]:
        """Number of spans per layer."""
        totals = dict.fromkeys(LAYERS, 0)
        for span in self.spans:
            totals[span.name] += 1
        return totals

    def chrome_trace(self, limit: int = 5000) -> dict:
        """The first ``limit`` spans (by start) as Chrome trace events."""
        spans = sorted(self.spans, key=lambda s: s.start)[:limit]
        origin = spans[0].start if spans else 0.0
        threads: dict[int, int] = {}
        events = []
        for span in spans:
            tid = threads.setdefault(span.thread, len(threads) + 1)
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".")[0],
                    "ph": "X",
                    "ts": round((span.start - origin) * 1e6, 3),
                    "dur": round(span.duration * 1e6, 3),
                    "pid": 1,
                    "tid": tid,
                    "args": {"id": span.id, "parent": span.parent, "request": span.request},
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"spans_total": len(self.spans), "spans_dumped": len(events)},
        }
