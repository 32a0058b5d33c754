"""Tracing: nested spans, W3C trace context, and a flight recorder.

A :class:`TraceContext` — a W3C ``traceparent``-compatible
``(trace_id, span_id, sampled)`` triple — can be bound to the current
thread (:func:`bind`).  While one is bound, every :func:`span` mints a
fresh 64-bit span id, stamps ``trace_id``/``span``/``parent_span`` into
its event along with its name, wall/CPU milliseconds, outcome (``ok``
or the exception type) and any keyword attributes, and re-binds itself
as the context so nested spans (and anything that captures
:func:`current_context`, e.g. the micro-batcher) parent correctly.
Completed events of sampled contexts feed the process
:class:`FlightRecorder` when one is installed.

With no context bound, a span costs one context-manager entry and one
``None`` check — cheap enough to leave on the hot paths permanently.

Events are recorded at span *exit*, so children precede their parents;
``span``/``parent_span`` are enough to rebuild the tree.  The bound
context is thread-local: spans on worker threads nest correctly within
their own thread.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
import time
from collections import OrderedDict, deque
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Union

from repro.obs.metrics import Histogram

__all__ = [
    "span",
    "annotate",
    "TraceContext",
    "new_span_id",
    "bind",
    "current_context",
    "FlightRecorder",
    "get_recorder",
    "set_recorder",
]

_state = threading.local()


def _attr_stack() -> List[Dict[str, object]]:
    stack = getattr(_state, "attr_stack", None)
    if stack is None:
        stack = _state.attr_stack = []
    return stack


# ----------------------------------------------------------------------
# trace context (W3C traceparent triple)
# ----------------------------------------------------------------------

_TRACEPARENT_VERSION = "00"

#: ``version-trace_id-parent_id-flags``, each field lowercase hex of its
#: exact width.  Versions above ``00`` may append more ``-`` fields.
_TRACEPARENT_RE = re.compile(
    r"([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})(-.*)?"
)


def new_span_id() -> str:
    """A fresh random 64-bit span id as 16 lowercase hex chars."""
    return os.urandom(8).hex()


class TraceContext:
    """One hop of a distributed trace: ``(trace_id, span_id, sampled)``.

    ``trace_id`` is 32 lowercase hex chars shared by every span of the
    request; ``span_id`` is the 16-hex id of the *current* span — the
    parent of whatever span opens next (``None`` for a context minted
    at the edge with no upstream caller).  ``sampled`` gates flight
    recorder retention, never span emission.
    """

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: str, span_id: Optional[str], sampled: bool = True):
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = bool(sampled)

    @classmethod
    def mint(cls, sampled: bool = True) -> "TraceContext":
        """A brand-new trace with no parent span (edge-minted)."""
        return cls(os.urandom(16).hex(), None, sampled)

    @classmethod
    def from_traceparent(cls, header: Optional[str]) -> Optional["TraceContext"]:
        """Parse a W3C ``traceparent`` header; ``None`` on any malformation.

        Malformed headers are treated as absent (the edge mints a fresh
        context) rather than erroring — a bad client header must never
        fail the request it decorates.
        """
        if not header or not isinstance(header, str):
            return None
        match = _TRACEPARENT_RE.fullmatch(header.strip().lower())
        if match is None:
            return None
        version, trace_id, span_id, flags, extra = match.groups()
        if version == "ff" or (version == _TRACEPARENT_VERSION and extra is not None):
            return None
        if trace_id == "0" * 32 or span_id == "0" * 16:
            return None
        return cls(trace_id, span_id, sampled=bool(int(flags, 16) & 0x01))

    def to_traceparent(self) -> str:
        span_id = self.span_id or new_span_id()
        flags = "01" if self.sampled else "00"
        return f"{_TRACEPARENT_VERSION}-{self.trace_id}-{span_id}-{flags}"

    def child(self) -> "TraceContext":
        """Same trace, fresh span id — one hop down (or one retry over)."""
        return TraceContext(self.trace_id, new_span_id(), self.sampled)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TraceContext)
            and self.trace_id == other.trace_id
            and self.span_id == other.span_id
            and self.sampled == other.sampled
        )

    def __repr__(self) -> str:
        return f"TraceContext({self.trace_id!r}, {self.span_id!r}, sampled={self.sampled})"


def current_context() -> Optional[TraceContext]:
    """The context bound to this thread, or ``None``."""
    return getattr(_state, "ctx", None)


@contextmanager
def bind(ctx: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Bind ``ctx`` as this thread's trace context for the block.

    ``bind(None)`` explicitly unbinds (used around model rebuilds and
    other work that must not attribute spans to the triggering
    request).
    """
    previous = getattr(_state, "ctx", None)
    _state.ctx = ctx
    try:
        yield ctx
    finally:
        _state.ctx = previous


def annotate(**attrs: object) -> None:
    """Merge attributes into the innermost open span (no-op outside one).

    This is how a decision made *after* a span opened still lands on it
    — e.g. the HTTP edge span learns ``decision="shed"`` when admission
    rejects the request halfway through the handler.
    """
    stack = getattr(_state, "attr_stack", None)
    if stack:
        stack[-1].update(attrs)


@contextmanager
def span(name: str, **attrs: object) -> Iterator[None]:
    """Trace one pipeline stage; records even when the body raises."""
    ctx = getattr(_state, "ctx", None)
    if ctx is None:
        yield
        return
    child = TraceContext(ctx.trace_id, new_span_id(), ctx.sampled)
    _state.ctx = child
    ts = time.time()
    open_attrs: Dict[str, object] = dict(attrs)
    attr_stack = _attr_stack()
    attr_stack.append(open_attrs)
    t0 = time.perf_counter()
    c0 = time.process_time()
    status = "ok"
    try:
        yield
    except BaseException as exc:
        status = type(exc).__name__
        raise
    finally:
        wall_ms = 1000.0 * (time.perf_counter() - t0)
        cpu_ms = 1000.0 * (time.process_time() - c0)
        attr_stack.pop()
        _state.ctx = ctx
        recorder = _recorder
        if recorder is not None and child.sampled:
            event: Dict[str, object] = {
                "name": name,
                "wall_ms": wall_ms,
                "cpu_ms": cpu_ms,
                "status": status,
            }
            if open_attrs:
                event["attrs"] = open_attrs
            event["trace_id"] = child.trace_id
            event["span"] = child.span_id
            event["parent_span"] = ctx.span_id
            event["ts"] = ts
            recorder.record(event)


# ----------------------------------------------------------------------
# flight recorder (bounded ring of completed traces, tail-based keep)
# ----------------------------------------------------------------------

SNAPSHOT_SCHEMA = "repro.traces/1"


class FlightRecorder:
    """Always-on bounded ring buffer of completed request traces.

    Spans stream in while a trace is *open* (:meth:`begin` …
    :meth:`record` … :meth:`finish`); at finish the
    trace is either **pinned** (errors, deadline misses, p99-slow — a
    separate ring so a burst of healthy traffic can't evict the one
    trace the operator needs) or kept as an **ok** trace, sampled one
    in ``sample_every`` through its own ring.  Everything is bounded:
    open traces (oldest evicted), spans per trace, and both completed
    rings — the recorder can run forever on a serving worker.
    """

    def __init__(
        self,
        max_open: int = 512,
        max_spans: int = 256,
        keep_pinned: int = 64,
        keep_ok: int = 256,
        sample_every: int = 1,
        slow_min_samples: int = 50,
    ):
        self._lock = threading.Lock()
        self._open: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        self._pinned: "deque[Dict[str, object]]" = deque(maxlen=keep_pinned)
        self._ok: "deque[Dict[str, object]]" = deque(maxlen=keep_ok)
        self._wall = Histogram("flightrecorder.wall_ms")
        self.max_open = int(max_open)
        self.max_spans = int(max_spans)
        self.sample_every = max(1, int(sample_every))
        self.slow_min_samples = int(slow_min_samples)
        self._finished = 0
        self._dropped_open = 0
        self._sampled_out = 0
        self._truncated_spans = 0

    # -- lifecycle -------------------------------------------------------
    def begin(self, ctx: TraceContext, **meta: object) -> None:
        """Open a trace for ``ctx`` (idempotent; unsampled contexts skip)."""
        if not ctx.sampled:
            return
        with self._lock:
            if ctx.trace_id in self._open:
                return
            while len(self._open) >= self.max_open:
                self._open.popitem(last=False)
                self._dropped_open += 1
            entry: Dict[str, object] = {
                "trace_id": ctx.trace_id,
                "ts": time.time(),
                "spans": [],
            }
            entry.update(meta)
            self._open[ctx.trace_id] = entry

    def record(self, event: Dict[str, object]) -> None:
        """Append one completed span event to its open trace.

        A span whose attributes carry ``links`` (the batch-dispatch
        fan-in) is *also* appended to every linked open trace, so each
        coalesced request's trace shows the shared dispatch span.
        """
        trace_id = event.get("trace_id")
        if not trace_id:
            return
        with self._lock:
            self._append_locked(trace_id, event)
            attrs = event.get("attrs")
            links = attrs.get("links") if isinstance(attrs, dict) else None
            if links:
                for link in links:
                    linked = link.get("trace_id") if isinstance(link, dict) else None
                    if linked and linked != trace_id:
                        self._append_locked(linked, event)

    def _append_locked(self, trace_id: str, event: Dict[str, object]) -> None:
        entry = self._open.get(trace_id)
        if entry is None:
            return
        spans = entry["spans"]
        if len(spans) < self.max_spans:
            spans.append(event)
        else:
            self._truncated_spans += 1

    def finish(
        self,
        trace_id: str,
        status: str = "ok",
        wall_ms: Optional[float] = None,
        pin: bool = False,
        reason: Optional[str] = None,
    ) -> Optional[Dict[str, object]]:
        """Close a trace and decide retention; returns the trace doc.

        Pinned when the caller says so (``pin=True``, e.g. a deadline
        miss), when ``status`` is not ``ok``, or when ``wall_ms`` sits
        at or above the recorder's own running p99 (once
        ``slow_min_samples`` finishes have been seen).  Everything else
        is an ok trace, kept one-in-``sample_every``.
        """
        with self._lock:
            entry = self._open.pop(trace_id, None)
            if entry is None:
                return None
            self._finished += 1
            finished = self._finished
        if wall_ms is None:
            wall_ms = 1000.0 * (time.time() - float(entry["ts"]))
        entry["status"] = status
        entry["wall_ms"] = wall_ms
        slow = False
        if math.isfinite(wall_ms):
            if self._wall.count >= self.slow_min_samples:
                slow = wall_ms >= self._wall.quantile(0.99)
            self._wall.observe(wall_ms)
        pinned = pin or status != "ok" or slow
        if pinned:
            entry["pinned"] = True
            entry["reason"] = reason or ("slow_p99" if slow and status == "ok" else status)
            with self._lock:
                self._pinned.append(entry)
        else:
            entry["pinned"] = False
            if finished % self.sample_every:
                with self._lock:
                    self._sampled_out += 1
                return entry
            with self._lock:
                self._ok.append(entry)
        return entry

    # -- reading ---------------------------------------------------------
    def traces(self, trace_id: Optional[str] = None) -> List[Dict[str, object]]:
        """Completed traces, oldest first (pinned and sampled together)."""
        with self._lock:
            done = list(self._pinned) + list(self._ok)
        if trace_id is not None:
            done = [t for t in done if t.get("trace_id") == trace_id]
        done.sort(key=lambda t: float(t.get("ts", 0.0)))
        return done

    def get(self, trace_id: str) -> Optional[Dict[str, object]]:
        found = self.traces(trace_id)
        return found[-1] if found else None

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "open": len(self._open),
                "pinned": len(self._pinned),
                "ok": len(self._ok),
                "finished": self._finished,
                "dropped_open": self._dropped_open,
                "sampled_out": self._sampled_out,
                "truncated_spans": self._truncated_spans,
            }

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe doc of every retained trace (fleet dump format)."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "stats": self.stats(),
            "traces": self.traces(),
        }

    def dump_jsonl(self, path: Union[str, "os.PathLike"]) -> int:
        """One JSON object per retained trace; returns the trace count."""
        traces = self.traces()
        with open(path, "w", encoding="utf-8") as fh:
            for trace in traces:
                fh.write(json.dumps(trace, sort_keys=True) + "\n")
        return len(traces)

    @staticmethod
    def merge_docs(docs: Iterable[Dict[str, object]]) -> Dict[str, object]:
        """Merge per-worker :meth:`snapshot` docs into one fleet view.

        Traces dedupe by id — the copy with the most spans wins (a
        retried request can leave a copy of its trace on each worker
        it reached).
        Stats sum field-wise except ``open`` which is a point-in-time
        gauge (summed too; it is per-worker in-flight).
        """
        best: Dict[str, Dict[str, object]] = {}
        stats: Dict[str, int] = {}
        workers = 0
        for doc in docs:
            if not isinstance(doc, dict):
                continue
            workers += 1
            for key, value in (doc.get("stats") or {}).items():
                stats[key] = stats.get(key, 0) + int(value)
            traces = doc.get("traces")
            if not isinstance(traces, list):
                continue
            for trace in traces:
                trace_id = trace.get("trace_id") if isinstance(trace, dict) else None
                if not trace_id:
                    continue
                held = best.get(trace_id)
                if held is None or len(trace.get("spans") or ()) > len(held.get("spans") or ()):
                    best[trace_id] = trace
        merged = sorted(best.values(), key=lambda t: float(t.get("ts", 0.0)))
        return {
            "schema": SNAPSHOT_SCHEMA,
            "workers": workers,
            "stats": stats,
            "traces": merged,
        }


# ----------------------------------------------------------------------
# process-global recorder (None by default: tracing costs nothing)
# ----------------------------------------------------------------------
_recorder: Optional[FlightRecorder] = None


def get_recorder() -> Optional[FlightRecorder]:
    return _recorder


def set_recorder(recorder: Optional[FlightRecorder]) -> Optional[FlightRecorder]:
    """Install the process flight recorder; returns the previous one."""
    global _recorder
    previous, _recorder = _recorder, recorder
    return previous
