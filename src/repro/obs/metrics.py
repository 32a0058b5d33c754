"""Counters, gauges and streaming histograms for the toolkit's hot paths.

Design constraints (this is the substrate every perf PR reports
through, so it must be boring and cheap):

* **Dependency-free** — stdlib only, importable from every layer
  (format parser, pool, algorithms) without cycles.
* **Reservoir-free quantiles** — :class:`Histogram` is log-bucketed
  (multiplicative bucket width ``growth``), so p50/p95/p99 come from a
  fixed-size dict with a bounded relative error of ``growth - 1``
  regardless of how many values streamed through.  No sampling, no
  sorting, no unbounded memory.
* **Labels** — metrics take keyword labels
  (``counter("locate.requests", algorithm="knn")``); each label
  combination is its own time series, rendered as
  ``name{algorithm=knn}``.
* **Thread safety** — every mutation holds a per-metric lock and
  :meth:`MetricsRegistry.snapshot` copies the series tables under the
  registry lock, so concurrent ``inc``/``observe``/``snapshot`` from
  worker threads never lose updates or trip mid-iteration mutations.
* **Mergeable state** — :meth:`MetricsRegistry.dump_state` is a plain
  picklable dict and :meth:`MetricsRegistry.merge` folds one registry's
  delta into another (counters sum, gauges last-write, histograms merge
  bucket-wise).  This is how metrics emitted inside
  :mod:`repro.parallel` worker processes reach the parent registry.
* **A process-global default registry** — instrumented library code
  emits into it unconditionally; tests grab :func:`snapshot` and call
  :func:`reset` around themselves.  :func:`set_enabled` (False) swaps
  every lookup for shared no-op metrics, which is how the overhead
  bench isolates instrumentation cost.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "histogram",
    "get_registry",
    "set_registry",
    "set_enabled",
    "enabled",
    "snapshot",
    "reset",
    "merge_state",
    "split_series",
]


def _series_name(name: str, labels: Dict[str, str]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def split_series(series: str) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
    """Invert :func:`_series_name`: ``"x{a=1,b=2}"`` → ``("x", (("a","1"),("b","2")))``.

    The shared parser behind deterministic rendering and the exporters:
    sorting series by this key orders them by base name first, then by
    the label tuple, independent of how the snapshot dict was built.
    """
    if not series.endswith("}"):
        return series, ()
    name, _, inner = series[:-1].partition("{")
    labels = []
    for part in inner.split(","):
        key, _, value = part.partition("=")
        labels.append((key, value))
    return name, tuple(labels)


class Counter:
    """A monotonically increasing count (thread-safe)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {n})")
        with self._lock:
            self.value += n


class Gauge:
    """A point-in-time value (worker counts, database sizes)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self.value += n

    def dec(self, n: float = 1.0) -> None:
        with self._lock:
            self.value -= n


class Histogram:
    """Streaming log-bucketed histogram with bounded-error quantiles.

    Positive values land in bucket ``floor(log(v) / log(growth))``; a
    quantile answer is the geometric midpoint of its bucket, so the
    relative error is at most ``growth - 1`` (4 % by default).  Zero
    and negative values (legal for e.g. dB deltas) are counted in a
    single underflow bucket pinned to the exact minimum seen.

    Two histograms with the same ``growth`` share a bucket grid, so
    :meth:`merge_state` is exact: bucket counts add, min/max take the
    extreme, and every quantile of the merged histogram is what a
    single histogram fed both streams would have answered.
    """

    __slots__ = ("name", "growth", "_log_growth", "count", "total", "min", "max",
                 "_buckets", "_nonpositive", "_exemplars", "_lock")

    #: At most this many buckets carry an exemplar (bounded memory).
    MAX_EXEMPLAR_BUCKETS = 64

    def __init__(self, name: str, growth: float = 1.04):
        if growth <= 1.0:
            raise ValueError(f"histogram growth must be > 1, got {growth}")
        self.name = name
        self.growth = float(growth)
        self._log_growth = math.log(self.growth)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._buckets: Dict[int, int] = {}
        self._nonpositive = 0
        self._exemplars: Dict[int, Tuple[float, str, float]] = {}
        self._lock = threading.Lock()

    def observe(self, value: float, trace_id: Optional[str] = None) -> None:
        """Record one value; optionally tag its bucket with an exemplar.

        An exemplar is ``(value, trace_id, unix_ts)`` — a sample request
        id living in the bucket the observation landed in, so a scraper
        reading the OpenMetrics exposition can jump from "the p99 bucket
        grew" straight to a concrete trace in the flight recorder.
        Last write per bucket wins; at most ``MAX_EXEMPLAR_BUCKETS``
        buckets hold one.
        """
        value = float(value)
        with self._lock:
            self._observe_locked(value)
            if trace_id and value > 0.0:
                idx = int(math.floor(math.log(value) / self._log_growth))
                if idx in self._exemplars or len(self._exemplars) < self.MAX_EXEMPLAR_BUCKETS:
                    self._exemplars[idx] = (value, str(trace_id), time.time())

    def observe_many(self, values: Iterable[float]) -> None:
        """Observe a whole batch under one lock acquisition.

        The batched ``locate_many`` paths record one value per request;
        taking the lock once per batch keeps the per-request cost to a
        few arithmetic operations.
        """
        with self._lock:
            for value in values:
                self._observe_locked(float(value))

    def _observe_locked(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self._nonpositive += 1
            return
        idx = int(math.floor(math.log(value) / self._log_growth))
        self._buckets[idx] = self._buckets.get(idx, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (0 <= q <= 1) of everything observed."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        with self._lock:
            target = q * self.count
            seen = self._nonpositive
            if seen >= target and self._nonpositive:
                return self.min  # inside the underflow bucket
            for idx in sorted(self._buckets):
                seen += self._buckets[idx]
                if seen >= target:
                    # geometric midpoint of [growth^idx, growth^(idx+1))
                    mid = math.exp((idx + 0.5) * self._log_growth)
                    return min(max(mid, self.min), self.max)
            return self.max

    def summary(self) -> Dict[str, float]:
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    # -- portable state (cross-process merge) ---------------------------
    def dump_state(self) -> Dict[str, object]:
        """Full picklable state — everything a merge needs, unlike
        :meth:`summary` which collapses buckets into quantile answers."""
        with self._lock:
            state: Dict[str, object] = {
                "growth": self.growth,
                "count": self.count,
                "total": self.total,
                "min": self.min,
                "max": self.max,
                "nonpositive": self._nonpositive,
                "buckets": dict(self._buckets),
            }
            if self._exemplars:
                state["exemplars"] = {k: list(v) for k, v in self._exemplars.items()}
            return state

    def merge_state(self, state: Dict[str, object]) -> None:
        """Fold another histogram's :meth:`dump_state` into this one.

        Bucket-wise and exact for same-``growth`` histograms; merging is
        commutative and associative (counts add, extremes take the
        extreme), so a parent folding worker deltas in any order answers
        exactly what one histogram fed every stream would.
        """
        growth = float(state.get("growth", self.growth))
        if abs(growth - self.growth) > 1e-12:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: growth {growth} != {self.growth}"
            )
        with self._lock:
            self.count += int(state["count"])
            self.total += float(state["total"])
            self.min = min(self.min, float(state["min"]))
            self.max = max(self.max, float(state["max"]))
            self._nonpositive += int(state.get("nonpositive", 0))
            for idx, n in state.get("buckets", {}).items():
                idx = int(idx)  # JSON round trips turn keys into strings
                self._buckets[idx] = self._buckets.get(idx, 0) + int(n)
            for idx, ex in state.get("exemplars", {}).items():
                idx = int(idx)
                incoming = (float(ex[0]), str(ex[1]), float(ex[2]))
                held = self._exemplars.get(idx)
                # newest exemplar per bucket wins across merges
                if held is None or incoming[2] >= held[2]:
                    if idx in self._exemplars or len(self._exemplars) < self.MAX_EXEMPLAR_BUCKETS:
                        self._exemplars[idx] = incoming


class _NullMetric:
    """Shared sink used while the subsystem is disabled."""

    name = "<disabled>"
    value = 0

    def inc(self, n=1):  # noqa: D102 - deliberate no-ops
        pass

    def dec(self, n=1):
        pass

    def set(self, value):
        pass

    def observe(self, value, trace_id=None):
        pass

    def observe_many(self, values):
        pass


_NULL = _NullMetric()


class MetricsRegistry:
    """A namespace of named metrics; creation is thread-safe."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- lookup-or-create ------------------------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        key = _series_name(name, labels)
        m = self._counters.get(key)
        if m is None:
            with self._lock:
                m = self._counters.setdefault(key, Counter(key))
        return m

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = _series_name(name, labels)
        m = self._gauges.get(key)
        if m is None:
            with self._lock:
                m = self._gauges.setdefault(key, Gauge(key))
        return m

    def histogram(self, name: str, growth: float = 1.04, **labels: str) -> Histogram:
        key = _series_name(name, labels)
        m = self._histograms.get(key)
        if m is None:
            with self._lock:
                m = self._histograms.setdefault(key, Histogram(key, growth=growth))
        return m

    # -- reading ---------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-serializable view of every series (stable key order)."""
        with self._lock:
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            histograms = list(self._histograms.items())
        return {
            "counters": {k: c.value for k, c in sorted(counters)},
            "gauges": {k: g.value for k, g in sorted(gauges)},
            "histograms": {k: h.summary() for k, h in sorted(histograms)},
        }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- cross-process aggregation ---------------------------------------
    def dump_state(self) -> Dict[str, Dict[str, object]]:
        """Complete picklable registry state for :meth:`merge`.

        Unlike :meth:`snapshot` (which summarizes histograms into
        quantile answers), the dumped state carries full histogram
        buckets, so a merge is exact.  The dict is JSON-safe apart from
        histogram bucket keys, which JSON will stringify; :meth:`merge`
        accepts both forms.
        """
        with self._lock:
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            histograms = list(self._histograms.items())
        return {
            "counters": {k: c.value for k, c in counters},
            "gauges": {k: g.value for k, g in gauges},
            "histograms": {k: h.dump_state() for k, h in histograms},
        }

    def merge(self, other: "MetricsRegistry | Dict[str, Dict[str, object]]") -> "MetricsRegistry":
        """Fold another registry (or a :meth:`dump_state` dict) into this one.

        Counters sum, gauges are last-write (the incoming value wins),
        histograms merge bucket-wise.  This is the parent side of
        cross-process aggregation: every worker returns its delta state
        and the parent merges them all, so parallel and serial runs
        report identical totals.  Returns ``self`` for chaining.
        """
        state = other.dump_state() if isinstance(other, MetricsRegistry) else other
        for key, value in state.get("counters", {}).items():
            m = self._counters.get(key)
            if m is None:
                with self._lock:
                    m = self._counters.setdefault(key, Counter(key))
            m.inc(int(value))
        for key, value in state.get("gauges", {}).items():
            m = self._gauges.get(key)
            if m is None:
                with self._lock:
                    m = self._gauges.setdefault(key, Gauge(key))
            m.set(float(value))
        for key, hstate in state.get("histograms", {}).items():
            m = self._histograms.get(key)
            if m is None:
                with self._lock:
                    m = self._histograms.setdefault(
                        key, Histogram(key, growth=float(hstate.get("growth", 1.04)))
                    )
            m.merge_state(hstate)
        return self


# ----------------------------------------------------------------------
# process-global default registry
# ----------------------------------------------------------------------
_default = MetricsRegistry()
_enabled = True


def get_registry() -> MetricsRegistry:
    return _default


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry; returns the previous one (for tests)."""
    global _default
    previous, _default = _default, registry
    return previous


def set_enabled(enabled: bool) -> bool:
    """Globally enable/disable emission; returns the previous state."""
    global _enabled
    previous, _enabled = _enabled, bool(enabled)
    return previous


def enabled() -> bool:
    """Whether metric emission is currently on (see :func:`set_enabled`)."""
    return _enabled


def counter(name: str, **labels: str):
    return _default.counter(name, **labels) if _enabled else _NULL


def gauge(name: str, **labels: str):
    return _default.gauge(name, **labels) if _enabled else _NULL


def histogram(name: str, **labels: str):
    return _default.histogram(name, **labels) if _enabled else _NULL


def snapshot() -> Dict[str, Dict[str, object]]:
    return _default.snapshot()


def reset() -> None:
    _default.reset()


def merge_state(state: Dict[str, Dict[str, object]]) -> None:
    """Fold a worker's :meth:`MetricsRegistry.dump_state` into the default
    registry (no-op while emission is disabled)."""
    if _enabled and state:
        _default.merge(state)
