"""The micro-batching queue: many concurrent requests, one kernel pass.

PR 3 made ``locate_many`` 4–9x faster per observation than ``locate``
— but only bulk callers saw it.  A live service receives observations
one at a time from many connections; dispatching each alone would pay
the slow path forever.  :class:`MicroBatcher` closes the gap: incoming
single requests are queued, and a dedicated dispatcher thread hands
whatever is queued, up to ``max_batch``, to one ``dispatch`` call as
soon as it is free — for the localization service, one
``locate_many`` through the chunked engine.  A lone request goes out
at once; requests that arrive while a dispatch runs go out together in
the next one, so batches grow with the load.  Each caller gets a
:class:`concurrent.futures.Future` resolved with *its* answer, exactly
once, in submission order.

That greedy dispatch is the default (:data:`DEFAULT_MAX_WAIT_MS` is
0).  A positive ``max_wait_ms`` instead holds the first request of a
window for company, until ``max_batch`` are waiting or the window
closes: fewer, larger dispatches under closed-loop load, paid for by
the window on every request.  At interactive rates a 5 ms window
coalesced almost nothing (mean batch size 1.0–1.3 on perfbench's
serving workloads) and was the largest stage of a 9 ms p50.

Admission control is part of the contract, not an afterthought:

* the queue is bounded (``max_queue``); a full queue raises
  :class:`QueueFullError` immediately instead of building unbounded
  latency — the HTTP layer turns that into 429 + ``Retry-After``;
* each request may carry an absolute deadline; a request whose
  deadline has *already* passed is refused at :meth:`submit` time (it
  would only waste a bounded-queue slot), and one that expires while
  queued is failed with :class:`DeadlineExceededError` *before*
  wasting kernel time on it;
* the batcher measures its own drain rate (an EWMA of requests
  leaving the queue per second) so the HTTP layer can compute an
  honest ``Retry-After`` from live behaviour instead of a constant.

Instrumented on the global :mod:`repro.obs` registry: queue-depth
gauge, batch-size and queue-wait histograms, dispatch/rejection/expiry
counters (catalogue in docs/serving.md).  Time is injectable (see
:mod:`repro.serve.clock`) so wait-timeout behaviour is testable
without real sleeps.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future
from typing import Any, Callable, Deque, List, Optional, Sequence

from repro import obs
from repro.serve.clock import SystemClock, waitable

__all__ = [
    "BatchFailure",
    "DEFAULT_MAX_WAIT_MS",
    "MicroBatcher",
    "QueueFullError",
    "DeadlineExceededError",
]

#: The batch window every server and tracking engine defaults to: 0 is
#: greedy dispatch (see the module docstring).
DEFAULT_MAX_WAIT_MS = 0.0


class QueueFullError(RuntimeError):
    """Admission control: the bounded request queue is at capacity."""


class DeadlineExceededError(RuntimeError):
    """The request's deadline passed before it could be dispatched."""


class BatchFailure:
    """A per-item failure inside an otherwise-successful dispatch.

    A dispatch may return ``BatchFailure(exc)`` at position *i* to
    resolve request *i*'s future with ``exc`` while the rest of the
    batch completes normally — the tracking-session dispatcher uses
    this so one closed session cannot fail a whole coalesced batch.
    A dispatch that *raises* still fails every request in the batch.
    """

    __slots__ = ("error",)

    def __init__(self, error: BaseException):
        self.error = error


class _Request:
    __slots__ = ("payload", "future", "deadline", "enqueued_at", "ctx")

    def __init__(
        self,
        payload: Any,
        future: Future,
        deadline: Optional[float],
        enqueued_at: float,
        ctx=None,
    ):
        self.payload = payload
        self.future = future
        self.deadline = deadline
        self.enqueued_at = enqueued_at
        # The submitter's TraceContext (or None): captured at submit so
        # the dispatcher thread can stitch the fan-in — N request
        # traces share one dispatch span via span links.
        self.ctx = ctx


class MicroBatcher:
    """Collect concurrent single requests into one batched dispatch.

    Parameters
    ----------
    dispatch:
        ``dispatch(payloads) -> results`` with ``len(results) ==
        len(payloads)`` and result *i* answering payload *i* — exactly
        the ``locate_many`` contract.  Called from the dispatcher
        thread only.
    max_batch:
        Dispatch as soon as this many requests are waiting.  1 turns
        micro-batching off (every request dispatches alone) — the
        baseline the serving bench compares against.
    max_wait_ms:
        How long the *first* request of a window may wait for company
        before the batch goes out regardless of size.  0 (the default)
        dispatches whatever is queued the moment the dispatcher is
        free; a positive window trades that much latency on every
        request for fewer dispatches under closed-loop load.  It must
        be a wait a thread can take (:func:`~repro.serve.clock.
        waitable`), else ValueError.
    max_queue:
        Bound on waiting requests; beyond it :meth:`submit` raises
        :class:`QueueFullError`.
    clock:
        A :mod:`repro.serve.clock` time source (default real time).
    name:
        Label on every metric series this batcher emits.
    """

    def __init__(
        self,
        dispatch: Callable[[List[Any]], Sequence[Any]],
        max_batch: int = 64,
        max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
        max_queue: int = 256,
        clock=None,
        name: str = "serve",
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if not waitable(max_wait_ms / 1000.0):
            raise ValueError(
                "max_wait_ms must be finite, >= 0 and at most "
                f"threading.TIMEOUT_MAX seconds, got {max_wait_ms}"
            )
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self._dispatch = dispatch
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_ms) / 1000.0
        self.max_queue = int(max_queue)
        self._clock = clock if clock is not None else SystemClock()
        self.name = name
        self._queue: Deque[_Request] = deque()
        self._cond = threading.Condition()
        self._stopping = False
        self._thread: Optional[threading.Thread] = None
        # Drain-rate EWMA (requests/s leaving the queue), updated after
        # each dispatch; None until the first inter-dispatch interval.
        self._drain_rate: Optional[float] = None
        self._last_dispatch_at: Optional[float] = None

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "MicroBatcher":
        if self._thread is not None:
            raise RuntimeError("MicroBatcher already started")
        self._stopping = False
        self._thread = threading.Thread(
            target=self._run, name=f"repro-batcher-{self.name}", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting work, drain what is queued, join the thread.

        Every already-accepted request still gets its answer (or its
        error): the dispatcher keeps draining until the queue is empty
        before exiting, so no future is left dangling.
        """
        thread = self._thread
        if thread is None:
            return
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        thread.join(timeout=30.0)
        self._thread = None

    def __enter__(self) -> "MicroBatcher":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def alive(self) -> bool:
        """Whether the dispatcher thread is running (a /healthz input)."""
        return self._thread is not None and self._thread.is_alive()

    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def drain_rate(self) -> Optional[float]:
        """EWMA of requests leaving the queue per second (None = no data).

        The live input to ``Retry-After``: ``queue_depth / drain_rate``
        is how long a rejected client should expect the backlog to
        take.
        """
        with self._cond:
            return self._drain_rate

    def _note_drained(self, n: int) -> None:
        """Fold one completed dispatch of ``n`` requests into the EWMA."""
        now = self._clock.monotonic()
        with self._cond:
            if self._last_dispatch_at is not None:
                dt = now - self._last_dispatch_at
                if dt > 0:
                    instant = n / dt
                    self._drain_rate = (
                        instant
                        if self._drain_rate is None
                        else 0.7 * self._drain_rate + 0.3 * instant
                    )
                    obs.gauge("serve.drain_rate", batcher=self.name).set(
                        round(self._drain_rate, 3)
                    )
            self._last_dispatch_at = now

    # -- producer side ---------------------------------------------------
    def submit(self, payload: Any, deadline: Optional[float] = None) -> "Future":
        """Enqueue one request; returns the Future carrying its answer.

        ``deadline`` is an absolute time on this batcher's clock
        (``clock.monotonic() + budget``); expired requests fail with
        :class:`DeadlineExceededError` instead of being dispatched.  A
        deadline that has already passed at submit time is refused
        immediately — a doomed request must not occupy a bounded-queue
        slot that a live one could use.  Raises :class:`QueueFullError`
        when admission control rejects the request — the caller never
        blocks on a saturated queue.
        """
        future: Future = Future()
        with self._cond:
            if self._stopping or self._thread is None:
                raise RuntimeError("MicroBatcher is not running")
            if deadline is not None:
                now = self._clock.monotonic()
                if now >= deadline:
                    obs.counter(
                        "serve.rejected", batcher=self.name, reason="deadline_expired"
                    ).inc()
                    raise DeadlineExceededError(
                        f"deadline passed {now - deadline:.4f}s before enqueue"
                    )
            if len(self._queue) >= self.max_queue:
                obs.counter("serve.rejected", batcher=self.name, reason="queue_full").inc()
                raise QueueFullError(
                    f"request queue at capacity ({self.max_queue}); retry later"
                )
            self._queue.append(
                _Request(
                    payload,
                    future,
                    deadline,
                    self._clock.monotonic(),
                    ctx=obs.current_context(),
                )
            )
            obs.gauge("serve.queue_depth", batcher=self.name).set(len(self._queue))
            self._cond.notify_all()
        return future

    def submit_wait(self, payload: Any, timeout: Optional[float] = None) -> Any:
        """Blocking convenience: submit and wait for the answer."""
        return self.submit(payload).result(timeout)

    # -- dispatcher side -------------------------------------------------
    def _collect(self) -> Optional[List[_Request]]:
        """Wait for work, apply the batching window, drain one batch.

        Returns None exactly once: when stopping with an empty queue.
        """
        with self._cond:
            while not self._queue:
                if self._stopping:
                    return None
                self._cond.wait()  # untimed: no work means nothing to time
            window_ends = self._queue[0].enqueued_at + self.max_wait_s
            while len(self._queue) < self.max_batch and not self._stopping:
                remaining = window_ends - self._clock.monotonic()
                if remaining <= 0:
                    break
                self._clock.wait(self._cond, remaining)
            batch = [
                self._queue.popleft()
                for _ in range(min(self.max_batch, len(self._queue)))
            ]
            obs.gauge("serve.queue_depth", batcher=self.name).set(len(self._queue))
        return batch

    def _run(self) -> None:
        while True:
            batch = self._collect()
            if batch is None:
                return
            now = self._clock.monotonic()
            live: List[_Request] = []
            for req in batch:
                if req.deadline is not None and now > req.deadline:
                    obs.counter("serve.deadline_expired", batcher=self.name).inc()
                    req.future.set_exception(
                        DeadlineExceededError(
                            f"deadline passed {now - req.deadline:.4f}s before dispatch"
                        )
                    )
                else:
                    live.append(req)
            if not live:
                self._note_drained(len(batch))
                continue
            obs.counter("serve.batches", batcher=self.name).inc()
            obs.histogram("serve.batch_size", batcher=self.name).observe(len(live))
            obs.histogram("serve.batch_wait_ms", batcher=self.name).observe_many(
                1000.0 * (now - req.enqueued_at) for req in live
            )
            # The fan-in stitch: the dispatch runs under the *first*
            # live request's trace context (so engine/chunk spans land
            # in one trace), and the dispatch span links every
            # coalesced request's (trace_id, span_id) — the flight
            # recorder copies it into each linked trace, so all N
            # requests see the shared dispatch in their own tree.
            ctxs = [req.ctx for req in live if req.ctx is not None]
            attrs: dict = {"batcher": self.name, "size": len(live)}
            if ctxs:
                attrs["links"] = [
                    {"trace_id": c.trace_id, "span_id": c.span_id} for c in ctxs
                ]
            try:
                with obs.bind(ctxs[0] if ctxs else None):
                    with obs.span("serve.dispatch", **attrs):
                        results = self._dispatch([req.payload for req in live])
                if len(results) != len(live):
                    raise RuntimeError(
                        f"dispatch returned {len(results)} results for {len(live)} requests"
                    )
            except Exception as exc:  # noqa: BLE001 - every caller must hear about it
                obs.counter("serve.dispatch_errors", batcher=self.name).inc()
                for req in live:
                    req.future.set_exception(exc)
                self._note_drained(len(batch))
                continue
            for req, result in zip(live, results):
                if isinstance(result, BatchFailure):
                    req.future.set_exception(result.error)
                else:
                    req.future.set_result(result)
            self._note_drained(len(batch))
