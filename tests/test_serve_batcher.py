"""The micro-batcher: exactly-once, in-order, deadline and admission laws.

All synchronization in here is event- or future-based; the wait-timeout
behaviours run on :class:`ManualClock` so nothing in this module ever
really sleeps — a batch window of ten *seconds* tests in microseconds.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import Future

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.serve.batcher import DeadlineExceededError, MicroBatcher, QueueFullError
from repro.serve.clock import ManualClock


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = obs.set_registry(obs.MetricsRegistry())
    yield
    obs.set_registry(previous)


def echo_dispatch(items):
    # Fresh result object per request: aliasing between answers would be
    # visible as shared ids downstream.
    return [{"answer": item} for item in items]


class _GatedDispatch:
    """Dispatch that parks inside the kernel until the test releases it.

    The deterministic way to hold the dispatcher busy (or a batch open)
    without sleeping: the test waits on ``entered``, the dispatcher
    waits on ``release``.
    """

    def __init__(self, gate_first_only: bool = True):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls = []
        self._gated = [gate_first_only]
        self._first_done = False

    def __call__(self, items):
        self.calls.append(list(items))
        if not self._first_done:
            self._first_done = True
            self.entered.set()
            assert self.release.wait(timeout=30.0), "test never released the gate"
        return [{"answer": item} for item in items]


class TestBatching:
    def test_single_request_round_trip(self):
        with MicroBatcher(echo_dispatch, max_batch=4, max_wait_ms=0.0) as batcher:
            assert batcher.submit_wait("obs-1", timeout=30) == {"answer": "obs-1"}

    def test_lone_request_does_not_wait_by_default(self):
        """The default window is greedy: a lone request leaves at once.

        On the manual clock any timed wait would advance virtual time,
        so the clock still reading 0.0 proves the request never waited.
        """
        clock = ManualClock()
        with MicroBatcher(echo_dispatch, clock=clock) as batcher:
            assert batcher.submit("lonely").result(timeout=5) == {"answer": "lonely"}
            assert clock.monotonic() == 0.0

    @pytest.mark.parametrize(
        "window", [{"max_wait_ms": 10_000.0}, {}], ids=["10s-window", "default"]
    )
    def test_full_batch_dispatches_together(self, window):
        """Requests queued behind a running dispatch coalesce into one
        dispatch call, with or without a batching window."""
        gate = _GatedDispatch()
        with MicroBatcher(gate, max_batch=3, max_queue=64, **window) as b:
            probe = b.submit("probe")
            assert gate.entered.wait(timeout=30.0)
            # Dispatcher is parked in the kernel: these three are queued
            # together, no timing involved.
            futures = [b.submit(f"r{i}") for i in range(3)]
            gate.release.set()
            assert probe.result(timeout=30) == {"answer": "probe"}
            assert [f.result(timeout=30) for f in futures] == [
                {"answer": "r0"}, {"answer": "r1"}, {"answer": "r2"}
            ]
        assert gate.calls[0] == ["probe"]
        assert gate.calls[1] == ["r0", "r1", "r2"]  # one micro-batch, max_batch hit

    def test_window_expiry_needs_no_real_sleep(self):
        """A 10 s batch window closes instantly on the manual clock.

        The future resolving (with a 5 s *real* timeout) is itself the
        proof that the dispatcher did not really sleep 10 s.
        """
        clock = ManualClock()
        with MicroBatcher(
            echo_dispatch, max_batch=100, max_wait_ms=10_000.0, clock=clock
        ) as batcher:
            assert batcher.submit("lonely").result(timeout=5) == {"answer": "lonely"}
        assert clock.monotonic() >= 10.0  # the window elapsed -- virtually

    def test_batch_metrics_emitted(self):
        with MicroBatcher(echo_dispatch, max_batch=2, max_wait_ms=0.0, name="t") as b:
            b.submit_wait("x", timeout=30)
        snap = obs.snapshot()
        assert snap["counters"]["serve.batches{batcher=t}"] >= 1
        assert snap["histograms"]["serve.batch_size{batcher=t}"]["count"] >= 1
        assert snap["histograms"]["serve.batch_wait_ms{batcher=t}"]["count"] >= 1
        assert "serve.queue_depth{batcher=t}" in snap["gauges"]


class TestAdmissionControl:
    def test_queue_full_rejects_without_blocking(self):
        gate = _GatedDispatch()
        with MicroBatcher(gate, max_batch=1, max_wait_ms=0.0, max_queue=2) as b:
            parked = b.submit("parked")  # occupies the dispatcher
            assert gate.entered.wait(timeout=30.0)
            q1, q2 = b.submit("q1"), b.submit("q2")  # fills the bounded queue
            with pytest.raises(QueueFullError):
                b.submit("overflow")
            gate.release.set()
            for f, payload in ((parked, "parked"), (q1, "q1"), (q2, "q2")):
                assert f.result(timeout=30) == {"answer": payload}
        snap = obs.snapshot()
        assert snap["counters"]["serve.rejected{batcher=serve,reason=queue_full}"] == 1

    def test_expired_deadline_fails_before_dispatch(self):
        clock = ManualClock()
        gate = _GatedDispatch()
        with MicroBatcher(gate, max_batch=1, max_wait_ms=0.0, clock=clock, max_queue=8) as b:
            parked = b.submit("parked")
            assert gate.entered.wait(timeout=30.0)
            doomed = b.submit("doomed", deadline=clock.monotonic() + 0.5)
            clock.advance(1.0)  # its deadline passes while queued
            gate.release.set()
            assert parked.result(timeout=30) == {"answer": "parked"}
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=30)
        assert "doomed" not in [i for call in gate.calls for i in call]
        snap = obs.snapshot()
        assert snap["counters"]["serve.deadline_expired{batcher=serve}"] == 1

    def test_unexpired_deadline_is_served(self):
        clock = ManualClock()
        with MicroBatcher(echo_dispatch, max_batch=4, max_wait_ms=0.0, clock=clock) as b:
            future = b.submit("timely", deadline=clock.monotonic() + 60.0)
            assert future.result(timeout=30) == {"answer": "timely"}

    def test_already_expired_deadline_is_refused_at_enqueue(self):
        """Dead-on-arrival work must not occupy a bounded-queue slot."""
        clock = ManualClock()
        clock.advance(10.0)
        with MicroBatcher(echo_dispatch, max_batch=4, max_wait_ms=0.0, clock=clock) as b:
            with pytest.raises(DeadlineExceededError):
                b.submit("doa", deadline=clock.monotonic() - 0.001)
            with pytest.raises(DeadlineExceededError):
                b.submit("exactly-now", deadline=clock.monotonic())
            assert b.queue_depth() == 0  # nothing was accepted
            # A live request right after is unaffected.
            assert b.submit("alive").result(timeout=30) == {"answer": "alive"}
        snap = obs.snapshot()
        # Distinct from dispatch-time expiry: a dedicated rejection
        # counter, and the dispatch-time one untouched.
        assert snap["counters"]["serve.rejected{batcher=serve,reason=deadline_expired}"] == 2
        assert "serve.deadline_expired{batcher=serve}" not in snap["counters"]

    def test_drain_rate_ewma_tracks_dispatches(self):
        clock = ManualClock()
        with MicroBatcher(echo_dispatch, max_batch=2, max_wait_ms=0.0, clock=clock) as b:
            assert b.drain_rate() is None  # no inter-dispatch interval yet
            b.submit("a").result(timeout=30)
            b._note_drained(10)  # fold a synthetic dispatch in directly
            clock.advance(1.0)
            b._note_drained(10)
        rate = b.drain_rate()
        assert rate is not None and rate > 0


class TestLifecycleAndErrors:
    def test_submit_before_start_and_after_stop_raises(self):
        batcher = MicroBatcher(echo_dispatch)
        with pytest.raises(RuntimeError):
            batcher.submit("too-early")
        batcher.start()
        batcher.stop()
        with pytest.raises(RuntimeError):
            batcher.submit("too-late")

    def test_stop_drains_accepted_requests(self):
        gate = _GatedDispatch()
        with MicroBatcher(gate, max_batch=1, max_wait_ms=0.0, max_queue=64) as b:
            parked = b.submit("parked")
            assert gate.entered.wait(timeout=30.0)
            queued = [b.submit(f"q{i}") for i in range(5)]
            gate.release.set()
        # __exit__ ran stop(): every accepted request still got answered.
        assert parked.result(timeout=0) == {"answer": "parked"}
        assert [f.result(timeout=0) for f in queued] == [
            {"answer": f"q{i}"} for i in range(5)
        ]

    def test_dispatch_exception_reaches_every_future_and_batcher_survives(self):
        fail = [True]

        def flaky(items):
            if fail[0]:
                raise ValueError("kernel poisoned")
            return [{"answer": i} for i in items]

        gate_free = MicroBatcher(flaky, max_batch=8, max_wait_ms=0.0)
        with gate_free as b:
            f1 = b.submit("a")
            with pytest.raises(ValueError, match="kernel poisoned"):
                f1.result(timeout=30)
            fail[0] = False
            assert b.submit_wait("b", timeout=30) == {"answer": "b"}
        snap = obs.snapshot()
        assert snap["counters"]["serve.dispatch_errors{batcher=serve}"] == 1

    def test_result_count_mismatch_is_an_error(self):
        with MicroBatcher(lambda items: [], max_batch=4, max_wait_ms=0.0) as b:
            future = b.submit("x")
            with pytest.raises(RuntimeError, match="0 results for 1"):
                future.result(timeout=30)

    def test_constructor_validation(self):
        # A NaN window spun the dispatcher on a full core; inf and 1e300
        # overflowed its wait and killed the thread.
        for kwargs in (
            {"max_batch": 0},
            {"max_wait_ms": -1.0},
            {"max_wait_ms": math.nan},
            {"max_wait_ms": math.inf},
            {"max_wait_ms": 1e300},
            {"max_queue": 0},
        ):
            with pytest.raises(ValueError):
                MicroBatcher(echo_dispatch, **kwargs)


class TestConcurrencyProperty:
    """The acceptance property: N concurrent producers, every request
    answered exactly once, in submission order per producer, with no
    cross-request result aliasing — for any batching-knob draw."""

    @settings(
        deadline=None,
        max_examples=30,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        max_batch=st.integers(min_value=1, max_value=8),
        max_wait_ms=st.floats(min_value=0.0, max_value=3.0),
        n_threads=st.integers(min_value=1, max_value=4),
        per_thread=st.integers(min_value=1, max_value=6),
    )
    def test_exactly_once_in_order_no_aliasing(
        self, max_batch, max_wait_ms, n_threads, per_thread
    ):
        processed = []
        processed_lock = threading.Lock()

        def dispatch(items):
            with processed_lock:
                processed.extend(items)
            return [{"answer": item} for item in items]

        results = {}
        errors = []

        def producer(tid):
            # Closed loop per producer, like one HTTP connection: submit,
            # wait for the answer, submit the next.
            try:
                out = []
                for i in range(per_thread):
                    out.append(
                        (lambda f: f.result(timeout=30))(
                            batcher.submit((tid, i))
                        )
                    )
                results[tid] = out
            except Exception as exc:  # noqa: BLE001 - surface in the main thread
                errors.append(exc)

        with MicroBatcher(
            dispatch,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            max_queue=10_000,
        ) as batcher:
            threads = [
                threading.Thread(target=producer, args=(tid,))
                for tid in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads), "producer hung"
        assert not errors, errors

        expected = [(tid, i) for tid in range(n_threads) for i in range(per_thread)]
        # exactly once: the dispatch kernel saw every request precisely once
        assert sorted(processed) == sorted(expected)
        # in order per producer, each answer matching its own request
        for tid in range(n_threads):
            assert [r["answer"] for r in results[tid]] == [
                (tid, i) for i in range(per_thread)
            ]
        # no aliasing: every producer got a distinct result object
        ids = [id(r) for out in results.values() for r in out]
        assert len(set(ids)) == len(ids)
