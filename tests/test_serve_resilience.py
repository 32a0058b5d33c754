"""The resilience layer: breakers, admission, Retry-After, chaos, drain.

The state-machine and admission tests are pure logic on a
:class:`ManualClock` (tier1, no sockets, no sleeps); the drain /
deadline-header / chaos-transport and client tests bind localhost
sockets (``service`` tier).  The hypothesis property drives the
breaker through arbitrary call/outcome/time sequences and asserts the
two liveness invariants: an open breaker can never wedge open forever,
and there is no open → closed edge that skips half-open probing.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.algorithms.fallback import FallbackLocalizer
from repro.serve import (
    AdmissionController,
    ChaosError,
    ChaosPolicy,
    CircuitBreaker,
    DEADLINE_HEADER,
    LocalizationHTTPServer,
    LocalizationService,
    ManualClock,
    MicroBatcher,
    Priority,
    RetryBudget,
    ServiceClient,
    TierBreakerBoard,
    compute_retry_after_s,
)
from repro.serve.client import classify_status, fold_reports
from repro.serve.resilience import CLOSED, HALF_OPEN, OPEN, ChaosTier


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = obs.set_registry(obs.MetricsRegistry())
    yield
    obs.set_registry(previous)


def make_breaker(clock, **overrides):
    kwargs = dict(window=6, failure_threshold=0.5, min_calls=3,
                  cooldown_s=5.0, half_open_probes=1, clock=clock)
    kwargs.update(overrides)
    return CircuitBreaker("tier", **kwargs)


# ----------------------------------------------------------------------
# circuit breaker state machine
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_stays_closed_below_min_calls(self):
        breaker = make_breaker(ManualClock())
        breaker.record(False)
        breaker.record(False)
        assert breaker.state == CLOSED and breaker.allow()

    def test_opens_at_failure_threshold_and_short_circuits(self):
        breaker = make_breaker(ManualClock())
        for ok in (True, False, False, False):
            breaker.record(ok)
        assert breaker.state == OPEN
        assert not breaker.allow()
        counters = obs.snapshot()["counters"]
        assert counters["serve.breaker.transitions{breaker=tier,to=open}"] == 1
        assert counters["serve.breaker.short_circuits{breaker=tier}"] == 1

    def test_successes_keep_it_closed(self):
        breaker = make_breaker(ManualClock())
        for _ in range(20):
            breaker.record(True)
        breaker.record(False)  # 1/6 of the window: under threshold
        assert breaker.state == CLOSED

    def test_cooldown_admits_one_probe_then_refuses(self):
        clock = ManualClock()
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record(False)
        assert not breaker.allow()
        clock.advance(4.9)
        assert not breaker.allow()
        assert breaker.cooldown_remaining_s() == pytest.approx(0.1)
        clock.advance(0.2)
        assert breaker.allow()  # the probe
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()  # probe slot taken

    def test_probe_success_closes_probe_failure_reopens(self):
        clock = ManualClock()
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record(False)
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record(False)  # probe verdict: still broken
        assert breaker.state == OPEN
        assert not breaker.allow()  # cooldown re-armed in full
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record(True)  # probe verdict: recovered
        assert breaker.state == CLOSED
        # The window was reset on close: old failures don't linger.
        breaker.record(False)
        breaker.record(False)
        assert breaker.state == CLOSED  # only 2 of min_calls 3 recorded

    def test_late_outcomes_while_open_are_ignored(self):
        breaker = make_breaker(ManualClock())
        for _ in range(3):
            breaker.record(False)
        breaker.record(True)  # a call admitted before the trip, landing late
        assert breaker.state == OPEN

    def test_snapshot_shape(self):
        clock = ManualClock()
        breaker = make_breaker(clock)
        for _ in range(3):
            breaker.record(False)
        clock.advance(1.0)
        snap = breaker.snapshot()
        assert snap["state"] == OPEN
        assert snap["opened_count"] == 1
        assert snap["cooldown_remaining_s"] == pytest.approx(4.0)

    def test_parameter_validation(self):
        for bad in (dict(window=0), dict(failure_threshold=0.0),
                    dict(failure_threshold=1.5), dict(min_calls=0),
                    dict(cooldown_s=0.0), dict(half_open_probes=0)):
            with pytest.raises(ValueError):
                make_breaker(ManualClock(), **bad)

    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("call"), st.booleans()),
                st.tuples(st.just("tick"), st.floats(min_value=0.1, max_value=20.0)),
            ),
            max_size=60,
        )
    )
    def test_property_never_wedges_and_never_skips_probing(self, ops):
        """Arbitrary call/outcome/time sequences keep the two invariants.

        1. No open → closed edge without an intervening half-open state
           (observable because each op performs at most one transition).
        2. After any history, a full cooldown's wait re-admits a call:
           the breaker cannot be wedged shut forever.
        """
        clock = ManualClock()
        breaker = make_breaker(clock)
        states = [breaker.state]
        for op, value in ops:
            if op == "call":
                if breaker.allow():
                    states.append(breaker.state)  # transition from allow()
                    breaker.record(value)
            else:
                clock.advance(value)
            states.append(breaker.state)
        for before, after in zip(states, states[1:]):
            assert not (before == OPEN and after == CLOSED), states
        # Liveness: once the cooldown has passed, allow() re-admits
        # (either closed, or claiming the half-open probe slot).  The
        # epsilon steps strictly past the boundary: opened_at is a sum
        # of drawn floats, so advancing exactly cooldown_s can leave
        # elapsed a rounding error short of it.
        clock.advance(breaker.cooldown_s + 1e-6)
        assert breaker.allow()


class TestTierBreakerBoard:
    def test_check_and_record_drive_the_tier_breaker(self):
        clock = ManualClock()
        board = TierBreakerBoard(min_calls=3, window=6, cooldown_s=5.0, clock=clock)
        assert board.check("geometric") is None
        for _ in range(3):
            board.record("geometric", False)
        reason = board.check("geometric")
        assert reason is not None and "circuit open" in reason
        assert "cooldown remaining" in reason
        assert board.check("nearest") is None  # other tiers unaffected

    def test_health_degrades_only_when_all_tiers_open(self):
        board = TierBreakerBoard(min_calls=1, window=2)
        ok, detail = board.health()
        assert ok and detail == {"breakers": "no calls yet"}
        board.record("a", False)
        board.record("b", True)
        ok, detail = board.health()
        assert ok and detail["a"]["state"] == OPEN  # one open: degraded, not dead
        board.record("b", False)
        ok, _ = board.health()
        assert not ok  # every tier open: the chain cannot answer at all

    def test_board_state_survives_a_model_reload(self, training_db):
        board = TierBreakerBoard(min_calls=1, window=2)
        board.record("probabilistic", False)
        service = LocalizationService(training_db, breakers=board)
        assert service.breaker_board is board
        service.reload(training_db)
        assert board.breaker("probabilistic").state == OPEN  # quarantine kept


# ----------------------------------------------------------------------
# Retry-After and admission control
# ----------------------------------------------------------------------
class TestComputeRetryAfter:
    def test_uses_measured_drain_rate(self):
        assert compute_retry_after_s(100, drain_rate=50.0) == 2
        assert compute_retry_after_s(500, drain_rate=50.0) == 10

    def test_structural_fallback_before_any_dispatch(self):
        # 10 queued / 5 per batch = 2 windows of 0.5s -> 1s.
        assert compute_retry_after_s(10, drain_rate=None, max_batch=5, max_wait_s=0.5) == 1
        assert compute_retry_after_s(100, drain_rate=None, max_batch=5, max_wait_s=0.5) == 10

    def test_floor_and_cap(self):
        assert compute_retry_after_s(0, drain_rate=1000.0) == 1
        assert compute_retry_after_s(0, drain_rate=1000.0, floor_s=3) == 3
        assert compute_retry_after_s(10_000_000, drain_rate=1.0) == 60
        assert compute_retry_after_s(10_000_000, drain_rate=1.0, cap_s=30) == 30


class TestAdmissionController:
    def test_critical_is_never_shed(self):
        admission = AdmissionController(max_queue=10, p99_limit_ms=1.0)
        for _ in range(16):
            admission.note_latency_ms(10_000.0)
        assert admission.admit(Priority.CRITICAL, queue_depth=10_000) is None

    def test_bulk_sheds_at_the_watermark_normal_does_not(self):
        admission = AdmissionController(max_queue=100)
        assert admission.admit(Priority.BULK, queue_depth=74) is None
        reason = admission.admit(Priority.BULK, queue_depth=75)
        assert reason is not None and "queue pressure" in reason
        # Normal traffic's shed point is the hard queue bound (the
        # batcher's QueueFullError), not an early watermark.
        assert admission.admit(Priority.NORMAL, queue_depth=99) is None
        counters = obs.snapshot()["counters"]
        assert counters["serve.admission.shed{class=bulk,reason=queue_pressure}"] == 1

    def test_latency_brake_trips_bulk_first(self):
        admission = AdmissionController(max_queue=100, p99_limit_ms=100.0)
        assert admission.p99_ms() is None  # no verdict before 8 samples
        for _ in range(16):
            admission.note_latency_ms(150.0)
        assert admission.admit(Priority.BULK, queue_depth=0) is not None
        assert admission.admit(Priority.NORMAL, queue_depth=0) is None  # < 2x limit
        for _ in range(16):
            admission.note_latency_ms(250.0)
        assert admission.admit(Priority.NORMAL, queue_depth=0) is not None

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_queue=0)
        with pytest.raises(ValueError):
            AdmissionController(max_queue=10, latency_window=4)


# ----------------------------------------------------------------------
# chaos policy
# ----------------------------------------------------------------------
class TestChaosPolicy:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ChaosPolicy(tier_error_rate=1.5)
        with pytest.raises(ValueError):
            ChaosPolicy(latency_ms=-1.0)

    def test_inactive_by_default(self):
        assert not ChaosPolicy().active
        assert ChaosPolicy(tier_error_rate=0.1).active

    def test_seeded_draws_are_reproducible(self):
        a = ChaosPolicy(latency_ms=10.0, latency_rate=0.5, latency_jitter_ms=5.0, seed=7)
        b = ChaosPolicy(latency_ms=10.0, latency_rate=0.5, latency_jitter_ms=5.0, seed=7)
        assert [a.dispatch_latency_s() for _ in range(32)] == [
            b.dispatch_latency_s() for _ in range(32)
        ]

    def test_tier_filter(self):
        policy = ChaosPolicy(tier_error_rate=1.0, tiers=("geometric",))
        assert policy.tier_fails("geometric")
        assert not policy.tier_fails("nearest")

    def test_chaos_tier_raises_chaos_error_and_passes_through(self, training_db):
        chain = FallbackLocalizer(tiers=("probabilistic",)).fit(training_db)
        tier = chain._fitted[0]
        wrapped = ChaosTier(tier, ChaosPolicy(tier_error_rate=1.0))
        assert wrapped.name == "probabilistic"
        with pytest.raises(ChaosError):
            wrapped.locate(object())
        with pytest.raises(ChaosError):
            wrapped.locate_many([object()])
        # ChaosError is a RuntimeError: the chain's error isolation
        # treats an injected fault exactly like a real tier error.
        assert isinstance(ChaosError("x"), RuntimeError)


# ----------------------------------------------------------------------
# breakers in the fallback chain (no sockets, manual time)
# ----------------------------------------------------------------------
class TestBreakerInChain:
    @pytest.fixture()
    def harness(self, training_db):
        clock = ManualClock()
        board = TierBreakerBoard(min_calls=3, window=6, failure_threshold=0.5,
                                 cooldown_s=5.0, clock=clock)
        chaos = ChaosPolicy(tier_error_rate=1.0, tiers=("probabilistic",), seed=3)
        service = LocalizationService(training_db, breakers=board, chaos=chaos)
        return service, board, chaos, clock

    def test_failing_tier_trips_its_breaker_and_chain_degrades(self, harness, observations):
        service, board, chaos, clock = harness
        batch = list(observations[:4])
        estimates = service.locate_many(batch)
        # Injected faults: every answer fell through to the last tier.
        assert all(e.valid and e.details["tier"] == "nearest" for e in estimates)
        assert board.breaker("probabilistic").state == OPEN
        # Second wave: the tier is skipped (short-circuit), not re-paid.
        estimates = service.locate_many(batch)
        declined = estimates[0].details["declined"]
        reasons = {d["tier"]: d["reason"] for d in declined}
        assert "circuit open" in reasons["probabilistic"]
        assert all(e.valid for e in estimates)

    def test_probe_failure_reopens_probe_success_recovers(self, harness, observations):
        service, board, chaos, clock = harness
        batch = list(observations[:4])
        service.locate_many(batch)
        assert board.breaker("probabilistic").state == OPEN
        clock.advance(5.0)  # cooldown over: next wave is the probe
        service.locate_many(batch)
        assert board.breaker("probabilistic").state == OPEN  # probe failed
        chaos.tier_error_rate = 0.0  # the dependency recovers
        clock.advance(5.0)
        estimates = service.locate_many(batch)
        assert board.breaker("probabilistic").state == CLOSED
        assert all(e.details["tier"] == "probabilistic" for e in estimates)

    def test_wire_parity_with_breakers_closed(self, training_db, observations):
        """Breakers at rest change nothing: answers are byte-identical."""
        from repro.serve.wire import canonical_json, estimate_to_json

        plain = LocalizationService(training_db, breakers=False)
        guarded = LocalizationService(training_db, breakers=True)
        batch = list(observations[:6])
        plain_bytes = [canonical_json(estimate_to_json(e))
                       for e in plain.locate_many(batch)]
        guarded_bytes = [canonical_json(estimate_to_json(e))
                         for e in guarded.locate_many(batch)]
        assert plain_bytes == guarded_bytes


# ----------------------------------------------------------------------
# sleep-free chaos soak: exactly-once resolution under injected faults
# ----------------------------------------------------------------------
class TestChaosSoak:
    def test_every_future_resolves_exactly_once_under_tier_chaos(self, training_db, observations):
        """ManualClock soak: chaos tier faults + deadlines, no sleeps.

        Every submitted request must end in exactly one of: a valid
        estimate (possibly degraded), a DeadlineExceededError, or a
        queue-full rejection at submit.  Nothing may hang, and the
        dispatcher thread must survive every injected fault.
        """
        from concurrent.futures import Future

        clock = ManualClock()
        board = TierBreakerBoard(min_calls=3, cooldown_s=1.0, clock=clock)
        chaos = ChaosPolicy(tier_error_rate=0.5, seed=11)
        service = LocalizationService(training_db, breakers=board, chaos=chaos)
        futures: list = []
        rejected = 0
        with MicroBatcher(service.locate_many, max_batch=4, max_wait_ms=0.0,
                          max_queue=64, clock=clock, name="soak") as batcher:
            for round_no in range(12):
                for i, o in enumerate(observations[:8]):
                    deadline = clock.monotonic() + (0.5 if i % 3 == 0 else 60.0)
                    try:
                        futures.append(batcher.submit(o, deadline=deadline))
                    except Exception:
                        rejected += 1
                clock.advance(0.25 * (round_no % 3))
        assert futures and all(isinstance(f, Future) for f in futures)
        answered = valid = errored = 0
        for f in futures:
            assert f.done()  # stop() drains everything accepted
            if f.exception() is None:
                answered += 1
                if f.result().valid:
                    valid += 1
            else:
                errored += 1
        # Exactly-once bookkeeping: every accepted request has exactly
        # one terminal state, and the population adds up.
        assert answered + errored == len(futures)
        assert valid > 0  # chaos at 50% cannot kill the whole chain


# ----------------------------------------------------------------------
# HTTP surface: deadline header, drain, chaos transport (service tier)
# ----------------------------------------------------------------------
def _post(url, doc=None, headers=None, method="POST", timeout=60):
    data = None if doc is None else json.dumps(doc).encode("utf-8")
    req = urllib.request.Request(url, data=data, method=method,
                                 headers=dict(headers or {}))
    try:
        with urllib.request.urlopen(req, timeout=timeout) as r:
            return r.status, dict(r.headers), r.read()
    except urllib.error.HTTPError as e:
        return e.code, dict(e.headers), e.read()


def _observation_doc(observation, **extra):
    doc = {
        "samples": [[None if v != v else v for v in row]
                    for row in observation.samples.tolist()],
        "bssids": list(observation.bssids),
    }
    doc.update(extra)
    return doc


@pytest.fixture()
def http_service(training_db, house):
    cfg = house.config
    return LocalizationService(
        training_db,
        ap_positions=house.ap_positions_by_bssid(),
        bounds=(0.0, 0.0, cfg.width_ft, cfg.height_ft),
    )


@pytest.mark.service
class TestDeadlineHeader:
    def test_spent_header_budget_is_504_before_enqueue(self, http_service, observations):
        with LocalizationHTTPServer(http_service) as server:
            status, _, body = _post(
                server.url + "/v1/locate", _observation_doc(observations[0]),
                headers={DEADLINE_HEADER: "0"},
            )
            assert status == 504
            assert json.loads(body)["error"] == "deadline_exceeded"
            status, _, _ = _post(
                server.url + "/v1/locate/batch",
                {"observations": [_observation_doc(observations[0])]},
                headers={DEADLINE_HEADER: "-5"},
            )
            assert status == 504
            status, _, _ = _post(
                server.url + "/v1/locate", _observation_doc(observations[0]),
                headers={DEADLINE_HEADER: "-inf"},
            )
            assert status == 504

    def test_unparseable_header_is_400(self, http_service, observations):
        # Non-finite budgets are malformed too: NaN never expires and
        # infinity overflows the deadline clock, as does a finite budget
        # too large for the handler to wait on.
        answers = []
        with LocalizationHTTPServer(http_service) as server:
            for value in ("soon", "nan", "inf", "1e300"):
                for path in ("/v1/locate", "/v1/track/dev-1"):
                    answers.append(_post(
                        server.url + path, _observation_doc(observations[0]),
                        headers={DEADLINE_HEADER: value},
                    ))
        assert [status for status, _, _ in answers] == [400] * 8
        assert all(json.loads(body)["error"] == "bad_deadline" for _, _, body in answers)

    def test_tightest_deadline_wins(self, http_service, observations):
        """Header 50ms beats body 1h: the queued request expires at 50ms.

        Same parked/doomed pattern as the body-deadline test: the
        dispatcher is held on a first request, the doomed one queues
        behind it carrying a generous *body* deadline but a tight
        header budget, and one virtual second passes.  A body-only
        deadline would survive; the header must not.
        """
        clock = ManualClock()
        entered = threading.Event()
        release = threading.Event()
        server = LocalizationHTTPServer(
            http_service, max_batch=1, max_wait_ms=0.0, max_queue=8, clock=clock
        )

        def held_dispatch(batch):
            entered.set()
            release.wait(timeout=30.0)
            return http_service.locate_many(batch)

        server.batcher._dispatch = held_dispatch
        with server:
            results = {}

            def post(name, doc, headers=None):
                results[name] = _post(server.url + "/v1/locate", doc, headers=headers)

            parked = threading.Thread(
                target=post, args=("parked", _observation_doc(observations[0]))
            )
            parked.start()
            assert entered.wait(timeout=30.0)
            doomed = threading.Thread(
                target=post,
                args=("doomed",
                      _observation_doc(observations[1], deadline_ms=3_600_000),
                      {DEADLINE_HEADER: "50"}),
            )
            doomed.start()
            while server.batcher.queue_depth() < 1:
                if not parked.is_alive() and not doomed.is_alive():
                    break
            clock.advance(1.0)
            release.set()
            parked.join(timeout=30.0)
            doomed.join(timeout=30.0)
        assert results["parked"][0] == 200
        status, _, body = results["doomed"]
        assert status == 504
        assert json.loads(body)["error"] == "deadline_exceeded"


@pytest.mark.service
class TestGracefulDrain:
    def test_drain_finishes_in_flight_then_rejects_new_work(self, http_service, observations):
        release = threading.Event()
        entered = threading.Event()
        server = LocalizationHTTPServer(http_service, max_wait_ms=0.0)

        def held_dispatch(batch):
            entered.set()
            release.wait(timeout=30.0)
            return http_service.locate_many(batch)

        server.batcher._dispatch = held_dispatch
        with server:
            results = {}

            def post():
                results["parked"] = _post(
                    server.url + "/v1/locate", _observation_doc(observations[0])
                )

            t = threading.Thread(target=post)
            t.start()
            assert entered.wait(timeout=30.0)
            status, _, body = _post(server.url + "/admin/drain", {"deadline_s": 30.0})
            assert status == 200
            doc = json.loads(body)
            assert doc["draining"] is True and doc["already_draining"] is False
            # New data-plane work: refused with a Retry-After hint.
            status, headers, body = _post(
                server.url + "/v1/locate", _observation_doc(observations[1])
            )
            assert status == 503
            assert json.loads(body)["error"] == "draining"
            assert int(headers["Retry-After"]) >= 1
            # Control plane still answers; /healthz flips unhealthy.
            status, _, body = _post(server.url + "/healthz", method="GET")
            report = json.loads(body)
            assert status == 503
            assert report["checks"]["lifecycle"]["ok"] is False
            # The parked request is in-flight work: it must complete.
            release.set()
            t.join(timeout=30.0)
            assert results["parked"][0] == 200
            # Drain converges: unfinished == 0 lands in the lifecycle report.
            deadline = threading.Event()
            for _ in range(400):
                _, _, body = _post(server.url + "/healthz", method="GET")
                detail = json.loads(body)["checks"]["lifecycle"]["detail"]
                if detail.get("report"):
                    assert detail["report"]["unfinished"] == 0
                    assert detail["report"]["drained"] is True
                    break
                deadline.wait(0.01)
            else:
                pytest.fail("drain never reported completion")
            # Second drain: idempotent.
            status, _, body = _post(server.url + "/admin/drain")
            assert status == 200
            assert json.loads(body)["already_draining"] is True

    def test_non_finite_drain_deadline_is_400(self, http_service):
        with LocalizationHTTPServer(http_service) as server:
            answers = [
                _post(server.url + "/admin/drain", {"deadline_s": value})
                for value in (float("nan"), float("inf"))
            ]
            assert not server.draining
        assert [status for status, _, _ in answers] == [400, 400]
        assert all(json.loads(body)["error"] == "bad_request" for _, _, body in answers)

    def test_direct_drain_call_reports_clean(self, http_service):
        with LocalizationHTTPServer(http_service) as server:
            report = server.drain(deadline_s=5.0)
        assert report["drained"] is True and report["unfinished"] == 0
        counters = obs.snapshot()["counters"]
        assert counters["serve.drain.completed{result=clean}"] == 1

    def test_early_rejection_keeps_keepalive_framing(self, http_service, observations):
        """Back-to-back rejected POSTs on ONE connection stay well-formed.

        The draining 503 answers before any handler reads the request
        body; unless the server drains those bytes, the next request
        line on this persistent connection is parsed starting inside
        the previous JSON payload (a framing desync surfacing as 501s).
        """
        with LocalizationHTTPServer(http_service) as server:
            server.drain(deadline_s=5.0)
            client = ServiceClient.from_url(server.url, max_retries=0)
            try:
                reports = [
                    client.locate(_observation_doc(observations[i])) for i in range(3)
                ]
                # Control plane still parses fine on the same connection.
                health = client.healthz()
            finally:
                client.close()
        assert [r.category for r in reports] == ["draining_503"] * 3
        assert all(r.doc["error"] == "draining" for r in reports)
        assert health.status == 503  # draining instance: unhealthy, not garbled


@pytest.mark.service
class TestChaosTransport:
    def test_connection_reset_surfaces_as_transport_error(self, http_service, observations):
        chaos = ChaosPolicy(reset_rate=1.0, seed=1)
        with LocalizationHTTPServer(http_service, chaos=chaos) as server:
            client = ServiceClient.from_url(server.url, max_retries=2,
                                            backoff_base_s=0.001, seed=0)
            report = client.locate(_observation_doc(observations[0]))
            # Control plane is never chaos'd: health still answers.
            health = client.healthz()
            client.close()
        assert report.category == "transport_error"
        assert report.attempts == 3  # initial + 2 retries, then gave up
        assert not report.clean
        assert health.status in (200, 503)

    def test_slowloris_is_survivable_with_a_read_timeout(self, http_service, observations):
        chaos = ChaosPolicy(slowloris_rate=1.0, slowloris_delay_s=0.005, seed=1)
        with LocalizationHTTPServer(http_service, chaos=chaos) as server:
            client = ServiceClient.from_url(server.url, timeout_s=30.0, seed=0)
            report = client.locate(_observation_doc(observations[0]))
            client.close()
        assert report.category == "ok"
        assert report.doc["valid"] is True

    def test_tier_chaos_end_to_end_keeps_availability(self, training_db, observations):
        chaos = ChaosPolicy(tier_error_rate=0.6, seed=5)
        service = LocalizationService(training_db, chaos=chaos)
        with LocalizationHTTPServer(service, max_wait_ms=0.0) as server:
            client = ServiceClient.from_url(server.url, seed=0)
            reports = [client.locate(_observation_doc(o)) for o in observations[:10]]
            client.close()
        folded = fold_reports(reports)
        assert folded["availability"] == 1.0  # every request cleanly answered
        assert folded["answered_ok"] == 10  # the chain degraded, never died
        # The injected faults really happened (not a vacuous pass).
        counters = obs.snapshot()["counters"]
        injected = sum(v for k, v in counters.items()
                       if k.startswith("serve.chaos.injected"))
        assert injected > 0


# ----------------------------------------------------------------------
# the retrying client (stub-level, service tier for real sockets)
# ----------------------------------------------------------------------
@pytest.mark.service
class TestServiceClient:
    @pytest.fixture()
    def stub(self):
        """A tiny HTTP server answering from a scripted response queue."""
        import http.server

        script = []
        seen = []

        class Handler(http.server.BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                length = int(self.headers.get("Content-Length") or 0)
                self.rfile.read(length)
                seen.append(dict(self.headers))
                status, headers, body = (
                    script.pop(0) if script else (200, {}, b"{}")
                )
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                for k, v in headers.items():
                    self.send_header(k, v)
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, fmt, *args):
                pass

        httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        yield httpd.server_address[1], script, seen
        httpd.shutdown()
        httpd.server_close()

    def test_retries_through_429_to_success(self, stub):
        port, script, seen = stub
        script += [(429, {"Retry-After": "0"}, b'{"error": "queue_full"}')] * 2
        script += [(200, {}, b'{"valid": true}')]
        sleeps = []
        client = ServiceClient(port=port, max_retries=3, seed=0, sleep=sleeps.append)
        report = client.request("POST", "/v1/locate", {"x": 1})
        client.close()
        assert report.category == "ok" and report.attempts == 3
        assert sleeps == []  # Retry-After 0 replaced the backoff entirely

    def test_retry_after_hint_overrides_backoff(self, stub):
        port, script, seen = stub
        script += [(429, {"Retry-After": "2"}, b"{}"), (200, {}, b"{}")]
        sleeps = []
        client = ServiceClient(port=port, max_retries=1, seed=0, sleep=sleeps.append)
        report = client.request("POST", "/v1/locate", {"x": 1})
        client.close()
        assert report.ok and sleeps == [2.0]

    def test_non_retryable_statuses_are_final(self, stub):
        port, script, seen = stub
        for status, category in ((400, "client_4xx"), (504, "deadline_504"),
                                 (500, "server_5xx")):
            script.append((status, {}, b"{}"))
            client = ServiceClient(port=port, max_retries=3, seed=0,
                                   sleep=lambda s: None)
            report = client.request("POST", "/v1/locate", {"x": 1})
            client.close()
            assert report.category == category and report.attempts == 1

    def test_retry_budget_bounds_retries(self, stub):
        port, script, seen = stub
        script += [(429, {"Retry-After": "0"}, b"{}")] * 10
        budget = RetryBudget(capacity=1.0, refill_per_success=0.0)
        client = ServiceClient(port=port, max_retries=5, budget=budget, seed=0,
                               sleep=lambda s: None)
        report = client.request("POST", "/v1/locate", {"x": 1})
        client.close()
        assert report.category == "rejected_429"
        assert report.attempts == 2  # first try + the single budgeted retry
        assert budget.tokens == 0.0

    def test_deadline_header_is_restamped_per_attempt(self, stub):
        port, script, seen = stub
        script += [(429, {"Retry-After": "0.05"}, b"{}"), (200, {}, b"{}")]
        client = ServiceClient(port=port, max_retries=2, seed=0)
        report = client.request("POST", "/v1/locate", {"x": 1}, deadline_ms=5_000)
        client.close()
        assert report.ok and len(seen) == 2
        budgets = [float(h["X-Deadline-Ms"]) for h in seen]
        assert budgets[0] <= 5_000
        assert budgets[1] < budgets[0]  # the remaining budget shrank

    def test_spent_deadline_ends_the_call_client_side(self, stub):
        port, script, seen = stub
        client = ServiceClient(port=port, max_retries=3, seed=0)
        report = client.request("POST", "/v1/locate", {"x": 1}, deadline_ms=0.0001)
        client.close()
        assert report.category == "deadline_504"
        assert report.status is None  # never reached the server

    def test_classify_status_covers_the_vocabulary(self):
        assert classify_status(200) == "ok"
        assert classify_status(429) == "rejected_429"
        assert classify_status(503) == "draining_503"
        assert classify_status(504) == "deadline_504"
        assert classify_status(404) == "client_4xx"
        assert classify_status(500) == "server_5xx"

    def test_fold_reports_schema(self):
        reports = [
            ClientReportStub("ok"), ClientReportStub("ok"),
            ClientReportStub("rejected_429"), ClientReportStub("transport_error"),
        ]
        folded = fold_reports(reports)  # type: ignore[arg-type]
        assert folded["total"] == 4
        assert folded["availability"] == 0.75
        assert folded["error_budget"]["rejected_429"] == 1
        assert folded["ok_fraction"] == 0.5


class ClientReportStub:
    def __init__(self, category):
        self.category = category

    @property
    def clean(self):
        return self.category != "transport_error"
