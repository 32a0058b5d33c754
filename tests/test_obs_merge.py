"""Cross-process aggregation: mergeable registries and their pool round trip.

The telemetry v2 contract: work split into pieces must report the same
totals one serial run would — every pool worker's registry delta rides
back with its results and folds into the parent
(``repro.parallel.pool._fold_deltas``), and nothing is ever counted
twice.  These tests pin the merge algebra (counters sum, gauges
last-write, histograms merge bucket-wise and associatively), its
thread safety, the per-request counts of a multi-chunk ``locate_many``
over the tiered fallback chain, and the delta fold through a real
two-worker ``parallel_map``.
"""

import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.algorithms.base import Observation
from repro.algorithms.engine import BatchConfig
from repro.algorithms.fallback import FallbackLocalizer
from repro.core.geometry import Point
from repro.core.trainingdb import LocationRecord, TrainingDatabase
from repro.obs.metrics import Histogram, MetricsRegistry, split_series
from repro.parallel import ParallelConfig, parallel_map


@pytest.fixture()
def registry():
    """A fresh default registry, restored afterwards (test isolation)."""
    previous = obs.set_registry(obs.MetricsRegistry())
    yield obs.get_registry()
    obs.set_registry(previous)


def _hist(values, name="h", growth=1.04):
    h = Histogram(name, growth=growth)
    h.observe_many(values)
    return h


class TestHistogramMerge:
    def test_merge_equals_single_stream(self):
        data = list(np.random.default_rng(0).lognormal(1.0, 0.8, 400))
        left, right = _hist(data[:150]), _hist(data[150:])
        left.merge_state(right.dump_state())
        whole = _hist(data)
        merged, single = left.dump_state(), whole.dump_state()
        for key in ("growth", "count", "nonpositive", "buckets", "min", "max"):
            assert merged[key] == single[key], key
        assert merged["total"] == pytest.approx(single["total"], rel=1e-12)
        assert left.quantile(0.5) == whole.quantile(0.5)

    def test_state_survives_json_round_trip(self):
        # Worker deltas cross process/pipe boundaries as JSON-ish dicts;
        # JSON stringifies the int bucket keys, merge must accept both.
        src = _hist([0.5, 1.0, 2.0, -3.0, 0.0])
        state = json.loads(json.dumps(src.dump_state()))
        dst = Histogram("h")
        dst.merge_state(state)
        assert dst.dump_state() == src.dump_state()

    def test_min_max_nonpositive_merged(self):
        left, right = _hist([5.0, -2.0]), _hist([0.25, 11.0])
        left.merge_state(right.dump_state())
        s = left.dump_state()
        assert s["min"] == -2.0 and s["max"] == 11.0
        assert s["nonpositive"] == 1 and s["count"] == 4

    def test_growth_mismatch_rejected(self):
        with pytest.raises(ValueError, match="growth"):
            _hist([1.0], growth=1.04).merge_state(_hist([1.0], growth=1.1).dump_state())

    def test_merging_empty_is_noop(self):
        h = _hist([1.0, 2.0])
        before = h.dump_state()
        h.merge_state(Histogram("empty").dump_state())
        assert h.dump_state() == before


# Value lists for the associativity property.  Finite, spanning signs
# and magnitudes — underflow bucket and log buckets both exercised.
_values = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32),
    max_size=40,
)


class TestMergeAssociativity:
    @given(a=_values, b=_values, c=_values)
    @settings(max_examples=60, deadline=None)
    def test_histogram_merge_is_associative(self, a, b, c):
        left = _hist(a)
        left.merge_state(_hist(b).dump_state())
        left.merge_state(_hist(c).dump_state())

        bc = _hist(b)
        bc.merge_state(_hist(c).dump_state())
        right = _hist(a)
        right.merge_state(bc.dump_state())

        ls, rs = left.dump_state(), right.dump_state()
        # Bucket contents and counts are integer arithmetic: exact.
        for key in ("count", "nonpositive", "buckets", "min", "max"):
            assert ls[key] == rs[key], key
        # Float addition is not associative; the running sum only has
        # to agree to rounding.
        assert ls["total"] == pytest.approx(rs["total"], rel=1e-9, abs=1e-9)

    @given(a=_values, b=_values)
    @settings(max_examples=30, deadline=None)
    def test_merge_order_does_not_change_quantiles(self, a, b):
        ab = _hist(a)
        ab.merge_state(_hist(b).dump_state())
        ba = _hist(b)
        ba.merge_state(_hist(a).dump_state())
        if ab.count:
            for q in (0.5, 0.95):
                assert ab.quantile(q) == ba.quantile(q)


class TestRegistryMerge:
    def test_counters_sum_gauges_last_write_histograms_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("req", algo="knn").inc(3)
        b.counter("req", algo="knn").inc(4)
        b.counter("req", algo="prob").inc(1)  # only in b: created on merge
        a.gauge("workers").set(1.0)
        b.gauge("workers").set(5.0)
        a.histogram("lat").observe_many([1.0, 2.0])
        b.histogram("lat").observe_many([3.0])

        assert a.merge(b) is a
        snap = a.snapshot()
        assert snap["counters"]["req{algo=knn}"] == 7
        assert snap["counters"]["req{algo=prob}"] == 1
        assert snap["gauges"]["workers"] == 5.0  # last write wins
        assert snap["histograms"]["lat"]["count"] == 3

    def test_merge_accepts_dumped_state_dict(self):
        src = MetricsRegistry()
        src.counter("c").inc(2)
        src.histogram("h").observe(1.5)
        state = json.loads(json.dumps(src.dump_state()))

        dst = MetricsRegistry()
        dst.counter("c").inc(1)
        dst.merge(state)
        snap = dst.snapshot()
        assert snap["counters"]["c"] == 3
        assert snap["histograms"]["h"]["count"] == 1

    def test_module_merge_state_respects_disabled(self, registry):
        src = MetricsRegistry()
        src.counter("c").inc(5)
        previous = obs.set_enabled(False)
        try:
            obs.merge_state(src.dump_state())
        finally:
            obs.set_enabled(previous)
        assert "c" not in obs.snapshot()["counters"]

    def test_split_series_inverts_naming(self):
        r = MetricsRegistry()
        r.counter("x.y", b="2", a="1").inc()
        (series,) = r.snapshot()["counters"]
        assert split_series(series) == ("x.y", (("a", "1"), ("b", "2")))
        assert split_series("bare") == ("bare", ())


class TestThreadSafety:
    def test_concurrent_emission_hammer(self, registry):
        """8 threads × 2000 emissions: exact totals, no lost updates."""
        n_threads, n_iters = 8, 2000
        start = threading.Barrier(n_threads)
        errors = []

        def work(tid):
            try:
                start.wait()
                for i in range(n_iters):
                    obs.counter("hammer.count").inc()
                    obs.counter("hammer.per_thread", t=tid).inc()
                    obs.histogram("hammer.lat").observe((i % 37) + 0.5)
                    if i % 64 == 0:
                        obs.gauge("hammer.level", t=tid).set(i)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors
        snap = obs.snapshot()
        assert snap["counters"]["hammer.count"] == n_threads * n_iters
        for tid in range(n_threads):
            assert snap["counters"][f"hammer.per_thread{{t={tid}}}"] == n_iters
        assert snap["histograms"]["hammer.lat"]["count"] == n_threads * n_iters

    def test_merge_concurrent_with_emission(self, registry):
        """Folding worker deltas while the workload emits stays exact."""
        n_merges, per_delta = 50, 7
        delta = MetricsRegistry()
        delta.counter("m.count").inc(per_delta)
        delta.histogram("m.lat").observe_many([1.0] * per_delta)
        state = delta.dump_state()

        def emitter():
            for _ in range(1000):
                obs.counter("m.count").inc()
                obs.histogram("m.lat").observe(2.0)

        def merger():
            for _ in range(n_merges):
                obs.merge_state(state)

        threads = [threading.Thread(target=emitter), threading.Thread(target=merger)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        snap = obs.snapshot()
        expected = 1000 + n_merges * per_delta
        assert snap["counters"]["m.count"] == expected
        assert snap["histograms"]["m.lat"]["count"] == expected


# ----------------------------------------------------------------------
# End-to-end: a batch split into pieces counts each request exactly once
# ----------------------------------------------------------------------
B = ["02:aa", "02:bb", "02:cc"]


def _make_chain():
    rng = np.random.default_rng(3)
    db = TrainingDatabase(
        B,
        [
            LocationRecord(
                f"p{i}",
                Point(10.0 * i, 0.0),
                rng.normal(-60, 2, (5, 3)).astype(np.float32),
            )
            for i in range(4)
        ],
    )
    return FallbackLocalizer().fit(db)  # no ap_positions: prob + nearest


def _mixed_observations(n=64, seed=4):
    """Mix of full observations and one-AP ones (upper tier declines)."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        if i % 3 == 0:
            samples = np.full((3, 3), np.nan)
            samples[:, 0] = -58.0 + rng.normal(0, 0.5)
        else:
            samples = rng.normal(-60, 2, (3, 3))
        out.append(Observation(samples, bssids=B))
    return out


def _bump(x):
    """Module-level so the process pool can pickle it."""
    obs.counter("m.bumps").inc()
    obs.histogram("m.value").observe(float(x))
    return x + 1


class TestShardedCounterParity:
    """The pieces are engine chunks, or ``parallel_map`` worker chunks."""

    def test_sharded_locate_many_counts_each_request_exactly_once(self, registry):
        chain = _make_chain()
        chain.batch_config = BatchConfig(chunk_size=8)
        observations = _mixed_observations()
        estimates = chain.locate_many(observations)
        assert len(estimates) == len(observations)

        snap = obs.snapshot()
        n = len(observations)
        assert snap["counters"]["batch.chunks{algorithm=fallback}"] == n // 8
        assert snap["counters"]["batch.requests{algorithm=fallback}"] == n
        assert snap["counters"]["locate.batched{algorithm=fallback}"] == n
        answered = sum(
            v for k, v in snap["counters"].items() if k.startswith("fallback.answered")
        )
        exhausted = snap["counters"].get("fallback.exhausted", 0)
        # Every request answered or exhausted exactly once, even though
        # the batch ran as eight chunks.
        assert answered + exhausted == n

    def test_sharded_run_really_merged_worker_deltas(self, registry):
        items = list(range(40))
        expected = [x + 1 for x in items]
        assert parallel_map(_bump, items, ParallelConfig(max_workers=1)) == expected
        serial = obs.snapshot()

        obs.reset()
        two_workers = ParallelConfig(max_workers=2, serial_threshold=1)
        assert parallel_map(_bump, items, two_workers) == expected
        parallel = obs.snapshot()

        # The counts were emitted inside the pool workers, and folded
        # back they equal the serial run's.
        assert parallel["counters"]["m.bumps"] == serial["counters"]["m.bumps"] == 40
        assert parallel["histograms"]["m.value"] == serial["histograms"]["m.value"]
        # Not vacuous: deltas really crossed the pool.
        assert parallel["counters"]["parallel.deltas_merged{kind=map}"] > 0
