"""Quality telemetry: RSSI drift monitors, confidence, degraded answers."""

import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.obs.quality import APDriftMonitor


@pytest.fixture()
def registry():
    previous = obs.set_registry(obs.MetricsRegistry())
    yield obs.get_registry()
    obs.set_registry(previous)


class _Db:
    """Duck-typed training database with controllable per-AP levels."""

    def __init__(self, means, std=3.0):
        self._means = np.asarray(means, dtype=float)  # (L, A)
        self._std = std
        self.bssids = [f"ap{i}" for i in range(self._means.shape[1])]
        self.mean_calls = 0

    def mean_matrix(self):
        self.mean_calls += 1
        return self._means.copy()

    def std_matrix(self, min_std=0.5):
        return np.full(self._means.shape, max(self._std, min_std))


def _db2():
    return _Db([[-50.0, -70.0], [-52.0, -72.0]])


def _live(rng, mean_a, mean_b, n=300, std=3.0):
    return np.stack(
        [rng.normal(mean_a, std, n), rng.normal(mean_b, std, n)], axis=1
    )


class TestAPDriftMonitor:
    def test_matched_traffic_is_healthy(self, registry):
        m = APDriftMonitor(_db2())
        m.observe(_live(np.random.default_rng(0), -51.0, -71.0))
        status = m.status()
        assert all(e["judged"] for e in status.values())
        assert m.drifted_aps() == []
        ok, detail = m.health()
        assert ok and detail["aps_judged"] == 2

    def test_mean_shift_trips_one_ap(self, registry):
        m = APDriftMonitor(_db2())
        m.observe(_live(np.random.default_rng(1), -51.0 + 12.0, -71.0))
        status = m.status()
        assert status["ap0"]["drifted"] and not status["ap1"]["drifted"]
        assert status["ap0"]["mean_shift_db"] == pytest.approx(12.0, abs=1.5)
        ok, detail = m.health()
        assert not ok and detail["drifted"] == ["ap0"]

    def test_ks_trips_even_when_means_agree(self, registry):
        # Bimodal live RSSI centered on the training mean: the mean test
        # sees nothing, the distribution distance must.
        rng = np.random.default_rng(2)
        n = 400
        bimodal = np.concatenate(
            [rng.normal(-41.0, 1.0, n // 2), rng.normal(-61.0, 1.0, n // 2)]
        )
        live = np.stack([bimodal, rng.normal(-71.0, 3.0, n)], axis=1)
        m = APDriftMonitor(_db2())
        m.observe(live)
        status = m.status()
        assert abs(status["ap0"]["mean_shift_db"]) < 2.0  # mean looks fine
        assert status["ap0"]["ks_distance"] > m.ks_threshold
        assert status["ap0"]["drifted"]

    def test_min_samples_gates_judgement(self, registry):
        m = APDriftMonitor(_db2(), min_samples=100)
        m.observe(_live(np.random.default_rng(3), -20.0, -20.0, n=30))
        status = m.status()
        assert not any(e["judged"] for e in status.values())
        assert not any(e["drifted"] for e in status.values())
        ok, _ = m.health()
        assert ok  # wildly off, but not enough data to say so

    def test_observation_bssid_alignment(self, registry):
        from repro.algorithms.base import Observation

        rng = np.random.default_rng(4)
        m = APDriftMonitor(_db2(), min_samples=10)
        # Columns arrive swapped; BSSIDs say so; monitor must realign.
        swapped = Observation(
            _live(rng, -71.0, -51.0, n=50), bssids=["ap1", "ap0"]
        )
        m.observe_many([swapped])
        assert m.drifted_aps() == []

    def test_column_mismatch_rejected(self, registry):
        with pytest.raises(ValueError, match="AP columns"):
            APDriftMonitor(_db2()).observe(np.zeros((5, 3)))

    def test_observe_many_skips_what_it_cannot_align(self, registry):
        from repro.algorithms.base import Observation

        rng = np.random.default_rng(8)
        good = _live(rng, -51.0, -71.0, n=30)
        m = APDriftMonitor(_db2(), min_samples=10)
        m.observe_many([
            good,
            Observation(rng.normal(-60.0, 3.0, (5, 3))),  # 3 bare columns vs 2
            Observation(good[:, ::-1], bssids=["ap1", "ap0"]),
        ])
        ref = APDriftMonitor(_db2(), min_samples=10)
        ref.observe(good)
        ref.observe(good)
        # Same window as feeding the two alignable scans one by one; one
        # pass sums the rows in another order, so means match to rounding.
        np.testing.assert_array_equal(m._hist, ref._hist)
        np.testing.assert_allclose(m._sum, ref._sum, rtol=1e-12)
        assert [e["n"] for e in m.status(emit=False).values()] == [60, 60]

    def test_reference_is_built_by_the_first_judging_status(self, registry):
        db = _db2()
        m = APDriftMonitor(db)
        m.status()  # nothing judged yet: no reference needed
        assert db.mean_calls == 0 and m.train_cdf is None
        m.observe(_live(np.random.default_rng(9), -51.0, -71.0))
        m.status()
        m.status()
        assert db.mean_calls == 1 and m.train_cdf.shape == (2, 40)

    def test_concurrent_feeds_lose_no_reading(self, registry):
        m = APDriftMonitor(_db2())
        rows = _live(np.random.default_rng(10), -51.0, -71.0, n=5)
        threads, per_thread = 8, 200
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(
                    target=lambda: [m.observe_many([rows]) for _ in range(per_thread)]
                )
                for _ in range(threads)
            ]
            for w in workers:
                w.start()
            for _ in range(20):
                m.status()  # /healthz reads while handler threads feed
            for w in workers:
                w.join(timeout=60)
            assert not any(w.is_alive() for w in workers)
        finally:
            sys.setswitchinterval(previous)
        total = threads * per_thread * 5
        assert [e["n"] for e in m.status().values()] == [total, total]
        assert int(m._hist.sum()) == 2 * total

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            APDriftMonitor(_db2(), mean_shift_db=0.0)
        with pytest.raises(ValueError):
            APDriftMonitor(_db2(), ks_threshold=1.5)
        with pytest.raises(ValueError):
            APDriftMonitor(_db2(), bin_width_db=-1.0)

    def test_alerts_fire_on_transition_not_per_scrape(self, registry):
        rng = np.random.default_rng(5)
        m = APDriftMonitor(_db2())
        m.observe(_live(rng, -51.0 + 15.0, -71.0))
        m.status()
        m.status()  # second scrape of the same incident
        counters = obs.snapshot()["counters"]
        assert counters["quality.drift_alerts{ap=ap0}"] == 1
        assert counters["quality.alert{kind=rssi_drift}"] == 1
        # Recover, then drift again: a new incident, a new alert.
        m.reset()
        m.observe(_live(rng, -51.0, -71.0))
        m.status()
        m.reset()
        m.observe(_live(rng, -51.0 + 15.0, -71.0))
        m.status()
        assert obs.snapshot()["counters"]["quality.drift_alerts{ap=ap0}"] == 2

    def test_gauges_track_latest_values(self, registry):
        m = APDriftMonitor(_db2())
        m.observe(_live(np.random.default_rng(6), -51.0 + 8.0, -71.0))
        m.status()
        gauges = obs.snapshot()["gauges"]
        assert gauges["quality.ap_mean_shift_db{ap=ap0}"] == pytest.approx(8.0, abs=1.5)
        assert 0.0 <= gauges["quality.ap_ks_distance{ap=ap1}"] <= 1.0

    def test_reset_forgets_live_window(self, registry):
        m = APDriftMonitor(_db2())
        m.observe(_live(np.random.default_rng(7), -30.0, -71.0))
        assert m.drifted_aps() == ["ap0"]
        m.reset()
        assert not any(e["judged"] for e in m.status().values())

    def test_real_training_database_works(self, registry, training_db, house):
        # The duck typing holds against the real thing end-to-end.
        m = APDriftMonitor(training_db, min_samples=20)
        positions = [sp.position for sp in house.training_points()]
        m.observe_many(house.observe_all(positions, rng=9, dwell_s=5.0))
        assert m.drifted_aps() == []


class TestConfidenceAndDegradedTelemetry:
    """The quality.* emissions wired into the hot paths."""

    def _db(self):
        from repro.core.geometry import Point
        from repro.core.trainingdb import LocationRecord, TrainingDatabase

        B = ["a", "b", "c"]
        rng = np.random.default_rng(10)
        return B, TrainingDatabase(
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

    def test_confidence_histogram_single_and_batch(self, registry):
        from repro.algorithms.base import Observation
        from repro.algorithms.knn import KNNLocalizer

        B, db = self._db()
        rng = np.random.default_rng(11)
        loc = KNNLocalizer().fit(db)
        o = Observation(rng.normal(-60, 2, (3, 3)), bssids=B)
        loc.locate(o)
        loc.locate_many([o, o])
        h = obs.snapshot()["histograms"]["quality.confidence{algorithm=knn}"]
        assert h["count"] == 3  # 1 single + 2 batched, no double count

    def test_degraded_answers_counted_per_tier(self, registry):
        from repro.algorithms.base import Observation
        from repro.algorithms.fallback import FallbackLocalizer

        B, db = self._db()
        chain = FallbackLocalizer().fit(db)
        samples = np.full((3, 3), np.nan)
        samples[:, 0] = -58.0  # probabilistic declines, nearest answers
        chain.locate(Observation(samples, bssids=B))
        counters = obs.snapshot()["counters"]
        assert counters["quality.degraded_answers{tier=nearest}"] == 1

    def test_quarantine_raises_quality_alert(self, registry):
        from repro.robustness.report import IngestReport

        IngestReport(lenient=True).quarantine("bad.wi-scan", "not utf-8")
        counters = obs.snapshot()["counters"]
        assert counters["quality.alert{kind=ingest_quarantine}"] == 1
