"""The batched scoring engine: chunking and config plumbing.

``run_batched`` is the one place every vectorized ``locate_many`` goes
through, so its contract is pinned directly: results in order and
complete across chunk boundaries, chunk sizes bounded (including the
kernel-specific cap), chunk counters emitted, and the process default
config swappable and restorable.
"""

import numpy as np
import pytest

from repro import obs
from repro.algorithms.engine import (
    BatchConfig,
    get_batch_config,
    run_batched,
    set_batch_config,
)


def _double_all(items):
    return [2 * x for x in items]


_SEEN_CHUNK_SIZES = []


def _recording_kernel(items):
    _SEEN_CHUNK_SIZES.append(len(items))
    return list(items)


@pytest.fixture(autouse=True)
def _fresh_metrics():
    obs.reset()
    yield
    obs.reset()


class TestRunBatched:
    def test_empty_batch(self):
        assert run_batched(_double_all, []) == []

    def test_small_batch_single_kernel_call(self):
        _SEEN_CHUNK_SIZES.clear()
        out = run_batched(
            _recording_kernel, list(range(10)), config=BatchConfig(chunk_size=256)
        )
        assert out == list(range(10))
        assert _SEEN_CHUNK_SIZES == [10]  # no chunk splitting below chunk_size

    def test_chunking_preserves_order_and_counts(self):
        config = BatchConfig(chunk_size=7)
        items = list(range(100))
        assert run_batched(_double_all, items, label="t", config=config) == [
            2 * x for x in items
        ]
        snap = obs.snapshot()
        # 100 items in chunks of 7 -> 15 chunks
        assert snap["counters"]["batch.chunks{algorithm=t}"] == 15

    def test_max_chunk_caps_config(self):
        _SEEN_CHUNK_SIZES.clear()
        config = BatchConfig(chunk_size=64)
        run_batched(
            _recording_kernel, list(range(40)), config=config, max_chunk=16
        )
        assert max(_SEEN_CHUNK_SIZES) <= 16


class TestBatchConfig:
    def test_default_roundtrip(self):
        original = get_batch_config()
        override = BatchConfig(chunk_size=13)
        previous = set_batch_config(override)
        try:
            assert previous is original
            assert get_batch_config() is override
        finally:
            set_batch_config(original)
        assert get_batch_config() is original

    def test_localizer_instance_override(self):
        """A per-instance batch_config reroutes that localizer only."""
        from repro.algorithms.base import Observation
        from repro.algorithms.knn import KNNLocalizer
        from repro.core.geometry import Point
        from repro.core.trainingdb import LocationRecord, TrainingDatabase

        bssids = ["02:00:00:00:00:00", "02:00:00:00:00:01"]
        rng = np.random.default_rng(0)
        db = TrainingDatabase(
            bssids,
            [
                LocationRecord(f"p{i}", Point(float(i), 0.0), rng.normal(-60, 3, (5, 2)))
                for i in range(4)
            ],
        )
        loc = KNNLocalizer(k=1).fit(db)
        loc.batch_config = BatchConfig(chunk_size=2)
        observations = [
            Observation(rng.normal(-60, 3, (3, 2)), bssids=bssids) for _ in range(9)
        ]
        estimates = loc.locate_many(observations)
        assert len(estimates) == 9
        snap = obs.snapshot()
        # 9 observations at chunk_size=2 -> 5 chunks
        assert snap["counters"]["batch.chunks{algorithm=knn}"] == 5
