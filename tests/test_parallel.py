"""Tests for the parallel utilities."""

import numpy as np
import pytest

from repro import obs
from repro.parallel import pool
from repro.parallel.pool import ParallelConfig, parallel_map
from repro.parallel.rng import (
    check_independence,
    resolve_rng,
    spawn_rngs,
    spawn_seeds,
    split_rng,
    stable_seed,
)


def square(x):
    return x * x


def boom(x):
    raise RuntimeError(f"boom {x}")


class TestRng:
    def test_resolve_accepts_everything(self):
        assert isinstance(resolve_rng(None), np.random.Generator)
        assert isinstance(resolve_rng(5), np.random.Generator)
        gen = np.random.default_rng(0)
        assert resolve_rng(gen) is gen
        assert isinstance(resolve_rng(np.random.SeedSequence(1)), np.random.Generator)

    def test_seeded_reproducible(self):
        assert resolve_rng(7).random() == resolve_rng(7).random()

    def test_spawn_seeds_independent(self):
        seeds = spawn_seeds(0, 10)
        assert len(seeds) == 10
        assert check_independence(seeds)

    def test_spawn_rngs_distinct_streams(self):
        rngs = spawn_rngs(0, 5)
        draws = [g.random() for g in rngs]
        assert len(set(draws)) == 5

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)

    def test_split_rng(self):
        children = split_rng(np.random.default_rng(0), 4)
        assert len(children) == 4
        draws = [c.random() for c in children]
        assert len(set(draws)) == 4

    def test_stable_seed_deterministic(self):
        assert stable_seed("a", 1, 2.5) == stable_seed("a", 1, 2.5)
        assert stable_seed("a", 1) != stable_seed("a", 2)
        assert 0 <= stable_seed("x") < 2**63


class TestParallelConfig:
    def test_defaults(self):
        cfg = ParallelConfig()
        assert cfg.resolved_workers() >= 1
        assert cfg.resolved_chunk_size(100, 4) == 7  # ceil(100/16)

    def test_explicit(self):
        cfg = ParallelConfig(max_workers=2, chunk_size=10)
        assert cfg.resolved_workers() == 2
        assert cfg.resolved_chunk_size(100, 2) == 10


class TestParallelMap:
    def test_serial_small_input(self):
        assert parallel_map(square, [1, 2, 3]) == [1, 4, 9]

    def test_order_preserved_parallel(self):
        cfg = ParallelConfig(max_workers=2, serial_threshold=1)
        items = list(range(40))
        assert parallel_map(square, items, cfg) == [x * x for x in items]

    def test_forced_serial(self):
        cfg = ParallelConfig(max_workers=1)
        assert parallel_map(square, list(range(20)), cfg) == [x * x for x in range(20)]

    def test_exception_propagates(self):
        cfg = ParallelConfig(max_workers=2, serial_threshold=1)
        with pytest.raises(RuntimeError, match="boom"):
            parallel_map(boom, list(range(10)), cfg)

    def test_empty(self):
        assert parallel_map(square, []) == []


class _UnstartablePool:
    """Stand-in for ProcessPoolExecutor in a sandbox without fork."""

    def __init__(self, *args, **kwargs):
        raise OSError("no fork for you")


class TestSerialFallbackVisibility:
    """A pool that cannot start must degrade loudly, not silently."""

    @pytest.fixture(autouse=True)
    def fresh_registry(self):
        previous = obs.set_registry(obs.MetricsRegistry())
        yield
        obs.set_registry(previous)

    def test_map_warns_counts_and_still_answers(self, monkeypatch):
        monkeypatch.setattr(pool, "ProcessPoolExecutor", _UnstartablePool)
        cfg = ParallelConfig(max_workers=2, serial_threshold=1)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            result = parallel_map(square, list(range(10)), cfg)
        assert result == [x * x for x in range(10)]
        snap = obs.snapshot()
        assert snap["counters"]["parallel.serial_fallback{kind=parallel_map}"] == 1

    def test_healthy_pool_does_not_warn(self, recwarn):
        cfg = ParallelConfig(max_workers=2, serial_threshold=1)
        parallel_map(square, list(range(8)), cfg)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        snap = obs.snapshot()
        assert "parallel.serial_fallback{kind=parallel_map}" not in snap["counters"]
        assert snap["counters"]["parallel.maps{kind=map}"] == 1
        assert snap["counters"]["parallel.chunks{kind=map}"] >= 1
