"""Chunked process-pool map for embarrassingly parallel sweeps.

Design notes (per the hpc-parallel guides):

* *Measure before parallelizing* — a fork + pickle round trip costs
  milliseconds, so tiny workloads run serially; the threshold is explicit
  in :class:`ParallelConfig` rather than hidden.
* *Chunking* — work items are shipped in contiguous chunks to amortize
  IPC overhead; results are re-flattened in submission order so callers
  see an ordinary ordered ``map``.
* *Determinism* — callers pass pure functions of their arguments; any
  randomness must arrive through explicit seeds (see
  :mod:`repro.parallel.rng`), never through process-local global state.
* *Telemetry round trip* — metrics emitted inside worker processes
  would otherwise vanish with the worker, so each chunk runs against a
  fresh worker-local registry and ships its delta state back with the
  results; the parent folds every delta into its own registry
  (counters sum, histograms merge bucket-wise).  Parallel and serial
  runs therefore report identical totals.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro import obs


@dataclass(frozen=True)
class ParallelConfig:
    """Knobs controlling :func:`parallel_map`.

    Attributes
    ----------
    max_workers:
        Worker-process count.  ``None`` means ``os.cpu_count()``; ``0`` or
        ``1`` forces serial execution (useful inside pytest-benchmark
        timing loops where fork noise would pollute measurements).
    chunk_size:
        Items shipped per IPC message.  ``None`` picks
        ``ceil(n_items / (4 * workers))`` so each worker gets ~4 chunks —
        enough to balance stragglers without drowning in pickling.
    serial_threshold:
        Below this many items the map always runs serially.
    """

    max_workers: Optional[int] = None
    chunk_size: Optional[int] = None
    serial_threshold: int = 4

    def resolved_workers(self) -> int:
        if self.max_workers is not None:
            return max(0, self.max_workers)
        return os.cpu_count() or 1

    def resolved_chunk_size(self, n_items: int, workers: int) -> int:
        if self.chunk_size is not None:
            return max(1, self.chunk_size)
        if workers <= 0:
            return max(1, n_items)
        return max(1, -(-n_items // (4 * workers)))


def _apply_chunk(
    func: Callable[[Any], Any], chunk: Sequence[Any], collect: bool = False
) -> Tuple[List[Any], Optional[dict]]:
    """Run one chunk in a worker; optionally capture its metrics delta.

    With ``collect`` the worker swaps a fresh registry in around the
    chunk, so the returned state holds exactly what *this chunk*
    emitted — re-used pool workers never leak one chunk's counts into
    another's delta, and the parent can fold every delta in without
    double-counting.
    """
    if not collect:
        return [func(item) for item in chunk], None
    from repro.obs import metrics as _metrics

    delta = _metrics.MetricsRegistry()
    previous = _metrics.set_registry(delta)
    try:
        results = [func(item) for item in chunk]
    finally:
        _metrics.set_registry(previous)
    return results, delta.dump_state()


def _fold_deltas(pairs: Sequence[Tuple[List[Any], Optional[dict]]]) -> List[Any]:
    """Merge worker registry deltas into the parent registry, in order.

    Counters sum and histograms merge bucket-wise, so a parallel run
    reports the same totals a serial run would; gauges are last-write
    in submission order (deterministic, matching serial emission
    order).  Returns the flattened, order-preserving results.
    """
    merged = 0
    for _, state in pairs:
        if state:
            obs.merge_state(state)
            merged += 1
    if merged:
        obs.counter("parallel.deltas_merged", kind="map").inc(merged)
    return [result for results, _ in pairs for result in results]


def parallel_map(
    func: Callable[[Any], Any],
    items: Iterable[Any],
    config: Optional[ParallelConfig] = None,
) -> List[Any]:
    """Ordered parallel ``map(func, items)`` over a process pool.

    ``func`` must be picklable (module-level) when parallel execution
    kicks in; any exception raised in a worker propagates to the caller.
    Falls back to serial execution for small inputs, single-worker
    configs, or if the platform cannot start a process pool.
    """
    config = config or ParallelConfig()
    items = list(items)
    workers = config.resolved_workers()
    if len(items) < config.serial_threshold or workers <= 1:
        obs.counter("parallel.serial_small", kind="map").inc()
        return [func(item) for item in items]

    size = config.resolved_chunk_size(len(items), workers)
    chunks = [items[i : i + size] for i in range(0, len(items), size)]
    pool_workers = min(workers, len(chunks))
    obs.counter("parallel.maps", kind="map").inc()
    obs.counter("parallel.chunks", kind="map").inc(len(chunks))
    obs.gauge("parallel.workers").set(pool_workers)
    collect = obs.enabled()
    try:
        with obs.span("parallel.map", n_items=len(items), n_chunks=len(chunks)):
            with ProcessPoolExecutor(max_workers=pool_workers) as pool:
                pairs = list(
                    pool.map(
                        _apply_chunk,
                        [func] * len(chunks),
                        chunks,
                        [collect] * len(chunks),
                    )
                )
    except (OSError, PermissionError) as exc:  # sandboxes without fork/spawn
        # Survivable, yet a sweep that quietly lost its parallelism
        # looks identical to a fast one: count it and warn.
        obs.counter("parallel.serial_fallback", kind="parallel_map").inc()
        warnings.warn(
            f"parallel_map: process pool unavailable ({type(exc).__name__}: {exc}); "
            "falling back to serial execution",
            RuntimeWarning,
            stacklevel=2,
        )
        return [func(item) for item in items]
    return _fold_deltas(pairs)
