"""The batched scoring engine: chunked `locate_many`.

Every localizer's Phase-2 scoring is a broadcastable computation, so a
bulk request is best served as a handful of matrix passes instead of M
Python round trips.  This module is the execution layer those kernels
share:

* **Chunking** — a batch is evaluated in fixed-size chunks so the
  working set of the ``(M, L, A)`` broadcast stays cache-sized and
  memory-bounded no matter how large the request.  Chunking never
  changes answers: every kernel is independent per observation row.
* **Instrumentation** — a per-request counter (``batch.requests``),
  per-chunk spans (``batch.chunk``) and a chunk counter
  (``batch.chunks``) on the global :mod:`repro.obs` registry,
  complementing the per-batch latency histograms emitted by
  :class:`~repro.algorithms.base.Localizer`.

A batch runs in the calling process.  Serving scales across cores with
``repro serve --workers N``, which runs one whole server per core.

A localizer participates by defining ``_locate_chunk(observations)``
— its vectorized single-chunk kernel, answer-identical to ``locate``
per observation; :meth:`Localizer.locate_many` routes every batch
through :func:`run_batched` automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro import obs

__all__ = [
    "BatchConfig",
    "get_batch_config",
    "set_batch_config",
    "run_batched",
]


@dataclass(frozen=True)
class BatchConfig:
    """Knobs controlling :func:`run_batched`.

    Attributes
    ----------
    chunk_size:
        Observations evaluated per vectorized kernel pass.  Bounds the
        ``(chunk, L, A)`` broadcast working set; 256 keeps a typical
        survey's broadcast in the tens of megabytes.
    """

    chunk_size: int = 256


_default_config = BatchConfig()


def get_batch_config() -> BatchConfig:
    """The process-wide default :class:`BatchConfig`."""
    return _default_config


def set_batch_config(config: BatchConfig) -> BatchConfig:
    """Replace the process-wide default; returns the previous config."""
    global _default_config
    previous = _default_config
    _default_config = config
    return previous


def run_batched(
    kernel: Callable[[Sequence[Any]], List[Any]],
    items: Sequence[Any],
    label: str = "batch",
    config: Optional[BatchConfig] = None,
    max_chunk: Optional[int] = None,
) -> List[Any]:
    """Evaluate ``kernel`` over ``items`` in chunks.

    ``kernel`` must be independent per item (every localizer chunk
    kernel is), so chunk boundaries cannot change answers — only how
    many items share one vectorized pass.  ``max_chunk`` lets
    memory-hungry kernels (e.g. the field-MLE lattice broadcast) cap
    the configured chunk size.  Results come back in input order.
    """
    cfg = config if config is not None else _default_config
    n = len(items)
    if n == 0:
        return []
    # One per-request counter, emitted the same way whether the batch
    # runs as one chunk or many.
    obs.counter("batch.requests", algorithm=label).inc(n)
    size = max(1, int(cfg.chunk_size))
    if max_chunk is not None:
        size = max(1, min(size, int(max_chunk)))
    if n <= size:
        return list(kernel(items))

    chunks = [items[i : i + size] for i in range(0, n, size)]
    obs.counter("batch.chunks", algorithm=label).inc(len(chunks))
    out: List[Any] = []
    for index, chunk in enumerate(chunks):
        with obs.span(
            "batch.chunk", algorithm=label, index=index, size=len(chunk)
        ):
            out.extend(kernel(chunk))
    return out
