"""Parallel-execution utilities used by the experiment harness.

The sweeps in :mod:`repro.experiments.sweeps` evaluate many independent
(seed, parameter) cells.  This package provides the two pieces needed to
do that reproducibly and fast:

* :func:`repro.parallel.rng.spawn_rngs` — derive independent, collision
  free child generators from one seed via :class:`numpy.random.SeedSequence`.
* :func:`repro.parallel.pool.parallel_map` — a chunked process-pool map
  that degrades gracefully to serial execution for tiny workloads (where
  fork+pickle overhead dominates) or when the platform lacks working
  multiprocessing.
"""

from repro.parallel.pool import ParallelConfig, parallel_map
from repro.parallel.rng import resolve_rng, spawn_rngs, spawn_seeds

__all__ = [
    "ParallelConfig",
    "parallel_map",
    "resolve_rng",
    "spawn_rngs",
    "spawn_seeds",
]
