"""Parallel execution layer for fault-simulation campaigns.

The paper's experiment grids are embarrassingly parallel — every
(design, generator, length) session and every shard of a gate-level
fault universe is independent.  This package supplies the substrate:

* :mod:`~repro.parallel.pool` — order-preserving process-pool map with
  chunked work queues, crash/timeout detection and automatic serial
  fallback;
* :mod:`~repro.parallel.seeding` — deterministic per-task seeds, so a
  fanned-out run is bit-identical to its serial counterpart;
* :mod:`~repro.parallel.sweep` — design x generator coverage grids
  (the CLI's ``repro sweep`` / ``repro bench``);
* :mod:`~repro.parallel.gatework` — exact gate-level grading, one
  shard (:mod:`repro.gates.shards`) per worker.
"""

from .gatework import gate_level_missed_parallel
from .pool import default_chunk_size, parallel_map, resolve_jobs
from .seeding import DEFAULT_BASE_SEED, derive_seed, task_seeds
from .sweep import (
    GENERATOR_KEYS,
    SweepResult,
    SweepTask,
    run_sweep,
    sweep_generator,
)

__all__ = [
    "DEFAULT_BASE_SEED",
    "GENERATOR_KEYS",
    "SweepResult",
    "SweepTask",
    "default_chunk_size",
    "derive_seed",
    "gate_level_missed_parallel",
    "parallel_map",
    "resolve_jobs",
    "run_sweep",
    "sweep_generator",
    "task_seeds",
]
