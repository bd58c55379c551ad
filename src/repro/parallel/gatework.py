"""Distributed exact gate-level fault grading.

A full-universe cross-validation grades tens of thousands of faults
against one shared netlist and input sequence.  This module fans that
work out across the process pool as one shard per worker
(:mod:`repro.gates.shards`): :func:`plan_shards` packs whole cone
batches into at most one shard per worker, the (netlist, inputs,
faults) payload ships once per worker through the pool initializer,
tasks are bare shards, and each worker grades its shard with
:func:`grade_shard` — the same unit the service and the cluster
coordinator dispatch.  :func:`merge_shard_results` folds the results
back and refuses overlaps, gaps and disagreeing duplicates.

A worker crash or timeout falls back to grading the unfinished shards
in the parent, so the result is always the exact missed-fault list.

When telemetry is enabled the pool propagates the trace into each
worker (see :mod:`repro.telemetry.propagate`): the ``gates.fault_parallel``
span (and its ``gates.fault_batch`` children) a worker's shard emits
merges back under the dispatching ``gates.fault_pool`` span, so pooled
and serial-fallback runs produce identically shaped span trees — the
only difference is the ``pid`` on the worker spans.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..errors import SimulationError
from ..gates.fault_parallel import DEFAULT_WORDS, resolve_engine
from ..gates.faults import EnumeratedFault
from ..gates.netlist import GateNetlist
from ..gates.shards import Shard, grade_shard, merge_shard_results, plan_shards
from ..telemetry import get_telemetry
from .pool import parallel_map, resolve_jobs

__all__ = ["gate_level_missed_parallel"]

#: Per-worker payload installed by :func:`_init_gate_worker`.
_GATE_STATE: Dict[str, Any] = {}


def _init_gate_worker(nl: GateNetlist, raw: np.ndarray,
                      faults: Sequence[EnumeratedFault]) -> None:
    _GATE_STATE["payload"] = (nl, raw, faults)


def _grade(nl: GateNetlist, raw: np.ndarray,
           faults: Sequence[EnumeratedFault], shard: Shard) -> Dict[str, Any]:
    result = grade_shard(nl, raw, faults, shard.indices, len(faults))
    result["shard"] = shard.shard_id
    return result


def _grade_worker_shard(shard: Shard) -> Dict[str, Any]:
    return _grade(*_GATE_STATE["payload"], shard)


def gate_level_missed_parallel(
    nl: GateNetlist,
    input_raw: Sequence[int],
    faults: Sequence[EnumeratedFault],
    *,
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    engine: Optional[str] = None,
) -> List[EnumeratedFault]:
    """Exact missed-fault list, one shard per worker.

    Drop-in parallel counterpart of
    :func:`repro.gates.fault_parallel.gate_level_missed`; identical
    verdicts.  The pool grades with the ``event`` engine only;
    ``engine="reference"`` is rejected here, before any worker starts.
    """
    if resolve_engine(engine) != "event":
        raise SimulationError(
            "the gate-grading process pool supports only the 'event' "
            "engine; grade in-process for the 'reference' oracle")
    faults = list(faults)
    n = len(faults)
    tel = get_telemetry()
    with tel.span("gates.fault_parallel_pool", faults=n,
                  vectors=len(input_raw), jobs=jobs) as span:
        raw = np.asarray(input_raw, dtype=np.int64)
        # Cone batches are full except the last, so shards of
        # ceil(n / (jobs * batch)) whole batches number at most ``jobs``.
        batch = 64 * DEFAULT_WORDS
        per_shard = max(1, -(-n // (resolve_jobs(jobs) * batch))) * batch
        shards = plan_shards(faults, max_faults=per_shard, batch_size=batch)
        results = parallel_map(
            _grade_worker_shard, shards, jobs=jobs, timeout=timeout,
            initializer=_init_gate_worker, initargs=(nl, raw, faults),
            serial_fallback=lambda chunk: [_grade(nl, raw, faults, s)
                                           for s in chunk],
            label="gates.fault_pool")
        merged = merge_shard_results(n, results, test_length=len(raw))

        done = detected = 0
        for result in results:
            done += result["faults"]
            detected += sum(result["detected"])
            if tel.enabled:
                tel.progress("gates.grade", done, n, detected=detected,
                             coverage=detected / max(1, n))
            if progress is not None:
                progress(done, n)
        missed = [faults[i] for i in merged.missed_indices]
    if tel.enabled and span.duration > 0:
        tel.gauge("gates.faults_per_sec").set(n / span.duration)
    return missed
