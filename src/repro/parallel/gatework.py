"""Distributed exact gate-level fault grading.

A full-universe cross-validation grades tens of thousands of faults
against one shared netlist and input sequence.  This module fans that
work out across the process pool as one contiguous slice of the
cone-aware schedule (:func:`repro.gates.faults.schedule_fault_batches`)
per worker: the (netlist, inputs, scheduled faults) payload ships once
per worker through the pool initializer, tasks are bare slice bounds,
and verdicts come back as boolean arrays.  Each worker compiles the
netlist program and simulates the golden machine once, then grades its
slice with the same function as in-process grading,
:func:`repro.gates.fault_parallel.gate_level_missed` — iterative
deepening, cone batching and fault dropping included.  One slice per
worker keeps the per-call set-up (the lane-word expansion of the golden
waveforms) to once per worker.

A worker crash or timeout falls back to the parent-side serial engine,
so the result is always the exact missed-fault list.

When telemetry is enabled the pool propagates the trace into each
worker (see :mod:`repro.telemetry.propagate`): the ``gates.fault_parallel``
span (and its ``gates.fault_batch`` children) a worker's slice emits
merges back under the dispatching ``gates.fault_pool`` span, so pooled
and serial-fallback runs produce identically shaped span trees — the
only difference is the ``pid`` on the worker spans.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..gates.compiled import compiled_program, golden_net_waves
from ..gates.fault_parallel import (DEFAULT_WORDS, gate_level_missed,
                                    resolve_engine)
from ..gates.faults import EnumeratedFault, schedule_fault_batches
from ..gates.gatesim import pack_input_bits
from ..gates.netlist import GateNetlist
from ..telemetry import get_telemetry
from .pool import parallel_map, resolve_jobs

__all__ = ["gate_level_missed_parallel"]

#: Per-worker payload installed by :func:`_init_gate_worker`.
_GATE_STATE: Dict[str, Any] = {}


def _init_gate_worker(nl: GateNetlist, raw: np.ndarray,
                      faults: Sequence[EnumeratedFault]) -> None:
    _GATE_STATE["payload"] = (nl, raw, faults)
    _GATE_STATE.pop("compiled", None)


def _compile(nl: GateNetlist, raw: np.ndarray) -> Tuple:
    """(program, golden per-net waves) for one netlist and stimulus."""
    prog = compiled_program(nl)
    return prog, golden_net_waves(prog,
                                  pack_input_bits(raw, len(nl.input_bits)))


def _grade_slice(nl: GateNetlist, raw: np.ndarray,
                 faults: Sequence[EnumeratedFault],
                 compiled: Tuple) -> np.ndarray:
    """Detection verdicts for ``faults``, graded by gate_level_missed."""
    prog, waves = compiled
    detect = np.full(len(faults), -1, dtype=np.int64)
    gate_level_missed(nl, raw, faults, detect_times=detect,
                      program=prog, net_waves=waves)
    return detect >= 0


def _grade_worker_slice(bounds: Tuple[int, int]) -> np.ndarray:
    nl, raw, faults = _GATE_STATE["payload"]
    compiled = _GATE_STATE.get("compiled")
    if compiled is None:
        compiled = _GATE_STATE["compiled"] = _compile(nl, raw)
    start, stop = bounds
    return _grade_slice(nl, raw, faults[start:stop], compiled)


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
    """Exact missed-fault list, one schedule slice per worker.

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
    tel = get_telemetry()
    with tel.span("gates.fault_parallel_pool", faults=len(faults),
                  vectors=len(input_raw), jobs=jobs) as span:
        raw = np.asarray(input_raw, dtype=np.int64)
        # Cone-aware schedule: grade in locality order, then scatter the
        # verdicts back so results are independent of the schedule.
        order = [i for batch in schedule_fault_batches(
            faults, 64 * DEFAULT_WORDS) for i in batch]
        scheduled = [faults[i] for i in order]
        n_slices = max(1, min(resolve_jobs(jobs), len(faults)))
        cuts = [len(faults) * k // n_slices for k in range(n_slices + 1)]
        slices = list(zip(cuts[:-1], cuts[1:]))

        def _serial(chunk: Sequence[Tuple[int, int]]) -> List[np.ndarray]:
            compiled = _compile(nl, raw)
            return [_grade_slice(nl, raw, scheduled[start:stop], compiled)
                    for start, stop in chunk]

        verdict_blocks = parallel_map(
            _grade_worker_slice, slices, jobs=jobs, timeout=timeout,
            initializer=_init_gate_worker,
            initargs=(nl, raw, scheduled),
            serial_fallback=_serial, label="gates.fault_pool")

        verdicts = np.zeros(len(faults), dtype=bool)
        for (start, stop), block in zip(slices, verdict_blocks):
            verdicts[order[start:stop]] = block
            if tel.enabled:
                tel.progress("gates.grade", stop, len(faults),
                             detected=int(verdicts.sum()),
                             coverage=float(verdicts.sum())
                             / max(1, len(faults)))
            if progress is not None:
                progress(stop, len(faults))
        missed = [f for f, hit in zip(faults, verdicts) if not hit]
    if tel.enabled and span.duration > 0:
        tel.gauge("gates.faults_per_sec").set(len(faults) / span.duration)
    return missed
