"""Fault-parallel exact gate-level fault simulation.

The serial injector in :mod:`repro.gates.faults` re-simulates the whole
netlist once per fault — fine for spot checks, hopeless for a Table 1
design's ~60k faults.  This engine packs **64 faulty circuit copies into
each machine word**: every net's waveform is a ``uint64`` array, bit
``j`` of each word belonging to copy ``j`` of the batch, and stuck-at
faults become per-line set/clear masks — so one pass grades 64 faults
bit-exactly, and the full universe costs ``ceil(F / 64)`` passes.

Three composable optimizations make each pass cheap while keeping every
verdict bit-identical to the straightforward whole-netlist evaluation
(retained below as :func:`fault_parallel_reference` /
:func:`gate_level_missed_reference`, the oracle of the randomized
equivalence suite and the baseline of ``repro bench --gates``):

* **compiled evaluation** — the netlist is lowered once to a levelized
  structure-of-arrays program (:mod:`repro.gates.compiled`), the golden
  machine is simulated once recording every net's waveform, and several
  64-fault words are evaluated side by side so each numpy call is
  amortized over hundreds of faulty machines — the decisive lever on
  deeply-levelized ripple-carry datapaths;
* **cone restriction** — each batch evaluates only the transitive
  fanout cone of its fault sites, reading golden waveforms at the cone
  boundary and propagating only the rows that differ from golden
  (:class:`~repro.gates.eventsim.EventCone`); the cone-aware scheduler
  (:func:`repro.gates.faults.schedule_fault_batches`) packs cone-local
  faults into the same batch to keep cones small;
* **chunked time with fault dropping** — the cone is evaluated in time
  chunks (:data:`DEFAULT_CHUNK` vectors), per-word detection words
  accumulate after each chunk, fully-detected words are compacted away
  (:meth:`~repro.gates.eventsim.EventCone.compact`), and a batch stops
  early once every lane is detected — which the paper's own coverage
  curves say happens within the first few hundred vectors for >99% of
  faults.  Iterative deepening (:func:`gate_level_missed`) grades every
  fault on a short stimulus prefix first and re-grades only survivors
  on longer ones.

Cone sizes, skipped chunks and dropped faults surface as the telemetry
counters ``gates.cone_nets``, ``gates.chunks_skipped`` and
``gates.faults_dropped`` (see ``repro profile --exact``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..telemetry import get_telemetry
from .compiled import (
    CompiledNetlist,
    ConeWorkspace,
    compiled_program,
    expand_lane_waves,
    golden_net_waves,
)
from .eventsim import EventCone, fused_program
from .faults import EnumeratedFault, schedule_fault_batches
from .gatesim import NetlistFault, pack_input_bits
from .netlist import GateNetlist

__all__ = [
    "DEFAULT_CHUNK",
    "DEFAULT_ENGINE",
    "DEFAULT_WORDS",
    "ENGINES",
    "fault_parallel_reference",
    "gate_level_missed",
    "gate_level_missed_reference",
    "resolve_engine",
]

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Time-chunk length (vectors) for the chunked batch evaluator.
DEFAULT_CHUNK = 512

#: 64-fault words evaluated side by side per cone pass.
DEFAULT_WORDS = 8

#: First-deepening-stage word width.  The event evaluator's per-chunk
#: cost is dominated by fixed per-op Python overhead while the stage-1
#: prefix is short, so packing 4x more faults per cone pass cuts the
#: pass count (and cone construction) almost linearly; later stages
#: keep :data:`DEFAULT_WORDS` so the per-net buffers stay small at full
#: stimulus length.  Verdicts and chunk-end detection times are batch-
#: size independent, so widening one stage cannot change a result.
STAGE1_WORDS = 32

#: Selectable engine tiers: ``event`` is the event-driven frontier
#: evaluator over fused LUT super-gates (:mod:`repro.gates.eventsim`),
#: ``reference`` the pre-optimization whole-netlist oracle.  Both
#: produce bit-identical verdicts.
ENGINES = ("event", "reference")

#: Engine used when callers pass ``engine=None``.
DEFAULT_ENGINE = "event"


def resolve_engine(engine: Optional[str]) -> str:
    """Normalize an ``engine=`` knob value, defaulting and validating."""
    name = DEFAULT_ENGINE if engine is None else str(engine)
    if name not in ENGINES:
        raise SimulationError(
            f"unknown gate engine {name!r}; choose from "
            f"{', '.join(ENGINES)}")
    return name


def _line_masks(
    faults: Sequence[NetlistFault],
    words: int = 1,
) -> Tuple[Dict[int, Tuple[np.ndarray, np.ndarray]],
           Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]]]:
    """Per-line (set, clear) lane-mask words for up to ``64 * words`` faults.

    Fault ``j`` becomes bit ``j % 64`` of word ``j // 64``; masks are
    ``(words,)`` uint64 arrays.
    """
    net_masks: Dict[int, np.ndarray] = {}
    pin_masks: Dict[Tuple[int, int], np.ndarray] = {}

    def _mark(table, key, word, bit, is_set):
        entry = table.get(key)
        if entry is None:
            entry = table[key] = np.zeros((2, words), dtype=np.uint64)
        entry[0 if is_set else 1, word] |= bit

    for j, fault in enumerate(faults):
        word, bit = j // 64, np.uint64(1 << (j % 64))
        kind, payload = fault.lines
        if kind == "net":
            _mark(net_masks, int(payload), word, bit, fault.value)
        elif kind == "pins":
            for gate, pin in payload:
                _mark(pin_masks, (int(gate), int(pin)), word, bit,
                      fault.value)
        else:
            raise SimulationError(f"unknown fault line kind {kind!r}")
    return (
        {k: (v[0], v[1]) for k, v in net_masks.items()},
        {k: (v[0], v[1]) for k, v in pin_masks.items()},
    )


def _grade_cone_batch(
    prog: CompiledNetlist,
    lane_waves: np.ndarray,
    faults: Sequence[NetlistFault],
    chunk: int,
    ws: ConeWorkspace,
    length: Optional[int] = None,
    first_detect: Optional[np.ndarray] = None,
    dense_hint: Optional[bool] = None,
) -> Tuple[np.ndarray, Dict[str, int]]:
    """Verdicts + drop statistics for one multi-word cone pass.

    Builds the frontier-driven :class:`~repro.gates.eventsim.EventCone`
    over the fused super-gate program and drives it chunk by chunk,
    dropping fully-detected words between chunks.

    ``length`` grades only the stimulus prefix ``[0, length)`` — the
    building block of the iterative-deepening driver; detection over a
    prefix is exact for that prefix.

    ``first_detect`` (an ``int64`` array aligned with ``faults``, filled
    with ``-1``) optionally receives each detected fault's first
    detection time at chunk-end granularity: the end, in vectors, of the
    chunk in which its faulty waveform first diverged.  Because every
    pass grades from ``t=0`` the times are independent of batch
    composition and schedule — the "actual" axis of the predicted-vs-
    actual rank correlation in ``repro bench --schedule``.

    ``dense_hint`` tells the cone whether this pass grades an all-fresh
    fault population (frontier provably wide: start dense) or deepening
    survivors (start sparse); it never changes a verdict.
    """
    n = len(faults)
    words = -(-n // 64)
    if length is None:
        length = lane_waves.shape[1]
    chunk = min(chunk, length) if length else 1
    net_masks, pin_masks = _line_masks(faults, words)
    cone = EventCone(fused_program(prog), net_masks, pin_masks, words)
    if dense_hint is not None:
        cone.dense_hint = dense_hint
    # The event cone reads golden lazily straight from the full
    # (contiguous) matrix; per-chunk slices stay within [0, length).
    cone.bind_golden(ws, lane_waves, length)

    full = np.full(words, _ALL_ONES, dtype=np.uint64)
    tail = n - 64 * (words - 1)
    if tail < 64:
        full[-1] = np.uint64((1 << tail) - 1)
    lanes_of = np.full(words, 64, dtype=np.int64)
    lanes_of[-1] = tail

    detected = np.zeros(words, dtype=np.uint64)
    active = np.arange(words)
    skipped = dropped = work = 0
    lanes64 = np.arange(64, dtype=np.uint64)
    # Wide passes (the widened first deepening stage) evaluate in fine
    # sub-chunk steps so fully-detected words compact away *within* the
    # canonical chunk: on a short prefix most faults are caught inside
    # the first few dozen vectors, after which the remaining columns
    # run over a handful of words instead of all of them.  Steps never
    # cross a canonical chunk boundary and detection times are rounded
    # up to it, so verdicts and times are independent of the stepping.
    fine = max(32, chunk // 4)
    t0 = 0
    while length and t0 < length:
        bnd = (t0 // chunk + 1) * chunk
        t1 = min(t0 + (fine if active.size >= 16 else chunk), bnd,
                 length)
        work += int(lanes_of[active].sum()) * (t1 - t0)
        hits = cone.evaluate_chunk(ws, t0, t1)
        if first_detect is not None:
            fresh = hits & ~detected[active]
            if fresh.any():
                bits = ((fresh[:, None] >> lanes64[None, :])
                        & np.uint64(1)).astype(bool)
                rows = (active[:, None] * 64
                        + np.arange(64)[None, :])[bits]
                first_detect[rows[rows < n]] = min(bnd, length)
        detected[active] |= hits
        done = detected[active] == full[active]
        if t1 == length:
            break
        if done.any():
            skipped += -(-(length - t1) // chunk) * int(done.sum())
            dropped += int(lanes_of[active[done]].sum())
            if done.all():
                break
            cone.compact(~done)
            active = active[~done]
        t0 = t1
    stats = {
        "cone_nets": cone.cone_nets,
        "chunks_skipped": skipped,
        "faults_dropped": dropped,
        "work": work,
        "frontier_nets": int(cone.frontier_rows),
        "words_skipped": int(cone.words_skipped),
    }
    lanes = np.arange(64, dtype=np.uint64)
    bits = ((detected[:, None] >> lanes[None, :]) & np.uint64(1))
    return bits.astype(bool).ravel()[:n], stats


def _deepening_schedule(length: int, chunk: int,
                        growth: int = 8) -> List[int]:
    """Prefix lengths for iterative-deepening fault grading.

    Detection is monotone in the stimulus prefix — a faulty output that
    differs anywhere in ``[0, T1)`` differs in ``[0, T)`` for any
    ``T >= T1`` — so the easy majority of faults can be finalized on a
    short prefix and only the survivors re-graded (from t=0, no state
    carrying) on geometrically longer ones.  The last stage is always
    the full length, which keeps every verdict bit-exact.
    """
    stages: List[int] = []
    t = max(64, chunk // 4)
    while t < length:
        stages.append(t)
        t *= growth
    stages.append(length)
    return stages


def _emit_batch_stats(tel, n_faults: int, stats: Dict[str, int]) -> None:
    tel.counter("gates.fault_batches").add(1)
    tel.counter("gates.faults_graded").add(n_faults)
    tel.counter("gates.cone_nets").add(stats["cone_nets"])
    tel.counter("gates.lane_vectors").add(stats["work"])
    if stats["chunks_skipped"]:
        tel.counter("gates.chunks_skipped").add(stats["chunks_skipped"])
    if stats["faults_dropped"]:
        tel.counter("gates.faults_dropped").add(stats["faults_dropped"])
    if stats.get("frontier_nets"):
        tel.counter("gates.frontier_nets").add(stats["frontier_nets"])
    if stats.get("words_skipped"):
        tel.counter("gates.words_skipped").add(stats["words_skipped"])


def gate_level_missed(
    nl: GateNetlist,
    input_raw: Sequence[int],
    faults: Sequence[EnumeratedFault],
    progress: Optional[Callable[[int, int], None]] = None,
    *,
    cache=None,
    chunk: Optional[int] = None,
    words: Optional[int] = None,
    scheduler: Optional[Callable[[Sequence[EnumeratedFault], int],
                                 List[List[int]]]] = None,
    on_batch: Optional[Callable[[Dict[str, int]], None]] = None,
    detect_times: Optional[np.ndarray] = None,
    deepening: bool = True,
    engine: Optional[str] = None,
    program: Optional[CompiledNetlist] = None,
    net_waves: Optional[np.ndarray] = None,
) -> List[EnumeratedFault]:
    """Exact gate-level missed-fault list over an arbitrary universe.

    Faults are grouped into cone-local batches
    (:func:`repro.gates.faults.schedule_fault_batches`) of
    ``64 * words`` and graded by the event cone engine; the returned list
    preserves the input fault order, so results are deterministic
    regardless of scheduling.  ``progress`` ticks once per 64 graded
    faults, matching the historical batch granularity.

    Pass an :class:`~repro.cache.ArtifactCache` as ``cache`` to persist
    (and reuse) the compiled program and the golden per-net waveforms,
    keyed on netlist + stimulus content.

    ``scheduler`` swaps the batch-ordering policy: a callable with the
    :func:`~repro.gates.faults.schedule_fault_batches` signature
    (``(faults, batch_size) -> List[List[int]]``, index lists covering
    every fault exactly once).  Verdicts are scattered back by index, so
    any valid schedule yields bit-identical results — the property
    ``repro bench --schedule`` asserts while measuring how much sooner a
    predictor-guided order reaches 90% coverage (see
    :mod:`repro.schedule`).

    ``on_batch`` is invoked after every graded batch with a dict of
    ``faults``/``prefix``/``work``/``dropped``/``detected``/
    ``finalized`` — ``work`` being the exact active-lane × vector
    products evaluated, the schedule benchmark's work unit.

    ``detect_times`` (an ``int64`` array aligned with ``faults``, filled
    with ``-1``) receives each detected fault's first detection time at
    chunk-end granularity; undetected faults keep ``-1``.

    ``deepening=False`` grades every batch at the full stimulus length
    in one stage (per-word dropping still compacts within each batch).
    The schedule benchmark uses this to isolate batch *ordering* as the
    only easy-first mechanism; production callers should leave
    deepening on.

    ``engine`` selects the evaluator tier (:data:`ENGINES`, default
    :data:`DEFAULT_ENGINE`).  ``"reference"`` delegates to
    :func:`gate_level_missed_reference` (verdict-identical, but it
    predates the hooks above and rejects them).

    ``program``/``net_waves`` accept a pre-compiled program and a
    pre-simulated golden per-net waveform matrix, skipping the
    corresponding pipeline stages here.  ``repro bench --gates`` uses
    this to time the compile/golden/grade phases separately.
    """
    tel = get_telemetry()
    engine = resolve_engine(engine)
    if engine == "reference":
        if (scheduler is not None or on_batch is not None
                or detect_times is not None or program is not None
                or net_waves is not None):
            raise SimulationError(
                "engine='reference' supports none of scheduler=/"
                "on_batch=/detect_times=/program=/net_waves=")
        return gate_level_missed_reference(nl, input_raw, faults,
                                           progress)
    plan_batches = (schedule_fault_batches if scheduler is None
                    else scheduler)
    raw = np.asarray(input_raw, dtype=np.int64)
    auto_words = words is None
    n_words = DEFAULT_WORDS if words is None else max(1, int(words))
    with tel.span("gates.fault_parallel", faults=len(faults),
                  vectors=len(raw)) as span:
        from ..cache.pipeline import cached_gate_program, cached_net_waves

        prog = (program if program is not None
                else cached_gate_program(cache, nl,
                                         lambda: compiled_program(nl)))
        if net_waves is None:
            net_waves = cached_net_waves(
                cache, nl, raw,
                lambda: golden_net_waves(
                    prog, pack_input_bits(raw, len(nl.input_bits))))

        lane_waves = expand_lane_waves(net_waves)
        if tel.enabled:
            tel.counter("gates.lut_fused_levels").add(
                fused_program(prog).stats["levels_fused"])
        chunk_len = DEFAULT_CHUNK if chunk is None else max(1, int(chunk))
        chunk_len = min(chunk_len, max(len(raw), 1))
        ws = ConeWorkspace()
        n_faults = len(faults)
        verdicts = np.zeros(n_faults, dtype=bool)
        # Iterative deepening: every fault is graded on a short stimulus
        # prefix first; detected faults are final (detection is monotone
        # in the prefix), survivors are repacked into fresh dense
        # batches and re-graded on geometrically longer prefixes, the
        # last being the full sequence — so the hard tail of each batch
        # never drags a full-length cone evaluation along with it.
        remaining = np.arange(n_faults)
        finalized = emitted = dropped = 0
        stages = (_deepening_schedule(len(raw), chunk_len) if deepening
                  else [len(raw)])
        for stage_len in stages:
            final = stage_len == len(raw)
            stage_words = (STAGE1_WORDS
                           if auto_words and stage_len == stages[0]
                           else n_words)
            subset = [faults[i] for i in remaining]
            for batch in plan_batches(subset, 64 * stage_words):
                idx = remaining[np.asarray(batch, dtype=np.int64)]
                first_detect = (np.full(len(batch), -1, dtype=np.int64)
                                if detect_times is not None else None)
                with tel.span("gates.fault_batch", faults=len(batch),
                              prefix=stage_len):
                    batch_verdicts, stats = _grade_cone_batch(
                        prog, lane_waves,
                        [faults[i].netlist_fault for i in idx],
                        chunk_len, ws, length=stage_len,
                        first_detect=first_detect, dense_hint=True)
                verdicts[idx] = batch_verdicts
                if first_detect is not None:
                    hit = first_detect >= 0
                    detect_times[idx[hit]] = first_detect[hit]
                dropped += stats["faults_dropped"]
                if tel.enabled:
                    _emit_batch_stats(tel, len(batch), stats)
                finalized += (len(batch) if final
                              else int(batch_verdicts.sum()))
                if on_batch is not None:
                    on_batch({
                        "faults": len(batch),
                        "prefix": stage_len,
                        "work": stats["work"],
                        "dropped": stats["faults_dropped"],
                        "detected": int(verdicts.sum()),
                        "finalized": finalized,
                    })
                if tel.enabled:
                    tel.progress(
                        "gates.grade", finalized, n_faults,
                        detected=int(verdicts.sum()),
                        coverage=float(verdicts.sum()) / max(1, n_faults),
                        dropped=dropped, prefix=stage_len)
                while progress is not None and (emitted + 1) * 64 <= finalized:
                    emitted += 1
                    progress(emitted * 64, n_faults)
            if final:
                break
            remaining = remaining[~verdicts[remaining]]
            if not remaining.size:
                break
        if progress is not None and emitted * 64 < n_faults:
            progress(n_faults, n_faults)
        missed = [f for f, hit in zip(faults, verdicts) if not hit]
    if tel.enabled and span.duration > 0:
        tel.gauge("gates.faults_per_sec").set(len(faults) / span.duration)
    return missed


# ----------------------------------------------------------------------
# Reference engine (pre-optimization): whole netlist, whole time axis
# ----------------------------------------------------------------------
def fault_parallel_reference(
    nl: GateNetlist,
    input_raw: Sequence[int],
    faults: Sequence[NetlistFault],
    golden: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The straightforward fault-parallel pass: every net, every vector.

    Kept as the bit-exactness oracle for the cone-restricted engine (the
    randomized equivalence suite asserts verdict-for-verdict identity)
    and as the baseline ``repro bench --gates`` measures speedup against.
    """
    if len(faults) > 64:
        raise SimulationError("at most 64 faults per batch")
    raw = np.asarray(input_raw, dtype=np.int64)
    length = len(raw)
    word_net_masks, word_pin_masks = _line_masks(faults)
    net_masks = {net: (np.uint64(s[0]), np.uint64(c[0]))
                 for net, (s, c) in word_net_masks.items()}
    pin_masks = {key: (np.uint64(s[0]), np.uint64(c[0]))
                 for key, (s, c) in word_pin_masks.items()}

    # Reference-count nets so waveforms are freed after their last reader.
    reads: Dict[int, int] = {}
    for gate in nl.gates:
        for net in gate.ins:
            reads[net] = reads.get(net, 0) + 1
    for dff in nl.dffs:
        reads[dff.d] = reads.get(dff.d, 0) + 1
    for net in nl.output_bits:
        reads[net] = reads.get(net, 0) + 1

    values: Dict[int, np.ndarray] = {}

    def write(net: int, wave: np.ndarray) -> None:
        if net in net_masks:
            s, c = net_masks[net]
            wave = (wave | s) & ~c
        values[net] = wave

    def read(net: int) -> np.ndarray:
        wave = values[net]
        reads[net] -= 1
        if reads[net] == 0:
            del values[net]
        return wave

    zero = np.zeros(length, dtype=np.uint64)
    ones = np.full(length, _ALL_ONES, dtype=np.uint64)
    write(nl.CONST0, zero)
    write(nl.CONST1, ones)
    for j, net in enumerate(nl.input_bits):
        bits = ((raw >> j) & 1).astype(bool)
        write(net, np.where(bits, _ALL_ONES, np.uint64(0)))

    # Constants and inputs may have zero registered reads (unused nets);
    # guard the refcount so `read` is never called on them implicitly.
    for elem_kind, idx in nl.elements:
        if elem_kind == "gate":
            gate = nl.gates[idx]
            ins = []
            for pin, net in enumerate(gate.ins):
                wave = read(net)
                key = (idx, pin)
                if key in pin_masks:
                    s, c = pin_masks[key]
                    wave = (wave | s) & ~c
                ins.append(wave)
            if gate.kind == "xor":
                out = ins[0] ^ ins[1]
            elif gate.kind == "and":
                out = ins[0] & ins[1]
            elif gate.kind == "or":
                out = ins[0] | ins[1]
            elif gate.kind == "not":
                out = ~ins[0]
            elif gate.kind == "buf":
                out = ins[0]
            else:  # pragma: no cover - elaboration only emits these kinds
                raise SimulationError(f"unknown gate kind {gate.kind!r}")
            write(gate.out, out)
        else:
            dff = nl.dffs[idx]
            d = read(dff.d)
            q = np.empty_like(d)
            q[0] = 0
            q[1:] = d[:-1]
            write(dff.q, q)

    # Compare each copy's outputs against the fault-free machine.
    if golden is None:
        from .gatesim import simulate_netlist

        golden = simulate_netlist(nl, raw)["output"]
    detected = np.uint64(0)
    for j, net in enumerate(nl.output_bits):
        good = ((golden >> j) & 1).astype(bool)
        good_wave = np.where(good, _ALL_ONES, np.uint64(0))
        detected |= np.bitwise_or.reduce(read(net) ^ good_wave)
    # Unpack the detected word: bit j of `detected` is copy j's verdict.
    lanes = np.arange(len(faults), dtype=np.uint64)
    return ((detected >> lanes) & np.uint64(1)).astype(bool)


def gate_level_missed_reference(
    nl: GateNetlist,
    input_raw: Sequence[int],
    faults: Sequence[EnumeratedFault],
    progress: Optional[Callable[[int, int], None]] = None,
) -> List[EnumeratedFault]:
    """Pre-optimization missed-fault list: plain 64-fault slices.

    Grades the whole netlist over the whole time axis per batch; the
    equivalence oracle and benchmark baseline for
    :func:`gate_level_missed`.
    """
    from .gatesim import simulate_netlist

    golden = simulate_netlist(nl, input_raw)["output"]
    missed: List[EnumeratedFault] = []
    for start in range(0, len(faults), 64):
        batch = faults[start:start + 64]
        verdicts = fault_parallel_reference(
            nl, input_raw, [f.netlist_fault for f in batch], golden=golden)
        for fault, hit in zip(batch, verdicts):
            if not hit:
                missed.append(fault)
        if progress is not None:
            progress(min(start + 64, len(faults)), len(faults))
    return missed
