"""Vectorized gate-level simulation with stuck-at fault injection.

Because the elaborated netlists are feed-forward (FIR datapaths), every
net can be evaluated over the whole time axis at once: a D flip-flop is a
one-sample shift of its input waveform.  Evaluation runs the netlist's
**compiled levelized program** (:mod:`repro.gates.compiled`): per level,
each gate kind's input waveforms are gathered with fancy indexing into a
nets x time boolean matrix and combined with one numpy op — replacing the
historical per-gate Python loop.

This engine is the reproduction's ground truth: slower than the
cell-level coverage engine in :mod:`repro.faultsim.engine`, but it models
fault effect *propagation* exactly, including masking and overflow
wrap-around, so the two are cross-validated against each other in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..fixedpoint import wrap
from ..telemetry import get_telemetry
from .netlist import GateNetlist

__all__ = ["NetlistFault", "pack_input_bits", "bits_to_raw", "simulate_netlist",
           "netlist_fault_detected"]


@dataclass(frozen=True)
class NetlistFault:
    """A stuck-at fault on one or more netlist lines.

    ``lines`` is either ``("net", net_id)`` — the driver of a net stuck,
    visible to every reader — or ``("pins", ((gate, pin), ...))`` — the
    wire segments into specific gate pins stuck, as for a fanout-branch
    or cell-input-stem fault.
    """

    lines: Tuple[str, object]
    value: int
    label: str = ""


def pack_input_bits(raw: Sequence[int], width: int) -> np.ndarray:
    """Two's-complement raw samples -> boolean matrix of shape (width, T)."""
    arr = np.asarray(raw, dtype=np.int64)
    ks = np.arange(width).reshape(-1, 1)
    return ((arr[None, :] >> ks) & 1).astype(bool)


def bits_to_raw(bits: np.ndarray) -> np.ndarray:
    """Boolean (width, T) matrix -> signed raw samples (MSB is sign)."""
    width = bits.shape[0]
    weights = np.array([1 << k for k in range(width)], dtype=np.int64)
    unsigned = (bits.astype(np.int64).T * weights).sum(axis=1)
    return wrap(unsigned, width)


def simulate_netlist(
    nl: GateNetlist,
    input_raw: Sequence[int],
    fault: Optional[NetlistFault] = None,
    observe_nets: Optional[Iterable[int]] = None,
) -> Dict[str, object]:
    """Simulate the netlist over ``input_raw`` samples.

    Returns a dict with ``"output"`` (signed raw output samples) and, when
    ``observe_nets`` is given, ``"nets"`` mapping net id to its waveform.
    """
    raw = np.asarray(input_raw, dtype=np.int64)
    length = len(raw)
    tel = get_telemetry()
    with tel.span("gates.simulate_netlist", gates=len(nl.gates),
                  dffs=len(nl.dffs), vectors=length,
                  faulty=fault is not None) as span:
        result = _simulate_netlist_body(nl, raw, length, fault, observe_nets)
    if tel.enabled:
        evals = len(nl.gates) * length
        tel.counter("gates.simulations").add(1)
        tel.counter("gates.gate_evals").add(evals)
        if span.duration > 0:
            tel.gauge("gates.gate_evals_per_sec").set(evals / span.duration)
    return result


def fault_lines(fault: Optional[NetlistFault]
                ) -> Tuple[Optional[int], Dict[int, List[int]], bool]:
    """Split a fault into (stuck_net, {gate: pins}, stuck_value)."""
    if fault is None:
        return None, {}, False
    stuck_value = bool(fault.value)
    kind, payload = fault.lines
    if kind == "net":
        return int(payload), {}, stuck_value  # type: ignore[arg-type]
    if kind == "pins":
        stuck_pins: Dict[int, List[int]] = {}
        for gate, pin in payload:  # type: ignore[union-attr]
            stuck_pins.setdefault(int(gate), []).append(int(pin))
        return None, stuck_pins, stuck_value
    raise SimulationError(f"unknown fault line kind {kind!r}")


def _simulate_netlist_body(
    nl: GateNetlist,
    raw: np.ndarray,
    length: int,
    fault: Optional[NetlistFault],
    observe_nets: Optional[Iterable[int]],
) -> Dict[str, object]:
    from .compiled import compiled_program, simulate_waves

    prog = compiled_program(nl)
    in_bits = pack_input_bits(raw, len(nl.input_bits))
    stuck_net, stuck_pins, stuck_value = fault_lines(fault)
    values = simulate_waves(prog, in_bits, stuck_net=stuck_net,
                            stuck_pins=stuck_pins, stuck_value=stuck_value)
    result: Dict[str, object] = {
        "output": bits_to_raw(values[prog.output_bits])}
    if observe_nets is not None:
        result["nets"] = {n: values[n] for n in observe_nets}
    return result


def netlist_fault_detected(
    nl: GateNetlist,
    input_raw: Sequence[int],
    fault: NetlistFault,
    golden: Optional[np.ndarray] = None,
) -> bool:
    """True when the faulty output sequence differs from the fault-free one.

    This is the paper's detection criterion with an alias-free response
    analyzer: any output difference over the test session is caught.
    """
    if golden is None:
        golden = simulate_netlist(nl, input_raw)["output"]
    faulty = simulate_netlist(nl, input_raw, fault=fault)["output"]
    return bool(np.any(faulty != golden))
