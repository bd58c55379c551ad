"""Bit-accurate vectorized simulation of filter datapaths.

The simulator evaluates each node over the *entire* time axis at once
(possible because the supported graphs are non-recursive), so a 4k-vector
BIST run over a ~600-node design is a few hundred numpy operations.

Three capabilities matter to the reproduction:

* plain fault-free simulation (waveforms, signatures, statistics);
* an ``adder_hook`` callback giving every ripple-carry operator's aligned
  operand words — the fast fault-coverage engine derives full-adder input
  patterns from these;
* single-fault injection: one full-adder cell of one operator is replaced
  by a faulty behaviour table, and the operator is re-evaluated ripple by
  ripple.  This is how Figure 2's "serious missed fault" experiment runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Sequence

import numpy as np

from ..errors import SimulationError
from ..telemetry import get_telemetry
from .graph import Graph
from .nodes import Node, OpKind

__all__ = ["InjectedFault", "SimResult", "simulate", "node_waveform"]

#: Signature of the per-operator callback: (node, primary_raw, secondary_raw).
#: Operands are aligned to the node's binary point but NOT inverted for
#: subtractors; the callee applies the cell-level view it needs.
AdderHook = Callable[[Node, np.ndarray, np.ndarray], None]


@dataclass(frozen=True)
class InjectedFault:
    """A faulty full-adder cell.

    ``sum_lut`` and ``cout_lut`` are length-8 uint8 arrays giving the
    faulty cell's outputs for each input code ``(a << 2) | (b << 1) | c``,
    where ``a``/``b``/``c`` are the bits physically present on the cell
    (for a subtractor, ``b`` is the already-inverted secondary bit).
    """

    node_id: int
    bit: int
    sum_lut: np.ndarray
    cout_lut: np.ndarray
    label: str = ""


@dataclass
class SimResult:
    """Raw waveforms of the nodes retained by a simulation run."""

    graph: Graph
    length: int
    values: Dict[int, np.ndarray]

    def raw(self, nid: int) -> np.ndarray:
        """Raw integer waveform of node ``nid`` (must have been retained)."""
        if nid not in self.values:
            raise SimulationError(
                f"node {nid} was not retained; pass it in keep_nodes"
            )
        return self.values[nid]

    def engineering(self, nid: int) -> np.ndarray:
        """Waveform in engineering units."""
        return self.graph.node(nid).fmt.to_float(self.raw(nid))

    def normalized(self, nid: int) -> np.ndarray:
        """Waveform normalized to [-1, 1) — the paper's convention."""
        return self.graph.node(nid).fmt.normalize(self.raw(nid))

    @property
    def output(self) -> np.ndarray:
        """Normalized output waveform."""
        return self.normalized(self.graph.output_id)


def _align(raw: np.ndarray, src_fmt, dst_fmt) -> np.ndarray:
    """Re-express ``raw`` at ``dst_fmt``'s binary point (exact: fracs match)."""
    if src_fmt.frac != dst_fmt.frac:
        raise SimulationError(
            f"operand binary points differ ({src_fmt} vs {dst_fmt}); the "
            "builder should have inserted a SHIFT"
        )
    return raw


def _eval_shift(raw: np.ndarray, node: Node, src: Node) -> np.ndarray:
    e = node.fmt.frac - src.fmt.frac - node.shift
    if e >= 0:
        shifted = raw << e
    else:
        shifted = raw >> -e  # arithmetic shift: floor, like hardware truncation
    return node.fmt.wrap(shifted)


def _eval_faulty_adder(
    a: np.ndarray, b: np.ndarray, node: Node, fault: InjectedFault
) -> np.ndarray:
    """Ripple-by-ripple evaluation with one faulty cell."""
    width = node.fmt.width
    if not 0 <= fault.bit < width:
        raise SimulationError(
            f"fault bit {fault.bit} outside {width}-bit operator {node.nid}"
        )
    invert_b = node.kind is OpKind.SUB
    bb = ~b if invert_b else b
    carry = np.full(a.shape, 1 if invert_b else 0, dtype=np.int64)
    total = np.zeros_like(a)
    sum_lut = fault.sum_lut.astype(np.int64)
    cout_lut = fault.cout_lut.astype(np.int64)
    for k in range(width):
        ak = (a >> k) & 1
        bk = (bb >> k) & 1
        if k == fault.bit:
            code = (ak << 2) | (bk << 1) | carry
            s = sum_lut[code]
            carry = cout_lut[code]
        else:
            s = ak ^ bk ^ carry
            carry = (ak & bk) | (carry & (ak ^ bk))
        total = total | (s << k)
    # Interpret the width-bit pattern as two's complement.
    return node.fmt.wrap(total)


def simulate(
    graph: Graph,
    input_raw: Sequence[int],
    keep_nodes: Optional[Iterable[int]] = None,
    adder_hook: Optional[AdderHook] = None,
    fault: Optional[InjectedFault] = None,
) -> SimResult:
    """Run the datapath over ``input_raw`` (raw integers, input format).

    Parameters
    ----------
    keep_nodes:
        Node ids whose waveforms should be retained in the result.  The
        output node is always retained.  Everything else is freed as soon
        as its last consumer has been evaluated, keeping memory linear in
        the retained set rather than the graph size.
    adder_hook:
        Called for every ADD/SUB node with the aligned operand words.
    fault:
        Optional single injected full-adder fault.
    """
    order, remaining = graph.schedule()
    input_node = graph.input_node
    raw = np.asarray(input_raw, dtype=np.int64)
    if raw.ndim != 1:
        raise SimulationError("input must be a 1-D sequence of raw integers")
    if not input_node.fmt.contains(raw):
        raise SimulationError("input samples exceed the input format range")
    length = len(raw)

    keep = set(keep_nodes or ())
    keep.add(graph.output_id)
    live: Dict[int, np.ndarray] = {}
    kept: Dict[int, np.ndarray] = {}

    def retire(nid: int) -> None:
        remaining[nid] -= 1
        if remaining[nid] <= 0 and nid not in keep:
            live.pop(nid, None)

    tel = get_telemetry()
    timed = tel.enabled
    kind_seconds: Dict[OpKind, float] = {}
    hook_seconds = 0.0
    with tel.span("rtl.simulate", nodes=len(order), vectors=length):
        for nid in order:
            if timed:
                t0 = time.perf_counter()
            node = graph.node(nid)
            if node.kind is OpKind.INPUT:
                value = raw
            elif node.kind is OpKind.CONST:
                value = np.zeros(length, dtype=np.int64)
            elif node.kind is OpKind.DELAY:
                src = live[node.srcs[0]]
                value = np.empty_like(src)
                value[0] = 0
                value[1:] = src[:-1]
                retire(node.srcs[0])
            elif node.kind is OpKind.SHIFT:
                value = _eval_shift(live[node.srcs[0]], node, graph.node(node.srcs[0]))
                retire(node.srcs[0])
            elif node.kind in (OpKind.ADD, OpKind.SUB):
                a = _align(live[node.srcs[0]], graph.node(node.srcs[0]).fmt, node.fmt)
                b = _align(live[node.srcs[1]], graph.node(node.srcs[1]).fmt, node.fmt)
                if adder_hook is not None:
                    t_hook = time.perf_counter() if timed else 0.0
                    adder_hook(node, a, b)
                    if timed:
                        t_hook = time.perf_counter() - t_hook
                        hook_seconds += t_hook
                        t0 += t_hook  # the kind's seconds exclude the hook
                if fault is not None and fault.node_id == nid:
                    value = _eval_faulty_adder(a, b, node, fault)
                elif node.kind is OpKind.ADD:
                    value = node.fmt.wrap(a + b)
                else:
                    value = node.fmt.wrap(a - b)
                retire(node.srcs[0])
                retire(node.srcs[1])
            elif node.kind is OpKind.OUTPUT:
                value = live[node.srcs[0]]
                retire(node.srcs[0])
            else:  # pragma: no cover - exhaustive over OpKind
                raise SimulationError(f"unhandled node kind {node.kind}")
            live[nid] = value
            if nid in keep:
                kept[nid] = value
            if timed:
                kind = node.kind
                kind_seconds[kind] = (kind_seconds.get(kind, 0.0)
                                      + time.perf_counter() - t0)
    if timed:
        tel.counter("rtl.simulations").add(1)
        tel.counter("rtl.node_evals").add(len(order))
        tel.counter("rtl.node_cycles").add(len(order) * length)
        for kind, seconds in kind_seconds.items():
            tel.counter(f"rtl.kind.{kind.name.lower()}.seconds").add(seconds)
        if adder_hook is not None:
            tel.counter("rtl.adder_hook.seconds").add(hook_seconds)
    return SimResult(graph=graph, length=length, values=kept)


def node_waveform(graph: Graph, input_raw: Sequence[int], nid: int,
                  fault: Optional[InjectedFault] = None) -> np.ndarray:
    """Normalized waveform of one node — convenience for the figures."""
    result = simulate(graph, input_raw, keep_nodes=[nid], fault=fault)
    return result.normalized(nid)
