"""Dataflow graph container for filter datapaths.

The graph is a DAG over :class:`~repro.rtl.nodes.Node` objects.  Because
the filters reproduced here are non-recursive (FIR), *no* cycles are
permitted, not even through registers; this lets the simulator evaluate
each node over the whole time axis at once with vectorized numpy.

A graph remembers its topological order, consumer lists and a passed
validation under a structural fingerprint of its nodes, so simulating
an unchanged design again skips Kahn's algorithm and the format checks.
Any change to a node's kind, sources, format or shift, or to the node
list or ports, changes the fingerprint and forces a full recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import DesignError
from ..fixedpoint import Fixed
from .nodes import Node, OpKind

__all__ = ["Graph"]

_SRC_ARITY = {
    OpKind.INPUT: 0,
    OpKind.CONST: 0,
    OpKind.DELAY: 1,
    OpKind.SHIFT: 1,
    OpKind.ADD: 2,
    OpKind.SUB: 2,
    OpKind.OUTPUT: 1,
}

#: The node attributes that order and validity depend on.
_STRUCTURE = attrgetter("kind", "srcs", "fmt", "shift")


@dataclass
class Graph:
    """A filter datapath as a DAG of RTL nodes."""

    name: str = "design"
    nodes: List[Node] = field(default_factory=list)
    input_id: Optional[int] = None
    output_id: Optional[int] = None
    # Derived state, valid while ``_memo_key`` matches; see :meth:`_refresh`.
    _memo_key: Optional[tuple] = field(default=None, init=False,
                                       repr=False, compare=False)
    _order: Optional[List[int]] = field(default=None, init=False,
                                        repr=False, compare=False)
    _consumers: Optional[List[List[int]]] = field(
        default=None, init=False, repr=False, compare=False)
    _valid: bool = field(default=False, init=False, repr=False,
                         compare=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(
        self,
        kind: OpKind,
        srcs: Tuple[int, ...] = (),
        fmt: Optional[Fixed] = None,
        shift: int = 0,
        role: str = "",
        tap: Optional[int] = None,
        name: str = "",
    ) -> Node:
        """Append a node and return it; records input/output ports."""
        if len(srcs) != _SRC_ARITY[kind]:
            raise DesignError(
                f"{kind.value} takes {_SRC_ARITY[kind]} sources, got {len(srcs)}"
            )
        for s in srcs:
            if not 0 <= s < len(self.nodes):
                raise DesignError(f"source id {s} does not exist yet")
        node = Node(
            nid=len(self.nodes), kind=kind, srcs=tuple(srcs), fmt=fmt,
            shift=shift, role=role, tap=tap, name=name,
        )
        self.nodes.append(node)
        if kind is OpKind.INPUT:
            if self.input_id is not None:
                raise DesignError("graph already has an input")
            self.input_id = node.nid
        if kind is OpKind.OUTPUT:
            if self.output_id is not None:
                raise DesignError("graph already has an output")
            self.output_id = node.nid
        return node

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node(self, nid: int) -> Node:
        """Node by id."""
        return self.nodes[nid]

    @property
    def input_node(self) -> Node:
        if self.input_id is None:
            raise DesignError("graph has no input node")
        return self.nodes[self.input_id]

    @property
    def output_node(self) -> Node:
        if self.output_id is None:
            raise DesignError("graph has no output node")
        return self.nodes[self.output_id]

    @property
    def arithmetic_nodes(self) -> List[Node]:
        """All adders and subtractors, in id order."""
        return [n for n in self.nodes if n.is_arithmetic]

    @property
    def register_count(self) -> int:
        """Number of DELAY elements."""
        return sum(1 for n in self.nodes if n.kind is OpKind.DELAY)

    def _refresh(self) -> None:
        """Forget the derived order, consumers and validity if any node
        or port changed since they were derived."""
        key = (self.input_id, self.output_id,
               tuple(map(_STRUCTURE, self.nodes)))
        if key != self._memo_key:
            self._memo_key = key
            self._order = self._consumers = None
            self._valid = False

    # The two below read the memo as is: public callers _refresh() first.
    def _consumer_lists(self) -> List[List[int]]:
        out = self._consumers
        if out is None:
            out = [[] for _ in self.nodes]
            for n in self.nodes:
                for s in n.srcs:
                    out[s].append(n.nid)
            self._consumers = out
        return out

    def _kahn_order(self) -> List[int]:
        order = self._order
        if order is None:
            consumers = self._consumer_lists()
            indeg = [len(n.srcs) for n in self.nodes]
            ready = [n.nid for n in self.nodes if indeg[n.nid] == 0]
            order = []
            while ready:
                nid = ready.pop()
                order.append(nid)
                for c in consumers[nid]:
                    indeg[c] -= 1
                    if indeg[c] == 0:
                        ready.append(c)
            if len(order) != len(self.nodes):
                raise DesignError(
                    "graph contains a cycle; only non-recursive (FIR) "
                    "datapaths are supported"
                )
            self._order = order
        return order

    def consumers(self) -> List[List[int]]:
        """For each node id, the ids of nodes that read it."""
        self._refresh()
        return [list(c) for c in self._consumer_lists()]

    def topological_order(self) -> List[int]:
        """Kahn topological order; raises on cycles.

        Nodes are appended in construction order by the builders, which is
        already topological, but validation must not rely on that.
        """
        self._refresh()
        return list(self._kahn_order())

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural and format consistency; raises DesignError.

        A pass is remembered until the graph changes.
        """
        self._refresh()
        if self._valid:
            return
        if self.input_id is None or self.output_id is None:
            raise DesignError("graph needs exactly one input and one output")
        self._kahn_order()
        for n in self.nodes:
            if n.fmt is None:
                raise DesignError(f"node {n} has no format assigned")
            if n.kind is OpKind.DELAY:
                src = self.nodes[n.srcs[0]]
                if src.fmt != n.fmt:
                    raise DesignError(
                        f"register {n} must match source format {src.fmt}"
                    )
            if n.is_arithmetic:
                a, b = (self.nodes[s] for s in n.srcs)
                if a.fmt.frac != n.fmt.frac or b.fmt.frac != n.fmt.frac:
                    raise DesignError(
                        f"operands of {n} must share its binary point "
                        f"({a.fmt}, {b.fmt} vs {n.fmt})"
                    )
                # NOTE: an operand may be *wider* than the result.  When
                # range analysis proves the outcome fits fewer bits (e.g.
                # a CSD partial like x>>1 - x>>4), the upper cells are
                # redundant sign logic and are simply not instantiated —
                # the "redundant operator elimination" of the paper's
                # refs [2,3].  Evaluation wraps to the result width, which
                # is exact because the true value provably fits.
                if n.fmt.width < 2:
                    raise DesignError(f"adder {n} must be at least 2 bits wide")
            if n.kind is OpKind.OUTPUT:
                src = self.nodes[n.srcs[0]]
                if src.fmt != n.fmt:
                    raise DesignError("output port must match source format")
        self._valid = True

    def schedule(self) -> Tuple[List[int], List[int]]:
        """Validate, then return the topological order and each node's
        fan-out (how many nodes read it): what an evaluator needs."""
        self.validate()
        return (list(self._kahn_order()),
                [len(c) for c in self._consumer_lists()])

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Operator census used by the Table 1 reproduction."""
        counts: Dict[str, int] = {}
        for n in self.nodes:
            counts[n.kind.value] = counts.get(n.kind.value, 0) + 1
        counts["arithmetic"] = counts.get("add", 0) + counts.get("sub", 0)
        return counts

    def describe(self) -> str:
        """Multi-line human-readable dump."""
        lines = [f"graph {self.name}: {len(self.nodes)} nodes"]
        lines.extend(f"  {n}" for n in self.nodes)
        return "\n".join(lines)

    def __iter__(self) -> Iterable[Node]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)
