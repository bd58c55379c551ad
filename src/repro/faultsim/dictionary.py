"""Design-wide fault universe assembly.

Places the collapsed cell fault classes of
:mod:`repro.gates.cells` at every bit of every adder/subtractor in a
datapath and packs the result into flat numpy columns for the coverage
engine: one row per *cell* (an operator bit position) and one entry per
*fault* (a collapsed class at a cell).  :class:`DesignFault` objects are
built from the columns only when a caller asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import FaultModelError
from ..gates.cells import CellFault, variant_for_bit
from ..rtl.graph import Graph
from ..rtl.nodes import OpKind

__all__ = ["DesignFault", "FaultUniverse", "build_fault_universe",
           "build_universe_from_cells"]


@dataclass(frozen=True)
class DesignFault:
    """One collapsed fault class at a concrete (operator, bit) location.

    ``effective_mask`` is the detecting-pattern mask restricted to codes
    that are structurally feasible at this cell (see
    :mod:`repro.faultsim.feasibility`); it equals ``detect_mask`` when no
    pruning information was supplied.
    """

    index: int
    node_id: int
    bit: int
    cell_fault: CellFault
    effective_mask: int = 0

    @property
    def label(self) -> str:
        return f"node{self.node_id}.bit{self.bit}.{self.cell_fault.name}"


@dataclass
class FaultUniverse:
    """The complete single-stuck-at universe of a datapath's operators.

    Attributes
    ----------
    cells:
        ``(node_id, bit)`` per cell row, in a fixed order shared with the
        pattern tracker; ``cell_index`` maps each back to its row.
    cell_faults:
        Per cell row, the collapsed fault classes of its cell variant.
    fault_cell:
        For each fault, the row index of its cell.
    fault_slot:
        For each fault, its position in ``cell_faults[fault_cell]``.
    fault_mask:
        For each fault, the 8-bit detecting-pattern mask.
    """

    design_name: str
    cells: List[Tuple[int, int]]
    cell_faults: List[Tuple[CellFault, ...]]
    fault_cell: np.ndarray
    fault_slot: np.ndarray
    fault_mask: np.ndarray
    uncollapsed_count: int
    #: Fault classes removed as structurally untestable (pruning on).
    untestable_count: int = 0
    cell_index: Dict[Tuple[int, int], int] = field(init=False, repr=False)
    _faults: Optional[List[DesignFault]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.cell_index = {cb: row for row, cb in enumerate(self.cells)}

    @property
    def fault_count(self) -> int:
        """Number of collapsed fault classes (the headline fault count)."""
        return len(self.fault_cell)

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    def fault(self, i: int) -> DesignFault:
        """The ``i``-th fault as an object, built from the columns."""
        i = range(self.fault_count)[i]
        row = int(self.fault_cell[i])
        node_id, bit = self.cells[row]
        return DesignFault(
            index=i, node_id=node_id, bit=bit,
            cell_fault=self.cell_faults[row][int(self.fault_slot[i])],
            effective_mask=int(self.fault_mask[i]))

    @property
    def faults(self) -> List[DesignFault]:
        """Every fault as an object; built on first access, then kept."""
        if self._faults is None:
            self._faults = [self.fault(i) for i in range(self.fault_count)]
        return self._faults

    def faults_at(self, node_id: int, bit: int) -> List[DesignFault]:
        """All fault classes of one cell."""
        if (node_id, bit) not in self.cell_index:
            raise FaultModelError(f"no cell at node {node_id} bit {bit}")
        row = self.cell_index[(node_id, bit)]
        return [self.fault(int(i))
                for i in np.flatnonzero(self.fault_cell == row)]

    def cell_fault_column(self, key: Callable[[CellFault], int]
                          ) -> np.ndarray:
        """Per fault, ``key`` of its cell fault class (as ``int64``)."""
        table, offset = _variant_table(self.cell_faults, key)
        return table[offset[self.fault_cell] + self.fault_slot]


def _variant_table(cell_faults: List[Tuple[CellFault, ...]],
                   key: Callable[[CellFault], int]
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """``key`` of every class of each distinct cell variant, flat, and
    per cell row the offset of its variant's run in that table.

    ``key`` runs once per class of a variant, not once per fault.
    """
    start: Dict[int, int] = {}
    flat: List[int] = []
    offset = np.empty(len(cell_faults), dtype=np.int64)
    for row, faults in enumerate(cell_faults):
        if id(faults) not in start:
            start[id(faults)] = len(flat)
            flat.extend(key(cf) for cf in faults)
        offset[row] = start[id(faults)]
    return np.array(flat, dtype=np.int64), offset


def build_universe_from_cells(cell_specs, name: str) -> FaultUniverse:
    """Assemble a universe from explicit cell descriptions.

    ``cell_specs`` is an iterable of ``(node_id, bit, variant,
    feasible_mask)`` where ``variant`` is a
    :class:`~repro.gates.cells.CellVariant`.  Cells of one ``node_id``
    must be supplied contiguously starting at bit 0 (the pattern tracker
    relies on that layout).  A fault class none of whose detecting
    patterns is feasible at its cell is left out as untestable.  Used by
    :func:`build_fault_universe` and by non-graph operator styles such
    as the carry-save accumulation chain.
    """
    cells: List[Tuple[int, int]] = []
    cell_faults: List[Tuple[CellFault, ...]] = []
    feasible: List[int] = []
    uncollapsed = 0
    for node_id, bit, variant, cell_feasible in cell_specs:
        cells.append((node_id, bit))
        cell_faults.append(variant.faults)
        feasible.append(cell_feasible)
        uncollapsed += variant.uncollapsed_count
    # Every class of every cell, then drop the untestable ones.
    n_slots = np.array([len(fs) for fs in cell_faults], dtype=np.int64)
    all_cell = np.repeat(np.arange(len(cells), dtype=np.int64), n_slots)
    all_slot = (np.arange(len(all_cell), dtype=np.int64)
                - np.repeat(np.cumsum(n_slots) - n_slots, n_slots))
    detect, offset = _variant_table(cell_faults, lambda cf: cf.detect_mask)
    effective = (detect[offset[all_cell] + all_slot].astype(np.uint8)
                 & np.array(feasible, dtype=np.uint8)[all_cell])
    keep = effective != 0
    return FaultUniverse(
        design_name=name,
        cells=cells,
        cell_faults=cell_faults,
        fault_cell=all_cell[keep],
        fault_slot=all_slot[keep],
        fault_mask=effective[keep],
        uncollapsed_count=uncollapsed,
        untestable_count=int(len(keep) - np.count_nonzero(keep)),
    )


def build_fault_universe(
    graph: Graph, name: str = "", prune_untestable: bool = True
) -> FaultUniverse:
    """Enumerate the collapsed adder/subtractor fault universe of a graph.

    With ``prune_untestable`` (default), fault classes whose detecting
    patterns are structurally infeasible at their cell are excluded —
    matching the paper's flow, where scaling and redundant-operator
    elimination (refs [2, 3]) remove such redundancy before fault counts
    are reported.  Pass ``False`` for the raw structural universe.
    """
    feasible = None
    if prune_untestable:
        from .feasibility import design_feasible_masks
        feasible = design_feasible_masks(graph)
    return build_universe_from_cells(
        ((node.nid, bit,
          variant_for_bit(bit, node.fmt.width, node.kind is OpKind.SUB),
          0xFF if feasible is None else feasible[(node.nid, bit)])
         for node in graph.arithmetic_nodes
         for bit in range(node.fmt.width)),
        name or graph.name)
