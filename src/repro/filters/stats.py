"""Design statistics (Table 1)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..faultsim.dictionary import FaultUniverse
from ..rtl.build import FilterDesign

__all__ = ["DesignStats", "design_statistics"]


@dataclass(frozen=True)
class DesignStats:
    """One row of Table 1."""

    name: str
    adders: int
    registers: int
    input_width: int
    coefficient_width: int
    output_width: int
    faults: int
    uncollapsed_faults: int

    def row(self) -> List[object]:
        return [self.name, self.adders, self.registers, self.input_width,
                self.coefficient_width, self.output_width, self.faults]


def _coefficient_width(design: FilterDesign) -> int:
    """Bits needed for the widest coefficient magnitude on its grid.

    Matches the paper's "coef." column: the number of fractional bits of
    the coefficient grid actually exercised (the least-significant used
    CSD digit position).
    """
    width = 0
    for tap in design.taps:
        for term in tap.plan.terms:
            width = max(width, term.shift)
    return width


def design_statistics(design: FilterDesign,
                      universe: FaultUniverse) -> DesignStats:
    """Compute the Table 1 row for one design from its fault universe."""
    return DesignStats(
        name=design.name,
        adders=design.adder_count,
        registers=design.register_count,
        input_width=design.input_fmt.width,
        coefficient_width=_coefficient_width(design),
        output_width=design.output_fmt.width,
        faults=universe.fault_count,
        uncollapsed_faults=universe.uncollapsed_count,
    )
