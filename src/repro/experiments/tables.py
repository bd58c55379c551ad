"""Reproduction drivers for the paper's tables.

Each ``table_n`` function computes the data behind Table *n* and returns
a result object with the raw values plus a ``render()`` method printing
the same rows the paper reports.  Paper values are bundled for
side-by-side comparison in EXPERIMENTS.md and the benchmark output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..analysis.compatibility import compatibility_table
from ..analysis.testzones import difficult_test_table
from ..filters.stats import design_statistics
from ..telemetry import traced
from .config import ExperimentContext
from .render import ascii_table

__all__ = [
    "PAPER_TABLE1",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "PAPER_TABLE5",
    "PAPER_TABLE6",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
]

DESIGN_ORDER = ("LP", "BP", "HP")
GENERATOR_ORDER = ("LFSR-1", "LFSR-D", "LFSR-M", "Ramp")

#: Paper Table 1: (adders, regs, in, coef, out, faults).
PAPER_TABLE1 = {
    "LP": (183, 60, 12, 15, 16, 57148),
    "BP": (161, 58, 12, 14, 16, 50650),
    "HP": (175, 60, 12, 15, 16, 55042),
}

#: Paper Table 3 ratings, generator -> (LP, BP, HP).
PAPER_TABLE3 = {
    "LFSR-1": ("-", "±", "+"),
    "LFSR-2": ("±", "±", "+"),
    "LFSR-D": ("+", "+", "+"),
    "LFSR-M": ("+", "+", "+"),
    "Ramp": ("+", "-", "-"),
}

#: Paper Table 4: missed faults after 4k vectors.
PAPER_TABLE4 = {
    "LP": {"LFSR-1": 519, "LFSR-D": 331, "LFSR-M": 1097, "Ramp": 485},
    "BP": {"LFSR-1": 201, "LFSR-D": 193, "LFSR-M": 1005, "Ramp": 1230},
    "HP": {"LFSR-1": 308, "LFSR-D": 315, "LFSR-M": 1030, "Ramp": 1679},
}

#: Paper Table 5: Table 4 normalized by operator count.
PAPER_TABLE5 = {
    "LP": {"LFSR-1": 2.84, "LFSR-D": 1.81, "LFSR-M": 5.99, "Ramp": 2.65},
    "BP": {"LFSR-1": 1.25, "LFSR-D": 1.20, "LFSR-M": 6.24, "Ramp": 7.64},
    "HP": {"LFSR-1": 1.76, "LFSR-D": 1.80, "LFSR-M": 5.89, "Ramp": 9.59},
}

#: Paper Table 6: mixed LFSR-1/LFSR-M misses at 8k (and normalized).
PAPER_TABLE6 = {"LP": (148, 0.81), "HP": (137, 0.40)}


@dataclass
class TableResult:
    """Computed rows plus paper reference values."""

    name: str
    headers: List[str]
    rows: List[List[object]]
    paper_rows: List[List[object]] = field(default_factory=list)
    notes: str = ""

    def render(self) -> str:
        out = [ascii_table(self.headers, self.rows, title=f"{self.name} (measured)")]
        if self.paper_rows:
            out.append("")
            out.append(ascii_table(self.headers, self.paper_rows,
                                   title=f"{self.name} (paper)"))
        if self.notes:
            out.append("")
            out.append(self.notes)
        return "\n".join(out)


# ----------------------------------------------------------------------
# Table 1 — design statistics
# ----------------------------------------------------------------------
@traced("experiments.table1")
def table1(ctx: Optional[ExperimentContext] = None) -> TableResult:
    ctx = ctx or ExperimentContext()
    headers = ["design", "adders", "regs", "in", "coef", "out", "faults"]
    rows = []
    for name in DESIGN_ORDER:
        s = design_statistics(ctx.designs[name], ctx.universe(name))
        rows.append(s.row())
    paper_rows = [[n, *PAPER_TABLE1[n]] for n in DESIGN_ORDER]
    return TableResult(
        name="Table 1: design statistics", headers=headers, rows=rows,
        paper_rows=paper_rows,
        notes=("fault counts are collapsed classes after structural "
               "redundancy pruning; absolute values depend on the exact "
               "coefficient sets, which are re-derived"),
    )


# ----------------------------------------------------------------------
# Table 2 — difficult test conditions (definitional, plus verification)
# ----------------------------------------------------------------------
@traced("experiments.table2")
def table2(ctx: Optional[ExperimentContext] = None) -> TableResult:
    headers = ["test", "input", "output"]
    rows = []
    for c in difficult_test_table():
        lo, hi = c.input_range
        if lo <= -1.0:
            input_str = f"A < {hi}"
        elif hi >= 1.0:
            input_str = f"A >= {lo}"
        else:
            input_str = f"{lo} <= A < {hi}"
        rows.append([c.label, input_str, c.output_condition])
    return TableResult(
        name="Table 2: difficult test classes at the next-to-MSB cell",
        headers=headers, rows=rows,
        notes=("verified against bit-level ripple-carry enumeration in "
               "tests/test_analysis_testzones.py"),
    )


# ----------------------------------------------------------------------
# Table 3 — generator/filter compatibility
# ----------------------------------------------------------------------
@traced("experiments.table3")
def table3(ctx: Optional[ExperimentContext] = None) -> TableResult:
    ctx = ctx or ExperimentContext()
    gens = ctx.spectrum_generators()
    order = ["LFSR-1", "LFSR-2", "LFSR-D", "LFSR-M", "Ramp"]
    headers = ["generator", "LP", "BP", "HP"]
    results = compatibility_table(
        [gens[g] for g in order],
        [(d, ctx.designs[d].coefficients) for d in DESIGN_ORDER])
    k = len(DESIGN_ORDER)
    rows = [[gname, *(f"{r.rating} ({r.ratio:.2f})"
                      for r in results[i * k:(i + 1) * k])]
            for i, gname in enumerate(order)]
    paper_rows = [[g, *PAPER_TABLE3[g]] for g in order]
    return TableResult(
        name="Table 3: frequency-domain compatibility (rating and ratio)",
        headers=headers, rows=rows, paper_rows=paper_rows,
    )


# ----------------------------------------------------------------------
# Tables 4 and 5 — missed faults after 4k vectors
# ----------------------------------------------------------------------
@traced("experiments.table4")
def table4(ctx: Optional[ExperimentContext] = None) -> TableResult:
    ctx = ctx or ExperimentContext()
    n = ctx.config.table4_vectors
    gens = ctx.standard_generators()
    headers = ["design", *GENERATOR_ORDER]
    rows = []
    for dname in DESIGN_ORDER:
        row: List[object] = [dname]
        for gname in GENERATOR_ORDER:
            row.append(ctx.coverage(dname, gens[gname], n).missed())
        rows.append(row)
    paper_rows = [
        [d, *[PAPER_TABLE4[d][g] for g in GENERATOR_ORDER]]
        for d in DESIGN_ORDER
    ]
    return TableResult(
        name=f"Table 4: missed faults after {n} vectors",
        headers=headers, rows=rows, paper_rows=paper_rows,
    )


@traced("experiments.table5")
def table5(ctx: Optional[ExperimentContext] = None) -> TableResult:
    ctx = ctx or ExperimentContext()
    n = ctx.config.table4_vectors
    gens = ctx.standard_generators()
    headers = ["design", *GENERATOR_ORDER]
    rows = []
    for dname in DESIGN_ORDER:
        adders = ctx.designs[dname].adder_count
        row: List[object] = [dname]
        for gname in GENERATOR_ORDER:
            missed = ctx.coverage(dname, gens[gname], n).missed()
            row.append(round(missed / adders, 2))
        rows.append(row)
    paper_rows = [
        [d, *[PAPER_TABLE5[d][g] for g in GENERATOR_ORDER]]
        for d in DESIGN_ORDER
    ]
    return TableResult(
        name="Table 5: missed faults normalized by operator count",
        headers=headers, rows=rows, paper_rows=paper_rows,
    )


# ----------------------------------------------------------------------
# Table 6 — mixed LFSR-1 / LFSR-M scheme
# ----------------------------------------------------------------------
@traced("experiments.table6")
def table6(ctx: Optional[ExperimentContext] = None) -> TableResult:
    ctx = ctx or ExperimentContext()
    n = ctx.config.table6_vectors
    headers = ["design", "misses", "normalized"]
    rows = []
    for dname in ("LP", "HP"):
        gen = ctx.mixed_generator()
        result = ctx.coverage(dname, gen, n)
        missed = result.missed()
        rows.append([dname, missed,
                     round(missed / ctx.designs[dname].adder_count, 2)])
    paper_rows = [[d, *PAPER_TABLE6[d]] for d in ("LP", "HP")]
    return TableResult(
        name=(f"Table 6: mixed LFSR-1/LFSR-M misses "
              f"({ctx.config.table6_switch} normal + "
              f"{n - ctx.config.table6_switch} max-variance vectors)"),
        headers=headers, rows=rows, paper_rows=paper_rows,
    )
