"""Human-readable fault-coverage reporting."""

from __future__ import annotations

from collections import Counter
from typing import List, Optional

import numpy as np

from .engine import CoverageResult

__all__ = ["coverage_summary", "missed_fault_map", "testability_report"]


def coverage_summary(result: CoverageResult, at: Optional[int] = None) -> str:
    """One-paragraph summary of a coverage session."""
    limit = result.n_vectors if at is None else at
    detected = result.detected(at)
    total = result.universe.fault_count
    lines = [
        f"design {result.design_name}, generator {result.generator_name}:",
        f"  vectors applied : {limit}",
        f"  faults modeled  : {total} (collapsed; "
        f"{result.universe.uncollapsed_count} uncollapsed)",
        f"  detected        : {detected} ({100.0 * detected / max(1, total):.2f}%)",
        f"  missed          : {total - detected}",
    ]
    return "\n".join(lines)


def missed_fault_map(result: CoverageResult, at: Optional[int] = None,
                     top: int = 12) -> str:
    """Where the missed faults live: operator and bit-position histogram.

    Shows how misses cluster in the upper bits of specific operators —
    the paper's signature of test-signal attenuation.
    """
    missed = result.missed_faults(at)
    if not missed:
        return "no missed faults"
    by_node = Counter(f.node_id for f in missed)
    lines: List[str] = [f"{len(missed)} missed faults"]
    lines.append("  worst operators (node id: misses):")
    for nid, count in by_node.most_common(top):
        lines.append(f"    node {nid}: {count}")
    by_depth = Counter(f.bit for f in missed)
    lines.append("  by bit position (LSB=0):")
    for bit in sorted(by_depth):
        lines.append(f"    bit {bit:2d}: {by_depth[bit]}")
    return "\n".join(lines)


def testability_report(design, result: CoverageResult, model=None,
                       at: Optional[int] = None) -> str:
    """Designer-facing per-tap testability report card.

    For every tap of a :class:`~repro.rtl.build.FilterDesign`: operator
    count, faults hosted, faults missed by the graded session, and — when
    an LFSR linear ``model`` is supplied — the predicted signal sigma at
    the tap (normalized, so values ≪ 0.5 flag the T1/T6 zones as out of
    reach).  The paper's Section 7 analysis, packaged as the report a
    filter designer would act on.
    """
    missed_by_node = Counter(f.node_id for f in result.missed_faults(at))
    universe = result.universe
    cell_node = np.array([nid for nid, _bit in universe.cells],
                         dtype=np.int64)
    total_by_node = np.bincount(cell_node[universe.fault_cell],
                                minlength=len(design.graph.nodes))
    lines = [
        f"testability report: {design.name}, generator "
        f"{result.generator_name}, {at or result.n_vectors} vectors",
        f"{'tap':>4s} {'ops':>4s} {'faults':>7s} {'missed':>7s}"
        + ("  predicted sigma" if model is not None else ""),
    ]
    sigma_fn = None
    if model is not None:
        from ..analysis.variance import predicted_sigma_at_tap

        def sigma_fn(t):
            return predicted_sigma_at_tap(design, t, model)
    for tap in design.taps:
        ops = tap.operators
        faults = int(sum(total_by_node[nid] for nid in ops))
        missed = sum(missed_by_node.get(nid, 0) for nid in ops)
        row = f"{tap.index:4d} {len(ops):4d} {faults:7d} {missed:7d}"
        if sigma_fn is not None and tap.accumulator is not None:
            row += f"  {sigma_fn(tap.index):15.4f}"
        lines.append(row)
    worst = missed_by_node.most_common(1)
    if worst:
        node = design.graph.node(worst[0][0])
        lines.append(f"worst operator: {node.name} ({worst[0][1]} missed)")
    return "\n".join(lines)
