"""First-occurrence tracking of full-adder input patterns.

The fast coverage engine reduces fault simulation to one question per
cell and pattern: *when does pattern p first appear at cell c?*  This
module answers it by hooking the RTL simulator's per-operator callback
and recording the earliest vector index of each of the 8 patterns at
each cell of every ripple-carry operator.

The hook works on whole operand words, one bit per cell (bit-sliced).
Bit ``k`` of the aligned primary word ``a`` is cell ``k``'s ``a`` input,
and likewise for the secondary word ``b'`` (``~b`` for a subtractor,
whose carry-in is 1).  The carry *into* every cell has a closed form::

    c = (a + b' + cin) ^ a ^ b'        (operands masked to the width)

so one ``int64`` word op per vector yields, for pattern ``p = (a<<2) |
(b<<1) | c``, the word ``hits[p] = A & B & C`` whose bit ``k`` says
"cell ``k`` saw ``Tp`` at this vector", where ``A`` is ``a`` or its
complement as bit 2 of ``p`` demands (same for ``B``, ``C``).  A prefix
OR along time makes each ``hits[p]`` monotone; a (cell, pattern) first
occurs where its bit appears in the prefix, and the prefix changes at
most ``width`` times.  The prefix is taken over 64-vector blocks first,
then only inside the few blocks where it changes.  Cost: O(8·T) word
ops per operator, no per-bit loop.  Masked operands keep the sum below
``2**(width + 1)``, so widths up to 62 never overflow ``int64``.

The oracle is the loop-based ripple in
:func:`~repro.fixedpoint.carry_chain` /
:func:`~repro.fixedpoint.cell_pattern_codes` fed to
:meth:`PatternTracker.observe_codes`; the randomized equivalence tests
pin the hook to it.  ``observe_codes`` stays the entry point for
operators that hand over per-cell codes directly (the carry-save path).

The tracker is incremental: feed it several simulation segments (e.g. a
mixed-mode session's phases) and indices keep counting across segments.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import SimulationError
from ..rtl.graph import Graph
from ..rtl.nodes import Node, OpKind
from ..rtl.simulate import simulate
from .dictionary import FaultUniverse

__all__ = ["PatternTracker", "track_patterns"]

UNSEEN = np.iinfo(np.int64).max

#: Widest operator :meth:`PatternTracker.hook` accepts: the masked sum
#: ``a + b' + cin`` must fit in a signed 64-bit word.
MAX_HOOK_WIDTH = 62

#: Vectors per block of the hook's two-level prefix OR.
_BLOCK = 64


def _gains(words: np.ndarray):
    """Rewrite each row of ``words`` (in place) as the bits its prefix OR
    gains at each position; returns ``(row, pos)`` of the gaining ones."""
    np.bitwise_or.accumulate(words, axis=1, out=words)
    words[:, 1:] ^= words[:, :-1]
    return np.divmod(np.flatnonzero(words), words.shape[1])


class PatternTracker:
    """Records the first vector index of each (cell, pattern) occurrence."""

    def __init__(self, universe: FaultUniverse):
        self.universe = universe
        self.first_seen = np.full((universe.cell_count, 8), UNSEEN,
                                  dtype=np.int64)
        self.offset = 0  # vectors consumed so far

    # ------------------------------------------------------------------
    # Simulator hook
    # ------------------------------------------------------------------
    def hook(self, node: Node, a: np.ndarray, b: np.ndarray) -> None:
        """Adder-hook callback: consume one operator's aligned operands."""
        width = node.fmt.width
        if width > MAX_HOOK_WIDTH:
            raise SimulationError(
                f"operator {node.nid} is {width} bits wide; the bit-sliced "
                f"tracker handles at most {MAX_HOOK_WIDTH}")
        is_sub = node.kind is OpKind.SUB
        mask = (1 << width) - 1
        a = a & mask
        b = (~b if is_sub else b) & mask
        c = (a + b + int(is_sub)) ^ a ^ b  # carry into every cell
        # Complements within the width; bit ``width`` of ``c`` (the carry
        # out) drops out of every hit through the ``a`` term.
        na, nb, nc = a ^ mask, b ^ mask, c ^ mask
        ab = (na & nb, na & b, a & nb, a & b)
        # hits[p] word t: cells that saw pattern p at vector t, in blocks.
        blocks = -(-len(a) // _BLOCK)
        hits = np.zeros((8, blocks * _BLOCK), dtype=np.int64)
        for p in range(8):
            np.bitwise_and(ab[p >> 1], c if p & 1 else nc,
                           out=hits[p, :len(a)])
        hits = hits.reshape(8, blocks, _BLOCK)
        # Prefix OR first over whole blocks, then inside the few blocks
        # where the prefix changes, keeping only the bits new there.
        gained = np.bitwise_or.reduce(hits, axis=2)
        pat, blk = _gains(gained)
        inner = hits[pat, blk] & gained[pat, blk, None]
        row, pos = _gains(inner)
        bits = (inner[row, pos, None] >> np.arange(width)) & 1
        hit, cell = np.divmod(np.flatnonzero(bits), width)
        pat = pat[row[hit]]
        when = blk[row[hit]] * _BLOCK + pos[hit] + self.offset
        base = self.universe.cell_index[(node.nid, 0)]
        first = self.first_seen[base:base + width]  # view
        first[cell, pat] = np.minimum(first[cell, pat], when)

    def observe_codes(self, node_id: int, codes: np.ndarray) -> None:
        """Record per-cell pattern codes for one operator.

        ``codes`` has shape ``(width, T)``; row ``k`` holds the 3-bit
        input codes of the operator's bit-``k`` cell over the segment.
        The universe's cells for an operator are contiguous and start at
        bit 0, so one slice covers them all.  Usable for any operator
        style (ripple-carry, carry-save compressor) that registered its
        cells under ``node_id``.
        """
        width = codes.shape[0]
        base = self.universe.cell_index[(node_id, 0)]
        first = self.first_seen[base:base + width]  # view
        for p in range(8):
            hits = codes == p  # (width, T)
            any_hit = hits.any(axis=1)
            if not np.any(any_hit):
                continue
            idx = hits.argmax(axis=1) + self.offset
            update = any_hit & (idx < first[:, p])
            first[update, p] = idx[update]

    def advance(self, n_vectors: int) -> None:
        """Declare a simulation segment of ``n_vectors`` consumed."""
        self.offset += n_vectors

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def vectors_seen(self) -> int:
        return self.offset

    def seen_mask(self, at: Optional[int] = None) -> np.ndarray:
        """(cells, 8) bool: pattern seen strictly before vector ``at``."""
        limit = self.offset if at is None else at
        return self.first_seen < limit

    def untested_patterns(self, node_id: int, bit: int) -> list:
        """Patterns never observed at one cell (as test numbers Tn)."""
        row = self.universe.cell_index[(node_id, bit)]
        return [p for p in range(8) if self.first_seen[row, p] == UNSEEN]


def track_patterns(
    graph: Graph,
    universe: FaultUniverse,
    input_raw: np.ndarray,
    tracker: Optional[PatternTracker] = None,
    extra_hook=None,
) -> PatternTracker:
    """Simulate ``input_raw`` and record pattern first occurrences.

    Pass an existing ``tracker`` to continue a session (indices keep
    counting), e.g. for mode-switched generators simulated per phase.
    NOTE: continuing a session re-runs the datapath from reset registers;
    for the long FIR pipelines studied here the few warm-up vectors are
    irrelevant, and generators like :class:`MixedModeLfsr` avoid the
    issue entirely by producing the whole session in one sequence.

    ``extra_hook`` is an additional ``AdderHook`` (e.g. a telemetry
    :class:`~repro.telemetry.ZoneTracer`'s ``hook``) observing the same
    aligned operands the tracker sees, in the same single pass.
    """
    if tracker is None:
        tracker = PatternTracker(universe)
    if tracker.universe is not universe:
        raise SimulationError("tracker belongs to a different fault universe")
    if extra_hook is None:
        hook = tracker.hook
    else:
        def hook(node, a, b):
            tracker.hook(node, a, b)
            extra_hook(node, a, b)
    simulate(graph, input_raw, adder_hook=hook)
    tracker.advance(len(input_raw))
    return tracker
