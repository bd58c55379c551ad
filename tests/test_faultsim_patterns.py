"""The bit-sliced pattern-tracker hook pinned to the loop-based oracle.

``PatternTracker.hook`` derives every cell's carry from a closed form on
whole operand words; the oracle feeds ``cell_pattern_codes`` (built on
the per-bit ``carry_chain`` ripple) to ``observe_codes``.  Both must
leave bit-identical ``first_seen`` tables.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.experiments import ExperimentContext, table1
from repro.experiments import config as config_module
from repro.faultsim import UNSEEN, FaultUniverse, PatternTracker
from repro.faultsim.patterns import MAX_HOOK_WIDTH
from repro.fixedpoint import cell_pattern_codes
from repro.rtl.nodes import Node, OpKind

KINDS = (OpKind.ADD, OpKind.SUB)


def _universe(nodes):
    """A fault-free universe holding just the cells of ``nodes``."""
    cells = [(n.nid, bit) for n in nodes for bit in range(n.fmt.width)]
    return FaultUniverse(
        design_name="cells", cells=cells, cell_faults=[()] * len(cells),
        fault_cell=np.zeros(0, dtype=np.int64),
        fault_slot=np.zeros(0, dtype=np.int64),
        fault_mask=np.zeros(0, dtype=np.uint8), uncollapsed_count=0)


def _node(nid, width, kind):
    # ``Fixed`` stops at 60 bits; the hook reads nothing but the width.
    return Node(nid=nid, kind=kind, srcs=(0, 0),
                fmt=SimpleNamespace(width=width))


def _oracle(tracker, node, a, b):
    sub = node.kind is OpKind.SUB
    tracker.observe_codes(node.nid, cell_pattern_codes(
        a, b, int(sub), node.fmt.width, invert_b=sub))


def _operands(rng, width, length):
    """Random operands with the range ends (and +2**(w-1), which wraps)
    sprinkled in, and half the vectors repeating the first one so some
    cells first see a pattern late."""
    half = 1 << (width - 1)
    ends = np.array([-half, half, half - 1, -1, 0, 1], dtype=np.int64)
    out = []
    for _ in range(2):
        x = rng.integers(-half, half, size=length, dtype=np.int64)
        pick = rng.random(length)
        x[pick < 0.2] = rng.choice(ends, size=int(np.sum(pick < 0.2)))
        x[pick > 0.7] = x[0]
        out.append(x)
    return out


def _run_both(nodes, segments, prefill=None, offset=0):
    """Feed each segment's operands to the hook and to the oracle."""
    universe = _universe(nodes)
    fast, slow = PatternTracker(universe), PatternTracker(universe)
    for tracker in (fast, slow):
        if prefill is not None:
            tracker.first_seen[:] = prefill
        tracker.advance(offset)
    for operands in segments:
        for node, (a, b) in zip(nodes, operands):
            fast.hook(node, a, b)
            _oracle(slow, node, a, b)
        length = len(operands[0][0])
        fast.advance(length)
        slow.advance(length)
    return fast, slow


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
def test_hook_matches_oracle_at_every_width(kind, rng):
    for width in range(2, MAX_HOOK_WIDTH + 1):
        node = _node(1, width, kind)
        length = int(rng.integers(1, 300))
        fast, slow = _run_both([node], [[_operands(rng, width, length)]])
        assert np.array_equal(fast.first_seen, slow.first_seen), width


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
def test_single_vector(kind, rng):
    for width in (2, 13, MAX_HOOK_WIDTH):
        node = _node(3, width, kind)
        fast, slow = _run_both([node], [[_operands(rng, width, 1)]])
        assert np.array_equal(fast.first_seen, slow.first_seen), width
        # One vector shows each cell exactly one pattern.
        assert np.all(np.sum(fast.first_seen == 0, axis=1) == 1)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
def test_constant_input_leaves_patterns_unseen(kind):
    node = _node(2, 16, kind)
    a = np.full(150, -3, dtype=np.int64)
    b = np.full(150, 5, dtype=np.int64)
    fast, slow = _run_both([node], [[(a, b)]])
    assert np.array_equal(fast.first_seen, slow.first_seen)
    assert np.all(np.sum(fast.first_seen == UNSEEN, axis=1) == 7)


def test_multi_segment_session_over_prefilled_table(rng):
    nodes = [_node(nid, width, kind) for nid, (width, kind) in enumerate(
        [(9, OpKind.ADD), (24, OpKind.SUB), (40, OpKind.ADD),
         (62, OpKind.SUB)])]
    cells = sum(n.fmt.width for n in nodes)
    prefill = np.where(rng.random((cells, 8)) < 0.3,
                       rng.integers(0, 50, size=(cells, 8)), UNSEEN)
    segments = []
    for length in (70, 1, 200):
        segments.append([_operands(rng, n.fmt.width, length)
                         for n in nodes])
    fast, slow = _run_both(nodes, segments, prefill=prefill, offset=50)
    assert fast.vectors_seen == slow.vectors_seen == 50 + 271
    assert np.array_equal(fast.first_seen, slow.first_seen)
    # Earlier sightings are never overwritten by later segments.
    seen = prefill != UNSEEN
    assert np.array_equal(fast.first_seen[seen], prefill[seen])


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
def test_hook_rejects_operators_wider_than_int64_allows(kind):
    node = _node(0, MAX_HOOK_WIDTH + 1, kind)
    tracker = PatternTracker(_universe([node]))
    a = np.zeros(4, dtype=np.int64)
    with pytest.raises(SimulationError, match="at most 62"):
        tracker.hook(node, a, a)


def test_table1_uses_the_context_universes(monkeypatch):
    """Table 1 reads each design's fault count from the universe the
    context keeps, so a fresh context builds one universe per design."""
    built = []
    original = config_module.build_fault_universe

    def counting(*args, **kwargs):
        universe = original(*args, **kwargs)
        built.append(universe)
        return universe

    monkeypatch.setattr(config_module, "build_fault_universe", counting)
    ctx = ExperimentContext()
    result = table1(ctx)
    assert len(built) == len(ctx.designs)  # built through the context
    for row in result.rows:
        universe = ctx.universe(row[0])
        assert any(u is universe for u in built)
        assert row[-1] == universe.fault_count
    assert len(built) == len(ctx.designs)  # and then reused, not rebuilt
