"""Tests for repro.rtl.graph and nodes."""

import pytest

from repro.errors import DesignError
from repro.fixedpoint import Fixed
from repro.rtl import Graph, OpKind, simulate


def tiny_graph():
    g = Graph(name="tiny")
    x = g.add(OpKind.INPUT, fmt=Fixed(4, 3), role="input")
    s = g.add(OpKind.SHIFT, (x.nid,), fmt=Fixed(4, 3), shift=1)
    a = g.add(OpKind.ADD, (x.nid, s.nid), fmt=Fixed(5, 3))
    g.add(OpKind.OUTPUT, (a.nid,), fmt=Fixed(5, 3))
    return g


class TestConstruction:
    def test_arity_enforced(self):
        g = Graph()
        with pytest.raises(DesignError):
            g.add(OpKind.ADD, ())

    def test_source_must_exist(self):
        g = Graph()
        with pytest.raises(DesignError):
            g.add(OpKind.DELAY, (3,))

    def test_single_input_enforced(self):
        g = Graph()
        g.add(OpKind.INPUT, fmt=Fixed(4, 3))
        with pytest.raises(DesignError):
            g.add(OpKind.INPUT, fmt=Fixed(4, 3))

    def test_ids_are_indices(self):
        g = tiny_graph()
        for i, node in enumerate(g.nodes):
            assert node.nid == i


class TestQueries:
    def test_arithmetic_nodes(self):
        g = tiny_graph()
        assert [n.kind for n in g.arithmetic_nodes] == [OpKind.ADD]

    def test_register_count(self):
        g = tiny_graph()
        assert g.register_count == 0

    def test_consumers(self):
        g = tiny_graph()
        consumers = g.consumers()
        assert consumers[0] == [1, 2]  # input feeds shift and add

    def test_topological_order_is_valid(self):
        g = tiny_graph()
        order = g.topological_order()
        pos = {nid: i for i, nid in enumerate(order)}
        for node in g.nodes:
            for s in node.srcs:
                assert pos[s] < pos[node.nid]

    def test_stats(self):
        g = tiny_graph()
        stats = g.stats()
        assert stats["arithmetic"] == 1
        assert stats["shift"] == 1


class TestValidation:
    def test_valid_graph_passes(self):
        tiny_graph().validate()

    def test_missing_format_rejected(self):
        g = Graph()
        x = g.add(OpKind.INPUT, fmt=Fixed(4, 3))
        a = g.add(OpKind.ADD, (x.nid, x.nid))  # fmt None
        g.add(OpKind.OUTPUT, (a.nid,), fmt=Fixed(5, 3))
        with pytest.raises(DesignError):
            g.validate()

    def test_mismatched_binary_points_rejected(self):
        g = Graph()
        x = g.add(OpKind.INPUT, fmt=Fixed(4, 3))
        s = g.add(OpKind.SHIFT, (x.nid,), fmt=Fixed(4, 2), shift=0)
        a = g.add(OpKind.ADD, (x.nid, s.nid), fmt=Fixed(5, 3))
        g.add(OpKind.OUTPUT, (a.nid,), fmt=Fixed(5, 3))
        with pytest.raises(DesignError):
            g.validate()

    def test_register_format_must_match_source(self):
        g = Graph()
        x = g.add(OpKind.INPUT, fmt=Fixed(4, 3))
        g.add(OpKind.DELAY, (x.nid,), fmt=Fixed(5, 3))
        with pytest.raises(DesignError):
            g.validate()

    def test_missing_output_rejected(self):
        g = Graph()
        g.add(OpKind.INPUT, fmt=Fixed(4, 3))
        with pytest.raises(DesignError):
            g.validate()

    def test_one_bit_adder_rejected(self):
        g = Graph()
        x = g.add(OpKind.INPUT, fmt=Fixed(4, 3))
        s = g.add(OpKind.SHIFT, (x.nid,), fmt=Fixed(2, 3), shift=3)
        a = g.add(OpKind.ADD, (s.nid, s.nid), fmt=Fixed(1, 3))
        g.add(OpKind.OUTPUT, (a.nid,), fmt=Fixed(1, 3))
        with pytest.raises(DesignError):
            g.validate()


class TestRevalidation:
    """A graph remembers a passed validation only until it changes."""

    def test_add_after_simulate_is_revalidated(self):
        g = tiny_graph()
        simulate(g, [1, -2, 3])
        g.add(OpKind.DELAY, (2,))  # no format assigned
        with pytest.raises(DesignError, match="no format"):
            simulate(g, [1, -2, 3])

    def test_format_change_after_simulate_is_revalidated(self):
        g = tiny_graph()
        simulate(g, [1, -2, 3])
        g.nodes[2].fmt = Fixed(5, 2)  # adder leaves its operands' point
        with pytest.raises(DesignError, match="binary point"):
            simulate(g, [1, -2, 3])

    def test_restored_graph_validates_again(self):
        g = tiny_graph()
        g.validate()
        good = g.nodes[2].fmt
        g.nodes[2].fmt = Fixed(5, 2)
        with pytest.raises(DesignError):
            g.validate()
        g.nodes[2].fmt = good
        g.validate()

    def test_rewired_sources_are_resorted(self):
        g = tiny_graph()
        g.validate()
        g.nodes[1].srcs = (2,)  # shift now reads the adder it feeds
        with pytest.raises(DesignError, match="cycle"):
            g.topological_order()

    def test_returned_lists_are_copies(self):
        g = tiny_graph()
        g.topological_order().reverse()
        g.consumers()[0].clear()
        assert g.consumers()[0] == [1, 2]
        order, fanout = g.schedule()
        order.clear()
        fanout[0] = 0
        assert g.schedule() == ([0, 1, 2, 3], [2, 1, 1, 0])
