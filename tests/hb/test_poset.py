"""Unit tests for the partial-order structure."""

import pytest

from repro.hb.poset import CycleError, PartialOrder


class TestConstruction:
    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            PartialOrder(["a", "a"])

    def test_self_edge_rejected(self):
        order = PartialOrder(["a"])
        with pytest.raises(CycleError):
            order.add_edge("a", "a")

    def test_unknown_node_rejected(self):
        order = PartialOrder(["a"])
        with pytest.raises(KeyError):
            order.add_edge("a", "zzz")

    def test_len_and_contains(self):
        order = PartialOrder(["a", "b"])
        assert len(order) == 2
        assert "a" in order
        assert "c" not in order


class TestOrdering:
    def test_direct_edge(self):
        order = PartialOrder(["a", "b"])
        order.add_edge("a", "b")
        assert order.ordered("a", "b")
        assert not order.ordered("b", "a")

    def test_transitivity(self):
        order = PartialOrder("abcd")
        order.add_chain(["a", "b", "c", "d"])
        assert order.ordered("a", "d")
        assert order.ordered("b", "d")
        assert not order.ordered("d", "a")

    def test_incomparable(self):
        order = PartialOrder("abc")
        order.add_edge("a", "b")
        assert not order.are_ordered("a", "c")
        assert order.are_ordered("a", "b")
        assert order.are_ordered("b", "a")  # comparable either direction

    def test_diamond(self):
        order = PartialOrder("abcd")
        order.add_edge("a", "b")
        order.add_edge("a", "c")
        order.add_edge("b", "d")
        order.add_edge("c", "d")
        assert order.ordered("a", "d")
        assert not order.are_ordered("b", "c")

    def test_edges_added_after_query_are_seen(self):
        order = PartialOrder("abc")
        order.add_edge("a", "b")
        assert order.ordered("a", "b")
        order.add_edge("b", "c")
        assert order.ordered("a", "c")

    def test_cycle_detected_on_query(self):
        order = PartialOrder("ab")
        order.add_edge("a", "b")
        order.add_edge("b", "a")
        with pytest.raises(CycleError):
            order.ordered("a", "b")


class TestDerivedQueries:
    def build_chain(self):
        order = PartialOrder("abcd")
        order.add_chain(["a", "b", "c", "d"])
        return order

    def test_successors(self):
        order = self.build_chain()
        assert order.successors("b") == {"c", "d"}
        assert order.successors("d") == set()

    def test_predecessors(self):
        order = self.build_chain()
        assert order.predecessors("c") == {"a", "b"}
        assert order.predecessors("a") == set()

    def test_maximal_before_unique(self):
        order = self.build_chain()
        assert order.maximal_before("d", ["a", "b", "c"]) == ["c"]

    def test_maximal_before_multiple(self):
        order = PartialOrder("abz")
        order.add_edge("a", "z")
        order.add_edge("b", "z")
        maximal = order.maximal_before("z", ["a", "b"])
        assert sorted(maximal) == ["a", "b"]

    def test_maximal_before_empty(self):
        order = self.build_chain()
        assert order.maximal_before("a", ["b", "c"]) == []

    def test_direct_edges_iteration(self):
        order = PartialOrder("abc")
        order.add_edge("a", "b")
        order.add_edge("b", "c")
        assert set(order.edges()) == {("a", "b"), ("b", "c")}

    def test_nodes_property(self):
        assert PartialOrder("ab").nodes == ("a", "b")

    def test_large_chain_performance_shape(self):
        nodes = list(range(300))
        order = PartialOrder(nodes)
        order.add_chain(nodes)
        assert order.ordered(0, 299)
        assert not order.ordered(299, 0)
