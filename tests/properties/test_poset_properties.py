"""Property-based tests: PartialOrder really is a strict partial order."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hb.poset import CycleError, PartialOrder

# Random DAG edges: only (a, b) with a < b, so acyclicity is guaranteed.
dag_edges = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(lambda e: e[0] < e[1]),
    max_size=30,
)

any_edges = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda e: e[0] != e[1]),
    max_size=20,
)


def build(edges, n=12):
    order = PartialOrder(range(n))
    for a, b in edges:
        order.add_edge(a, b)
    return order


class TestStrictPartialOrderLaws:
    @given(dag_edges)
    def test_irreflexive(self, edges):
        order = build(edges)
        for node in range(12):
            assert not order.ordered(node, node)

    @given(dag_edges)
    def test_antisymmetric(self, edges):
        order = build(edges)
        for a in range(12):
            for b in range(12):
                if order.ordered(a, b):
                    assert not order.ordered(b, a)

    @given(dag_edges)
    def test_transitive(self, edges):
        order = build(edges)
        nodes = range(12)
        for a in nodes:
            for b in nodes:
                if not order.ordered(a, b):
                    continue
                for c in nodes:
                    if order.ordered(b, c):
                        assert order.ordered(a, c)

    @given(dag_edges)
    def test_contains_direct_edges(self, edges):
        order = build(edges)
        for a, b in edges:
            assert order.ordered(a, b)

    @given(dag_edges)
    def test_successors_predecessors_dual(self, edges):
        order = build(edges)
        for a in range(12):
            for b in order.successors(a):
                assert a in order.predecessors(b)


class TestArbitraryEdges:
    @given(any_edges)
    def test_query_terminates_or_reports_cycle(self, edges):
        order = PartialOrder(range(8))
        for a, b in edges:
            order.add_edge(a, b)
        try:
            for a in range(8):
                for b in range(8):
                    order.ordered(a, b)
        except CycleError as error:
            assert error.cycle
