"""Tree decompositions: validation and the elimination-order constructor."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.ordering import induced_width, min_fill_order
from repro.core.tree_decomposition import (
    TreeDecomposition,
    decomposition_from_bags,
    from_elimination_order,
    trivial_decomposition,
)
from repro.errors import QueryStructureError

# The oracle: these tests hand networkx graphs to repro's duck-typed
# graph functions; without networkx installed they are skipped.
nx = pytest.importorskip("networkx")


@pytest.fixture
def triangle():
    return nx.complete_graph(["a", "b", "c"])


@pytest.fixture
def path4():
    return nx.path_graph(["a", "b", "c", "d"])


class TestValidation:
    def test_trivial_decomposition_valid(self, triangle):
        td = trivial_decomposition(triangle)
        assert td.is_valid_for(triangle)
        assert td.width == 2

    def test_path_decomposition(self, path4):
        td = decomposition_from_bags(
            {0: {"a", "b"}, 1: {"b", "c"}, 2: {"c", "d"}},
            [(0, 1), (1, 2)],
        )
        assert td.is_valid_for(path4)
        assert td.width == 1

    def test_missing_vertex_detected(self, path4):
        td = decomposition_from_bags(
            {0: {"a", "b"}, 1: {"b", "c"}}, [(0, 1)]
        )
        assert not td.covers_vertices(path4)
        with pytest.raises(QueryStructureError, match="vertices"):
            td.validate_for(path4)

    def test_missing_edge_detected(self, path4):
        td = decomposition_from_bags(
            {0: {"a", "b"}, 1: {"b", "c"}, 2: {"d"}}, [(0, 1), (1, 2)]
        )
        assert not td.covers_edges(path4)
        with pytest.raises(QueryStructureError, match="edges"):
            td.validate_for(path4)

    def test_disconnected_occurrence_detected(self, path4):
        # "a" occurs in bags 0 and 2, but not in bag 1 between them.
        td = decomposition_from_bags(
            {0: {"a", "b"}, 1: {"b", "c"}, 2: {"a", "c", "d"}},
            [(0, 1), (1, 2)],
        )
        assert not td.has_connected_occurrences()
        with pytest.raises(QueryStructureError, match="disconnected"):
            td.validate_for(path4)

    def test_non_tree_edges_rejected(self):
        with pytest.raises(QueryStructureError, match="tree"):
            decomposition_from_bags(
                {0: {"a"}, 1: {"a"}, 2: {"a"}},
                [(0, 1), (1, 2), (0, 2)],
            )

    def test_forest_rejected(self):
        with pytest.raises(QueryStructureError):
            decomposition_from_bags({0: {"a"}, 1: {"a"}}, [])

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(QueryStructureError, match="unknown"):
            decomposition_from_bags({0: {"a"}}, [(0, 7)])


class TestAccessors:
    def test_width_empty(self):
        td = TreeDecomposition({}, [])
        assert td.width == -1

    def test_neighbors(self):
        td = decomposition_from_bags(
            {0: {"a"}, 1: {"a"}, 2: {"a"}}, [(0, 1), (1, 2)]
        )
        assert sorted(td.neighbors(1)) == [0, 2]

    def test_find_bag_containing(self, path4):
        td = from_elimination_order(path4, sorted(path4.nodes))
        assert td.find_bag_containing({"a", "b"}) is not None
        assert td.find_bag_containing({"a", "d"}) is None

    def test_copy_is_independent(self, triangle):
        td = trivial_decomposition(triangle)
        clone = td.copy()
        clone.bags[99] = frozenset()
        assert 99 not in td.bags


class TestFromEliminationOrder:
    def test_empty_graph(self):
        td = from_elimination_order(nx.Graph(), [])
        assert td.width <= 0

    def test_path_natural_order(self, path4):
        order = ["a", "b", "c", "d"]
        td = from_elimination_order(path4, order)
        td.validate_for(path4)
        assert td.width == induced_width(path4, order) == 1

    def test_cycle(self):
        graph = nx.cycle_graph(6)
        order = min_fill_order(graph)
        td = from_elimination_order(graph, order)
        td.validate_for(graph)
        assert td.width == 2

    def test_disconnected_graph_still_a_tree(self):
        graph = nx.disjoint_union(nx.path_graph(3), nx.path_graph(3))
        order = sorted(graph.nodes)
        td = from_elimination_order(graph, order)
        td.validate_for(graph)

    def test_width_equals_induced_width(self):
        graph = nx.grid_2d_graph(3, 3)
        order = min_fill_order(graph)
        td = from_elimination_order(graph, order)
        assert td.width == induced_width(graph, order)


@st.composite
def graphs_with_orders(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12, unique=True)) if pairs else []
    graph.add_edges_from(edges)
    order = draw(st.permutations(list(range(n))))
    return graph, list(order)


@given(graphs_with_orders())
def test_any_order_yields_valid_decomposition(pair):
    """Property: from_elimination_order is always a *valid* decomposition
    whose width equals the order's induced width — the Theorem 2 bridge."""
    graph, order = pair
    td = from_elimination_order(graph, order)
    td.validate_for(graph)
    assert td.width == induced_width(graph, order)
