"""Exact treewidth and bounds on graphs with known treewidth."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.ordering import induced_width
from repro.core.treewidth import (
    EXACT_NODE_LIMIT,
    treewidth_exact,
    treewidth_exact_order,
    treewidth_lower_bound,
    treewidth_upper_bound,
)

# The oracle: these tests hand networkx graphs to repro's duck-typed
# graph functions; without networkx installed they are skipped.
nx = pytest.importorskip("networkx")


KNOWN_TREEWIDTHS = [
    (nx.path_graph(6), 1),
    (nx.star_graph(5), 1),
    (nx.balanced_tree(2, 3), 1),
    (nx.cycle_graph(5), 2),
    (nx.cycle_graph(9), 2),
    (nx.complete_graph(4), 3),
    (nx.complete_graph(6), 5),
    (nx.grid_2d_graph(3, 3), 3),
    (nx.grid_2d_graph(2, 5), 2),
    (nx.complete_bipartite_graph(2, 3), 2),
    (nx.petersen_graph(), 4),
]


@pytest.mark.parametrize(
    "graph,expected", KNOWN_TREEWIDTHS, ids=lambda value: str(value)
)
def test_exact_on_known_graphs(graph, expected):
    if isinstance(expected, int):
        assert treewidth_exact(graph) == expected


def test_exact_order_witnesses_width():
    graph = nx.grid_2d_graph(3, 3)
    width, order = treewidth_exact_order(graph)
    assert induced_width(graph, order) == width == 3


def test_exact_empty_graph():
    assert treewidth_exact(nx.Graph()) == 0


def test_exact_single_node():
    graph = nx.Graph()
    graph.add_node("x")
    width, order = treewidth_exact_order(graph)
    assert width == 0
    assert order == ["x"]


def test_exact_disconnected():
    graph = nx.disjoint_union(nx.cycle_graph(4), nx.path_graph(3))
    assert treewidth_exact(graph) == 2


def test_node_limit_enforced():
    big = nx.path_graph(EXACT_NODE_LIMIT + 1)
    with pytest.raises(ValueError, match="exact treewidth limited"):
        treewidth_exact(big)


class TestPinnedFirst:
    def test_pinned_clique_keeps_treewidth(self):
        # The pinned set is a clique => optimal width is unaffected.
        graph = nx.cycle_graph(6)
        graph.add_edge(0, 1)  # already there; {0, 1} is a clique
        width, order = treewidth_exact_order(graph, pinned_first={0, 1})
        assert set(order[:2]) == {0, 1}
        assert width == 2
        assert induced_width(graph, order) == width

    def test_pinned_nodes_not_in_graph_rejected(self):
        with pytest.raises(ValueError):
            treewidth_exact_order(nx.path_graph(3), pinned_first={99})

    def test_pinned_non_clique_can_cost_width(self):
        # Pinning both endpoints of a path forces them into late bags.
        graph = nx.path_graph(5)
        width, order = treewidth_exact_order(graph, pinned_first={0, 4})
        assert set(order[:2]) == {0, 4}
        assert width >= 1
        assert induced_width(graph, order) == width


class TestBounds:
    @pytest.mark.parametrize("graph,expected", KNOWN_TREEWIDTHS[:8])
    def test_bounds_sandwich_exact(self, graph, expected):
        lower = treewidth_lower_bound(graph)
        upper = treewidth_upper_bound(graph)
        assert lower <= expected <= upper

    def test_lower_bound_empty(self):
        assert treewidth_lower_bound(nx.Graph()) == 0

    def test_upper_bound_empty(self):
        assert treewidth_upper_bound(nx.Graph()) == 0

    def test_upper_bound_tight_on_trees(self):
        assert treewidth_upper_bound(nx.balanced_tree(3, 2)) == 1

    def test_lower_bound_clique(self):
        assert treewidth_lower_bound(nx.complete_graph(5)) == 4


@st.composite
def random_small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=14, unique=True)) if pairs else []
    graph.add_edges_from(edges)
    return graph


@given(random_small_graphs())
def test_exact_between_bounds(graph):
    exact = treewidth_exact(graph)
    assert treewidth_lower_bound(graph) <= exact <= treewidth_upper_bound(graph)


@given(random_small_graphs())
def test_exact_order_always_witnesses(graph):
    width, order = treewidth_exact_order(graph)
    assert sorted(order) == sorted(graph.nodes)
    assert induced_width(graph, order) == width
