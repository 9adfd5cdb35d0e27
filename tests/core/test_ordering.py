"""Variable orderings and induced width."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.ordering import (
    ORDER_HEURISTICS,
    elimination_fronts,
    induced_width,
    mcs_order,
    min_degree_order,
    min_fill_order,
    random_order,
)
from repro.errors import OrderingError

# The oracle: these tests hand networkx graphs to repro's duck-typed
# graph functions; without networkx installed they are skipped.
nx = pytest.importorskip("networkx")


def path_graph(n):
    return nx.path_graph([f"v{i}" for i in range(n)])


def cycle_graph(n):
    return nx.cycle_graph([f"v{i}" for i in range(n)])


def clique_graph(n):
    return nx.complete_graph([f"v{i}" for i in range(n)])


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    nodes = [f"v{i}" for i in range(n)]
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    possible = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
    chosen = draw(st.lists(st.sampled_from(possible), max_size=12, unique=True)) if possible else []
    graph.add_edges_from(chosen)
    return graph


class TestMcsOrder:
    def test_is_permutation(self):
        graph = cycle_graph(6)
        order = mcs_order(graph)
        assert sorted(order) == sorted(graph.nodes)

    def test_initial_pinned_first(self):
        graph = cycle_graph(6)
        order = mcs_order(graph, initial=("v3", "v5"))
        assert order[:2] == ["v3", "v5"]

    def test_initial_duplicates_ignored(self):
        graph = path_graph(4)
        order = mcs_order(graph, initial=("v0", "v0"))
        assert order[0] == "v0"
        assert sorted(order) == sorted(graph.nodes)

    def test_unknown_initial_rejected(self):
        with pytest.raises(OrderingError):
            mcs_order(path_graph(3), initial=("ghost",))

    def test_mcs_on_chordal_graph_gives_treewidth(self):
        # MCS produces a perfect elimination order on chordal graphs:
        # induced width equals treewidth.  A triangulated path of cliques:
        graph = nx.Graph()
        for i in range(5):
            graph.add_edges_from(
                [(f"a{i}", f"b{i}"), (f"a{i}", f"a{i + 1}"), (f"b{i}", f"a{i + 1}")]
            )
        order = mcs_order(graph)
        assert induced_width(graph, order) == 2

    def test_deterministic_without_rng(self):
        graph = cycle_graph(8)
        assert mcs_order(graph) == mcs_order(graph)


class TestGreedyOrders:
    @pytest.mark.parametrize("heuristic", [min_degree_order, min_fill_order])
    def test_is_permutation(self, heuristic):
        graph = cycle_graph(7)
        order = heuristic(graph)
        assert sorted(order) == sorted(graph.nodes)

    @pytest.mark.parametrize("heuristic", [min_degree_order, min_fill_order])
    def test_pinned_first(self, heuristic):
        graph = cycle_graph(7)
        order = heuristic(graph, initial=("v2",))
        assert order[0] == "v2"

    def test_min_fill_optimal_on_cycle(self):
        graph = cycle_graph(9)
        assert induced_width(graph, min_fill_order(graph)) == 2

    def test_min_degree_optimal_on_tree(self):
        tree = nx.balanced_tree(2, 3)
        assert induced_width(tree, min_degree_order(tree)) == 1

    def test_random_order_permutation_and_pin(self):
        graph = cycle_graph(5)
        order = random_order(graph, initial=("v4",), rng=random.Random(1))
        assert order[0] == "v4"
        assert sorted(order) == sorted(graph.nodes)

    def test_registry(self):
        assert set(ORDER_HEURISTICS) == {"mcs", "min_degree", "min_fill", "random"}


class TestInducedWidth:
    def test_path_any_order_at_least_one(self):
        graph = path_graph(5)
        natural = [f"v{i}" for i in range(5)]
        assert induced_width(graph, natural) == 1

    def test_path_bad_order_is_wider(self):
        graph = path_graph(5)
        # Eliminating the middle first fills in its neighbours.
        bad = ["v0", "v4", "v1", "v3", "v2"]
        assert induced_width(graph, bad) >= 1

    def test_cycle_is_two(self):
        graph = cycle_graph(6)
        order = min_fill_order(graph)
        assert induced_width(graph, order) == 2

    def test_clique_is_n_minus_one(self):
        graph = clique_graph(5)
        order = list(graph.nodes)
        assert induced_width(graph, order) == 4

    def test_non_permutation_rejected(self):
        with pytest.raises(OrderingError):
            induced_width(path_graph(3), ["v0", "v1"])

    def test_single_node(self):
        graph = nx.Graph()
        graph.add_node("x")
        assert induced_width(graph, ["x"]) == 0

    @given(small_graphs())
    def test_induced_width_bounded_by_nodes(self, graph):
        order = sorted(graph.nodes)
        width = induced_width(graph, order)
        assert 0 <= width <= max(len(order) - 1, 0)

    @given(small_graphs())
    def test_induced_width_at_least_degeneracy_floor(self, graph):
        """Any order's induced width is at least the graph's min-degree
        peeling bound (a weak but universal sanity floor)."""
        if graph.number_of_nodes() == 0:
            return
        from repro.core.treewidth import treewidth_lower_bound

        order = sorted(graph.nodes)
        assert induced_width(graph, order) >= treewidth_lower_bound(graph) - 1


class TestEliminationFronts:
    def test_fronts_cover_all_edges(self):
        graph = cycle_graph(5)
        order = sorted(graph.nodes)
        fronts = elimination_fronts(graph, order)
        for u, v in graph.edges:
            assert any({u, v} <= front for front in fronts.values())

    def test_front_sizes_match_induced_width(self):
        graph = cycle_graph(7)
        order = min_fill_order(graph)
        fronts = elimination_fronts(graph, order)
        assert max(len(front) for front in fronts.values()) - 1 == induced_width(
            graph, order
        )

    def test_each_front_contains_its_variable(self):
        graph = path_graph(4)
        fronts = elimination_fronts(graph, sorted(graph.nodes))
        for node, front in fronts.items():
            assert node in front
