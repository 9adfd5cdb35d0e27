"""``repro.core.join_graph.Graph`` against ``networkx.Graph``, its model.

The ordering heuristics break ties by node, neighbour and edge iteration
order, so "same graph" is not enough: after any sequence of mutations the
two must *list* their nodes, neighbours and edges identically.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.join_graph import Graph, is_connected, tree_path
from repro.core.ordering import mcs_order, min_degree_order, min_fill_order

NODES = st.integers(min_value=0, max_value=7)
EDGES = st.tuples(NODES, NODES).filter(lambda edge: edge[0] != edge[1])
OPERATIONS = st.one_of(
    st.tuples(st.just("add_node"), NODES),
    st.tuples(st.just("add_edge"), NODES, NODES).filter(lambda op: op[1] != op[2]),
    st.tuples(st.just("add_nodes_from"), st.lists(NODES, max_size=4)),
    st.tuples(st.just("add_edges_from"), st.lists(EDGES, max_size=4)),
    st.tuples(st.just("remove_node"), NODES),
    st.tuples(st.just("remove_nodes_from"), st.lists(NODES, max_size=3)),
    st.tuples(st.just("copy")),
)


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


def observe(graph) -> dict:
    """Everything ``repro`` reads off a graph, order included."""
    nodes = list(graph.nodes)
    return {
        "nodes": nodes,
        "iter": list(graph),
        "len": (len(graph), graph.number_of_nodes(), graph.number_of_edges()),
        "neighbors": {node: list(graph.neighbors(node)) for node in nodes},
        "edges": list(graph.edges),
        "degree": list(dict(graph.degree).items()),
        "pairs": list(graph.degree),
        "has_edge": [(u, v) for u in range(9) for v in range(9) if graph.has_edge(u, v)],
        "contains": [node for node in range(9) if node in graph],
        "connected": is_connected(graph) if nodes else None,
    }


def apply(graph, operation):
    name, *arguments = operation
    if name == "copy":
        return graph.copy()
    if name == "remove_node" and arguments[0] not in graph:
        with pytest.raises(Exception):
            graph.remove_node(*arguments)
        return graph
    getattr(graph, name)(*arguments)
    return graph


def build(nx, operations):
    ours, theirs = Graph(), nx.Graph()
    for operation in operations:
        ours, theirs = apply(ours, operation), apply(theirs, operation)
    return ours, theirs


@given(st.lists(OPERATIONS, max_size=30))
def test_every_mutation_sequence_lists_like_networkx(nx, operations):
    ours, theirs = Graph(), nx.Graph()
    for operation in operations:
        ours, theirs = apply(ours, operation), apply(theirs, operation)
        assert observe(ours) == observe(theirs)
    if len(theirs):
        assert is_connected(ours) == nx.is_connected(theirs)


@given(st.lists(OPERATIONS, max_size=30))
def test_heuristics_pick_the_same_orders_on_either(nx, operations):
    ours, theirs = build(nx, operations)
    for heuristic in (mcs_order, min_degree_order, min_fill_order):
        assert heuristic(ours) == heuristic(theirs)


@given(st.lists(OPERATIONS, max_size=30), st.sets(st.integers(0, 9), max_size=6))
def test_subgraph_induces_the_same_graph(nx, operations, chosen):
    """``networkx`` hands back a view whose node order may follow the
    chosen *set*, so order is ours to fix (this graph's), not to match."""
    ours, theirs = build(nx, operations)
    induced, view = ours.subgraph(chosen), theirs.subgraph(chosen)
    assert list(induced.nodes) == [node for node in ours.nodes if node in chosen]
    assert set(induced.nodes) == set(view.nodes)
    assert {frozenset(edge) for edge in induced.edges} == {
        frozenset(edge) for edge in view.edges
    }
    for node in induced.nodes:
        assert list(induced.neighbors(node)) == [
            other for other in ours.neighbors(node) if other in chosen
        ]
    if len(view):
        assert is_connected(induced) == nx.is_connected(view)
    induced.add_edge(98, 99)  # a new graph, not a view
    assert 98 not in ours


@given(
    st.lists(st.integers(0, 100), min_size=1, max_size=12),
    st.integers(0, 100),
    st.integers(0, 100),
)
def test_tree_paths_are_the_tree_paths(nx, parents, a, b):
    """Node ``i + 1`` hangs under an earlier node: a random tree, where
    the shortest path is the only one."""
    ours, theirs = Graph(), nx.Graph()
    for child, draw in enumerate(parents, start=1):
        ours.add_edge(draw % child, child)
        theirs.add_edge(draw % child, child)
    source, target = a % len(theirs), b % len(theirs)
    expected = nx.shortest_path(theirs, source, target)
    assert tree_path(ours, source, target) == expected
    assert tree_path(theirs, source, target) == expected  # duck-typed


@given(st.lists(EDGES, max_size=12), NODES, NODES)
def test_paths_in_any_graph_are_shortest(nx, edges, source, target):
    ours, theirs = Graph(), nx.Graph()
    for graph in (ours, theirs):
        graph.add_nodes_from(range(8))
        graph.add_edges_from(edges)
    if not nx.has_path(theirs, source, target):
        with pytest.raises(ValueError):
            tree_path(ours, source, target)
        return
    path = tree_path(ours, source, target)
    assert (path[0], path[-1]) == (source, target)
    assert len(path) == nx.shortest_path_length(theirs, source, target) + 1
    assert all(ours.has_edge(u, v) for u, v in zip(path, path[1:]))


# ----------------------------------------------------------------------
# What needs no oracle
# ----------------------------------------------------------------------
def test_a_copy_shares_nothing():
    graph = Graph()
    graph.add_edges_from([("a", "b"), ("b", "c")])
    clone = graph.copy()
    clone.remove_node("b")
    clone.add_edge("a", "z")
    assert list(graph.edges) == [("a", "b"), ("b", "c")]
    assert list(graph.neighbors("b")) == ["a", "c"]


def test_the_graph_is_simple():
    graph = Graph()
    graph.add_edge("a", "b")
    graph.add_edge("b", "a")
    assert graph.number_of_edges() == 1
    with pytest.raises(ValueError, match="self-loop"):
        graph.add_edge("a", "a")


def test_absent_nodes():
    graph = Graph()
    graph.add_node("a")
    with pytest.raises(KeyError):
        graph.remove_node("b")
    with pytest.raises(KeyError):
        graph.neighbors("b")
    graph.remove_nodes_from(["a", "b"])  # the bulk form skips strangers
    assert len(graph) == 0 and not graph.has_edge("a", "b")


def test_connectivity():
    graph = Graph()
    with pytest.raises(ValueError):
        is_connected(graph)
    graph.add_edges_from([(1, 2), (3, 4)])
    assert not is_connected(graph)
    with pytest.raises(ValueError, match="no path"):
        tree_path(graph, 1, 4)
    graph.add_edge(2, 3)
    assert is_connected(graph)
    assert tree_path(graph, 1, 4) == [1, 2, 3, 4]
    assert tree_path(graph, 3, 3) == [3]
