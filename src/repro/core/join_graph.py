"""The join graph of a project-join query.

Section 5 of the paper: the join graph ``G_Q`` has the query's attributes
as nodes; every relation scheme contributes a clique over its attributes,
and the target schema contributes one more clique (so that free variables,
which must all survive to the final result, are forced into a common bag of
any tree decomposition).

The treewidth of this graph characterizes the power of projection pushing
and join reordering: Theorem 1 says the join width of the query is exactly
``tw(G_Q) + 1``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable, Iterator
from itertools import combinations

from repro.core.query import ConjunctiveQuery

Node = Hashable


class Graph:
    """An undirected simple graph: ``{node: {neighbour: None}}``.

    Exactly the part of ``networkx.Graph`` that ``repro.core`` and
    ``repro.viz`` use, with the same node, neighbour and edge iteration
    order (insertion order, dicts all the way down) — the tie-breaks of
    MCS, min-degree and min-fill read that order, so it decides plans.
    Every function taking a graph is duck-typed on this surface and
    accepts a ``networkx.Graph`` as well.
    """

    __slots__ = ("_adj",)

    def __init__(self) -> None:
        self._adj: dict[Node, dict[Node, None]] = {}

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    def __contains__(self, node: object) -> bool:
        return node in self._adj

    @property
    def nodes(self):
        """Set-like view of the nodes, in insertion order."""
        return self._adj.keys()

    @property
    def edges(self) -> list[tuple[Node, Node]]:
        """Each edge once, as ``networkx`` lists them: by first endpoint
        in node order, then in that endpoint's neighbour order."""
        done: set[Node] = set()
        out = []
        for node, neighbors in self._adj.items():
            out.extend((node, other) for other in neighbors if other not in done)
            done.add(node)
        return out

    @property
    def degree(self) -> list[tuple[Node, int]]:
        """``(node, degree)`` pairs in node order."""
        return [(node, len(neighbors)) for node, neighbors in self._adj.items()]

    def neighbors(self, node: Node) -> Iterator[Node]:
        return iter(self._adj[node])

    def has_edge(self, u: Node, v: Node) -> bool:
        return v in self._adj.get(u, ())

    def number_of_nodes(self) -> int:
        return len(self._adj)

    def number_of_edges(self) -> int:
        return sum(map(len, self._adj.values())) // 2

    def add_node(self, node: Node) -> None:
        self._adj.setdefault(node, {})

    def add_nodes_from(self, nodes: Iterable[Node]) -> None:
        for node in nodes:
            self._adj.setdefault(node, {})

    def add_edge(self, u: Node, v: Node) -> None:
        if u == v:
            raise ValueError(f"self-loop on {u!r}: the graph is simple")
        adj = self._adj
        adj.setdefault(u, {})[v] = None
        adj.setdefault(v, {})[u] = None

    def add_edges_from(self, edges: Iterable[tuple[Node, Node]]) -> None:
        for u, v in edges:
            self.add_edge(u, v)

    def remove_node(self, node: Node) -> None:
        for other in self._adj.pop(node):
            del self._adj[other][node]

    def remove_nodes_from(self, nodes: Iterable[Node]) -> None:
        for node in nodes:
            if node in self._adj:
                self.remove_node(node)

    def copy(self) -> "Graph":
        """A copy rebuilt the way ``networkx`` rebuilds one — nodes, then
        each node's edges in turn — which can reorder a neighbour list
        (earlier nodes come first in it); ``min_degree`` and ``min_fill``
        work on such a copy."""
        clone = Graph()
        clone._adj = adj = {node: {} for node in self._adj}
        for node, neighbors in self._adj.items():
            for other in neighbors:
                adj[node][other] = None
                adj[other][node] = None
        return clone

    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """The graph induced on ``nodes`` (a new graph, in this graph's
        node and neighbour order)."""
        keep = set(nodes)
        induced = Graph()
        induced._adj = {
            node: {other: None for other in neighbors if other in keep}
            for node, neighbors in self._adj.items()
            if node in keep
        }
        return induced


def tree_path(graph, source: Node, target: Node) -> list[Node]:
    """Nodes of a shortest ``source``–``target`` path (breadth-first; in a
    tree, *the* path).  ``ValueError`` when there is none."""
    parent = {source: source}
    queue = deque([source])
    while queue and target not in parent:
        current = queue.popleft()
        for other in graph.neighbors(current):
            if other not in parent:
                parent[other] = current
                queue.append(other)
    if target not in parent:
        raise ValueError(f"no path from {source!r} to {target!r}")
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    return path[::-1]


def is_connected(graph) -> bool:
    """Whether every node is reachable from every other."""
    if not len(graph):
        raise ValueError("connectivity is undefined for the empty graph")
    stack = [next(iter(graph))]
    reached = set(stack)
    while stack:
        for other in graph.neighbors(stack.pop()):
            if other not in reached:
                reached.add(other)
                stack.append(other)
    return len(reached) == len(graph)


def join_graph(query: ConjunctiveQuery) -> Graph:
    """Build the join graph ``G_Q`` of ``query``.

    Nodes are variable names.  Each atom yields a clique over its
    variables; the target schema yields an additional clique.  Isolated
    variables (atoms of arity one) are still added as nodes.
    """
    graph = Graph()
    graph.add_nodes_from(query.variables)
    for atom in query.atoms:
        variables = atom.variables
        graph.add_nodes_from(variables)
        graph.add_edges_from(combinations(variables, 2))
    graph.add_edges_from(combinations(query.free_variables, 2))
    return graph


def primal_graph_of_cliques(cliques: list[tuple[str, ...]]) -> Graph:
    """Build a graph from explicit cliques (used by tests and the SAT
    workload, whose constraint scopes play the role of relation schemes)."""
    graph = Graph()
    for clique in cliques:
        graph.add_nodes_from(clique)
        graph.add_edges_from(combinations(clique, 2))
    return graph


def is_clique(graph: Graph, nodes: frozenset[str] | set[str]) -> bool:
    """Whether ``nodes`` induce a clique in ``graph``."""
    return all(graph.has_edge(u, v) for u, v in combinations(nodes, 2))
