"""Tree decompositions of graphs.

A tree decomposition of ``G = (V, E)`` is a tree whose nodes carry *bags*
(subsets of ``V``) such that (1) every vertex is in some bag, (2) every
edge is inside some bag, and (3) the bags containing any fixed vertex form
a connected subtree.  Its width is the largest bag size minus one;
treewidth is the minimum width over all decompositions.

This module provides a validated :class:`TreeDecomposition` container, the
standard constructor from an elimination numbering (whose width equals the
numbering's induced width), and the validators used by the property tests
for Theorem 1.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Hashable, Iterator

from repro.core.join_graph import Graph, is_connected
from repro.core.ordering import elimination_fronts
from repro.errors import QueryStructureError

Node = Hashable
Bag = frozenset


@dataclass
class TreeDecomposition:
    """A tree of bags.

    Attributes
    ----------
    bags:
        Mapping from tree-node id to its bag (a frozenset of graph
        vertices).
    edges:
        Undirected tree edges between tree-node ids.
    """

    bags: dict[int, Bag]
    edges: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        known = set(self.bags)
        for u, v in self.edges:
            if u not in known or v not in known:
                raise QueryStructureError(
                    f"tree edge ({u}, {v}) references unknown node ids"
                )
        if len(self.edges) != max(len(self.bags) - 1, 0):
            raise QueryStructureError(
                f"{len(self.bags)} bags need {max(len(self.bags) - 1, 0)} tree "
                f"edges to form a tree, got {len(self.edges)}"
            )
        if self.bags and not self._is_tree():
            raise QueryStructureError("tree-decomposition edges do not form a tree")

    def _is_tree(self) -> bool:
        tree = self.tree()
        return is_connected(tree) and tree.number_of_edges() == len(self.bags) - 1

    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        """Largest bag size minus one."""
        if not self.bags:
            return -1
        return max(len(bag) for bag in self.bags.values()) - 1

    def node_ids(self) -> list[int]:
        """All tree-node ids, sorted."""
        return sorted(self.bags)

    def neighbors(self, node_id: int) -> Iterator[int]:
        """Tree nodes adjacent to ``node_id``."""
        for u, v in self.edges:
            if u == node_id:
                yield v
            elif v == node_id:
                yield u

    def tree(self) -> Graph:
        """The underlying tree as a graph (node ids only)."""
        tree = Graph()
        tree.add_nodes_from(self.bags)
        tree.add_edges_from(self.edges)
        return tree

    # ------------------------------------------------------------------
    def covers_vertices(self, graph: Graph) -> bool:
        """Property (1): every graph vertex appears in some bag."""
        covered: set[Node] = set()
        for bag in self.bags.values():
            covered.update(bag)
        return set(graph.nodes) <= covered

    def covers_edges(self, graph: Graph) -> bool:
        """Property (2): every graph edge is contained in some bag."""
        return all(
            any({u, v} <= bag for bag in self.bags.values())
            for u, v in graph.edges
        )

    def has_connected_occurrences(self) -> bool:
        """Property (3): for each vertex, the bags containing it induce a
        connected subtree."""
        tree = self.tree()
        vertices: set[Node] = set()
        for bag in self.bags.values():
            vertices.update(bag)
        for vertex in vertices:
            holding = [nid for nid, bag in self.bags.items() if vertex in bag]
            if len(holding) <= 1:
                continue
            if not is_connected(tree.subgraph(holding)):
                return False
        return True

    def is_valid_for(self, graph: Graph) -> bool:
        """All three tree-decomposition properties at once."""
        return (
            self.covers_vertices(graph)
            and self.covers_edges(graph)
            and self.has_connected_occurrences()
        )

    def validate_for(self, graph: Graph) -> None:
        """Raise :class:`~repro.errors.QueryStructureError` naming the first
        violated property, if any."""
        if not self.covers_vertices(graph):
            raise QueryStructureError("tree decomposition misses some vertices")
        if not self.covers_edges(graph):
            raise QueryStructureError("tree decomposition misses some edges")
        if not self.has_connected_occurrences():
            raise QueryStructureError(
                "some vertex occurs in a disconnected set of bags"
            )

    def find_bag_containing(self, vertices: frozenset[Node] | set[Node]) -> int | None:
        """Id of some bag containing all ``vertices``, or None."""
        target = frozenset(vertices)
        for node_id in sorted(self.bags):
            if target <= self.bags[node_id]:
                return node_id
        return None

    def copy(self) -> "TreeDecomposition":
        """A shallow, independently mutable copy."""
        return TreeDecomposition(dict(self.bags), list(self.edges))


def from_elimination_order(
    graph: Graph, order: Sequence[Node]
) -> TreeDecomposition:
    """Tree decomposition induced by a numbering ``x1..xn``.

    Bags are the elimination fronts (vertex + earlier fill-in neighbours at
    elimination time, eliminating from the end of the numbering); each bag
    attaches to the bag of the latest-numbered earlier neighbour.  The
    width equals the induced width of the numbering — this is the standard
    bridge between elimination orders and decompositions, and the
    constructive half of Theorem 2.
    """
    if graph.number_of_nodes() == 0:
        return TreeDecomposition({0: frozenset()}, [])
    fronts = elimination_fronts(graph, order)
    position = {node: index for index, node in enumerate(order)}
    node_id_of = {node: index for index, node in enumerate(order)}
    bags = {node_id_of[node]: fronts[node] for node in order}
    edges: list[tuple[int, int]] = []
    for node in order:
        earlier = [v for v in fronts[node] if position[v] < position[node]]
        if earlier:
            parent = max(earlier, key=lambda v: position[v])
            edges.append((node_id_of[node], node_id_of[parent]))
        elif position[node] > 0:
            # Disconnected component: attach to the first-numbered node so
            # the result is still a tree.
            edges.append((node_id_of[node], node_id_of[order[0]]))
    return TreeDecomposition(bags, edges)


def trivial_decomposition(graph: Graph) -> TreeDecomposition:
    """The one-bag decomposition (width = |V| - 1); handy in tests."""
    return TreeDecomposition({0: frozenset(graph.nodes)}, [])


def decomposition_from_bags(
    bags: Mapping[int, frozenset[Node] | set[Node]],
    edges: Sequence[tuple[int, int]],
) -> TreeDecomposition:
    """Explicit constructor with normalization to frozensets."""
    return TreeDecomposition(
        {nid: frozenset(bag) for nid, bag in bags.items()}, list(edges)
    )
