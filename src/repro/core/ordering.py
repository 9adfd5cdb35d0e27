"""Variable (elimination) orders and induced width.

Bucket elimination processes variables from the *last* to the *first* of a
numbering ``x1, ..., xn``; the arity of the relations it computes along the
way is governed by the **induced width** of that numbering.  Theorem 2 of
the paper: the minimum induced width over all numberings equals the
treewidth of the join graph — so good numberings are exactly good tree
decompositions, and finding the best one is NP-hard.

This module provides the heuristic orders used in practice:

- :func:`mcs_order` — the maximum-cardinality-search order of Tarjan and
  Yannakakis, the paper's choice (Section 5), with target-schema variables
  numbered first so they are eliminated last;
- :func:`min_degree_order` and :func:`min_fill_order` — the classic greedy
  elimination heuristics, used by the ablation benchmark;
- :func:`random_order` — the ablation baseline;
- :func:`induced_width` — induced width of a numbering, by simulating the
  elimination and counting fill.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from itertools import combinations
from typing import Hashable

from repro.core.join_graph import Graph
from repro.errors import OrderingError

Node = Hashable


def _check_order(graph: Graph, order: Sequence[Node]) -> None:
    if set(order) != set(graph.nodes) or len(order) != graph.number_of_nodes():
        raise OrderingError(
            "order is not a permutation of the graph's nodes "
            f"(order has {len(order)} entries, graph has {graph.number_of_nodes()} nodes)"
        )


def _sorted_nodes(nodes: Iterable[Node]) -> list[Node]:
    """Deterministic node listing (sort by repr to allow mixed types)."""
    return sorted(nodes, key=repr)


def mcs_order(
    graph: Graph,
    initial: Sequence[Node] = (),
    rng: random.Random | None = None,
) -> list[Node]:
    """Maximum-cardinality-search numbering ``x1, ..., xn``.

    ``initial`` variables (the target schema, in the paper's usage) are
    numbered first, so that the descending bucket pass eliminates them
    last.  After that, each step picks the unnumbered node with the most
    already-numbered neighbours; ties are broken randomly via ``rng`` (or
    deterministically by node name when ``rng`` is None).
    """
    rng = rng or random.Random(0)
    _check_subset(graph, initial)
    numbered: list[Node] = []
    numbered_set: set[Node] = set()
    weights: dict[Node, int] = {node: 0 for node in graph.nodes}

    def number(node: Node) -> None:
        numbered.append(node)
        numbered_set.add(node)
        del weights[node]
        for neighbor in graph.neighbors(node):
            if neighbor in weights:
                weights[neighbor] += 1

    for node in initial:
        if node not in numbered_set:
            number(node)
    while weights:
        best_weight = max(weights.values())
        candidates = _sorted_nodes(
            node for node, weight in weights.items() if weight == best_weight
        )
        number(candidates[0] if len(candidates) == 1 else rng.choice(candidates))
    return numbered


def _check_subset(graph: Graph, nodes: Sequence[Node]) -> None:
    unknown = [node for node in nodes if node not in graph]
    if unknown:
        raise OrderingError(f"initial nodes {unknown!r} are not in the graph")


def min_degree_order(
    graph: Graph,
    initial: Sequence[Node] = (),
    rng: random.Random | None = None,
) -> list[Node]:
    """Min-degree elimination numbering.

    The *elimination* pass runs from the end of the numbering backwards,
    so the heuristic fills the numbering from position ``n`` down to 1:
    at each step the minimum-degree node of the shrinking (fill-in) graph
    takes the highest free position.  ``initial`` nodes are pinned to the
    first positions, exactly as in :func:`mcs_order`.
    """
    rng = rng or random.Random(0)
    _check_subset(graph, initial)
    pinned = list(dict.fromkeys(initial))
    working = graph.copy()
    working.remove_nodes_from(pinned)
    reverse_tail: list[Node] = []
    while working.number_of_nodes():
        best_degree = min(dict(working.degree).values())
        candidates = _sorted_nodes(
            node for node, degree in working.degree if degree == best_degree
        )
        node = candidates[0] if len(candidates) == 1 else rng.choice(candidates)
        neighbors = list(working.neighbors(node))
        working.add_edges_from(combinations(neighbors, 2))
        working.remove_node(node)
        reverse_tail.append(node)
    return pinned + list(reversed(reverse_tail))


def min_fill_order(
    graph: Graph,
    initial: Sequence[Node] = (),
    rng: random.Random | None = None,
) -> list[Node]:
    """Min-fill elimination numbering: eliminate the node whose removal
    adds the fewest fill edges.  Usually the strongest of the classic
    greedy heuristics; included for the ordering ablation."""
    rng = rng or random.Random(0)
    _check_subset(graph, initial)
    pinned = list(dict.fromkeys(initial))
    working = graph.copy()
    working.remove_nodes_from(pinned)
    reverse_tail: list[Node] = []

    def fill_count(node: Node) -> int:
        neighbors = list(working.neighbors(node))
        return sum(
            1 for u, v in combinations(neighbors, 2) if not working.has_edge(u, v)
        )

    while working.number_of_nodes():
        fills = {node: fill_count(node) for node in working.nodes}
        best = min(fills.values())
        candidates = _sorted_nodes(node for node, f in fills.items() if f == best)
        node = candidates[0] if len(candidates) == 1 else rng.choice(candidates)
        neighbors = list(working.neighbors(node))
        working.add_edges_from(combinations(neighbors, 2))
        working.remove_node(node)
        reverse_tail.append(node)
    return pinned + list(reversed(reverse_tail))


def random_order(
    graph: Graph,
    initial: Sequence[Node] = (),
    rng: random.Random | None = None,
) -> list[Node]:
    """Uniformly random numbering with ``initial`` pinned first — the
    "no heuristic" baseline for the ordering ablation."""
    rng = rng or random.Random(0)
    _check_subset(graph, initial)
    pinned = list(dict.fromkeys(initial))
    rest = _sorted_nodes(set(graph.nodes) - set(pinned))
    rng.shuffle(rest)
    return pinned + rest


ORDER_HEURISTICS = {
    "mcs": mcs_order,
    "min_degree": min_degree_order,
    "min_fill": min_fill_order,
    "random": random_order,
}


def induced_width(graph: Graph, order: Sequence[Node]) -> int:
    """Induced width of numbering ``order`` on ``graph``.

    Simulates the elimination pass: processing nodes from the last of the
    numbering to the first, each node's *earlier* neighbours (in the
    current fill-in graph) are connected pairwise and counted.  The induced
    width is the maximum such count; the treewidth of the graph is the
    minimum induced width over all numberings.
    """
    _check_order(graph, order)
    position = {node: index for index, node in enumerate(order)}
    adjacency: dict[Node, set[Node]] = {
        node: set(graph.neighbors(node)) for node in graph.nodes
    }
    width = 0
    for node in reversed(order):
        earlier = {
            neighbor
            for neighbor in adjacency[node]
            if position[neighbor] < position[node]
        }
        width = max(width, len(earlier))
        for u, v in combinations(earlier, 2):
            adjacency[u].add(v)
            adjacency[v].add(u)
        for neighbor in adjacency[node]:
            adjacency[neighbor].discard(node)
        adjacency[node] = set()
    return width


def elimination_fronts(graph: Graph, order: Sequence[Node]) -> dict[Node, frozenset[Node]]:
    """For each node, its elimination front: the node plus its earlier
    neighbours in the fill-in graph at elimination time.

    The fronts are exactly the bags of the tree decomposition induced by
    the numbering, and the bucket variables of bucket elimination.
    """
    _check_order(graph, order)
    position = {node: index for index, node in enumerate(order)}
    adjacency: dict[Node, set[Node]] = {
        node: set(graph.neighbors(node)) for node in graph.nodes
    }
    fronts: dict[Node, frozenset[Node]] = {}
    for node in reversed(order):
        earlier = {
            neighbor
            for neighbor in adjacency[node]
            if position[neighbor] < position[node]
        }
        fronts[node] = frozenset(earlier | {node})
        for u, v in combinations(earlier, 2):
            adjacency[u].add(v)
            adjacency[v].add(u)
        for neighbor in adjacency[node]:
            adjacency[neighbor].discard(node)
        adjacency[node] = set()
    return fronts
