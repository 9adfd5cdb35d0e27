"""Weighted widths: attributes with different byte-widths (Section 7).

The paper's conclusions ask for "queries with *weighted* attributes,
reflecting the fact that different attributes may have different widths
in bytes".  The natural generalization: the cost of an intermediate
relation's schema is the *sum of its attributes' weights* rather than its
arity, so the quantity to minimize becomes the weighted induced width.

This module provides:

- :func:`weighted_induced_width` — the weighted analogue of
  :func:`repro.core.ordering.induced_width` (uniform weight 1 recovers
  ``induced width + 1``, since fronts include the eliminated variable);
- :func:`min_weighted_fill_order` — a greedy numbering that eliminates
  the variable whose current front is cheapest in total weight;
- :func:`weighted_plan_cost` — the weighted width of an executable plan,
  so any of the paper's methods can be scored under weights.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import combinations
from typing import Hashable

from repro.core.join_graph import Graph
from repro.errors import OrderingError
from repro.plans import Plan, iter_nodes

Node = Hashable


def _weight_of(weights: Mapping[Node, float], node: Node) -> float:
    weight = weights.get(node, 1.0)
    if weight <= 0:
        raise OrderingError(f"attribute weight for {node!r} must be positive")
    return weight


def weighted_induced_width(
    graph: Graph,
    order: Sequence[Node],
    weights: Mapping[Node, float],
) -> float:
    """Maximum total weight of an elimination front along ``order``.

    With all weights 1 this equals ``induced_width(graph, order) + 1``
    (fronts count the eliminated variable itself, which arity does too).
    """
    if set(order) != set(graph.nodes) or len(order) != graph.number_of_nodes():
        raise OrderingError("order is not a permutation of the graph's nodes")
    position = {node: index for index, node in enumerate(order)}
    adjacency = {node: set(graph.neighbors(node)) for node in graph.nodes}
    widest = 0.0
    for node in reversed(order):
        earlier = {
            neighbor
            for neighbor in adjacency[node]
            if position[neighbor] < position[node]
        }
        front_weight = _weight_of(weights, node) + sum(
            _weight_of(weights, neighbor) for neighbor in earlier
        )
        widest = max(widest, front_weight)
        for u, v in combinations(earlier, 2):
            adjacency[u].add(v)
            adjacency[v].add(u)
        for neighbor in adjacency[node]:
            adjacency[neighbor].discard(node)
        adjacency[node] = set()
    return widest


def min_weighted_fill_order(
    graph: Graph,
    weights: Mapping[Node, float],
    initial: Sequence[Node] = (),
) -> list[Node]:
    """Greedy numbering minimizing weighted fronts.

    At each step (filling the numbering from the back), eliminate the
    node whose front — itself plus its current neighbours — has the
    smallest total weight, breaking ties toward fewer fill edges.
    ``initial`` nodes are pinned to the first positions (eliminated last),
    as bucket elimination requires for free variables.
    """
    unknown = [node for node in initial if node not in graph]
    if unknown:
        raise OrderingError(f"initial nodes {unknown!r} are not in the graph")
    pinned = list(dict.fromkeys(initial))
    working = graph.copy()
    working.remove_nodes_from(pinned)
    reverse_tail: list[Node] = []

    def front_weight(node: Node) -> float:
        return _weight_of(weights, node) + sum(
            _weight_of(weights, neighbor) for neighbor in working.neighbors(node)
        )

    def fill_count(node: Node) -> int:
        neighbors = list(working.neighbors(node))
        return sum(
            1 for u, v in combinations(neighbors, 2) if not working.has_edge(u, v)
        )

    while working.number_of_nodes():
        node = min(
            working.nodes,
            key=lambda n: (front_weight(n), fill_count(n), repr(n)),
        )
        neighbors = list(working.neighbors(node))
        working.add_edges_from(combinations(neighbors, 2))
        working.remove_node(node)
        reverse_tail.append(node)
    return pinned + list(reversed(reverse_tail))


def weighted_plan_cost(plan: Plan, weights: Mapping[str, float]) -> float:
    """Weighted width of a plan: the heaviest operator output schema.

    The plan-level analogue of :func:`weighted_induced_width`, usable to
    score the output of any planning method under byte-width weights.
    """
    heaviest = 0.0
    for node in iter_nodes(plan):
        total = sum(_weight_of(weights, column) for column in node.columns)
        heaviest = max(heaviest, total)
    return heaviest
