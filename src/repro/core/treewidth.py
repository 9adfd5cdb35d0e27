"""Treewidth: exact computation for small graphs, plus bounds.

Finding treewidth is NP-hard (Arnborg–Corneil–Proskurowski), which is why
the paper falls back on the MCS heuristic.  For *validating* Theorems 1
and 2 on small instances, however, exact treewidth is affordable: this
module implements the classic subset dynamic program over elimination
sets (eliminating a vertex set yields the same fill-in graph regardless of
the order within the set), with memoization and lower/upper-bound pruning.

Also provided:

- :func:`treewidth_upper_bound` — best induced width over the heuristic
  orders of :mod:`repro.core.ordering`;
- :func:`treewidth_lower_bound` — the maximum-minimum-degree (MMD) bound;
- :func:`treewidth_exact_order` — an optimal numbering witnessing the
  exact treewidth, reconstructed from the dynamic program.
"""

from __future__ import annotations

import random
from typing import Hashable

from repro.core.join_graph import Graph
from repro.core.ordering import (
    induced_width,
    mcs_order,
    min_degree_order,
    min_fill_order,
)

Node = Hashable

#: Soft cap on exact computation; beyond this the subset DP's memo table
#: becomes the bottleneck (2^n subsets).
EXACT_NODE_LIMIT = 18


def treewidth_lower_bound(graph: Graph) -> int:
    """Maximum-minimum-degree (MMD) lower bound on treewidth.

    Repeatedly delete a minimum-degree vertex; the largest minimum degree
    seen along the way is a lower bound for treewidth.
    """
    if graph.number_of_nodes() == 0:
        return 0
    working = graph.copy()
    bound = 0
    while working.number_of_nodes():
        node, degree = min(working.degree, key=lambda pair: (pair[1], repr(pair[0])))
        bound = max(bound, degree)
        working.remove_node(node)
    return bound


def treewidth_upper_bound(
    graph: Graph, rng: random.Random | None = None
) -> int:
    """Best induced width over the min-fill, min-degree, and MCS orders."""
    if graph.number_of_nodes() == 0:
        return 0
    rng = rng or random.Random(0)
    best = graph.number_of_nodes() - 1
    for heuristic in (min_fill_order, min_degree_order, mcs_order):
        order = heuristic(graph, rng=rng)
        best = min(best, induced_width(graph, order))
    return best


def _eliminated_adjacency(
    graph: Graph, remaining: frozenset[Node]
) -> dict[Node, set[Node]]:
    """Adjacency of the fill-in graph on ``remaining`` after eliminating
    everything else.

    Two remaining nodes are adjacent iff they are adjacent in ``graph`` or
    connected by a path whose interior lies entirely in the eliminated
    set.  This depends only on the eliminated *set*, not the elimination
    order, which is what makes the subset DP sound.
    """
    eliminated = set(graph.nodes) - remaining
    adjacency: dict[Node, set[Node]] = {node: set() for node in remaining}
    for source in remaining:
        # BFS from `source` through eliminated vertices only.
        seen = {source}
        frontier = [source]
        while frontier:
            current = frontier.pop()
            for neighbor in graph.neighbors(current):
                if neighbor in seen:
                    continue
                seen.add(neighbor)
                if neighbor in eliminated:
                    frontier.append(neighbor)
                elif neighbor != source:
                    adjacency[source].add(neighbor)
    return adjacency


def treewidth_exact(graph: Graph) -> int:
    """Exact treewidth by branch-and-bound subset dynamic programming.

    Raises ``ValueError`` for graphs above :data:`EXACT_NODE_LIMIT` nodes;
    use the bounds for larger inputs.
    """
    width, _ = treewidth_exact_order(graph)
    return width


def treewidth_exact_order(
    graph: Graph, pinned_first: frozenset[Node] | set[Node] = frozenset()
) -> tuple[int, list[Node]]:
    """Exact treewidth together with an optimal numbering.

    The returned order is a numbering ``x1..xn`` whose induced width equals
    the treewidth (so feeding it to bucket elimination yields optimal
    intermediate arity, per Theorem 2).

    ``pinned_first`` nodes are forced to occupy the first positions of the
    numbering, i.e. they are eliminated *last*.  For a join graph this is
    the target schema; since the free variables form a clique in the join
    graph, pinning them does not increase the achievable width.
    """
    n = graph.number_of_nodes()
    pinned = frozenset(pinned_first)
    if pinned - set(graph.nodes):
        raise ValueError("pinned_first contains nodes not in the graph")
    if n == 0:
        return 0, []
    if n > EXACT_NODE_LIMIT:
        raise ValueError(
            f"exact treewidth limited to {EXACT_NODE_LIMIT} nodes, graph has {n}"
        )
    upper = graph.number_of_nodes() - 1 if pinned else treewidth_upper_bound(graph)
    lower = 0 if pinned else treewidth_lower_bound(graph)
    all_nodes = frozenset(graph.nodes)
    memo: dict[frozenset[Node], int] = {frozenset(): 0}
    choice: dict[frozenset[Node], Node] = {}

    def solve(remaining: frozenset[Node], budget: int) -> int:
        """Minimum over elimination orders of the max front size within
        ``remaining``; prunes branches whose width would exceed ``budget``."""
        cached = memo.get(remaining)
        if cached is not None:
            return cached
        adjacency = _eliminated_adjacency(graph, remaining)
        best = len(remaining)  # worst case: a clique
        best_node = None
        # Pinned nodes may only be eliminated once everything else is gone.
        eligible = remaining - pinned if remaining - pinned else remaining
        # Eliminate lowest-degree candidates first — better pruning.
        candidates = sorted(
            eligible, key=lambda node: (len(adjacency[node]), repr(node))
        )
        for node in candidates:
            degree = len(adjacency[node])
            if degree >= best or degree > budget:
                continue
            sub_width = solve(remaining - {node}, min(budget, best - 1))
            width = max(degree, sub_width)
            if width < best:
                best = width
                best_node = node
                if best <= lower:
                    break
        memo[remaining] = best
        if best_node is not None:
            choice[remaining] = best_node
        return best

    width = solve(all_nodes, upper)
    # Reconstruct an optimal order by replaying recorded choices; fall back
    # to any remaining node when a subproblem was answered from the
    # trivial-clique default.
    reverse_order: list[Node] = []
    remaining = all_nodes
    while remaining:
        node = choice.get(remaining)
        if node is None:
            node = min(remaining, key=repr)
        reverse_order.append(node)
        remaining = remaining - {node}
    order = list(reversed(reverse_order))
    # The reconstruction is only useful if it truly witnesses the width.
    witnessed = induced_width(graph, order)
    if witnessed != width:  # pragma: no cover - defensive
        # Rebuild greedily within budget; this always succeeds because the
        # DP proved a witness exists.
        order = _rebuild_order(graph, width, pinned)
    return width, order


def _rebuild_order(
    graph: Graph, width: int, pinned: frozenset[Node]
) -> list[Node]:
    """Greedy reconstruction of an order with induced width <= ``width``:
    always eliminate a vertex whose current fill-degree is within budget
    and whose removal keeps the problem solvable."""
    remaining = frozenset(graph.nodes)
    reverse_order: list[Node] = []
    memo: dict[frozenset[Node], bool] = {frozenset(): True}

    def eligible(rem: frozenset[Node]) -> frozenset[Node]:
        return rem - pinned if rem - pinned else rem

    def feasible(rem: frozenset[Node]) -> bool:
        cached = memo.get(rem)
        if cached is not None:
            return cached
        adjacency = _eliminated_adjacency(graph, rem)
        result = any(
            len(adjacency[node]) <= width and feasible(rem - {node})
            for node in sorted(
                eligible(rem), key=lambda n: (len(adjacency[n]), repr(n))
            )
        )
        memo[rem] = result
        return result

    while remaining:
        adjacency = _eliminated_adjacency(graph, remaining)
        for node in sorted(
            eligible(remaining), key=lambda n: (len(adjacency[n]), repr(n))
        ):
            if len(adjacency[node]) <= width and feasible(remaining - {node}):
                reverse_order.append(node)
                remaining = remaining - {node}
                break
    return list(reversed(reverse_order))
