"""Graphviz DOT export for plans, join graphs, and tree decompositions.

No rendering dependency: these functions emit DOT text, which any
graphviz installation (or online viewer) turns into diagrams.  They are
the pictures of the paper — join graphs with their cliques, tree
decompositions with bags, and plan trees with per-node width — as
artifacts a user can generate for *their* queries.
"""

from __future__ import annotations

from repro.core.join_graph import Graph
from repro.core.query import ConjunctiveQuery
from repro.core.tree_decomposition import TreeDecomposition
from repro.plans import Plan, Project, Scan, Semijoin, children


def _quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _plan_node_label(node: Plan) -> str:
    if isinstance(node, Scan):
        return f"Scan {node.relation}({', '.join(node.variables)})"
    if isinstance(node, Project):
        return f"π[{', '.join(node.columns) or '∅'}]"
    if isinstance(node, Semijoin):
        return f"⋉ (arity {node.arity})"
    return f"⋈ (arity {node.arity})"


def plan_to_dot(plan: Plan, title: str = "plan") -> str:
    """DOT digraph of a plan tree, nodes labelled with operator + arity.

    Iterative (explicit task stack) so arbitrarily deep plans export
    without recursion.  Node ids are assigned in pre-order and each
    parent→child edge line follows the child's entire subtree, matching
    the historical (recursive) output byte for byte.
    """
    lines = [f"digraph {_quote(title)} {{", "  node [shape=box];"]
    counter = 0
    # ref-cells let an "edge" task read the id a later "visit" assigns
    root_ref: list[str] = []
    tasks: list[tuple[str, object, list[str]]] = [("visit", plan, root_ref)]
    while tasks:
        kind, payload, ref = tasks.pop()
        if kind == "edge":
            lines.append(f"  {payload} -> {ref[0]};")
            continue
        node = payload
        my_id = f"n{counter}"
        counter += 1
        ref.append(my_id)
        lines.append(f"  {my_id} [label={_quote(_plan_node_label(node))}];")
        pending: list[tuple[str, object, list[str]]] = []
        for child in children(node):
            child_ref: list[str] = []
            pending.append(("visit", child, child_ref))
            pending.append(("edge", my_id, child_ref))
        tasks.extend(reversed(pending))
    lines.append("}")
    return "\n".join(lines)


def join_graph_to_dot(
    query: ConjunctiveQuery, title: str = "join_graph"
) -> str:
    """DOT graph of the query's join graph; free variables are drawn
    doubled (they anchor the target-schema clique)."""
    from repro.core.join_graph import join_graph

    graph = join_graph(query)
    free = set(query.free_variables)
    lines = [f"graph {_quote(title)} {{", "  node [shape=circle];"]
    for node in sorted(graph.nodes):
        shape = "doublecircle" if node in free else "circle"
        lines.append(f"  {_quote(str(node))} [shape={shape}];")
    for u, v in sorted(graph.edges, key=lambda e: (str(e[0]), str(e[1]))):
        lines.append(f"  {_quote(str(u))} -- {_quote(str(v))};")
    lines.append("}")
    return "\n".join(lines)


def decomposition_to_dot(
    decomposition: TreeDecomposition, title: str = "tree_decomposition"
) -> str:
    """DOT graph of a tree decomposition; each node shows its bag."""
    lines = [f"graph {_quote(title)} {{", "  node [shape=box];"]
    for node_id in decomposition.node_ids():
        bag = decomposition.bags[node_id]
        label = "{" + ", ".join(sorted(str(v) for v in bag)) + "}"
        lines.append(f"  b{node_id} [label={_quote(label)}];")
    for u, v in sorted(decomposition.edges):
        lines.append(f"  b{u} -- b{v};")
    lines.append("}")
    return "\n".join(lines)


def graph_to_dot(graph: Graph, title: str = "graph") -> str:
    """DOT rendering of any undirected graph (workload families)."""
    lines = [f"graph {_quote(title)} {{"]
    for node in sorted(graph.nodes, key=str):
        lines.append(f"  {_quote(str(node))};")
    for u, v in sorted(graph.edges, key=lambda e: (str(e[0]), str(e[1]))):
        lines.append(f"  {_quote(str(u))} -- {_quote(str(v))};")
    lines.append("}")
    return "\n".join(lines)
