"""Join-expression trees and Algorithms 1–3 of the paper (Theorem 1).

A *join-expression tree* (JET) of a project-join query describes an
evaluation order: joins happen bottom-up and projection is applied as
early as that order allows.  Each node ``v`` carries a **working label**
``L_w(v)`` — the attributes of the relation computed at ``v`` — and a
**projected label** ``L_p(v)`` — the attributes that survive projection
because they are still needed outside ``v``'s subtree (or belong to the
target schema).  The *width* of a JET is the largest working label; the
*join width* of the query is the minimum width over all JETs.

Theorem 1: join width = treewidth of the join graph + 1.  The two halves
of the proof are constructive and implemented here:

- :func:`jet_to_tree_decomposition` (Algorithm 1) turns a width-``k`` JET
  into a width-``k-1`` tree decomposition (drop projected labels, use the
  working labels as bags);
- :func:`mark_and_sweep` (Algorithm 2) simplifies a tree decomposition so
  every retained attribute is needed, anchoring each relation (and the
  target schema, treated as an extra relation ``R_T``) to a bag;
- :func:`tree_decomposition_to_jet` (Algorithm 3) turns a width-``k``
  (simplified) tree decomposition into a JET of width at most ``k+1``.

Finally :func:`jet_to_plan` compiles a JET into an executable
:mod:`repro.plans` tree, which is how the "optimal join tree" method of
the planner evaluates queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.join_graph import tree_path
from repro.core.query import ConjunctiveQuery
from repro.core.tree_decomposition import TreeDecomposition
from repro.errors import QueryStructureError
from repro.plans import Join, Plan, Project, Scan


@dataclass
class JoinExpressionTree:
    """A rooted join-expression tree for a query.

    Structure is given by ``children`` (node id -> ordered child ids) and
    ``root``; leaves map to query atoms via ``leaf_atom``.  Labels are
    *computed* from the structure and query (never trusted from callers),
    so every constructed instance satisfies the paper's definitions by
    construction.
    """

    query: ConjunctiveQuery
    root: int
    children: dict[int, list[int]]
    leaf_atom: dict[int, int]
    working: dict[int, frozenset[str]] = field(default_factory=dict, repr=False)
    projected: dict[int, frozenset[str]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._validate_structure()
        self._compute_labels()

    # ------------------------------------------------------------------
    def _validate_structure(self) -> None:
        nodes = self._all_nodes()
        if self.root not in nodes:
            raise QueryStructureError(f"root {self.root} is not a tree node")
        # Every node except the root must have exactly one parent.
        seen: set[int] = set()
        for parent, kids in self.children.items():
            if parent not in nodes:
                raise QueryStructureError(f"unknown parent node {parent}")
            for kid in kids:
                if kid in seen:
                    raise QueryStructureError(f"node {kid} has two parents")
                seen.add(kid)
        if self.root in seen:
            raise QueryStructureError("root has a parent")
        if seen | {self.root} != nodes:
            orphans = nodes - seen - {self.root}
            raise QueryStructureError(f"orphan nodes {sorted(orphans)}")
        # Leaves are exactly the atom-carrying nodes; every atom is carried
        # exactly once.
        leaves = {node for node in nodes if not self.children.get(node)}
        if leaves != set(self.leaf_atom):
            raise QueryStructureError(
                "leaf_atom keys must be exactly the childless nodes"
            )
        atom_indices = sorted(self.leaf_atom.values())
        if atom_indices != list(range(len(self.query.atoms))):
            raise QueryStructureError(
                "leaf_atom values must cover every atom index exactly once"
            )

    def _all_nodes(self) -> set[int]:
        nodes = set(self.children)
        for kids in self.children.values():
            nodes.update(kids)
        nodes.update(self.leaf_atom)
        nodes.add(self.root)
        return nodes

    # ------------------------------------------------------------------
    def _compute_labels(self) -> None:
        """Compute ``L_w`` and ``L_p`` bottom-up per the paper's
        definitions.

        ``subtree_vars(v)`` is the set of attributes occurring in atoms
        below ``v``; an attribute of ``L_w(v)`` is *projected* iff it also
        occurs outside the subtree or belongs to the target schema.
        """
        target = frozenset(self.query.free_variables)
        all_counts: dict[str, int] = {}
        for atom in self.query.atoms:
            for variable in atom.variable_set:
                all_counts[variable] = all_counts.get(variable, 0) + 1

        subtree_counts: dict[int, dict[str, int]] = {}

        def walk(node: int) -> dict[str, int]:
            kids = self.children.get(node, [])
            if not kids:
                atom = self.query.atoms[self.leaf_atom[node]]
                counts = {variable: 1 for variable in atom.variable_set}
                self.working[node] = atom.variable_set
            else:
                counts = {}
                for kid in kids:
                    for variable, c in walk(kid).items():
                        counts[variable] = counts.get(variable, 0) + c
            subtree_counts[node] = counts
            return counts

        walk(self.root)

        def finish(node: int) -> None:
            kids = self.children.get(node, [])
            counts = subtree_counts[node]
            if kids:
                for kid in kids:
                    finish(kid)
                self.working[node] = frozenset().union(
                    *(self.projected[kid] for kid in kids)
                )
            outside = frozenset(
                variable
                for variable in self.working[node]
                if counts.get(variable, 0) < all_counts[variable]
            )
            if node == self.root:
                self.projected[node] = target
            else:
                self.projected[node] = (
                    self.working[node] & (outside | target)
                )

        # Projected labels depend only on subtree counts, so a second pass
        # ordered leaves-first works; ``finish`` recurses children first.
        finish(self.root)

    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        """Maximum working-label size — the quantity Theorem 1 bounds."""
        return max(len(label) for label in self.working.values())

    def nodes(self) -> list[int]:
        """All node ids, sorted."""
        return sorted(self._all_nodes())

    def is_leaf(self, node: int) -> bool:
        """Whether ``node`` carries an atom."""
        return node in self.leaf_atom


def jet_to_tree_decomposition(jet: JoinExpressionTree) -> TreeDecomposition:
    """Algorithm 1: drop projected labels; working labels become bags.

    The result is a tree decomposition of the query's join graph with
    width exactly ``jet.width - 1`` (Lemma 1).
    """
    bags = {node: jet.working[node] for node in jet.nodes()}
    edges = [
        (parent, kid)
        for parent, kids in jet.children.items()
        for kid in kids
    ]
    return TreeDecomposition(bags, edges)


def mark_and_sweep(
    decomposition: TreeDecomposition, query: ConjunctiveQuery
) -> tuple[TreeDecomposition, dict[int, int], int]:
    """Algorithm 2: simplify a tree decomposition relative to a query.

    Anchors every atom (and the target schema, as the pseudo-relation
    ``R_T``) to a bag containing its scheme, keeps only attributes lying on
    a path between two anchors that share them, and deletes emptied bags.

    Returns ``(simplified, anchor_of_atom, target_anchor)`` where
    ``anchor_of_atom[j]`` is the surviving node id whose bag contains atom
    ``j``'s variables and ``target_anchor`` is the node anchoring the
    target schema (the root of the JET Algorithm 3 builds).

    Deviation from the paper's pseudocode: deleting an emptied bag of
    degree >= 2 would disconnect the tree, so we reconnect its neighbours
    in a chain.  This is safe — an emptied bag carries no attributes, so no
    occurrence subtree runs through it.
    """
    schemes: list[tuple[int | None, frozenset[str]]] = [
        (index, atom.variable_set) for index, atom in enumerate(query.atoms)
    ]
    schemes.append((None, frozenset(query.free_variables)))  # R_T

    anchor_of_atom: dict[int, int] = {}
    target_anchor: int | None = None
    marks: dict[int, set[str]] = {nid: set() for nid in decomposition.bags}
    anchored_at: dict[str, set[int]] = {}

    for atom_index, scheme in schemes:
        node = decomposition.find_bag_containing(scheme)
        if node is None:
            raise QueryStructureError(
                f"no bag contains scheme {sorted(scheme)}; "
                "not a tree decomposition of this query's join graph"
            )
        marks[node].update(scheme)
        for variable in scheme:
            anchored_at.setdefault(variable, set()).add(node)
        if atom_index is None:
            target_anchor = node
        else:
            anchor_of_atom[atom_index] = node

    # Mark every attribute along the unique tree path between any two of
    # its anchors (the Steiner closure of its anchor set).
    tree = decomposition.tree()
    for variable, anchors in anchored_at.items():
        anchors = sorted(anchors)
        base = anchors[0]
        for other in anchors[1:]:
            for node in tree_path(tree, base, other):
                if variable not in decomposition.bags[node]:
                    raise QueryStructureError(
                        "occurrence connectivity violated while marking "
                        f"{variable!r}; input is not a valid tree decomposition"
                    )
                marks[node].add(variable)

    # Sweep: drop unmarked attributes; remove emptied bags, reconnecting
    # their neighbours so the result stays a tree.
    new_bags = {nid: frozenset(marked) for nid, marked in marks.items()}
    keep = {nid for nid, bag in new_bags.items() if bag}
    # Always keep the anchors (a Boolean query's R_T anchor may be empty).
    keep.update(anchor_of_atom.values())
    assert target_anchor is not None
    keep.add(target_anchor)
    removed = set(new_bags) - keep
    for node in sorted(removed):
        neighbors = sorted(tree.neighbors(node))
        tree.remove_node(node)
        for left, right in zip(neighbors, neighbors[1:]):
            tree.add_edge(left, right)
    simplified = TreeDecomposition(
        {nid: new_bags[nid] for nid in keep},
        [tuple(sorted(edge)) for edge in tree.edges],
    )
    return simplified, anchor_of_atom, target_anchor


def tree_decomposition_to_jet(
    query: ConjunctiveQuery, decomposition: TreeDecomposition
) -> JoinExpressionTree:
    """Algorithm 3: build a join-expression tree from a tree decomposition.

    Runs :func:`mark_and_sweep`, roots the simplified tree at the target
    anchor, attaches one fresh leaf per atom below its anchor, and lets the
    JET constructor derive the labels.  By Lemma 3 the resulting width is
    at most ``decomposition.width + 1``.
    """
    simplified, anchor_of_atom, target_anchor = mark_and_sweep(decomposition, query)
    tree = simplified.tree()

    children: dict[int, list[int]] = {nid: [] for nid in simplified.bags}
    visited = {target_anchor}
    stack = [target_anchor]
    while stack:
        current = stack.pop()
        for neighbor in sorted(tree.neighbors(current)):
            if neighbor not in visited:
                visited.add(neighbor)
                children[current].append(neighbor)
                stack.append(neighbor)

    next_id = max(simplified.bags) + 1 if simplified.bags else 0
    leaf_atom: dict[int, int] = {}
    for atom_index in range(len(query.atoms)):
        leaf = next_id
        next_id += 1
        children[anchor_of_atom[atom_index]].append(leaf)
        children[leaf] = []
        leaf_atom[leaf] = atom_index

    return JoinExpressionTree(
        query=query,
        root=target_anchor,
        children=children,
        leaf_atom=leaf_atom,
    )


def jet_to_plan(jet: JoinExpressionTree) -> Plan:
    """Compile a join-expression tree into an executable plan.

    Children are joined left-deep in listed order; each node then projects
    to its projected label.  Redundant projections (labels already equal)
    are skipped so the plan stays readable.
    """

    def build(node: int) -> Plan:
        kids = jet.children.get(node, [])
        if not kids:
            atom = jet.query.atoms[jet.leaf_atom[node]]
            plan: Plan = atom.to_scan()
        else:
            plan = build(kids[0])
            for kid in kids[1:]:
                plan = Join(plan, build(kid))
        wanted = jet.projected[node]
        if frozenset(plan.columns) != wanted:
            # Preserve a stable order: query free variables first (in
            # declared order), then the rest sorted.
            free = [v for v in jet.query.free_variables if v in wanted]
            rest = sorted(wanted - set(free))
            plan = Project(plan, tuple(free + rest))
        return plan

    return build(jet.root)


def optimal_jet(query: ConjunctiveQuery) -> JoinExpressionTree:
    """A width-optimal join-expression tree, via exact treewidth.

    Only feasible for small queries (see
    :data:`repro.core.treewidth.EXACT_NODE_LIMIT`); used by tests and by
    the ``jointree`` planner method.
    """
    from repro.core.join_graph import join_graph
    from repro.core.tree_decomposition import from_elimination_order
    from repro.core.treewidth import treewidth_exact_order

    graph = join_graph(query)
    _, order = treewidth_exact_order(
        graph, pinned_first=frozenset(query.free_variables)
    )
    decomposition = from_elimination_order(graph, order)
    return tree_decomposition_to_jet(query, decomposition)
