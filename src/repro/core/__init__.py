"""Structural query optimization — the paper's primary contribution.

Public surface:

- :class:`~repro.core.query.ConjunctiveQuery` / :class:`~repro.core.query.Atom`
  — the project-join query model;
- :func:`~repro.core.join_graph.join_graph` — attributes-as-nodes,
  schemes-as-cliques (plus the target-schema clique);
- :mod:`~repro.core.ordering` — MCS / min-degree / min-fill numberings and
  induced width;
- :mod:`~repro.core.treewidth` — exact treewidth for small graphs, bounds;
- :class:`~repro.core.tree_decomposition.TreeDecomposition` and
  :class:`~repro.core.join_tree.JoinExpressionTree` with Algorithms 1–3
  (Theorem 1);
- :func:`~repro.core.buckets.bucket_elimination_plan` (Theorem 2);
- :func:`~repro.core.planner.plan_query` — one facade over the paper's
  methods.
"""

from repro._lazy import lazy_exports
from repro.core.join_graph import join_graph  # also a submodule's name

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "Atom": "query",
        "Const": "query",
        "ConjunctiveQuery": "query",
        "join_graph": "join_graph",
        "mcs_order": "ordering",
        "min_degree_order": "ordering",
        "min_fill_order": "ordering",
        "random_order": "ordering",
        "induced_width": "ordering",
        "ORDER_HEURISTICS": "ordering",
        "treewidth_exact": "treewidth",
        "treewidth_exact_order": "treewidth",
        "treewidth_lower_bound": "treewidth",
        "treewidth_upper_bound": "treewidth",
        "TreeDecomposition": "tree_decomposition",
        "from_elimination_order": "tree_decomposition",
        "trivial_decomposition": "tree_decomposition",
        "JoinExpressionTree": "join_tree",
        "jet_to_tree_decomposition": "join_tree",
        "mark_and_sweep": "join_tree",
        "tree_decomposition_to_jet": "join_tree",
        "jet_to_plan": "join_tree",
        "optimal_jet": "join_tree",
        "BucketPlan": "buckets",
        "BucketTrace": "buckets",
        "bucket_elimination_plan": "buckets",
        "mcs_bucket_order": "buckets",
        "straightforward_plan": "early_projection",
        "early_projection_plan": "early_projection",
        "reordering_plan": "reordering",
        "greedy_atom_order": "reordering",
        "plan_query": "planner",
        "canonical_plan": "planner",
        "plan_canonicalizer": "planner",
        "set_plan_canonicalizer": "planner",
        "METHODS": "planner",
        "AtomJoinTree": "semijoins",
        "gyo_reduction": "semijoins",
        "is_acyclic": "semijoins",
        "semijoin_reduce": "semijoins",
        "yannakakis_evaluate": "semijoins",
        "yannakakis_plan": "semijoins",
        "MiniBucketPlan": "minibuckets",
        "MiniBucketStep": "minibuckets",
        "mini_bucket_plan": "minibuckets",
        "CanonicalDatabase": "containment",
        "canonical_database": "containment",
        "is_contained": "containment",
        "are_equivalent": "containment",
        "homomorphism_exists": "containment",
        "minimize": "containment",
        "weighted_induced_width": "weighted",
        "min_weighted_fill_order": "weighted",
        "weighted_plan_cost": "weighted",
        "cover_number": "hypertree",
        "generalized_hypertree_width_of": "hypertree",
        "ghw_upper_bound": "hypertree",
        "is_width_one": "hypertree",
    },
)
