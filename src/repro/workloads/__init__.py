"""Workload generators: the queries and databases the paper evaluates on.

- :mod:`repro.workloads.graphs` — random and structured graph families
  (Figure 1);
- :mod:`repro.workloads.coloring` — k-COLOR instances as project-join
  queries over the six-tuple ``edge`` relation (Section 2);
- :mod:`repro.workloads.sat` — random k-SAT as conjunctive queries
  (Section 7);
- :mod:`repro.workloads.csp` — the general CSP↔conjunctive-query
  correspondence both of the above specialize.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "Graph": "graphs",
        "random_graph": "graphs",
        "random_graph_with_density": "graphs",
        "augmented_path": "graphs",
        "ladder": "graphs",
        "augmented_ladder": "graphs",
        "augmented_circular_ladder": "graphs",
        "cycle": "graphs",
        "path": "graphs",
        "complete_graph": "graphs",
        "grid": "graphs",
        "star": "graphs",
        "pentagon": "graphs",
        "STRUCTURED_FAMILIES": "graphs",
        "ColoringInstance": "coloring",
        "coloring_instance": "coloring",
        "coloring_query": "coloring",
        "sample_free_vertices": "coloring",
        "variable_name": "coloring",
        "is_colorable_brute_force": "coloring",
        "count_colorings_brute_force": "coloring",
        "SatFormula": "sat",
        "random_ksat": "sat",
        "sat_instance": "sat",
        "sat_variable_name": "sat",
        "clause_relation": "sat",
        "clause_relation_name": "sat",
        "is_satisfiable_brute_force": "sat",
        "MediatorConfig": "mediator",
        "MEDIATOR_SHAPES": "mediator",
        "chain_query": "mediator",
        "star_query": "mediator",
        "snowflake_query": "mediator",
        "Constraint": "csp",
        "CspInstance": "csp",
        "csp_to_query": "csp",
        "solve_brute_force": "csp",
        "all_different_constraint": "csp",
    },
)
