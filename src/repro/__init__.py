"""repro — reproduction of "Projection Pushing Revisited" (EDBT 2004).

Structural optimization of project-join (conjunctive) queries: projection
pushing, greedy join reordering, and bucket elimination, with the
join-width/treewidth theory (Theorems 1 and 2) implemented and tested, an
in-memory relational engine plus SQL-subset pipeline standing in for the
paper's PostgreSQL backend, the paper's 3-COLOR/SAT workloads, and a
harness that regenerates every figure.

Quickstart::

    from repro import coloring_instance, pentagon, plan_query, evaluate

    instance = coloring_instance(pentagon())
    plan = plan_query(instance.query, "bucket")
    result, stats = evaluate(plan, instance.database)
    print(result.cardinality, stats.max_intermediate_arity)

Package map (see DESIGN.md for the full inventory):

- :mod:`repro.relalg` — relations, database, engine, work counters;
- :mod:`repro.plans` — logical project-join plans;
- :mod:`repro.core` — the structural optimizers and the theory;
- :mod:`repro.sql` — SQL generation/parsing/execution/planner simulation;
- :mod:`repro.workloads` — 3-COLOR, k-SAT, and generic CSP instances;
- :mod:`repro.experiments` — per-figure series builders and reporting.
"""

from repro._lazy import lazy_exports
from repro.explain import explain  # also a submodule's name

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "ReproError": "errors",
        # queries and planning
        "Atom": "core",
        "Const": "core",
        "ConjunctiveQuery": "core",
        "join_graph": "core",
        "plan_query": "core",
        "METHODS": "core",
        "straightforward_plan": "core",
        "early_projection_plan": "core",
        "reordering_plan": "core",
        "bucket_elimination_plan": "core",
        # plans
        "Plan": "plans",
        "Scan": "plans",
        "Join": "plans",
        "Semijoin": "plans",
        "Project": "plans",
        "plan_key": "plans",
        "plan_width": "plans",
        "pretty_plan": "plans",
        "transform": "plans",
        "walk": "plans",
        "explain": "explain",
        "ExplainResult": "explain",
        "normalize": "rewrite",
        "rewrite_plan": "rewrite",
        "parse_rule": "datalog",
        "parse_program": "datalog",
        "render_datalog": "datalog",
        # engine
        "Relation": "relalg",
        "Database": "relalg",
        "Engine": "relalg",
        "VectorizedEngine": "relalg",
        "make_engine": "relalg",
        "ExecutionStats": "relalg",
        "edge_database": "relalg",
        "evaluate": "relalg",
        # SQL pipeline
        "generate_sql": "sql",
        "parse": "sql",
        "execute_with_stats": "sql",
        # workloads
        "coloring_instance": "workloads",
        "coloring_query": "workloads",
        "pentagon": "workloads",
        "random_graph": "workloads",
        "random_ksat": "workloads",
        "sat_instance": "workloads",
    },
)
__all__.insert(0, "__version__")
