"""SQL substrate: generation, parsing, execution, and planner simulation.

The pipeline mirrors the paper's experimental loop:

1. :mod:`repro.sql.generator` emits SQL text for a conjunctive query under
   any of the five methods (naive, straightforward, early projection,
   reordering, bucket elimination);
2. :mod:`repro.sql.lexer` / :mod:`repro.sql.parser` parse it back;
3. :mod:`repro.sql.executor` runs it over a
   :class:`~repro.relalg.database.Database`, following the SQL's explicit
   join/subquery structure exactly (the PostgreSQL-backend stand-in);
4. :mod:`repro.sql.planner_sim` models the cost-based planner whose
   compile-time explosion Figure 2 documents.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "ColumnRef": "ast",
        "Literal": "ast",
        "Equality": "ast",
        "Condition": "ast",
        "Exists": "ast",
        "TableRef": "ast",
        "SubqueryRef": "ast",
        "JoinExpr": "ast",
        "SelectQuery": "ast",
        "render": "ast",
        "iter_subqueries": "ast",
        "subquery_depth": "ast",
        "tokenize": "lexer",
        "Token": "lexer",
        "parse": "parser",
        "execute": "executor",
        "execute_with_stats": "executor",
        "SQL_METHODS": "generator",
        "generate_sql": "generator",
        "naive_sql": "generator",
        "straightforward_sql": "generator",
        "early_projection_sql": "generator",
        "reordering_sql": "generator",
        "bucket_elimination_sql": "generator",
        "yannakakis_sql": "generator",
        "plan_to_sql": "generator",
        "CostModel": "planner_sim",
        "PlannerResult": "planner_sim",
        "dp_search": "planner_sim",
        "geqo_search": "planner_sim",
        "simulated_annealing_search": "planner_sim",
        "plan_naive": "planner_sim",
        "plan_straightforward": "planner_sim",
        "DEFAULT_GEQO_THRESHOLD": "planner_sim",
    },
)
