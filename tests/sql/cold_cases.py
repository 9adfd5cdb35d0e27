"""The ten ``cold_pipeline`` queries of ``benchmarks/layers/cases.py`` at
its default seed, rebuilt from the workload generators so tier-1 can pin
what the SQL route makes of them without importing the benchmark."""

from __future__ import annotations

import random

from repro.core.query import ConjunctiveQuery
from repro.workloads import graphs
from repro.workloads.coloring import coloring_instance

#: (graph family, order, method), as ``cases._COLD_ROWS``.
COLD_ROWS = (
    ("ladder", 30, "bucket"),
    ("ladder", 50, "bucket"),
    ("augmented_ladder", 30, "bucket"),
    ("augmented_ladder", 50, "bucket"),
    ("augmented_circular_ladder", 30, "bucket"),
    ("augmented_path", 30, "bucket"),
    ("augmented_path", 50, "bucket"),
    ("ladder", 30, "early"),
    ("ladder", 50, "early"),
    ("random", 20, "bucket"),
)
IDS = [f"{family}-{order}-{method}" for family, order, method in COLD_ROWS]


def cold_query(family: str, order: int) -> ConjunctiveQuery:
    if family == "random":
        rng = random.Random(1 * 7919 + order * 101)  # cases.DEFAULT_SEED is 1
        graph = graphs.random_graph(order, round(1.2 * order), rng)
        return coloring_instance(graph).query
    graph = getattr(graphs, family)(order)
    return coloring_instance(graph, free_fraction=0.0, rng=random.Random(0)).query
