"""The frozen case set every workload draws its inputs from.

Everything the program under test receives is generated here from
``repro.*`` builders, the stdlib and ``--seed``; nothing is imported from
``benchmarks/_harness.py``, ``conftest.py`` or the per-PR ``bench_*.py``
drivers, so cleaning those up cannot change what this benchmark runs.
:func:`case_set_hash` pins the generated inputs at :data:`DEFAULT_SEED`;
``run.py`` refuses to run when it drifts from :data:`CASE_SET_HASH`.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from repro.core.query import ConjunctiveQuery
from repro.datalog import render_datalog
from repro.plans import Plan, Project, Scan, left_deep_join
from repro.relalg.database import Database, edge_database
from repro.relalg.relation import Relation
from repro.workloads import graphs
from repro.workloads.coloring import coloring_instance

DEFAULT_SEED = 1

#: sha256 of the inputs generated at DEFAULT_SEED (see case_set_hash).
CASE_SET_HASH = (
    "8d116717d1b0677b48fe21f1b195811455095029fc9b7671ea29b51b02126f7b"
)

ENGINES = ("interpreted", "compiled", "vectorized")
METHODS = ("straightforward", "early", "reordering", "bucket")
_FAST = ("early", "bucket")
_BUCKET = ("bucket",)

# ----------------------------------------------------------------------
# engine_grid: the 62 execution points of Figures 6-9 (the POINTS tables
# of bench_fig6..9 as of PR 5/6), frozen here row by row.
# ----------------------------------------------------------------------
#: (figure, graph family, order, free fraction, methods)
_GRID_ROWS = (
    ("fig6", "augmented_path", 4, 0.0, METHODS),
    ("fig6", "augmented_path", 6, 0.0, METHODS),
    ("fig6", "augmented_path", 8, 0.0, _FAST),
    ("fig6", "augmented_path", 10, 0.0, _FAST),
    ("fig6", "augmented_path", 14, 0.0, _BUCKET),
    ("fig6", "augmented_path", 20, 0.0, _BUCKET),
    ("fig6", "augmented_path", 5, 0.2, METHODS),
    ("fig7", "ladder", 4, 0.0, METHODS),
    ("fig7", "ladder", 7, 0.0, METHODS),
    ("fig7", "ladder", 10, 0.0, _FAST),
    ("fig7", "ladder", 14, 0.0, _FAST),
    ("fig7", "ladder", 5, 0.2, METHODS),
    ("fig8", "augmented_ladder", 3, 0.0, METHODS),
    ("fig8", "augmented_ladder", 4, 0.0, METHODS),
    ("fig8", "augmented_ladder", 6, 0.0, _FAST),
    ("fig8", "augmented_ladder", 9, 0.0, _BUCKET),
    ("fig8", "augmented_ladder", 12, 0.0, _BUCKET),
    ("fig8", "augmented_ladder", 4, 0.2, _FAST),
    ("fig9", "augmented_circular_ladder", 3, 0.0, METHODS),
    ("fig9", "augmented_circular_ladder", 4, 0.0, METHODS),
    ("fig9", "augmented_circular_ladder", 5, 0.0, _FAST),
    ("fig9", "augmented_circular_ladder", 8, 0.0, _BUCKET),
    ("fig9", "augmented_circular_ladder", 11, 0.0, _BUCKET),
    ("fig9", "augmented_circular_ladder", 4, 0.2, _FAST),
)
FIGURES = ("fig6", "fig7", "fig8", "fig9")

# ----------------------------------------------------------------------
# cold_pipeline: Boolean large-order queries whose warm execution takes
# about a millisecond while parse + plan + compile take tens.  Free
# vertices are left out on purpose: 20 % of them at order 30 exhausts
# memory.  The random instance is the only seeded one, at density 1.2
# under bucket, where twenty seeds cost 1.0-1.6 ms each; at density 1.5
# one seed in twenty cost 38 ms, and at 3.0 bucket ran 5-31 ms and early
# 0.8-28 s, which would have made the pass time a function of the seed
# and not of the code.  Early
# projection is planned on the ladder only: on the augmented families its
# plans are 61 columns wide at order 30 and do not finish.
# ----------------------------------------------------------------------
#: (graph family, order, method)
_COLD_ROWS = (
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
RANDOM_DENSITY = 1.2

# ----------------------------------------------------------------------
# update_stream: PR 7's multi-tenant catalog.
# ----------------------------------------------------------------------
STREAM_QUERIES = 8
STREAM_CHAIN = 3
STREAM_ROWS = 250
STREAM_DOMAIN = 32
#: Rounds per segment; every segment starts from a fresh catalog and a
#: fresh engine, so cache counters repeat exactly whatever the run length.
STREAM_ROUNDS = 96
STREAM_PLAN_CACHE = 4096

# ----------------------------------------------------------------------
# serve_*: PR 8's catalog and query population.
# ----------------------------------------------------------------------
GRAPH_DOMAIN = 80
GRAPH_ROWS = 600
ANCHOR_POOL = 10
#: (name, graph family, order, method); 25 % of the vertices stay free.
FIG_SHAPES = (
    ("fig6_augpath6", "augmented_path", 6, "bucket"),
    ("fig6_augpath6_early", "augmented_path", 6, "early"),
    ("fig7_ladder5", "ladder", 5, "bucket"),
    ("fig7_ladder5_reord", "ladder", 5, "reordering"),
    ("fig8_augladder4", "augmented_ladder", 4, "bucket"),
    ("fig9_augcircladder4", "augmented_circular_ladder", 4, "bucket"),
)
#: serve_mixed chain lengths: 220 shapes per relation, 440 in all, against
#: a statement cache of 256.
MIXED_LENGTHS = tuple(range(2, 13))
MIXED_ANCHOR_POOL = 4


@dataclass(frozen=True)
class PlanCase:
    """One query under one planning method, over the 3-COLOR catalog."""

    name: str
    figure: str
    method: str
    query: ConjunctiveQuery
    text: str


def _structured_query(family: str, order: int, free_fraction: float):
    graph = getattr(graphs, family)(order)
    return coloring_instance(
        graph, free_fraction=free_fraction, rng=random.Random(0)
    ).query


def grid_cases() -> list[PlanCase]:
    cases = []
    for figure, family, order, free, methods in _GRID_ROWS:
        query = _structured_query(family, order, free)
        text = render_datalog(query)
        for method in methods:
            name = f"{figure} {family} order={order} free={free} {method}"
            cases.append(PlanCase(name, figure, method, query, text))
    if len(cases) != 62:
        raise AssertionError(f"the frozen grid has 62 points, built {len(cases)}")
    return cases


def cold_cases(seed: int) -> list[PlanCase]:
    cases = []
    for family, order, method in _COLD_ROWS:
        if family == "random":
            rng = random.Random(seed * 7919 + order * 101)
            graph = graphs.random_graph(order, round(RANDOM_DENSITY * order), rng)
            query = coloring_instance(graph).query
        else:
            query = _structured_query(family, order, 0.0)
        name = f"cold {family} order={order} {method}"
        cases.append(PlanCase(name, "cold", method, query, render_datalog(query)))
    return cases


def coloring_database() -> Database:
    """A fresh copy of the catalog every grid and cold case runs over."""
    return edge_database()


# ----------------------------------------------------------------------
# update_stream
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class UpdateStream:
    spec: dict[str, list[tuple[int, int]]]
    plans: list[Plan]
    #: One (relation, insert rows, delete rows) delta per round.
    mutations: list[tuple[str, list[tuple[int, int]], list[tuple[int, int]]]]

    def fresh_database(self) -> Database:
        database = Database()
        for name, rows in self.spec.items():
            database.add(name, Relation(("a", "b"), rows))
        return database


def update_stream(seed: int, rounds: int = STREAM_ROUNDS) -> UpdateStream:
    """``STREAM_QUERIES`` disjoint chain joins in one catalog, and one
    always-effective delta per round: two rows over values never seen
    before go in, one original row comes out."""
    rng = random.Random(seed)
    spec: dict[str, list[tuple[int, int]]] = {}
    plans: list[Plan] = []
    for q in range(STREAM_QUERIES):
        scans = []
        for i in range(STREAM_CHAIN):
            name = f"q{q}_e{i}"
            spec[name] = sorted(
                {
                    (rng.randrange(STREAM_DOMAIN), rng.randrange(STREAM_DOMAIN))
                    for _ in range(STREAM_ROWS)
                }
            )
            scans.append(Scan(name, (f"x{i}", f"x{i + 1}")))
        plans.append(Project(left_deep_join(scans), ("x0",)))
    mutations = []
    for k in range(rounds):
        name = f"q{k % STREAM_QUERIES}_e{k % STREAM_CHAIN}"
        fresh = STREAM_DOMAIN + 1 + k
        insert = [(fresh, fresh + 1), (fresh + 1, fresh)]
        delete = [spec[name][k % len(spec[name])]]
        mutations.append((name, insert, delete))
    return UpdateStream(spec, plans, mutations)


# ----------------------------------------------------------------------
# serve_*
# ----------------------------------------------------------------------
def graph_rows(seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed * 9176 + 11)
    return sorted(
        {
            (rng.randrange(GRAPH_DOMAIN), rng.randrange(GRAPH_DOMAIN))
            for _ in range(GRAPH_ROWS)
        }
    )


def serve_catalog(seed: int) -> Database:
    """``edge`` for the fig shapes, ``graph`` for the anchored chains and
    ``feed`` for the chains that updates invalidate."""
    database = edge_database()
    database.add("graph", Relation(("u", "w"), graph_rows(seed)))
    database.add("feed", Relation(("u", "w"), graph_rows(seed + 1)))
    return database


@dataclass(frozen=True)
class Shape:
    """One query shape the service is asked for.

    ``anchors`` lists the chain positions (0..length) that hold a
    constant and ``head`` the position projected out; a fig shape has
    ``length`` 0 and its fixed ``rule``.
    """

    name: str
    kind: str  # "anchored" | "feed" | "fig"
    method: str
    relation: str = "edge"
    length: int = 0
    anchors: tuple[int, ...] = ()
    head: int = 0
    weight: int = 1
    rule: str = ""

    @property
    def values(self) -> int:
        """How many anchor values one request draws."""
        return len(self.anchors)

    def text(self, values: tuple[int, ...] = ()) -> str:
        """The Datalog rule with ``values`` at the anchored positions."""
        if self.kind == "fig":
            return self.rule
        at = dict(zip(self.anchors, values))
        terms = [str(at[i]) if i in at else f"X{i}" for i in range(self.length + 1)]
        body = ", ".join(
            f"{self.relation}({terms[i]}, {terms[i + 1]})" for i in range(self.length)
        )
        return f"q(X{self.head}) :- {body}."


def fig_shapes() -> list[Shape]:
    shapes = []
    for name, family, order, method in FIG_SHAPES:
        rule = render_datalog(_structured_query(family, order, 0.25))
        shapes.append(Shape(name, "fig", method, rule=rule))
    return shapes


def warm_shapes() -> list[Shape]:
    """PR 8's 38 shapes: 19 single- and 9 double-anchored chains over
    ``graph`` (point lookups weighted 3:1), 4 single-anchored chains over
    ``feed``, 6 fig queries."""
    shapes = [
        Shape(f"single_{n}", "anchored", "bucket", "graph", n, (0,), 1, weight=3)
        for n in range(2, 21)
    ]
    shapes += [
        # PR 8 closed a double-anchored chain with one more atom.
        Shape(f"double_{n}", "anchored", "bucket", "graph", n + 1, (0, n + 1), 1)
        for n in range(2, 11)
    ]
    shapes += [
        Shape(f"feed_{n}", "feed", "bucket", "feed", n, (0,), 1)
        for n in range(2, 6)
    ]
    return shapes + fig_shapes()


def mixed_shapes() -> list[Shape]:
    """Chain length x anchor pattern x head position x relation: more
    distinct shapes than the statement cache holds."""
    shapes = []
    for relation, kind in (("graph", "anchored"), ("feed", "feed")):
        for n in MIXED_LENGTHS:
            middle = (n + 1) // 2
            for pattern, anchors in (
                ("single", (0,)),
                ("double", (0, n)),
                ("mid", (middle,)),
            ):
                for head in range(n + 1):
                    if head in anchors:
                        continue
                    shapes.append(
                        Shape(
                            f"{relation}_{pattern}_{n}_h{head}",
                            kind,
                            "bucket",
                            relation,
                            n,
                            anchors,
                            head,
                        )
                    )
    return shapes + fig_shapes()


def chain_answer(rows, length: int, anchors: dict[int, int], head: int) -> set[int]:
    """Reference answer of an anchored chain, computed without the
    program under test: a path query is arc-consistent, so position
    ``head`` takes the values reachable from both ends."""
    successors: dict[int, set[int]] = {}
    predecessors: dict[int, set[int]] = {}
    for u, w in rows:
        successors.setdefault(u, set()).add(w)
        predecessors.setdefault(w, set()).add(u)

    def sweep(positions, step) -> set[int] | None:
        allowed = None  # None: nothing constrains this position yet
        for index, position in enumerate(positions):
            if index:  # cross one atom
                sources = step.values() if allowed is None else (
                    step.get(value, ()) for value in allowed
                )
                allowed = set().union(*sources)
            if position in anchors:
                pinned = {anchors[position]}
                allowed = pinned if allowed is None else allowed & pinned
        return allowed

    forward = sweep(range(0, head + 1), successors)
    backward = sweep(range(length, head - 1, -1), predecessors)
    if forward is None:
        return backward
    if backward is None:
        return forward
    return forward & backward


def case_set_hash() -> str:
    """sha256 over rendered rule text + method + rows at DEFAULT_SEED."""
    digest = hashlib.sha256()

    def feed(*parts) -> None:
        digest.update(repr(parts).encode())

    for case in grid_cases() + cold_cases(DEFAULT_SEED):
        feed(case.name, case.method, case.text)
    stream = update_stream(DEFAULT_SEED)
    feed(sorted(stream.spec.items()), stream.mutations)
    feed(graph_rows(DEFAULT_SEED), graph_rows(DEFAULT_SEED + 1))
    for shape in warm_shapes() + mixed_shapes():
        feed(shape.name, shape.method, shape.text(tuple(range(shape.values))))
    return digest.hexdigest()
