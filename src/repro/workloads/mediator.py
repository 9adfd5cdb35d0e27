"""Mediator-system workloads: large joins over many small sources.

The paper motivates its setup with mediator-based systems (Yerneni et
al.): a mediator answers one query by joining many small relations
exported by heterogeneous sources, so project-join queries with dozens of
atoms over small relations are the norm.  Its Section 7 asks for
experiments with "relations of varying arity and sizes"; this generator
provides them:

- **chain** queries — hop ``i`` joins hop ``i+1`` on one shared attribute
  (itineraries, supply chains);
- **star** queries — one hub relation joined with many satellite
  relations (entity enrichment from per-source attribute tables);
- **snowflake** queries — a star whose satellites have their own chains;
- **broken chains** — binary chains with one dangling hop, the instance
  where Yannakakis' semijoin reduction beats width-optimal planning.

Relations get independently drawn arities (2–4) and cardinalities, so no
two sources look alike, unlike the single-6-tuple 3-COLOR setup.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.query import Atom, ConjunctiveQuery
from repro.errors import WorkloadError
from repro.relalg.database import Database
from repro.relalg.relation import Relation


@dataclass(frozen=True)
class MediatorConfig:
    """Knobs for the generator.

    ``domain_size`` controls join selectivity (values are drawn from
    ``range(domain_size)``); ``min/max_arity`` and ``min/max_rows`` give
    each source its own shape.
    """

    domain_size: int = 8
    min_arity: int = 2
    max_arity: int = 4
    min_rows: int = 4
    max_rows: int = 24

    def __post_init__(self) -> None:
        if self.min_arity < 2:
            raise WorkloadError("mediator relations need arity >= 2 to join")
        if self.max_arity < self.min_arity or self.max_rows < self.min_rows:
            raise WorkloadError("max bounds must be >= min bounds")
        if self.domain_size < 2:
            raise WorkloadError("domain_size must be >= 2")


def _random_relation(
    name: str, arity: int, rows: int, config: MediatorConfig, rng: random.Random
) -> Relation:
    columns = tuple(f"c{i + 1}" for i in range(arity))
    data = {
        tuple(rng.randrange(config.domain_size) for _ in range(arity))
        for _ in range(rows)
    }
    return Relation(columns, data)


def _fresh_source(
    database: Database, config: MediatorConfig, rng: random.Random
) -> tuple[str, int]:
    """Register a new random source relation; return (name, arity)."""
    index = len(database) + 1
    arity = rng.randint(config.min_arity, config.max_arity)
    rows = rng.randint(config.min_rows, config.max_rows)
    name = f"src{index}"
    database.add(name, _random_relation(name, arity, rows, config, rng))
    return name, arity


def chain_query(
    hops: int,
    rng: random.Random,
    config: MediatorConfig = MediatorConfig(),
    free_endpoints: bool = True,
) -> tuple[ConjunctiveQuery, Database]:
    """A chain of ``hops`` sources: atom ``i`` shares one variable with
    atom ``i+1``; non-join positions get private variables."""
    if hops < 1:
        raise WorkloadError("chain needs at least one hop")
    database = Database()
    atoms = []
    link = "j0"
    serial = 0
    for hop in range(hops):
        name, arity = _fresh_source(database, config, rng)
        next_link = f"j{hop + 1}"
        terms: list[str] = [link, next_link]
        while len(terms) < arity:
            serial += 1
            terms.append(f"p{serial}")
        rng.shuffle(terms)
        atoms.append(Atom(name, tuple(terms)))
        link = next_link
    free = ("j0", link) if free_endpoints else ("j0",)
    return ConjunctiveQuery(atoms=tuple(atoms), free_variables=free), database


def star_query(
    satellites: int,
    rng: random.Random,
    config: MediatorConfig = MediatorConfig(),
) -> tuple[ConjunctiveQuery, Database]:
    """A hub relation joined with ``satellites`` sources, each sharing one
    distinct hub variable."""
    if satellites < 1:
        raise WorkloadError("star needs at least one satellite")
    database = Database()
    hub_arity = max(2, min(satellites, config.max_arity))
    hub_rows = rng.randint(config.min_rows, config.max_rows)
    database.add(
        "hub", _random_relation("hub", hub_arity, hub_rows, config, rng)
    )
    hub_vars = tuple(f"h{i + 1}" for i in range(hub_arity))
    atoms = [Atom("hub", hub_vars)]
    serial = 0
    for satellite in range(satellites):
        name, arity = _fresh_source(database, config, rng)
        anchor = hub_vars[satellite % hub_arity]
        terms = [anchor]
        while len(terms) < arity:
            serial += 1
            terms.append(f"s{serial}")
        rng.shuffle(terms)
        atoms.append(Atom(name, tuple(terms)))
    return (
        ConjunctiveQuery(atoms=tuple(atoms), free_variables=(hub_vars[0],)),
        database,
    )


def snowflake_query(
    branches: int,
    depth: int,
    rng: random.Random,
    config: MediatorConfig = MediatorConfig(),
) -> tuple[ConjunctiveQuery, Database]:
    """A star whose every satellite extends into a chain of ``depth``
    further sources — the classic snowflake schema as a join query."""
    if branches < 1 or depth < 1:
        raise WorkloadError("snowflake needs branches >= 1 and depth >= 1")
    database = Database()
    hub_arity = max(2, min(branches, config.max_arity))
    hub_rows = rng.randint(config.min_rows, config.max_rows)
    database.add(
        "hub", _random_relation("hub", hub_arity, hub_rows, config, rng)
    )
    hub_vars = tuple(f"h{i + 1}" for i in range(hub_arity))
    atoms = [Atom("hub", hub_vars)]
    serial = 0
    for branch in range(branches):
        link = hub_vars[branch % hub_arity]
        for level in range(depth):
            name, arity = _fresh_source(database, config, rng)
            next_link = f"b{branch}_{level}"
            terms = [link, next_link]
            while len(terms) < arity:
                serial += 1
                terms.append(f"q{serial}")
            rng.shuffle(terms)
            atoms.append(Atom(name, tuple(terms)))
            link = next_link
    return (
        ConjunctiveQuery(atoms=tuple(atoms), free_variables=(hub_vars[0],)),
        database,
    )


def broken_chain(
    hops: int, rng: random.Random, base: int = 100, fanout: int = 6
) -> tuple[ConjunctiveQuery, Database]:
    """A chain join whose middle hop dangles every tuple.

    Each binary source maps ``base`` values to ``fanout`` successors, so
    partial joins grow by a factor of ``fanout`` per hop, but the middle
    hop writes its targets into a disjoint value space, so the answer is
    empty.  A full reducer finds that before materializing anything; a
    join-order planner pays about ``fanout ** (hops / 2)`` from whichever
    end it starts.  This is the classic dangling-tuple instance where
    Yannakakis' input-plus-output bound beats width-optimal planning.
    """
    if hops < 1:
        raise WorkloadError("chain needs at least one hop")
    database = Database()
    atoms = []
    for hop in range(hops):
        offset = base if hop == hops // 2 else 0
        rows = {
            (source, rng.randrange(base) + offset)
            for source in range(base)
            for _ in range(fanout)
        }
        database.add(f"hop{hop}", Relation(("s", "t"), rows))
        atoms.append(Atom(f"hop{hop}", (f"j{hop}", f"j{hop + 1}")))
    query = ConjunctiveQuery(atoms=tuple(atoms), free_variables=("j0", f"j{hops}"))
    return query, database


MEDIATOR_SHAPES = {
    "chain": chain_query,
    "star": star_query,
}
