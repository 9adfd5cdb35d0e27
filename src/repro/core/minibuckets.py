"""Mini-bucket elimination — the bounded-width approximation (Dechter 97).

Section 7 of the paper lists mini-buckets as an idea worth importing from
constraint satisfaction.  The scheme: when a bucket's residents would
join into a relation wider than an *i-bound*, partition them into
mini-buckets whose combined schemas each fit within the bound and process
every mini-bucket independently.  Skipping the cross-mini-bucket joins
makes the result a **relaxation**: the computed answer is a *superset* of
the true answer (an empty relaxed answer still proves the true answer
empty).  With an i-bound at least the bucket's width, mini-bucket
elimination degenerates to exact bucket elimination.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.buckets import mcs_bucket_order
from repro.core.query import ConjunctiveQuery
from repro.errors import OrderingError
from repro.plans import Join, Plan, Project

#: Partitioning never splits below the widest single resident, so the
#: effective bound is max(ibound, widest atom arity).
MIN_IBOUND = 1


@dataclass(frozen=True)
class MiniBucketStep:
    """One processed mini-bucket: its variable, which residents it took,
    and the schema it produced."""

    variable: str
    resident_count: int
    output_columns: tuple[str, ...]


@dataclass
class MiniBucketPlan:
    """Result of mini-bucket planning.

    ``exact`` is True when no bucket had to be split, in which case the
    plan computes the true answer; otherwise the plan computes a superset
    relaxation.
    """

    plan: Plan
    order: list[str]
    ibound: int
    steps: list[MiniBucketStep]
    exact: bool

    @property
    def max_step_arity(self) -> int:
        """Widest relation any mini-bucket computed."""
        if not self.steps:
            return 0
        return max(len(step.output_columns) for step in self.steps)


def mini_bucket_plan(
    query: ConjunctiveQuery,
    ibound: int,
    order: Sequence[str] | None = None,
    rng: random.Random | None = None,
) -> MiniBucketPlan:
    """Plan ``query`` with mini-bucket elimination under ``ibound``.

    Parameters
    ----------
    query:
        The project-join query.
    ibound:
        Maximum number of variables a mini-bucket's joined schema may
        have (before projecting the bucket variable out).  Residents
        wider than the bound still form singleton mini-buckets.
    order:
        Optional explicit numbering (free variables first); defaults to
        the MCS order, as in exact bucket elimination.
    """
    if ibound < MIN_IBOUND:
        raise OrderingError(f"ibound must be >= {MIN_IBOUND}, got {ibound}")
    if order is None:
        order = mcs_bucket_order(query, rng=rng)
    order = list(order)
    if set(order) != set(query.variables):
        raise OrderingError("order must number every query variable exactly once")
    position = {variable: index for index, variable in enumerate(order)}
    free = set(query.free_variables)

    buckets: dict[int, list[Plan]] = {i: [] for i in range(len(order))}
    finals: list[Plan] = []

    def route(plan: Plan, below: int) -> None:
        candidates = [position[c] for c in plan.columns if position[c] < below]
        if candidates:
            buckets[max(candidates)].append(plan)
        else:
            finals.append(plan)

    for atom in query.atoms:
        scan = atom.to_scan()
        indices = [position[v] for v in scan.columns]
        if indices:
            buckets[max(indices)].append(scan)
        else:
            finals.append(scan)

    steps: list[MiniBucketStep] = []
    exact = True
    for i in range(len(order) - 1, -1, -1):
        residents = buckets[i]
        if not residents:
            continue
        variable = order[i]
        partitions = _partition(residents, ibound)
        if len(partitions) > 1:
            exact = False
        for partition in partitions:
            joined = partition[0]
            for resident in partition[1:]:
                joined = Join(joined, resident)
            if variable in free:
                result: Plan = joined
            else:
                keep = tuple(c for c in joined.columns if c != variable)
                if not keep:
                    keep = (variable,)
                result = (
                    Project(joined, keep) if keep != joined.columns else joined
                )
            steps.append(
                MiniBucketStep(
                    variable=variable,
                    resident_count=len(partition),
                    output_columns=result.columns,
                )
            )
            route(result, i)

    assert finals
    plan = finals[0]
    for extra in finals[1:]:
        plan = Join(plan, extra)
    target = tuple(query.free_variables)
    if plan.columns != target:
        plan = Project(plan, target)
    return MiniBucketPlan(
        plan=plan, order=order, ibound=ibound, steps=steps, exact=exact
    )


def _partition(residents: list[Plan], ibound: int) -> list[list[Plan]]:
    """First-fit partition of residents into mini-buckets whose combined
    schema stays within ``ibound`` variables.  A resident wider than the
    bound forms a singleton mini-bucket (the bound cannot split an atom).
    Each mini-bucket lists its members in arrival order, the order the
    caller joins them in, so an unsplit bucket is joined exactly as
    bucket elimination joins it.
    """
    partitions: list[tuple[set[str], list[int]]] = []
    # Widest first: classic first-fit-decreasing keeps partitions few.
    widths = [len(resident.columns) for resident in residents]
    for index in sorted(range(len(residents)), key=lambda i: -widths[i]):
        columns = set(residents[index].columns)
        placed = False
        for schema, members in partitions:
            if len(schema | columns) <= max(ibound, len(columns)):
                schema |= columns
                members.append(index)
                placed = True
                break
        if not placed:
            partitions.append((columns, [index]))
    return [[residents[i] for i in sorted(members)] for _, members in partitions]
