"""Top-level command line: plan, run, and analyze conjunctive queries.

Queries are written as Datalog rules; databases are directories of CSV
files (one per relation, header row = column names).

Examples::

    python -m repro sql "q(X) :- edge(X, Y), edge(Y, Z)." --method bucket
    python -m repro plan "q(X) :- edge(X, Y), edge(Y, Z)." --dot
    python -m repro run  "q(X) :- edge(X, Y), edge(Y, Z)." --db ./data
    python -m repro analyze "q() :- edge(X, Y), edge(Y, Z), edge(Z, X)."
    python -m repro minimize "q(X) :- edge(X, Y), edge(X, Z)."

(`python -m repro.experiments <figure>` regenerates the paper's figures.)
"""

from __future__ import annotations

import argparse
import random
import sys

from repro.core.planner import METHODS, plan_query
from repro.datalog import parse_rule, render_datalog
from repro.plans import plan_width, pretty_plan
from repro.relalg.compiled import ENGINE_NAMES
from repro.relalg.joins import JOIN_ALGORITHMS


def build_argument_parser() -> argparse.ArgumentParser:
    """The `python -m repro` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Structural optimization of conjunctive queries "
        "(reproduction of 'Projection Pushing Revisited', EDBT 2004).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser, with_method: bool = True) -> None:
        sub.add_argument("rule", help="Datalog rule, e.g. 'q(X) :- edge(X, Y).'")
        if with_method:
            sub.add_argument(
                "--method",
                choices=METHODS,
                default="bucket",
                help="planning method (default: bucket elimination)",
            )
        sub.add_argument("--seed", type=int, default=0, help="tie-break seed")

    def add_execution_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--engine",
            choices=ENGINE_NAMES,
            default="interpreted",
            help="execution backend: the materializing interpreter, the "
            "fused plan compiler, or the vectorized columnar compiler "
            "(default: interpreted)",
        )
        sub.add_argument(
            "--join-algorithm",
            choices=sorted(JOIN_ALGORITHMS),
            default="hash",
            help="binary join implementation (interpreted engine only; "
            "default: hash)",
        )
        sub.add_argument(
            "--no-plan-cache",
            action="store_true",
            help="disable the engine's common-subexpression plan cache",
        )

    plan_cmd = commands.add_parser("plan", help="show the chosen plan")
    add_common(plan_cmd)
    plan_cmd.add_argument("--dot", action="store_true", help="emit graphviz DOT")

    sql_cmd = commands.add_parser("sql", help="emit the method's SQL")
    add_common(sql_cmd)

    run_cmd = commands.add_parser("run", help="execute against a CSV database")
    add_common(run_cmd)
    run_cmd.add_argument(
        "--db", help="directory of <relation>.csv files"
    )
    run_cmd.add_argument(
        "--explain", action="store_true", help="print EXPLAIN ANALYZE output"
    )
    add_execution_flags(run_cmd)

    program_cmd = commands.add_parser(
        "program", help="run a self-contained Datalog program file "
        "(facts + one query rule)"
    )
    program_cmd.add_argument("path", help="program file (facts + one rule)")
    program_cmd.add_argument(
        "--method", choices=METHODS, default="bucket",
        help="planning method (default: bucket elimination)",
    )
    program_cmd.add_argument("--seed", type=int, default=0, help="tie-break seed")
    add_execution_flags(program_cmd)

    analyze_cmd = commands.add_parser(
        "analyze", help="structural report: widths, acyclicity, orders"
    )
    add_common(analyze_cmd, with_method=False)

    minimize_cmd = commands.add_parser(
        "minimize", help="Chandra-Merlin join minimization"
    )
    add_common(minimize_cmd, with_method=False)

    serve_cmd = commands.add_parser(
        "serve",
        help="run the long-lived query service (newline-delimited JSON "
        "over TCP; see docs/SERVICE.md)",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_cmd.add_argument(
        "--port", type=int, default=7411, help="TCP port (0 = pick a free one)"
    )
    serve_cmd.add_argument(
        "--db",
        action="append",
        default=[],
        metavar="NAME=DIR",
        help="register a database from a directory of <relation>.csv files "
        "(repeatable); with no --db/--edge-db, 'default' is the paper's "
        "six-tuple 3-COLOR edge database",
    )
    serve_cmd.add_argument(
        "--edge-db",
        action="append",
        default=[],
        metavar="NAME",
        help="register NAME as the built-in 3-COLOR edge database (repeatable)",
    )
    serve_cmd.add_argument(
        "--queue-limit", type=int, default=256,
        help="admission queue bound; a full queue fails fast with 'overloaded'",
    )
    serve_cmd.add_argument(
        "--request-timeout", type=float, default=30.0,
        help="default queue-wait deadline in seconds (0 disables waiting)",
    )
    serve_cmd.add_argument(
        "--max-sessions", type=int, default=1024, help="open-session limit"
    )
    serve_cmd.add_argument(
        "--prepared-cache-size", type=int, default=256,
        help="prepared-statement (query shape) LRU capacity per database",
    )
    serve_cmd.add_argument(
        "--default-engine", choices=ENGINE_NAMES, default="interpreted",
        help="engine for sessions that do not pick one",
    )
    serve_cmd.add_argument(
        "--default-method", choices=METHODS, default="bucket",
        help="planning method for sessions that do not pick one",
    )
    serve_cmd.add_argument(
        "--workers", type=int, default=0,
        help="worker processes for the multi-process pool backend "
        "(0 = one executor thread in the server process)",
    )
    serve_cmd.add_argument(
        "--replicas", type=int, default=1,
        help="read replicas per database in pool mode "
        "(clamped to workers-1; ignored when --workers 0)",
    )
    return parser


def _cmd_plan(args: argparse.Namespace) -> int:
    query = parse_rule(args.rule)
    plan = plan_query(query, args.method, rng=random.Random(args.seed))
    if args.dot:
        from repro.viz import plan_to_dot

        print(plan_to_dot(plan))
    else:
        print(f"method: {args.method}, width: {plan_width(plan)}")
        print(pretty_plan(plan))
    return 0


def _cmd_sql(args: argparse.Namespace) -> int:
    from repro.sql.generator import generate_sql

    query = parse_rule(args.rule)
    method = "straightforward" if args.method == "jointree" else args.method
    print(generate_sql(query, method, rng=random.Random(args.seed)))
    return 0


def _make_engine(args: argparse.Namespace, database):
    from repro.relalg.compiled import make_engine
    from repro.relalg.engine import DEFAULT_PLAN_CACHE_SIZE
    from repro.relalg.joins import get_join_algorithm

    engine = getattr(args, "engine", "interpreted")
    if engine != "interpreted" and args.join_algorithm != "hash":
        print(
            f"error: --engine {engine} always uses the hash join; "
            "--join-algorithm applies to the interpreted engine only",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return make_engine(
        engine,
        database,
        join_algorithm=get_join_algorithm(args.join_algorithm),
        plan_cache_size=0 if args.no_plan_cache else DEFAULT_PLAN_CACHE_SIZE,
    )


def _cmd_program(args: argparse.Namespace) -> int:
    from repro.datalog import parse_program

    with open(args.path) as handle:
        query, database = parse_program(handle.read())
    plan = plan_query(query, args.method, rng=random.Random(args.seed))
    result, stats = _make_engine(args, database).execute_with_stats(plan)
    print(result.pretty())
    print(
        f"-- {result.cardinality} rows, "
        f"{stats.total_intermediate_tuples} intermediate tuples, "
        f"max arity {stats.max_intermediate_arity}"
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.relalg.io import load_database

    if args.db is None:
        print("error: --db is required for 'run' (or use 'program')", file=sys.stderr)
        return 2
    query = parse_rule(args.rule)
    database = load_database(args.db)
    plan = plan_query(query, args.method, rng=random.Random(args.seed))
    if args.explain:
        from repro.explain import explain

        result = explain(plan, database)
        print(result.render())
        print(f"-- {result.result.cardinality} rows")
        return 0
    result, stats = _make_engine(args, database).execute_with_stats(plan)
    print(result.pretty())
    print(
        f"-- {result.cardinality} rows, "
        f"{stats.total_intermediate_tuples} intermediate tuples, "
        f"max arity {stats.max_intermediate_arity}"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.core.hypertree import ghw_upper_bound
    from repro.core.join_graph import join_graph
    from repro.core.ordering import induced_width, mcs_order
    from repro.core.semijoins import is_acyclic
    from repro.core.treewidth import (
        EXACT_NODE_LIMIT,
        treewidth_exact,
        treewidth_lower_bound,
        treewidth_upper_bound,
    )

    query = parse_rule(args.rule)
    graph = join_graph(query)
    print(f"query          : {render_datalog(query)}")
    print(f"atoms          : {len(query.atoms)}")
    print(f"variables      : {len(query.variables)}")
    print(f"acyclic (GYO)  : {is_acyclic(query)}")
    mcs = mcs_order(graph, initial=tuple(query.free_variables))
    print(f"MCS induced w. : {induced_width(graph, mcs)}")
    if graph.number_of_nodes() <= EXACT_NODE_LIMIT:
        tw = treewidth_exact(graph)
        print(f"treewidth      : {tw} (exact; optimal arity = {tw + 1})")
    else:
        print(
            "treewidth      : in "
            f"[{treewidth_lower_bound(graph)}, {treewidth_upper_bound(graph)}] "
            "(bounds; graph too large for exact)"
        )
    print(f"GHW (bound)    : {ghw_upper_bound(query)}")
    return 0


def _cmd_minimize(args: argparse.Namespace) -> int:
    from repro.core.containment import minimize

    query = parse_rule(args.rule)
    minimal = minimize(query)
    print(render_datalog(minimal))
    saved = len(query.atoms) - len(minimal.atoms)
    print(f"-- {saved} join(s) removed" if saved else "-- already minimal")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.relalg.database import edge_database
    from repro.service import QueryService, ServiceConfig

    databases = {}
    for spec in args.db:
        name, sep, directory = spec.partition("=")
        if not sep or not name or not directory:
            print(f"error: --db expects NAME=DIR, got {spec!r}", file=sys.stderr)
            return 2
        from repro.relalg.io import load_database

        databases[name] = load_database(directory)
    for name in args.edge_db:
        databases[name] = edge_database()
    if not databases:
        databases["default"] = edge_database()

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        request_timeout=args.request_timeout,
        max_sessions=args.max_sessions,
        prepared_cache_size=args.prepared_cache_size,
        default_engine=args.default_engine,
        default_method=args.default_method,
        workers=args.workers,
        replicas=args.replicas,
    )
    service = QueryService(databases, config)

    async def run() -> None:
        await service.start()
        print(
            f"repro service listening on {config.host}:{service.port} "
            f"(databases: {', '.join(sorted(databases))})",
            flush=True,
        )
        try:
            await service.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await service.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_argument_parser().parse_args(argv)
    handlers = {
        "plan": _cmd_plan,
        "sql": _cmd_sql,
        "run": _cmd_run,
        "program": _cmd_program,
        "analyze": _cmd_analyze,
        "minimize": _cmd_minimize,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
