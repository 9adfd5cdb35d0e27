"""Command-line entry point for regenerating the paper's figures.

Examples::

    python -m repro.experiments fig3
    python -m repro.experiments fig3 --free-fraction 0.2 --seeds 5
    python -m repro.experiments fig4 --orders 8 10 12 14 16
    python -m repro.experiments orders --summary
    python -m repro.experiments all --seeds 2
"""

from __future__ import annotations

import argparse
import inspect
import sys

from repro.errors import ReproError
from repro.experiments.figures import FIGURES
from repro.experiments.report import (
    dominance_summary,
    format_report,
    series_to_json,
)


def _positive(kind: type):
    """An argparse type: ``kind`` of the text, rejected unless > 0."""

    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
        return value

    parse.__name__ = kind.__name__
    return parse


def build_argument_parser() -> argparse.ArgumentParser:
    """The experiments CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the tables behind the paper's figures.",
    )
    parser.add_argument(
        "figure",
        choices=sorted(FIGURES) + ["all"],
        help="which figure to regenerate (or 'all')",
    )
    parser.add_argument(
        "--seeds", type=_positive(int), default=None, help="instances per point"
    )
    parser.add_argument(
        "--budget-seconds",
        type=_positive(float),
        default=None,
        help="per-method soft timeout before it is retired from the series",
    )
    parser.add_argument(
        "--free-fraction",
        type=float,
        default=None,
        help="fraction of free variables (0 = Boolean, paper uses 0.2)",
    )
    parser.add_argument(
        "--orders",
        type=int,
        nargs="+",
        default=None,
        help="explicit order values for order-scaling figures",
    )
    parser.add_argument(
        "--densities",
        type=float,
        nargs="+",
        default=None,
        help="explicit density values for density-scaling figures",
    )
    parser.add_argument(
        "--via-sql",
        action="store_true",
        default=None,
        help="run through the full SQL generate/parse/execute pipeline",
    )
    parser.add_argument(
        "--engine",
        choices=("interpreted", "compiled", "vectorized"),
        default=None,
        help="execution backend for plan-path runs: the interpreter, or "
        "the compiled engine, which 'compiled' and 'vectorized' both name "
        "(default: interpreted)",
    )
    parser.add_argument(
        "--jobs",
        type=_positive(int),
        default=None,
        help="fan grid cells across N worker processes (default: 1, serial); "
        "results are identical to a serial run apart from wall-clock",
    )
    parser.add_argument(
        "--cell-timeout-seconds",
        type=_positive(float),
        default=None,
        help="hard per-cell timeout when --jobs > 1 (a cell exceeding it is "
        "recorded as timed out and its method retired)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the series as JSON instead of ASCII tables",
    )
    parser.add_argument(
        "--summary",
        action="store_true",
        help="append the winner-per-point dominance summary",
    )
    return parser


def _kwargs_for(name: str, args: argparse.Namespace) -> dict:
    """The flags that were given and that ``FIGURES[name]`` takes, as
    keyword arguments (an option's ``dest`` is the parameter's name)."""
    accepted = inspect.signature(FIGURES[name]).parameters
    return {
        key: value
        for key, value in vars(args).items()
        if key in accepted and value is not None
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_argument_parser().parse_args(argv)
    names = sorted(FIGURES) if args.figure == "all" else [args.figure]
    reports = []
    for name in names:
        try:
            series = FIGURES[name](**_kwargs_for(name, args))
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.json:
            reports.append(series_to_json(series))
            continue
        print(format_report(series))
        if args.summary:
            print()
            print(dominance_summary(series))
        print()
    if args.json:
        import json

        payload = reports[0] if len(reports) == 1 else reports
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
