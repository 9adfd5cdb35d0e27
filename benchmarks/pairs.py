#!/usr/bin/env python3
"""Alternating parent/change runs of the layered benchmark, in one command.

    python3 benchmarks/pairs.py PARENT_REF [--workload NAME]... [--pairs N]
        [--trace] [--smoke] [--keep]

Extracts the committed files of ``PARENT_REF`` into a scratch checkout
under ``.bench_tmp/pairs/`` (``git archive``, so nothing is registered
in ``.git`` and nothing is left behind), then for seeds 1..N runs
``benchmarks/layers/run.py --workload ... --seed i --output ...`` once
in the parent checkout and once in this one — the parent first on odd
seeds, this checkout first on even ones, so drift of the host over the
session lands on both sides.  Each checkout runs its own copy of the
benchmark; ordinary PRs keep ``benchmarks/layers/`` byte-identical, so
the two are the same program over different ``src/``.  Every run starts
with no bytecode under its checkout's ``src/`` and ``benchmarks/`` and
writes none, so both sides pay the same module compilation in
``setup_s``.

Prints, for every end-to-end metric of every workload run (with
``--trace``: every per-layer metric that is not zero throughout), both
sides' medians with their quartiles, the change of the median, and in
how many pairs this checkout read better — the table a performance claim
is made from (a gain needs nine pairs of ten and medians further apart
than the parent's quartiles) — and then hands both sets to
``benchmarks/layers/compare.py`` for the verdict against the bounds of
``BENCHMARK.json``.  The exit code is ``compare.py``'s: 1 when any
metric is ``worse``.  ``--smoke`` makes one pair of ``--smoke`` runs:
it checks the plumbing, its numbers mean nothing, and it exits 0
whenever both runs verified their answers.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRATCH = ROOT / ".bench_tmp" / "pairs"
RUN = Path("benchmarks") / "layers" / "run.py"


def checkout(ref: str, where: Path) -> None:
    """The committed files of ``ref``, extracted under ``where``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref],
        check=True, capture_output=True,
    ).stdout
    # Our own repository's tree; the filter argument (and the warning
    # for leaving it out) only exists from Python 3.11.4 on.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(where, **safe)


def run(tree: Path, output: Path, seed: int, args) -> None:
    command = [sys.executable, str(tree / RUN), "--seed", str(seed),
               "--output", str(output)]
    for workload in args.workload:
        command += ["--workload", workload]
    if args.trace:
        command += ["--trace", "1"]
    if args.smoke:
        command.append("--smoke")
    # Both sides compile their own modules from source on every run:
    # ``setup_s`` is mostly that compilation, so a ``__pycache__`` left
    # on one side only would read as a set-up gain.  (The standard
    # library's and numpy's bytecode stays, on both sides alike.)
    for top in ("src", "benchmarks"):
        for cache in list((tree / top).rglob("__pycache__")):
            shutil.rmtree(cache, ignore_errors=True)
    environment = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                          env=environment)
    if done.returncode:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}")


def quartiles(values: list[float]) -> str:
    middle = statistics.median(values)
    if len(values) < 2:
        return f"{middle:.4g}"
    low, _, high = statistics.quantiles(values, n=4)
    return f"{middle:.4g} [{low:.4g}, {high:.4g}]"


def table(parent: list[Path], change: list[Path], kind: str) -> None:
    """One row per (workload, metric of ``kind``), pair by pair; ``kind``
    is the ``BENCHMARK.json`` list the runs report: ``end_to_end``, or
    ``per_layer`` for traced runs.  A metric that reads zero in every run
    of both sides (a layer the workload never enters) gets no row."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec[kind]}
    documents = [
        (json.loads(a.read_text())["results"], json.loads(b.read_text())["results"])
        for a, b in zip(parent, change)
    ]
    print(f"{'workload':14} {'metric':34} {'parent':>30} {'change':>30} "
          f"{'median':>8}  better in")
    for workload in documents[0][0]:
        for name, direction in better.items():
            pairs = [
                (a[workload]["metrics"][name]["value"],
                 b[workload]["metrics"][name]["value"])
                for a, b in documents
                if name in a[workload]["metrics"] and name in b[workload]["metrics"]
            ]
            if not any(value for pair in pairs for value in pair):
                continue
            old, new = [p[0] for p in pairs], [p[1] for p in pairs]
            wins = sum(
                (n < o) if direction == "lower" else (n > o) for o, n in pairs
            )
            base = statistics.median(old)
            moved = (
                f"{(statistics.median(new) - base) / base:+8.1%}" if base else f"{'-':>8}"
            )
            print(f"{workload:14} {name:34} {quartiles(old):>30} "
                  f"{quartiles(new):>30} {moved}  {wins}/{len(pairs)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git ref of the parent commit")
    parser.add_argument("--workload", action="append", default=[],
                        help="workload to run; repeatable (default: all)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="number of pairs; pair i runs seed i (default: 10)")
    parser.add_argument("--trace", action="store_true",
                        help="traced runs: the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="one pair of --smoke runs")
    parser.add_argument("--keep", action="store_true",
                        help="leave the scratch checkout and the run documents")
    args = parser.parse_args(argv)
    if args.smoke:
        args.pairs = 1
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        checkout(args.parent, SCRATCH / "parent")
        trees = {"parent": SCRATCH / "parent", "change": ROOT}
        outputs: dict[str, list[Path]] = {"parent": [], "change": []}
        for seed in range(1, args.pairs + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                output = SCRATCH / f"{side}-{seed}.json"
                print(f"pair {seed}/{args.pairs}: {side}", file=sys.stderr, flush=True)
                run(trees[side], output, seed, args)
                outputs[side].append(output)
        table(outputs["parent"], outputs["change"],
              "per_layer" if args.trace else "end_to_end")
        print(flush=True)
        verdict = subprocess.run(
            [sys.executable, str(ROOT / "benchmarks" / "layers" / "compare.py"),
             "--base", *map(str, outputs["parent"]),
             "--new", *map(str, outputs["change"])],
        ).returncode
        return 0 if args.smoke else verdict
    finally:
        if not args.keep:
            shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
