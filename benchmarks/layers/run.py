#!/usr/bin/env python3
"""The repo's benchmark: six workloads, end-to-end and per-layer metrics.

    python3 benchmarks/layers/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace [0|1]] [--smoke] [--output FILE]
        [--trace-out FILE]

With one ``--workload`` the run happens in this process and the last line
of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: every end-to-end metric of BENCHMARK.json with
``--trace 0`` (tracing off), every per-layer metric with ``--trace 1``.
With several workloads (the default is all six) each runs in a process
of its own, so that peak memory and interning counts are per workload,
and one such line is printed per workload with its name added.

Every metric is also printed by name with its unit on standard error.
The exit code is non-zero when any verified operation failed.
README.md beside this file says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SCHEMA = "repro-layers/1"
#: Scratch space inside the checkout: catalogs on disk, server logs, traces.
SCRATCH = ROOT / ".bench_tmp"
#: Set-up is repeated and its median reported.
SETUP_REPEATS = 3
#: Untimed traffic before the first window of a serve_* run.
WARM_SECONDS = 0.5

#: Span-name prefixes the traced shares are reported for.
LAYERS = (
    "datalog", "sql", "core",
    "relalg.engine", "relalg.compiled", "relalg.vectorized", "relalg.lower",
    "relalg.cache", "relalg.database",
    "service.protocol", "service.prepared", "service.serialize",
    "service.server", "service.pool", "service.worker",
)


def log(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def parse_arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[],
                        help="workload to run; repeatable (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run, which reports the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="all verification, one short pass per workload; "
                        "the numbers are not stable")
    parser.add_argument("--output", help="write the full result document here")
    parser.add_argument("--trace-out",
                        help="where the traced run writes its spans "
                        "(default: .bench_tmp/trace-<workload>.json)")
    # Makes one expected answer wrong, to show that a wrong answer fails
    # the run (test_layers_smoke.py).
    parser.add_argument("--corrupt-expected", action="store_true",
                        help=argparse.SUPPRESS)
    # What fresh_setup_seconds() runs in an interpreter of its own.
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def fresh_setup_seconds(name: str, args) -> float:
    """Set-up as a new user of the library pays it: a fresh interpreter
    imports what the workload uses and builds its catalogs, plans and
    engines.  The few milliseconds of building alone would be lost in
    the noise; the import is most of the wait and is the repo's to keep
    short."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", name, "--seed", str(args.seed),
    ]
    samples = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        done = subprocess.run(command, capture_output=True, text=True, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def setup_only(name: str, args, started: float) -> int:
    import inproc

    inproc.WORKLOADS[name](args.seed, False, False).setup()
    print(time.perf_counter() - started)
    return 0


def run_inprocess(cls, args, seconds: float):
    from inproc import end_to_end
    from measure import Outcome, Spans, quartile, self_peak_rss_mb, shares, tail

    outcome = Outcome()
    workload = cls(args.seed, args.smoke, args.corrupt_expected)
    workload.setup()
    workload.verify(outcome)
    spans = None
    if not args.trace:
        timed = workload.measure(seconds, outcome, None)
        metrics = end_to_end(timed)
        metrics["call_p95_ms"] = 1e3 * tail(timed.cycles, 95, args.smoke)
        metrics["setup_s"] = fresh_setup_seconds(cls.name, args)
        metrics["peak_rss_mb"] = self_peak_rss_mb()
    else:
        base = workload.measure(seconds / 2, outcome, None)
        spans = Spans()
        timed = workload.measure(seconds / 2, outcome, spans)
        metrics = workload.layers(timed, spans)
        metrics.update(shares(spans.self_times(), LAYERS))
        metrics["trace.overhead_ratio"] = (
            sum(quartile(samples) for samples in timed.passes.values())
            / sum(quartile(samples) for samples in base.passes.values())
            - 1.0
        )
    outcome.metrics = metrics
    outcome.notes.update(workload.notes)
    outcome.notes["segments"] = {e: len(s) for e, s in timed.passes.items()}
    outcome.notes["calls"] = sum(len(cycle) for cycle in timed.cycles)
    return outcome, spans


def run_serve(cls, args, seconds: float, work: Path):
    from measure import Outcome, Spans, mean, median, shares
    from serving import drive, is_read

    outcome = Outcome()
    workload = cls(args.seed, args.smoke, args.corrupt_expected, SRC, work)
    workload.generate(seconds + WARM_SECONDS)
    spans = None

    def window(length, offsets, recorder=None):
        return drive(workload.clients, workload.streams, offsets, length,
                     outcome, recorder)

    def reads(observed, middle=mean):
        return middle(observed.latencies(is_read))

    try:
        setups = []
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        workload.verify(outcome)
        offsets = workload.offsets
        warm = window(WARM_SECONDS, offsets)
        before = workload.control(reset=True)
        if not args.trace:
            metrics = workload.end_to_end(window(seconds, offsets))
            metrics["setup_s"] = median(setups)
            workload.finish(outcome)
        else:
            base = window(seconds / 2, offsets)
            spans = Spans()
            traced = window(seconds / 2, offsets, spans)
            after = workload.control()
            workload.finish(outcome)
            plain = None
            if workload.workers:
                # The pool tax: the same requests against the same server
                # without the worker hop.
                workload.setup(workers=0)
                workload.verify(outcome)
                again = [0] * len(offsets)
                window(WARM_SECONDS, again)
                plain = reads(window(seconds / 2, again), median)
            workload.teardown()
            replay = workload.replay([warm, base], traced)
            spans.records.extend(replay.spans.records)
            metrics, self_times = workload.layers(traced, replay, before, after)
            metrics.update(shares(self_times, LAYERS))
            metrics["trace.overhead_ratio"] = reads(traced) / reads(base) - 1.0
            if plain is not None:
                # Medians: a few slow replies move the mean of a window by
                # more than the whole tax.
                tax = reads(traced, median) - plain
                metrics["service.pool.tax_us"] = 1e6 * tax
                metrics["service.pool.unattributed_us"] = (
                    1e6 * tax
                    - metrics["service.pool.pickle_us"]
                    - metrics["service.pool.socket_us"]
                    - workload.notes["pool.worker_beyond_engine_us"]
                )
            outcome.notes["replayed"] = len(replay.all_totals)
            outcome.notes["wire_read_mean_us"] = 1e6 * reads(traced)
    finally:
        workload.teardown()
    outcome.metrics = metrics
    outcome.notes.update(workload.notes)
    return outcome, spans


def run_one(name: str, args, spec: dict) -> dict:
    """Run ``name`` here; return its entry of the result document."""
    import cases
    import inproc
    import serving

    if cases.case_set_hash() != cases.CASE_SET_HASH:
        raise SystemExit(
            f"the generated case set hashes to {cases.case_set_hash()}, not to "
            f"the frozen {cases.CASE_SET_HASH}: a generator under repro.* or "
            "cases.py changed, and results would not compare with earlier ones"
        )
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.smoke:
        seconds = min(seconds, 1.0)
    work = SCRATCH / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if name in inproc.WORKLOADS:
            outcome, spans = run_inprocess(inproc.WORKLOADS[name], args, seconds)
        else:
            outcome, spans = run_serve(serving.WORKLOADS[name], args, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if spans is not None:
        target = Path(args.trace_out) if args.trace_out else (
            SCRATCH / f"trace-{name}.json"
        )
        spans.write(target)
        log(f"{name}: {len(spans.records)} spans written to {target}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    known = {metric["name"] for metric in declared}
    undeclared = sorted(set(outcome.metrics) - known)
    if undeclared:
        raise SystemExit(f"{name} measured undeclared metrics: {undeclared}")
    metrics = {}
    for metric in declared:
        value = outcome.metrics.get(metric["name"])
        if value is None:
            if not args.trace:
                raise SystemExit(f"{name} did not measure {metric['name']}")
            value = 0.0  # no call entered this layer in this workload
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        log(f"{name:14} {metric['name']:42} {value:14.4f} {metric['unit']}")
    for key, value in sorted(outcome.notes.items()):
        log(f"{name:14} note {key}: {value}")
    for failure in outcome.failures:
        log(f"{name:14} FAILED {failure}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "notes": outcome.notes,
        "failures": outcome.failures,
    }


# ----------------------------------------------------------------------
# Several workloads, a process each
# ----------------------------------------------------------------------
def run_child(name: str, args) -> dict:
    target = SCRATCH / f"result-{os.getpid()}-{name}.json"
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(args.seed),
        "--trace", str(args.trace), "--output", str(target),
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    if args.corrupt_expected:
        command.append("--corrupt-expected")
    if args.trace_out:
        path = Path(args.trace_out)
        command += ["--trace-out", str(path.with_name(f"{path.stem}-{name}{path.suffix}"))]
    SCRATCH.mkdir(exist_ok=True)
    try:
        completed = subprocess.run(command, stdout=subprocess.DEVNULL)
        if not target.exists():
            raise SystemExit(
                f"{name} ended with code {completed.returncode} and no result"
            )
        return json.loads(target.read_text())["results"][name]
    finally:
        target.unlink(missing_ok=True)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_arguments(argv)
    if not (SRC / "repro").is_dir():
        log(f"no program to measure: {SRC / 'repro'} is missing")
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [workload["name"] for workload in spec["workloads"]]
    names = args.workload or declared
    unknown = sorted(set(names) - set(declared))
    if unknown:
        log(f"unknown workload(s) {unknown}; BENCHMARK.json declares {declared}")
        return 2
    if args.setup_only:
        return setup_only(names[0], args, started)
    if args.smoke:
        log("smoke run: every check is on, the numbers are not stable")

    import cases
    from measure import TooFewSamples, stamp

    results = {}
    try:
        for name in names:
            results[name] = (
                run_one(name, args, spec) if len(names) == 1 else run_child(name, args)
            )
    except TooFewSamples as short:
        log(str(short))
        return 2
    document = {
        "schema": SCHEMA,
        "stamp": stamp(ROOT, args.seed, cases.CASE_SET_HASH),
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds if args.seconds is not None else spec["run_seconds"],
        "results": results,
    }
    if args.output:
        Path(args.output).write_text(json.dumps(document, indent=1) + "\n")
    for name, result in results.items():
        line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
        if len(names) > 1:
            line = {"workload": name, **line}
        print(json.dumps(line), flush=True)
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
