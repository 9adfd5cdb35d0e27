"""Spans, percentiles and process accounting shared by the workloads."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

#: A percentile is reported only with this many samples beyond it.
SAMPLES_BEYOND = 10


class TooFewSamples(Exception):
    """The run was too short to support the percentile asked for."""


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(0, math.ceil(pct / 100 * len(ordered)) - 1)
    return ordered[rank]


def tail(cycles, pct: float, smoke: bool) -> float:
    """The ``pct`` percentile of every cycle's samples, and of those the
    lower quartile (see ``quartile``): a tail is what noise inflates
    first.  Refused when the whole run leaves fewer than
    ``SAMPLES_BEYOND`` samples beyond the percentile (a smoke run reports
    it anyway)."""
    total = sum(len(cycle) for cycle in cycles)
    beyond = total - math.ceil(pct / 100 * total)
    if beyond < SAMPLES_BEYOND and not smoke:
        raise TooFewSamples(
            f"p{pct:g} needs {SAMPLES_BEYOND} samples beyond it, "
            f"{total} samples leave {beyond}: the run is too short"
        )
    return quartile([percentile(cycle, pct) for cycle in cycles if cycle])


def median(samples) -> float:
    return statistics.median(samples) if samples else 0.0


def mean(samples) -> float:
    return statistics.fmean(samples) if samples else 0.0


def quartile(values, upper: bool = False) -> float:
    """The lower (or upper) quartile of per-segment values.

    The sizing host slows down for seconds at a time (a fixed 100 ms loop
    takes 80-150 ms, in stretches of 2-6 s; one engine_grid pass in five
    took 10-45 % longer than its neighbours), which only ever makes a
    segment slower.  The quartile on the fast side is what the code costs
    when the host is quiet, as long as a quarter of the run was.
    """
    if len(values) < 2:
        return values[0] if values else 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return high if upper else low


class Spans:
    """Spans kept in memory as ``[name, start, end, parent, request]``.

    ``parent`` is the index of the enclosing span (-1 at the top) and
    ``request`` the identifier every span of one operation shares.
    """

    def __init__(self) -> None:
        self.records: list[list] = []

    def add(self, name: str, start: float, end: float, parent: int = -1,
            request: int = -1) -> int:
        self.records.append([name, start, end, parent, request])
        return len(self.records) - 1

    def open(self, name: str, start: float, request: int = -1) -> int:
        """A span whose children are recorded before it ends."""
        return self.add(name, start, start, -1, request)

    def close(self, index: int, end: float) -> None:
        self.records[index][2] = end

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's children subtracted."""
        covered = [0.0] * len(self.records)
        for _, start, end, parent, _ in self.records:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _, _), inside in zip(self.records, covered):
            totals[name] = totals.get(name, 0.0) + (end - start) - inside
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "request"],
                 "spans": self.records},
                handle,
            )


def shares(self_times: dict[str, float], layers) -> dict[str, float]:
    """``share.<layer>`` for every declared layer: its traced self time
    over the self time of all of them.  A span named ``layer.detail``
    counts towards ``layer``."""
    per_layer = {layer: 0.0 for layer in layers}
    for name, seconds in self_times.items():
        for layer in sorted(layers, key=len, reverse=True):
            if name == layer or name.startswith(layer + "."):
                per_layer[layer] += seconds
                break
    total = sum(per_layer.values())
    return {
        f"share.{layer}": (seconds / total if total else 0.0)
        for layer, seconds in per_layer.items()
    }


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    #: Diagnostics that are printed and saved but carry no bound.
    notes: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def tally(self, attempted: int, failed: int, message: str) -> None:
        """Count ``attempted`` verified operations, ``failed`` of them
        wrong for the reason ``message`` gives."""
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.failures) < 10:
            self.failures.append(message)

    def check(self, ok: bool, message: str) -> None:
        self.tally(1, 0 if ok else 1, message)

    def fail(self, message: str) -> None:
        self.tally(0, 1, message)


# ----------------------------------------------------------------------
# Process accounting
# ----------------------------------------------------------------------
def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_tree(pid: int) -> list[int]:
    """``pid`` and every live descendant, from /proc."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # The command name may hold spaces; fields follow its ")".
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        parents.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        frontier.extend(parents.get(current, ()))
    return tree


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident sizes of ``pid`` and its descendants."""
    total_kb = 0
    for member in process_tree(pid):
        try:
            with open(f"/proc/{member}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def stamp(root: Path, seed: int, case_set_hash: str) -> dict:
    """Where and on what a result was measured."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
        "case_set_hash": case_set_hash,
    }
