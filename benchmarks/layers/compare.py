#!/usr/bin/env python3
"""Compare two sets of ``run.py --output`` documents, metric by metric.

    python3 benchmarks/layers/compare.py --base A.json [A2.json ...]
                                         --new B.json [B2.json ...]

One row per (workload, metric): the medians of both sets, their ratio
with its base, the bound BENCHMARK.json fixes, and a verdict:

``better`` / ``worse``
    the new median is beyond the bound on that side;
``same``
    it is within the bound;
``unresolved``
    the sets' own run-to-run spread (interquartile range over median) is
    wider than the bound and their runs overlap, so the comparison
    cannot tell: make more or longer runs;
``info`` / ``differs``
    a per-layer metric, which carries no bound; ``differs`` marks a
    count that should repeat exactly and did not.

The exit code is 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(paths) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> one value per document``."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        document = json.loads(Path(path).read_text())
        for workload, result in document["results"].items():
            for name, metric in result["metrics"].items():
                values.setdefault((workload, name), []).append(metric["value"])
    return values


def spread(values: list[float]) -> float:
    """Interquartile range over the median; 0 for a single run."""
    middle = statistics.median(values)
    if len(values) < 2 or not middle:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(middle)


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base_median, new_median = statistics.median(base), statistics.median(new)
    if not base_median:
        return "same" if not new_median else "unresolved"
    worsening = sign * (new_median - base_median) / abs(base_median)
    if max(spread(base), spread(new)) > bound:
        if all(sign * n < sign * b for n in new for b in base):
            return "better"
        if not all(sign * n > sign * b for n in new for b in base):
            return "unresolved"
    if worsening > bound:
        return "worse"
    return "better" if worsening < -bound else "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(args.base), load(args.new)
    worse = 0
    print(f"{'workload':14} {'metric':40} {'base':>14} {'new':>14} "
          f"{'new/base':>9} {'bound':>6}  verdict")
    for key in sorted(base.keys() & new.keys()):
        workload, name = key
        metric = declared.get(name)
        if metric is None:
            continue
        base_median = statistics.median(base[key])
        new_median = statistics.median(new[key])
        ratio = f"{new_median / base_median:9.3f}" if base_median else f"{'-':>9}"
        if "bound" in metric:
            outcome = verdict(base[key], new[key], metric["better"], metric["bound"])
            bound = f"{metric['bound']:6.2f}"
        else:
            exact = metric["unit"] == "count" and base_median != new_median
            outcome, bound = ("differs" if exact else "info"), f"{'-':>6}"
        worse += outcome == "worse"
        print(f"{workload:14} {name:40} {base_median:14.4f} {new_median:14.4f} "
              f"{ratio} {bound}  {outcome}  ({metric['unit']}, base {base_median:.4g})")
    for key in sorted(base.keys() ^ new.keys()):
        print(f"{key[0]:14} {key[1]:40} only in the "
              f"{'base' if key in base else 'new'} set")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
