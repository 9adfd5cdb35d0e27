"""Smoke test of the layered benchmark (run explicitly; ``testpaths``
stays ``tests``):

    python -m pytest benchmarks/layers/test_layers_smoke.py

It checks what a timing cannot: that every workload verifies and runs,
that a run reports exactly the workloads and metrics BENCHMARK.json
declares, and that a wrong expected answer fails the run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def smoke(tmp_path: Path, *arguments: str):
    output = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--output", str(output),
         *arguments],
        capture_output=True, text=True, timeout=300,
    )
    return done, json.loads(output.read_text())


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_reports_exactly_what_is_declared(tmp_path, trace, kind):
    done, document = smoke(tmp_path, "--trace", trace)
    assert done.returncode == 0, done.stderr[-2000:]
    assert document["smoke"] is True  # the numbers are flagged as unstable
    assert list(document["results"]) == [w["name"] for w in SPEC["workloads"]]
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    for workload, result in document["results"].items():
        assert result["correct"] and result["failed"] == 0, workload
        assert result["attempted"] >= 1
        measured = {name: m["unit"] for name, m in result["metrics"].items()}
        assert measured == declared, workload
    # One line per workload on standard output, each with the contract's keys.
    lines = [json.loads(line) for line in done.stdout.strip().splitlines()]
    assert [line["workload"] for line in lines] == list(document["results"])
    assert all(
        set(line) == {"workload", "correct", "attempted", "failed", "metrics"}
        for line in lines
    )


@pytest.mark.parametrize("workload", ["engine_grid", "update_stream", "serve_warm"])
def test_a_wrong_expected_answer_fails_the_run(tmp_path, workload):
    done, document = smoke(tmp_path, "--workload", workload, "--corrupt-expected")
    result = document["results"][workload]
    assert done.returncode != 0
    assert result["failed"] > 0 and not result["correct"]
    assert result["failed"] / result["attempted"] > 0  # the error rate
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == result["failed"]
