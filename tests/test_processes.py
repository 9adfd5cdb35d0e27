"""What a fresh ``repro`` process loads, and that its plans do not depend
on the hash seed.

Start-up is paid by the server, by every pool worker and by every crash
respawn, so the modules a process imports are part of the contract:
``networkx`` (a test-only oracle now) and ``multiprocessing`` stay out.
(The same check inside a running pool worker is in
``tests/service/test_pool.py``.)
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)
LAYERS = Path(__file__).resolve().parent.parent / "benchmarks" / "layers"
UNWANTED = ("networkx", "multiprocessing")

REPORT = "import sys; print('loaded:', [m for m in %r if m in sys.modules])" % (UNWANTED,)


def run_python(code: str, *argv: str, **environment: str) -> str:
    completed = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        timeout=240,
        env=dict(os.environ, PYTHONPATH=SRC, **environment),
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return completed.stdout


def test_import_repro_loads_neither():
    assert run_python("import repro; " + REPORT).strip() == "loaded: []"


def test_planning_from_the_command_line_loads_neither():
    code = (
        "import runpy, sys\n"
        "sys.argv[0] = 'repro'\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as done:\n"
        "    assert not done.code, done.code\n" + REPORT
    )
    out = run_python(
        code, "plan", "q(X) :- edge(X, Y), edge(Y, Z), edge(Z, X).", "--method", "bucket"
    )
    assert "Scan edge" in out
    assert out.strip().endswith("loaded: []")


PLAN_COLD_CASES = """
import sys
sys.path.insert(0, sys.argv[1])
import cases
from repro.core.planner import plan_query
from repro.plans import pretty_plan
planned = cases.cold_cases(cases.DEFAULT_SEED)
assert len(planned) == 10, len(planned)
for case in planned:
    print(case.name)
    print(case.text)
    print(pretty_plan(plan_query(case.query, case.method)))
"""


@pytest.mark.skipif(not LAYERS.is_dir(), reason="needs the repository's benchmarks/")
def test_cold_pipeline_plans_ignore_the_hash_seed():
    """Join-graph nodes are added from a frozenset of variable names, so
    only the heuristics' name tie-breaks keep a plan from depending on
    ``PYTHONHASHSEED``; the graph underneath must not undo that."""
    renderings = {
        seed: run_python(PLAN_COLD_CASES, str(LAYERS), PYTHONHASHSEED=seed)
        for seed in ("0", "1", "4242")
    }
    assert renderings["0"].count("cold ") == 10
    assert renderings["0"] == renderings["1"] == renderings["4242"]
