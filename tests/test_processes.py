"""What a fresh ``repro`` process loads, that it behaves the same when
numpy cannot be imported, and that its plans do not depend on the hash
seed.

Start-up is paid by the server, by every pool worker and by every crash
respawn, so the modules a process imports are part of the contract:
``networkx`` (a test-only oracle now) and ``multiprocessing`` stay out,
and numpy is loaded only by the first lowering of the compiled engine
(either of its names).  (The same
check inside a running pool worker and a pool front end is in
``tests/service/test_pool.py``.)
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)
LAYERS = Path(__file__).resolve().parent.parent / "benchmarks" / "layers"
UNWANTED = ("networkx", "multiprocessing", "numpy")

REPORT = "import sys; print('loaded:', [m for m in %r if m in sys.modules])" % (UNWANTED,)


def run_python(code: str, *argv: str, **environment: str) -> str:
    completed = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        timeout=240,
        env={**os.environ, "PYTHONPATH": SRC, **environment},
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return completed.stdout


def test_import_repro_loads_neither():
    assert run_python("import repro; " + REPORT).strip() == "loaded: []"


def run_cli(*argv: str) -> str:
    """``python -m repro *argv``'s output, then what it loaded of
    ``UNWANTED``."""
    code = (
        "import runpy, sys\n"
        "sys.argv[0] = 'repro'\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as done:\n"
        "    assert not done.code, done.code\n" + REPORT
    )
    return run_python(code, *argv)


def test_planning_from_the_command_line_loads_neither():
    out = run_cli(
        "plan", "q(X) :- edge(X, Y), edge(Y, Z), edge(Z, X).", "--method", "bucket"
    )
    assert "Scan edge" in out
    assert out.strip().endswith("loaded: []")


@pytest.mark.parametrize("engine", ["interpreted", "compiled"])
def test_a_row_engine_run_loads_none(tmp_path, engine):
    """Neither engine name loads networkx or multiprocessing.  The
    interpreter never asks for numpy; ``compiled`` names the vectorized
    engine, whose first lowering does (and gets it where installed)."""
    program = tmp_path / "triangle.dl"
    program.write_text(
        "edge(1, 2). edge(2, 3). edge(3, 1).\n"
        "q(X) :- edge(X, Y), edge(Y, Z), edge(Z, X).\n"
    )
    out = run_cli("program", str(program), "--engine", engine)
    assert "-- 3 rows" in out
    loaded = ast.literal_eval(out.strip().rsplit("loaded: ", 1)[1])
    assert set(loaded) <= ({"numpy"} if engine == "compiled" else set())


#: A vectorized run whose batches reach the array threshold, against the
#: interpreter, printing what differs.
LARGE_BATCHES = """
import sys
from repro.core.planner import plan_query
from repro.datalog import parse_rule
from repro.relalg import compiled
from repro.relalg.compiled import VectorizedEngine
from repro.relalg.database import Database
from repro.relalg.engine import Engine
from repro.relalg.relation import Relation

n = 4 * compiled._ARRAY_MIN
db = Database()
db.add("r", Relation(("a", "b"), [(i, (7 * i + 3) % n) for i in range(n)]))
db.add("s", Relation(("a", "b"), [(i, i % 5) for i in range(n)]))
query = parse_rule("q(X, W) :- r(X, Y), r(Y, Z), s(Z, W), r(W, V).")
for method in ("bucket", "early", "straightforward"):
    plan = plan_query(query, method)
    got, got_stats = VectorizedEngine(db).execute_with_stats(plan)
    want, want_stats = Engine(db).execute_with_stats(plan)
    assert got.cardinality >= compiled._ARRAY_MIN, got.cardinality
    for counter in ("rows_built", "cache_hits", "cache_misses"):
        setattr(got_stats, counter, 0)
        setattr(want_stats, counter, 0)
    print(method, got == want, got_stats == want_stats, got_stats.arity_trace == want_stats.arity_trace)
print("numpy:", compiled._np, "numpy" in sys.modules)
"""


def test_without_numpy_the_vectorized_engine_answers_the_same(tmp_path):
    """numpy installed but failing to import — a shadow package that
    raises ``ImportError`` — leaves the vectorized engine on its row
    kernels, with the interpreter's rows and logical counters."""
    shadow = tmp_path / "numpy"
    shadow.mkdir()
    (shadow / "__init__.py").write_text("raise ImportError('numpy is shadowed')\n")
    out = run_python(LARGE_BATCHES, PYTHONPATH=os.pathsep.join((str(tmp_path), SRC)))
    assert out.splitlines() == [
        "bucket True True True",
        "early True True True",
        "straightforward True True True",
        "numpy: None False",
    ]


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
