"""The public API surface: imports resolve, __all__ is honest, and the
README quickstart actually works."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


@pytest.mark.parametrize(
    "module",
    [
        "repro.relalg",
        "repro.plans",
        "repro.core",
        "repro.sql",
        "repro.workloads",
        "repro.experiments",
        "repro.errors",
        "repro.service",
    ],
)
def test_submodules_import(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module}.{name}"


#: Imports every ``repro`` submodule first — so the import system has set
#: each package attribute named after a submodule — and only then
#: resolves every package's exports, printing the ones that went wrong.
SHADOWING = """
import importlib, pkgutil, types
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith("__main__"):
        importlib.import_module(info.name)
for package in %r:
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        value = getattr(module, name)
        if isinstance(value, types.ModuleType) or name not in listed:
            print(package, name)
from repro import explain
from repro.core import join_graph
print(explain.__module__, join_graph.__module__)
"""

PACKAGES = (
    "repro",
    "repro.core",
    "repro.experiments",
    "repro.relalg",
    "repro.service",
    "repro.sql",
    "repro.workloads",
)


def test_exports_survive_every_submodule_being_imported_first():
    """Package exports resolve on first access; a name that is also a
    submodule's (``repro.explain``, ``repro.core.join_graph``) must still
    be the function once that submodule has been imported."""
    completed = subprocess.run(
        [sys.executable, "-c", SHADOWING % (PACKAGES,)],
        capture_output=True,
        text=True,
        timeout=240,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.splitlines() == ["repro.explain repro.core.join_graph"]


@pytest.mark.parametrize("package", PACKAGES)
def test_an_unlisted_name_is_an_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError):
        getattr(module, "no_such_export")


def test_readme_quickstart():
    from repro import coloring_instance, evaluate, pentagon, plan_query

    instance = coloring_instance(pentagon())
    plan = plan_query(instance.query, "bucket")
    result, stats = evaluate(plan, instance.database)
    assert result.cardinality == 3
    assert stats.max_intermediate_arity <= 3


def test_error_hierarchy():
    from repro.errors import (
        CatalogError,
        OrderingError,
        PlanError,
        QueryStructureError,
        ReproError,
        SchemaError,
        SqlSemanticError,
        SqlSyntaxError,
        TimeoutExceeded,
        WorkloadError,
    )

    for exc in (
        SchemaError,
        CatalogError,
        PlanError,
        SqlSyntaxError,
        SqlSemanticError,
        QueryStructureError,
        OrderingError,
        TimeoutExceeded,
        WorkloadError,
    ):
        assert issubclass(exc, ReproError)


def test_sql_syntax_error_carries_position():
    from repro.errors import SqlSyntaxError

    error = SqlSyntaxError("boom", position=17)
    assert error.position == 17


def test_cli_entry_point_exists():
    from repro.experiments.__main__ import build_argument_parser

    parser = build_argument_parser()
    args = parser.parse_args(["fig3", "--seeds", "2"])
    assert args.figure == "fig3"
    assert args.seeds == 2
