"""Package exports resolved on first access (PEP 562).

A package ``__init__`` lists each public name once, in a ``{name:
submodule}`` table, and takes its ``__all__``, ``__getattr__`` and
``__dir__`` from :func:`lazy_exports`.  Importing the package then loads
none of its submodules; the first access to a name imports the one
submodule that defines it and binds the value in the package, so later
accesses are plain attribute reads.  A process pays at start-up only for
the modules it uses: a pool worker loads neither the server nor the SQL
route.

A name that is also the name of one of the package's submodules
(``repro.explain``, ``repro.core.join_graph``) is imported eagerly by
its ``__init__`` as well: the first import of a submodule sets the
package attribute of the same name to the module, which would shadow a
value bound later.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable


def lazy_exports(
    package: str, table: dict[str, str]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``, whose public
    names are ``table``'s keys, each defined in the submodule (relative
    to ``package``) it maps to."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        submodule = table.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{submodule}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *table})

    return list(table), __getattr__, __dir__
