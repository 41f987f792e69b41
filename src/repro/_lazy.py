"""Lazy (PEP 562) re-exports for the package ``__init__`` modules.

A package hands :func:`lazy` its name and a table from submodule (a
relative name, as in a ``from`` import) to the names it re-exports; the
key ``"."`` lists subpackages exported under their own name.  Nothing
is imported until a name is first looked up, and the value is then
cached in the package namespace, so later lookups are plain attribute
reads and a process pays only for the submodules it uses.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy(package: str, table: dict[str, tuple[str, ...]]
         ) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """The ``__getattr__``, ``__dir__`` and ``__all__`` of ``package``."""
    source = {name: sub for sub, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        sub = source.get(name)
        if sub is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        if sub == ".":
            return importlib.import_module(f"{package}.{name}")
        value = getattr(importlib.import_module(sub, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *source})

    return __getattr__, __dir__, list(source)
