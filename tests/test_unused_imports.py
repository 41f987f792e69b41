"""No module under ``src/repro`` imports a name it never uses.

No linter runs in CI, so this scan is the guard: it parses every
non-``__init__`` module and lists each module-level import whose bound
name no ``Name`` node reads and ``__all__`` does not re-export.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _bound_names(node: ast.stmt) -> list[str]:
    """The names a module-level import statement binds."""
    if isinstance(node, ast.Import):
        return [a.asname or a.name.partition(".")[0] for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [a.asname or a.name for a in node.names if a.name != "*"]
    return []


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def unused_imports(path: Path) -> list[str]:
    """Each import of ``path`` nothing uses, as ``name (line N)``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)
    return [f"{name} (line {node.lineno})"
            for node in tree.body for name in _bound_names(node) if name not in used]


def test_scan_covers_the_package():
    assert len(MODULES) > 80
    assert SRC / "scheduler" / "array_core.py" in MODULES


def test_scan_flags_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n"
                      "import math\nimport numpy as np\nfrom os import path, sep\n"
                      "__all__ = ['sep']\n\nx = np.pi\n")
    assert unused_imports(module) == ["math (line 2)", "path (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path) == []
