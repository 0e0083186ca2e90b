"""Every module-level import in the package is used by its module.

Package ``__init__`` modules are skipped: they import to re-export.  An
import that stays on purpose, for example a name that callers patch on the
module, carries ``# noqa: F401`` and a comment line above it saying why.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "compresslearn"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def unused_imports(path: Path) -> list:
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        span = lines[stmt.lineno - 1:stmt.end_lineno]
        excused = any("# noqa: F401" in line for line in span) \
            and lines[stmt.lineno - 2].lstrip().startswith("#")
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and not excused:
                unused.append(f"{path.name}:{stmt.lineno} {name}")
    return unused


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_module_uses_its_imports(path):
    assert unused_imports(path) == []
