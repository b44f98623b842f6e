"""The engine is standard-library-only: every module under src/symgen imports
nothing but the standard library and symgen itself."""

import ast
import sys
from pathlib import Path

import symgen

PACKAGE = Path(symgen.__file__).parent


def _imported_roots(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_engine_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    allowed = set(sys.stdlib_module_names) | {"symgen"}
    foreign = {
        (path.name, root)
        for path in modules
        for root in _imported_roots(ast.parse(path.read_text(encoding="utf-8")))
        if root not in allowed
    }
    assert foreign == set()
