"""Import rules of the engine, read off its source with ast: every module
under src/symgen imports nothing but the standard library and symgen
itself, and none reaches into ``deformed``'s private names."""

import ast
import sys
from pathlib import Path

import symgen

PACKAGE = Path(symgen.__file__).parent


def _trees():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in modules]


def _imported_roots(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_engine_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"symgen"}
    foreign = {
        (name, root)
        for name, tree in _trees()
        for root in _imported_roots(tree)
        if root not in allowed
    }
    assert foreign == set()


def test_no_module_imports_private_names_from_deformed():
    # the closed-form format (binomials, key counts) stays behind deformed
    private = {
        (name, alias.name)
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level, node.module) in ((1, "deformed"), (0, "symgen.deformed"))
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert private == set()
