"""Import discipline of the package, read from its source with ``ast``.

A module uses other modules only through their public names, and imports
them at module level, where the dependency is visible at a glance.
"""
import ast
from pathlib import Path

import pytest

import singulant

PACKAGE_DIR = Path(singulant.__file__).parent


def _is_package_import(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "singulant"
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "singulant" for a in node.names)
    return False


def import_violations(source: str):
    """(line, reason) for each private or function-level package import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if _is_package_import(inner):
                    found.append((inner.lineno, f"import inside {node.name}()"))
        if isinstance(node, ast.ImportFrom) and _is_package_import(node):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append((node.lineno, f"private name {alias.name}"))
    return sorted(set(found))


def test_checker_flags_both_kinds_of_import():
    source = (
        "from .poly import Polynomial\n"
        "from .resolve import _column_degree\n"
        "from singulant.groebner import _reduce\n"
        "def f():\n"
        "    from .poly import Monomial\n"
        "    import singulant.poly\n"
        "    from fractions import Fraction\n"
    )
    assert import_violations(source) == [
        (2, "private name _column_degree"),
        (3, "private name _reduce"),
        (5, "import inside f()"),
        (6, "import inside f()"),
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_imports_are_public_and_module_level(path):
    assert import_violations(path.read_text(encoding="utf-8")) == []
