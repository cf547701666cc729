"""The runtime imports numpy and the standard library only."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "livecheck").glob("*.py"))


def _absolute_imports() -> list[tuple[str, str]]:
    """(file name, top-level module) for every absolute import in the package."""
    assert SOURCES
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            found += [(path.name, root) for root in roots]
    return found


def test_only_numpy_and_standard_library():
    outside = [
        (name, root) for name, root in _absolute_imports() if root != "numpy" and root not in sys.stdlib_module_names
    ]
    assert outside == []


def test_nothing_imports_pickle():
    """Loading a pickle can run code, so the package never loads one."""
    assert [name for name, root in _absolute_imports() if root == "pickle"] == []
