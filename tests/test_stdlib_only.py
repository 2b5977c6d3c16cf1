"""The runtime package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import metamine

PACKAGE = Path(metamine.__file__).parent


def absolute_imports(path):
    """(line, top-level module) of each absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_import_is_relative_or_standard_library():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "cli.py" in sources
    outside = [f"{path.name}:{line}: {module}" for path in sources for line, module in absolute_imports(path)
               if module not in sys.stdlib_module_names]
    assert outside == []
