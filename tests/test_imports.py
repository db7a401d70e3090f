"""Every module imports only what the package declares, read with :mod:`ast` (nothing is
imported and no process is started): ``src/twomode`` the standard library, ``twomode`` and
``numpy``; ``tests/`` also ``pytest``, ``hypothesis``, ``scipy`` and its own modules."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC_ALLOWED = {"numpy", "twomode"}
TEST_ALLOWED = SRC_ALLOWED | {"pytest", "hypothesis", "scipy"} | {path.stem for path in (ROOT / "tests").glob("*.py")}


def imported_roots(path: Path):
    """Top-level names of the modules ``path`` imports; a relative import is its own package."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "twomode" if node.level else node.module.partition(".")[0]


@pytest.mark.parametrize("folder, allowed", [("src/twomode", SRC_ALLOWED), ("tests", TEST_ALLOWED)])
def test_imports_are_declared(folder, allowed):
    paths = sorted((ROOT / folder).glob("*.py"))
    assert paths
    undeclared = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in paths
        for name in imported_roots(path)
        if name not in allowed and name not in sys.stdlib_module_names
    ]
    assert undeclared == []
