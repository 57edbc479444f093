import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "apseq"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "apseq"}


def imported_roots(path: Path) -> set[str]:
    """Top-level names of the modules ``path`` imports; a relative import
    is apseq's own."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            roots.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add("apseq" if node.level else
                      node.module.partition(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_modules_import_only_the_standard_library_and_numpy(path):
    # numpy is the one declared runtime dependency
    assert imported_roots(path) <= ALLOWED, imported_roots(path) - ALLOWED
