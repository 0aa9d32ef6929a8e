"""Import hygiene of the package: numpy is its only runtime dependency, and no
module keeps an import it does not use."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qtpe"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imports(tree: ast.Module):
    """(top-level module, bound name) of every import; relative imports report 'qtpe'."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            top = "qtpe" if node.level else node.module.split(".")[0]
            for alias in node.names:
                yield top, alias.asname or alias.name


def test_modules_found():
    assert {"cli.py", "moments.py", "zigzag.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_imports_are_stdlib_numpy_or_qtpe(path):
    allowed = set(sys.stdlib_module_names) | {"numpy", "qtpe"}
    foreign = sorted({top for top, _ in _imports(ast.parse(path.read_text())) if top not in allowed})
    assert foreign == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted({name for _, name in _imports(tree) if name not in used})
    assert unused == []
