"""Import hygiene of the package: numpy is its only runtime dependency, no
module keeps an import it does not use, and every name the benchmark's
tracer wraps still exists."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qtpe"
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


def test_benchmark_tracer_targets_exist(monkeypatch):
    """bench/tracer.py wraps each target by vars(owner)[attr], so a package
    name it wraps that is deleted or moved stops every benchmark worker."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclasses look their module up
    spec.loader.exec_module(tracer)
    missing = [f"{owner.__name__}.{attr}" for _, owner, attr, _ in tracer.targets() if attr not in vars(owner)]
    assert missing == []
