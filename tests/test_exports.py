import ast
import importlib
import sys
from pathlib import Path

import pytest

import edgeschur


@pytest.mark.parametrize("module", ["edgeschur", "edgeschur.lattice"])
def test_every_export_resolves(module):
    """A stale name in __all__ makes `from <module> import *` raise."""
    names = importlib.import_module(module).__all__
    assert len(set(names)) == len(names)
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    assert set(names) <= namespace.keys()


def test_imports_only_the_standard_library():
    """The package declares `dependencies = []`: every absolute import of
    its modules names a standard-library module."""
    sources = sorted(Path(edgeschur.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name}: {name}"
