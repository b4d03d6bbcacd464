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


def test_no_function_calls_itself():
    """No stack depth follows the input: no function of the package, nested
    ones included, names itself in its body, as a call or as a value (a
    function handed to `map` recurses too), unless it binds that name
    locally, and no method reads its own name off self or cls."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for path in sorted(Path(edgeschur.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, functions):
                continue
            body = [n for stmt in fn.body for n in ast.walk(stmt)]
            local = {a.arg for a in ast.walk(fn.args)
                     if isinstance(a, ast.arg)}
            local |= {n.id for n in body if isinstance(n, ast.Name)
                      and not isinstance(n.ctx, ast.Load)}
            local |= {n.name for n in body
                      if isinstance(n, (*functions, ast.ClassDef))}
            local |= {(a.asname or a.name).split(".")[0] for n in body
                      if isinstance(n, (ast.Import, ast.ImportFrom))
                      for a in n.names}
            if fn.name in local:
                continue
            for n in body:
                if (isinstance(n, ast.Name) and n.id == fn.name) or (
                        isinstance(n, ast.Attribute) and n.attr == fn.name
                        and isinstance(n.ctx, ast.Load)
                        and isinstance(n.value, ast.Name)
                        and n.value.id in ("self", "cls")):
                    found.append(f"{path.name}:{n.lineno} {fn.name}")
    assert not found, f"functions that call themselves: {found}"
