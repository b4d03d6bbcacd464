import importlib

import pytest


@pytest.mark.parametrize("module", ["edgeschur", "edgeschur.lattice"])
def test_every_export_resolves(module):
    """A stale name in __all__ makes `from <module> import *` raise."""
    names = importlib.import_module(module).__all__
    assert len(set(names)) == len(names)
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    assert set(names) <= namespace.keys()
