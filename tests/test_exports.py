"""Every ``__all__`` under ``repro`` names something that exists.

FL-API checks the top-level facade statically; this imports every
module of the package, so a deletion that leaves a stale ``__all__``
entry in any subpackage or module fails here.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if not info.name.endswith(".__main__"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ())
               if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
