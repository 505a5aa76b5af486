"""The package's public name lists."""

import importlib
import pkgutil

import pytest

import xfem2d

# xfem2d.__main__ runs the command line when imported.
MODULES = sorted(m.name for m in pkgutil.iter_modules(xfem2d.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_star_import_finds_every_listed_name(name):
    # `import *` raises for a name left in __all__ after its definition went
    namespace = {}
    exec(f"from xfem2d.{name} import *", namespace)
    listed = importlib.import_module(f"xfem2d.{name}").__all__
    assert listed and set(listed) <= namespace.keys()
