"""Every name a thetacert module lists in ``__all__`` exists.

``bench/tracer.py`` wraps the functions named in each module's ``__all__``
through ``getattr(module, name, None)``, so a stale entry left after a
deletion would drop out of the traced run without any error.
"""

import importlib
import pkgutil

import pytest

import thetacert

_MODULES = sorted(info.name for info in pkgutil.iter_modules(thetacert.__path__))


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"thetacert.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"thetacert.{name}.__all__ lists missing names: {missing}"
