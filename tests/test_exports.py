"""Every name a thetacert module lists in ``__all__`` exists and has a caller.

``bench/tracer.py`` wraps the functions named in each module's ``__all__``
through ``getattr(module, name, None)``, so a stale entry left after a
deletion would drop out of the traced run without any error.  A listed name
must also be used by the package itself (the CLI included), outside its own
definition and the re-exports of ``__init__``, or be named in the README's
paragraph of names kept public without such a caller.
"""

import ast
import functools
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import thetacert

_MODULES = sorted(info.name for info in pkgutil.iter_modules(thetacert.__path__))
_PACKAGE = Path(thetacert.__file__).parent
_KEPT_PARAGRAPH = "Kept public without a caller in the library:"


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"thetacert.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"thetacert.{name}.__all__ lists missing names: {missing}"


def _collect(node, owner, refs):
    """Add to refs every name that node loads or reads as an attribute, except inside the
    top-level definition `owner` of that same name."""
    for child in ast.iter_child_nodes(node):
        used = (child.id if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
                else child.attr if isinstance(child, ast.Attribute) else None)
        if used is not None and used != owner:
            refs.add(used)
        defines = owner is None and isinstance(child, (ast.FunctionDef, ast.ClassDef))
        _collect(child, child.name if defines else owner, refs)


@functools.cache
def _used_names() -> frozenset:
    refs = set()
    for path in _PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            _collect(ast.parse(path.read_text(encoding="utf-8")), None, refs)
    return frozenset(refs)


@functools.cache
def _kept_public() -> frozenset:
    readme = (_PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    (paragraph,) = [p for p in readme.split("\n\n") if p.startswith(_KEPT_PARAGRAPH)]
    return frozenset(re.findall(r"`([^`]+)`", paragraph))


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_have_a_caller(name):
    module = importlib.import_module(f"thetacert.{name}")
    idle = [n for n in getattr(module, "__all__", ())
            if n not in _used_names() and n not in _kept_public()]
    assert not idle, f"thetacert.{name}.__all__ lists names nothing in the package uses: {idle}"
