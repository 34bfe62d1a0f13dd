"""The public surface of every package root, eager or lazy (PEP 562)."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

ROOTS = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


@pytest.fixture(params=ROOTS)
def root(request):
    return importlib.import_module(request.param)


def test_every_root_is_covered():
    assert {"repro.runtime", "repro.runner", "repro.experiments", "repro.pacemakers"} <= set(ROOTS)


def test_every_exported_name_resolves_once(root):
    for name in root.__all__:
        value = getattr(root, name)
        # Cached in the root's globals: a lazy root's __getattr__ runs once.
        assert vars(root)[name] is value
        assert getattr(root, name) is value


def test_star_import_binds_every_exported_name(root):
    namespace: dict = {}
    exec(f"from {root.__name__} import *", namespace)
    assert set(root.__all__) <= set(namespace)
    for name in root.__all__:
        assert namespace[name] is getattr(root, name)


def test_dir_lists_every_exported_name(root):
    assert set(root.__all__) <= set(dir(root))


def test_an_unknown_name_is_an_attribute_error(root):
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(root, "no_such_name")
    assert not hasattr(root, "no_such_name")
