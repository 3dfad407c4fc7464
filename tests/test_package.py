import importlib

import pytest

import gravqm

MODULES = ["airy", "bouncer", "core", "dynamics", "errors", "frames"]


def test_all_names_resolve_once():
    assert len(gravqm.__all__) == len(set(gravqm.__all__))
    for name in gravqm.__all__:
        assert hasattr(gravqm, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from gravqm import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(gravqm.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_module_star_import_binds_exactly_its_all(module):
    # each module states its own public surface, and the package's is their union
    namespace = {}
    exec(f"from gravqm.{module} import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(importlib.import_module(f"gravqm.{module}").__all__)
    assert set(namespace) <= set(gravqm.__all__)
