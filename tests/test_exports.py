"""Every name a module exports in ``__all__`` exists."""

import pkgutil

import pytest

import casimir_medium

MODULES = ["casimir_medium"] + [
    f"casimir_medium.{info.name}"
    for info in pkgutil.iter_modules(casimir_medium.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    # import * raises AttributeError for an __all__ entry that is not defined
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert len(namespace) > 1  # more than __builtins__
