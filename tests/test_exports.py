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


def test_package_reexports_the_modules_public_names():
    # one list of public names: each module's __all__, plus __version__
    from casimir_medium import errors, forces, medium, propagators, quadrature

    modules = (errors, forces, medium, propagators, quadrature)
    expected = [name for module in modules for name in module.__all__]
    assert casimir_medium.__all__ == expected + ["__version__"]
    assert len(set(casimir_medium.__all__)) == len(casimir_medium.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(casimir_medium, name) is getattr(module, name), name
