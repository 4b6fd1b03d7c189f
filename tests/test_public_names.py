"""Each module's ``__all__`` names what it defines, no more and no less."""

import importlib
import inspect

import pytest

MODULES = ["lambda3", "bloch2", "ode", "shooting", "isomorphism", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_matches_public_definitions(name):
    module = importlib.import_module(f"qsl12.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what the module lacks: {missing}"
    defined = {
        n for n, obj in vars(module).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    unlisted = sorted(defined - set(module.__all__))
    assert not unlisted, f"{name} defines public names its __all__ leaves out: {unlisted}"
