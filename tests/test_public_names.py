"""Each module's ``__all__`` names what it defines, no more and no less, and
no module reaches into the private names of ``ode``."""

import ast
import importlib
import inspect
from pathlib import Path

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


SRC = Path(__file__).resolve().parent.parent / "src" / "qsl12"


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.stem != "ode"), ids=lambda p: p.stem)
def test_no_module_reads_private_names_of_ode(path):
    # ode owns the integrator and the event rule; the other modules use
    # only what its __all__ names
    private = [
        f"line {node.lineno}: ode.{node.attr}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and isinstance(node.value, ast.Name) and node.value.id == "ode"
    ]
    assert not private, f"{path.name} reads private names of ode: {private}"
