"""Each module's ``__all__`` names what it defines, no more and no less, and
no module reaches into the private names of another."""

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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_reads_private_names_of_ode(path):
    # ode owns the integrator and the event rule, shooting the landscape's
    # lanes and the continuation; each module uses only what the others'
    # __all__ name, by attribute or by import
    def is_private(name):
        return name.startswith("_") and not name.endswith("__")

    private = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and is_private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in MODULES):
            private.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.level:
            private += [f"line {node.lineno}: from .{node.module or ''} import {alias.name}"
                        for alias in node.names if is_private(alias.name)]
    assert not private, f"{path.name} reads private names of other modules: {private}"


def _uses_outside(owner: str, name: str) -> list[str]:
    """Where a module other than ``owner`` names ``name``, by attribute, by
    name or by import."""
    uses = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == owner:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if ((isinstance(node, ast.Attribute) and node.attr == name)
                    or (isinstance(node, ast.Name) and node.id == name)
                    or (isinstance(node, ast.alias) and node.name == name)):
                uses.append(f"{path.name} line {getattr(node, 'lineno', '?')}")
    return uses


def test_only_lambda3_calls_bang_control():
    # every closed loop takes its control from the extremal flow that
    # applies it (lambda3.extremal_control); bang_control is the tests'
    # reference form, so no other module names it
    uses = _uses_outside("lambda3", "bang_control")
    assert not uses, f"modules other than lambda3 use bang_control: {uses}"


def test_only_ode_reads_max_step():
    # ode decides every step: the cap of integrate, the first trial step of
    # its adaptive runs and the fixed step of its lanes, so no other module
    # names MAX_STEP
    uses = _uses_outside("ode", "MAX_STEP")
    assert not uses, f"modules other than ode use MAX_STEP: {uses}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_names_a_least_squares_solver(path):
    # the asymptotic fit is closed-form: numpy's least-squares fit and its
    # linear-algebra module (LAPACK, about 1 MB of workspace on a first
    # call) are the tests' oracle only, so no module names them at all
    names = [word for word in ("polyfit", "linalg") if word in path.read_text()]
    assert not names, f"{path.name} names {names}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_only_the_lazy_handle_imports_numpy(path):
    # every module takes numpy from qsl12._lazy, whose module object numpy
    # executes at its first attribute read; an import of numpy anywhere
    # else would execute it with the package, and so in the set-up of every
    # command: no import statement names numpy, and a module that reads np
    # takes it from the handle
    tree = ast.parse(path.read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append((node.lineno, node.module))
    numpy = [f"line {line}: {name}" for line, name in names if name.split(".")[0] == "numpy"]
    assert not numpy, f"{path.name} imports numpy: {numpy}"
    reads_np = any(isinstance(node, ast.Name) and node.id == "np" for node in ast.walk(tree))
    from_handle = any(isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "_lazy"
                      and [alias.name for alias in node.names] == ["np"] for node in tree.body)
    assert path.stem == "_lazy" or from_handle or not reads_np, f"{path.name} reads np but not from qsl12._lazy"
