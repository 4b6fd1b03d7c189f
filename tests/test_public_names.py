"""Each module's ``__all__`` names what it defines, no more and no less, no
module reaches into the private names of another, and the package holds
only what its commands run: every function in it is called by one of them,
and none imports the tests' reference forms."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
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


# Runs every command family once through cli.main in a fresh interpreter,
# with sys.setprofile installed before qsl12 is imported, so that the module
# bodies and the caches (ode._dp5, ode._rate, lambda3.extremal_lanes) run
# cold; the failing runs exit 2 to 7, so the error helpers run too. Prints
# the file, first line and name of every code object called.
COMMANDS_RUN_SCRIPT = """
import contextlib, io, json, os, sys
called = {}

def profile(frame, event, arg):
    if event == "call":
        called[id(frame.f_code)] = frame.f_code

sys.setprofile(profile)
from qsl12 import cli, shooting

def run(code, *argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        exit_code = cli.main(["--out", sys.argv[1], *argv])
    assert exit_code == code, (argv, exit_code)

for code, *argv in json.loads(sys.argv[2]):
    run(code, *argv)
# the landscape split over two workers, whatever the CPUs: its job list is
# built only there
cpu_count, os.cpu_count = os.cpu_count, lambda: 2
run(0, "three-level", "landscape", "--eps", "0.002", "--res", "12", "--workers", "2")
os.cpu_count = cpu_count
# a residual > 0 at every probe leaves no bracket: exit 4, no convergence
shoot_info, shooting.shoot_info = shooting.shoot_info, lambda *args: (7.0, "hit", 0.5)
run(4, "three-level", "optimize", "--eps", "0.005")
shooting.shoot_info = shoot_info
sys.setprofile(None)
print(json.dumps([[c.co_filename, c.co_firstlineno, c.co_name] for c in called.values()]))
"""

# (exit code, argv) of the commands the script runs first: each family once,
# as the CLI tests run it, the JSON export, and the failures that exit 2, 3,
# 5, 6 and 7.
COMMANDS = [
    (0, "two-level", "tmin", "--eps", "0.002"),
    (0, "--format", "json", "two-level", "curve", "--amax", "1"),
    (0, "two-level", "simulate", "--eps", "0.002", "--kerr", "0.3,-0.2,0.4"),
    (0, "two-level", "energy", "--T", "10", "--eps", "0.002"),
    (0, "three-level", "landscape", "--eps", "0.002", "--res", "20", "--workers", "1"),
    (0, "three-level", "optimize", "--eps", "0.005", "--guess", "0.7"),
    (0, "three-level", "areacurve", "--eps-max", "0.1", "--eps-min", "0.03", "--n", "5"),
    (0, "three-level", "energy", "--T", "10", "--eps", "0.005"),
    (0, "iso", "check", "--eps", "0.002", "--costates", "1.85,0.45266"),
    (0, "iso", "areadiv", "--eps-list", "0.1,0.05,0.03"),
    (2, "three-level", "landscape", "--eps", "0.1", "--res", "0"),
    (3, "two-level", "tmin", "--eps", "0"),
    (5, "--horizon", "2", "three-level", "optimize", "--eps", "0.005", "--guess", "0.7"),
    (6, "iso", "check", "--eps", "0.002", "--costates", "1.85,0.45266", "--corrupt-mapping"),
    (7, "--tol", "1e-300", "two-level", "simulate", "--eps", "0.002"),
]

# Functions no command calls, each with the reason it stays in the package.
NOT_RUN_BY_COMMANDS = {
    "ode.EventHit.trajectory": "bench/tracer.py's _steps_of_hit reads it to count a hit's steps,"
                               " in the traced benchmark harness that CI runs",
}


def _code_objects(code, prefix: str):
    """(dotted name, code) of ``code`` and of every code object compiled
    into it, nested or not; a name is the module's, then the enclosing
    classes' and functions'."""
    for const in code.co_consts:
        if inspect.iscode(const):
            name = f"{prefix}.{const.co_name}"
            yield name, const
            yield from _code_objects(const, name)


def test_the_commands_run_every_function(tmp_path):
    # "the least code" as a check: src/ holds what the commands run, and a
    # form the package only keeps for the tests lives beside them
    # (tests/reference.py); every function, method, lambda and comprehension
    # of the package's source is called by the commands, allow-list aside.
    # A code object is known by its file, first line and name, so two
    # comprehensions on one line count as one
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", COMMANDS_RUN_SCRIPT, str(tmp_path), json.dumps(COMMANDS)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    called = {(os.path.realpath(path), line, name) for path, line, name in json.loads(done.stdout)}
    never = set()
    for path in sorted(SRC.glob("*.py")):
        module = compile(path.read_text(), str(path), "exec", dont_inherit=True)
        for name, code in _code_objects(module, path.stem):
            if (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name) not in called:
                never.add(name)
    allowed = set(NOT_RUN_BY_COMMANDS)
    assert never <= allowed, f"no command calls {sorted(never - allowed)}"
    assert allowed <= never, f"the commands call {sorted(allowed - never)}: drop them from NOT_RUN_BY_COMMANDS"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_imports_the_tests(path):
    # the split holds both ways: the reference forms live beside the tests,
    # and no module of the package imports them, or anything under tests/
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [(node.lineno, node.module or alias.name) for alias in node.names]
    imported = [f"line {line}: {name}" for line, name in names if name.split(".")[0] in ("reference", "tests")]
    assert not imported, f"{path.name} imports the tests: {imported}"


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
