"""The package surface: its public names and the README's library example."""

import ast
import contextlib
import inspect
import io
import os
import re
import subprocess
import sys
import types
from pathlib import Path

from extcalc import algebra, energy, fields, integrate, maxwell, serialize

ROOT = Path(__file__).resolve().parent.parent
MODULES = (algebra, energy, fields, integrate, maxwell, serialize)


def test_public_names_are_the_module_all_lists():
    # a fresh interpreter, so that no submodule imported by another test
    # (such as extcalc.cli) counts as a package name
    code = ("import extcalc; print(*sorted(n for n in dir(extcalc) "
            "if not n.startswith('__') or n == '__version__'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    names = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                           check=True).stdout.split()
    declared = [name for module in MODULES for name in module.__all__]
    # each name is declared once, in the module that defines it
    assert len(declared) == len(set(declared))
    submodules = [module.__name__.rsplit(".", 1)[1] for module in MODULES]
    assert sorted(names) == sorted(declared + submodules + ["__version__"])


def _references(path: Path, strings: bool = False) -> set:
    """The names a module's code reads: each ``Name``, ``Attribute`` and import alias, and with
    ``strings`` the words of its string constants other than docstrings."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.rsplit(".", 1)[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings:
            names.update(re.findall(r"\w+", node.value))
    return names


def test_each_public_name_has_a_caller_or_is_a_library_entry_point():
    # a name in a module's __all__, and each public method or property of a class there, is read
    # by the code of another module of the package or named by the benchmark (whose tracer binds
    # methods by their string names), or the README lists it under "Library entry points":
    # none is public for tests alone
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = set(re.findall(r"`(\w+)`", readme.split("## Library entry points\n", 1)[1].split("\n## ", 1)[0]))
    sources = {path.stem: _references(path) for path in (ROOT / "src" / "extcalc").glob("*.py")}
    benchmark = set().union(*(_references(path, strings=True) for path in (ROOT / "benchmarks").glob("*.py")))
    uncalled = []
    for module in MODULES:
        own = module.__name__.rsplit(".", 1)[1]
        callers = listed | benchmark | set().union(*(names for stem, names in sources.items() if stem != own))
        uncalled += [name for name in module.__all__ if name not in callers]
        classes = {value for value in map(vars(module).get, module.__all__) if inspect.isclass(value)}
        uncalled += [name for cls in classes for name, value in vars(cls).items()
                     if not name.startswith("_") and name not in callers
                     and isinstance(value, (types.FunctionType, property, classmethod, staticmethod))]
    assert sorted(uncalled) == []


def test_readme_library_example_runs_verbatim():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    assert text.count("```python\n") == 1
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    # 2 pi^2 twice: the energy density of a null wave equals its flux
    assert out.getvalue() == "19.739208802178716 19.739208802178716\n"
