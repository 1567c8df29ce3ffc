"""The package's export list matches what it binds, its imports, and its
modules' boundaries."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import setbayes


def test_all_lists_exactly_the_public_bindings():
    """Every name in ``__all__`` is bound once, and every public binding
    other than a submodule is in ``__all__``."""
    listed = setbayes.__all__
    public = {
        name for name, value in vars(setbayes).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(listed) == len(set(listed))
    assert set(listed) == public


def test_import_loads_no_scipy():
    """numpy is the only runtime dependency: importing the package and its
    command line in a fresh interpreter loads no scipy module."""
    code = (
        "import sys, setbayes, setbayes.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    src = str(Path(setbayes.__file__).resolve().parent.parent)
    run = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert run.stdout == "[]\n"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_reads(path, modules):
    """Each place where the module at ``path`` reads a private name of
    another of the package's ``modules``: ``from .m import _x`` or
    ``m._x``, and the ``CategorySpace`` internals ``._block_index`` and
    ``._block_starts`` outside ``core.py``."""
    own = path.stem
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level and node.module in modules - {own}:
            found += [f"from .{node.module} import {a.name}" for a in node.names if _private(a.name)]
        elif isinstance(node, ast.Attribute) and _private(node.attr):
            if isinstance(node.value, ast.Name) and node.value.id in modules - {own}:
                found.append(f"{node.value.id}.{node.attr}")
            elif node.attr in ("_block_index", "_block_starts") and own != "core":
                found.append(ast.unparse(node))
    return [f"{path.name}: {read}" for read in found]


def test_no_module_reads_another_modules_private_names():
    """Each mechanism lives behind one module: no module of the package
    imports or reads another module's private (``_``) names."""
    package = Path(setbayes.__file__).resolve().parent
    paths = sorted(package.glob("*.py"))
    modules = {path.stem for path in paths}
    assert {"cli", "core", "dataset", "gaussian", "tuning"} <= modules
    reads = [read for path in paths for read in private_reads(path, modules)]
    assert reads == []
