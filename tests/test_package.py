"""The package's export list matches what it binds, and its imports."""

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
