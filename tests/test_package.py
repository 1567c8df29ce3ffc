"""The package's export list matches what it binds."""

import types

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
