"""The benchmark's tracer finds what it wraps by the names callers use.

``bench/tracing.py`` replaces each (owner, attribute) pair in its
``_TARGETS`` with a timing wrapper; a refactor that renames or drops one
of those names passes every other test and then breaks
``bench/run.py --trace 1``.  This reads the list and changes nothing.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_is_bound():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing._TARGETS
    missing = [
        f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}"
        for owner, attr, _, _ in tracing._TARGETS
        if attr not in owner.__dict__
    ]
    assert missing == []
