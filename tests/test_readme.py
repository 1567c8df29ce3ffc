"""The self-contained Python examples in README.md run as written.

A block is self-contained when it opens with its imports, one of them
from ``setbayes``; the other blocks continue an example in the text.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _snippets():
    """{first line in README.md: source} of every self-contained block."""
    text = README.read_text(encoding="utf-8")
    out = {}
    for match in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S):
        source = match.group(1)
        if source.startswith(("import ", "from ")) and "from setbayes import" in source:
            out[text.count("\n", 0, match.start()) + 2] = source
    return out


SNIPPETS = _snippets()


def _run(line):
    exec(compile(SNIPPETS[line], f"{README}:{line}", "exec"), {"__name__": "readme"})


def test_self_contained_snippets_run():
    assert len(SNIPPETS) >= 2
    for line in SNIPPETS:
        _run(line)  # a failure's traceback names the README line


def test_quick_start_prints_its_set(capsys):
    _run(min(SNIPPETS))
    assert capsys.readouterr().out == "(1, 2, 3) 0.5499999999999999\n"
