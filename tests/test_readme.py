"""The self-contained Python examples in README.md run as written, and
the calls its text names exist.

A block is self-contained when it opens with its imports, one of them
from ``setbayes``; the other blocks continue an example in the text.
"""

import re
from pathlib import Path

import setbayes

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


def _named_calls(text):
    """The dotted name of every inline code span outside the fenced
    blocks that reads as a call, such as ``PenaltySequence.proportional``
    for `PenaltySequence.proportional(c, n)`."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    spans = re.findall(r"`([^`\n]+)`", text)
    calls = (re.match(r"([A-Za-z_]\w*(?:\.\w+)*)\(", span) for span in spans)
    return [m.group(1) for m in calls if m]


def test_named_calls_resolve():
    """Every call the text names whose head is in ``setbayes.__all__``
    resolves, so that a removed name cannot stay in the README."""
    assert _named_calls("`a.b(x)`, `c` and\n```\n`d(y)`\n```\n") == ["a.b"]
    names = [n for n in _named_calls(README.read_text(encoding="utf-8"))
             if n.split(".")[0] in setbayes.__all__]
    assert len(names) >= 10
    for name in names:
        obj = setbayes
        for part in name.split("."):
            assert hasattr(obj, part), f"README.md names {name}, which does not resolve"
            obj = getattr(obj, part)


def _private_names(text):
    """Every identifier that begins with a single underscore, bare or after
    a dot, in the fenced blocks and then the inline code spans of ``text``;
    dunders such as ``__init__`` are not private names."""
    fence = re.compile(r"^```.*?^```", re.M | re.S)
    code = fence.findall(text) + re.findall(r"`([^`\n]+)`", fence.sub("", text))
    return [name for piece in code for name in re.findall(r"(?<!\w)_(?!_)\w+", piece)]


def test_names_no_private_name():
    """The README specifies what a user can rely on, so it names no private
    name that a refactor could change without a change of behaviour."""
    assert _private_names("`a._b`, `_c`, `__d__`, `e_f`, _g and\n```\nh(_i)\n```\n") == [
        "_i", "_b", "_c"]
    assert _private_names(README.read_text(encoding="utf-8")) == []
