"""The self-contained Python examples in README.md run as written, and
the calls its text names exist.

A block is self-contained when it opens with its imports, one of them
from ``setbayes``; the other blocks continue an example in the text.
"""

import argparse
import re
from pathlib import Path

import setbayes
from setbayes.cli import build_parser

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


def _spans(text):
    """The inline code spans of ``text``, a span wrapped across one line
    end read with a space there."""
    return [span.replace("\n", " ") for span in re.findall(r"`([^`\n]+(?:\n[^`\n]+)?)`", text)]


def _named_calls(text):
    """The dotted name of every inline code span outside the fenced
    blocks that reads as a call, such as ``PenaltySequence.proportional``
    for `PenaltySequence.proportional(c, n)`."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    calls = (re.match(r"([A-Za-z_]\w*(?:\.\w+)*)\(", span) for span in _spans(text))
    return [m.group(1) for m in calls if m]


def test_named_calls_resolve():
    """Every call the text names whose head is in ``setbayes.__all__``
    resolves, so that a removed name cannot stay in the README."""
    assert _named_calls("`a.b(x)`, `c`, `e.f(x,\ny)` and\n```\n`d(y)`\n```\n") == ["a.b", "e.f"]
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
    code = fence.findall(text) + _spans(fence.sub("", text))
    return [name for piece in code for name in re.findall(r"(?<!\w)_(?!_)\w+", piece)]


def test_names_no_private_name():
    """The README specifies what a user can rely on, so it names no private
    name that a refactor could change without a change of behaviour."""
    assert _private_names("`a._b`, `_c`, `__d__`, `e_f`, _g and\n```\nh(_i)\n```\n") == [
        "_i", "_b", "_c"]
    assert _private_names(README.read_text(encoding="utf-8")) == []


def _readme_defaults(text):
    """{(command, option): value} of the README's ``Defaults:`` paragraph:
    its first clause's options hold on every command that takes them, and
    each later clause, after a ``;``, opens with the command it is about."""
    paragraph = re.search(r"^Defaults: (.*?)\n\n", text, re.M | re.S).group(1)
    every, *clauses = paragraph.split(";")
    taken = _parser_defaults().keys()
    out = {}
    for span in _spans(every):
        option, value = span.split()
        out.update({(command, option): value for command, name in taken if name == option})
    for clause in clauses:
        command = None
        for span in _spans(clause):
            words = span.split()
            if not words[0].startswith("--"):
                command = words.pop(0)
            out.update({(command, option): value
                        for option, value in zip(words[::2], words[1::2], strict=True)})
    return out


def _parser_defaults():
    """{(command, option): default} of every option with a value and a
    default other than None, in the command line's parser."""
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {(command, action.option_strings[-1]): str(action.default)
            for command, parser in subparsers.choices.items()
            for action in parser._actions
            if action.option_strings and action.nargs != 0 and action.default is not None}


def test_defaults_line_matches_the_parser():
    """The README's ``Defaults:`` line states every default of the command
    line, and only those."""
    assert _readme_defaults(README.read_text(encoding="utf-8")) == _parser_defaults()
