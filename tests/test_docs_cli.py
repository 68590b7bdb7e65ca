"""Every CLI example in the docs names flags its subcommand accepts.

Scans ``README.md`` and ``docs/*.md`` for ``python -m repro <sub> ...``
/ ``repro <sub> ...`` command lines — in fenced blocks (backslash
continuations joined) and in inline code spans (which prose may wrap
across lines) — and checks each ``--flag`` against that subcommand's
parser. Values are not checked, only that the flag exists.
"""

import argparse
import re
from pathlib import Path

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

_COMMAND = re.compile(r"(?:python3? -m repro|(?<![\w./=-])repro) ([a-z][a-z-]*)(.*)")
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_INLINE = re.compile(r"`([^`]+)`")


def _accepted_flags():
    """``{subcommand: {option strings}}`` from the real parser."""
    (action,) = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return {name: set(sub._option_string_actions)
            for name, sub in action.choices.items()}


def _snippets(text):
    """Candidate command strings: one per code-block line, one per
    inline code span."""
    for block in _FENCE.findall(text):
        yield from re.sub(r"\\\n\s*", " ", block).splitlines()
    for span in _INLINE.findall(_FENCE.sub("", text)):
        yield " ".join(span.split())


def test_doc_examples_use_flags_the_cli_accepts():
    accepted = _accepted_flags()
    commands = []  # (file name, subcommand, [flags])
    for path in DOCS:
        for snippet in _snippets(path.read_text()):
            m = _COMMAND.search(snippet)
            if m and m.group(1) in accepted:
                args = m.group(2).split(" #")[0]
                commands.append((path.name, m.group(1), _FLAG.findall(args)))
    # The scan itself must keep working: the docs carry dozens of
    # examples, and the longest are backslash-continued over several
    # lines (where a left-over flag is easiest to miss).
    assert len(commands) >= 30
    assert any(len(flags) >= 7 for _, _, flags in commands)
    unknown = [(doc, sub, flag) for doc, sub, flags in commands
               for flag in flags if flag not in accepted[sub]]
    assert unknown == []
