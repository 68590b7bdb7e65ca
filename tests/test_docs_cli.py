"""Every example in the docs uses names the code accepts.

CLI: scans ``README.md`` and ``docs/*.md`` for ``python -m repro <sub>
...`` / ``repro <sub> ...`` command lines — in fenced blocks (backslash
continuations joined) and in inline code spans (which prose may wrap
across lines) — and checks each ``--flag`` against that subcommand's
parser. Values are not checked, only that the flag exists.

Library: parses every fenced ``python`` block of the same files, every
``examples/*.py`` and the package docstring's quickstart, and checks
each keyword passed to a configuration constructor against that
dataclass's fields.

Names: every backticked dotted ``repro.…`` name in those docs, in
DESIGN.md, EXPERIMENTS.md and CONTRIBUTING.md imports or resolves.
"""

import argparse
import ast
import dataclasses
import inspect
import pkgutil
import re
import textwrap
from pathlib import Path

import repro
from repro.cli import build_parser
from repro.core.cluster import ClusterSpec, ReplicationConfig, build_cluster
from repro.core.topology import TopologyConfig
from repro.harness.runner import RunConfig

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

_COMMAND = re.compile(r"(?:python3? -m repro|(?<![\w./=-])repro) ([a-z][a-z-]*)(.*)")
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
_FENCE = re.compile(r"^[ \t]*```.*?^[ \t]*```", re.M | re.S)
_INLINE = re.compile(r"`([^`]+)`")
_PYTHON_FENCE = re.compile(r"^[ \t]*```python\n(.*?)^[ \t]*```", re.M | re.S)


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


def _field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


def _accepted_keywords():
    """``{callable name: {keyword names}}`` for the configuration
    constructors; ``build_cluster`` takes its own parameters plus any
    ``ClusterSpec`` field."""
    accepted = {cls.__name__: _field_names(cls)
                for cls in (ClusterSpec, RunConfig, ReplicationConfig,
                            TopologyConfig)}
    own = {name for name, p in
           inspect.signature(build_cluster).parameters.items()
           if p.kind is not p.VAR_KEYWORD}
    accepted["build_cluster"] = own | accepted["ClusterSpec"]
    return accepted


def _python_snippets():
    """(origin, source) for every place that teaches the library API."""
    for path in DOCS:
        for i, block in enumerate(_PYTHON_FENCE.findall(path.read_text())):
            yield f"{path.name}#{i}", textwrap.dedent(block)
    for path in sorted((ROOT / "examples").glob("*.py")):
        yield f"examples/{path.name}", path.read_text()
    _, _, quickstart = repro.__doc__.partition("Quickstart::\n")
    yield "repro.__doc__", textwrap.dedent(quickstart)


def test_doc_examples_use_keywords_the_constructors_accept():
    accepted = _accepted_keywords()
    parsed, calls, unknown = 0, 0, []
    for origin, source in _python_snippets():
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue  # an elided sketch, not runnable code
        parsed += 1
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) \
                else getattr(func, "id", None)
            if name not in accepted:
                continue
            calls += 1
            unknown += [(origin, name, kw.arg) for kw in node.keywords
                        if kw.arg is not None
                        and kw.arg not in accepted[name]]
    # The scan itself must keep working: today 10 fenced blocks, 7
    # examples and the package quickstart parse, with 27 constructor
    # calls between them.
    assert parsed >= 16
    assert calls >= 20
    assert unknown == []


#: Where prose names code: the top-level docs and docs/.
PROSE = [ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                                  "CONTRIBUTING.md")]
PROSE += sorted((ROOT / "docs").glob("*.md"))
#: ``repro.a.b`` and any ``/c/d`` siblings of its last part.
_DOTTED = re.compile(r"\brepro((?:\.[A-Za-z_]\w*)+)((?:/[A-Za-z_]\w*)*)")


def _resolves(dotted):
    try:
        pkgutil.resolve_name(dotted)
    except (ImportError, AttributeError):
        return False
    return True


def test_doc_names_resolve():
    names = set()
    for path in PROSE:
        for span in _INLINE.findall(_FENCE.sub("", path.read_text())):
            for m in _DOTTED.finditer(span):
                dotted = "repro" + m.group(1)
                names.add((path.name, dotted))
                parent = dotted.rpartition(".")[0]
                names.update((path.name, f"{parent}.{alt}")
                             for alt in m.group(2).split("/")[1:])
    # The scan itself must keep working: the docs name dozens of modules.
    assert len(names) >= 50
    stale = sorted(name for name in names if not _resolves(name[1]))
    assert not stale, "\n".join(f"{doc}: {name}" for doc, name in stale)
