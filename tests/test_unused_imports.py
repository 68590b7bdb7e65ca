"""No module in ``src/`` imports a name it never uses.

This is CI's ``ruff check`` rule F401 (unused import) for ``src/``,
written with the standard library's ``ast`` alone so that it runs
wherever tier-1 runs. A name counts as used when the module names it
anywhere: as a bare name, as the base of an attribute, inside a quoted
annotation, or in ``__all__`` (a re-export). ``from __future__``
imports are directives, not names, and are never reported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _quoted_annotations(tree):
    """The parsed bodies of string annotations (``Optional["Item"]``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for sub in ast.walk(annotation) if annotation is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    yield ast.parse(sub.value, mode="eval")
                except SyntaxError:
                    continue


def _exported(tree):
    """The strings of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            value = node.value
            if isinstance(value, (ast.List, ast.Tuple)):
                yield from (e.value for e in value.elts
                            if isinstance(e, ast.Constant))


def unused_imports(source: str):
    """``(line, name)`` of each name ``source`` imports and never uses."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.extend((node.lineno, alias.asname or alias.name)
                            for alias in node.names if alias.name != "*")
    used = set(_exported(tree))
    for root in [tree, *_quoted_annotations(tree)]:
        used.update(n.id for n in ast.walk(root) if isinstance(n, ast.Name))
    return [(line, name) for line, name in imported if name not in used]


def test_the_scan_sees_what_ruff_sees():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "from typing import List, Optional\n"
              "from a import b, c, d\n"
              "__all__ = ['c']\n"
              "x: Optional['List[int]'] = os.sep\n")
    assert unused_imports(source) == [(2, "osp"), (4, "b"), (4, "d")]


def test_src_has_no_unused_import():
    found = [f"{path.relative_to(SRC)}:{line}: {name}"
             for path in sorted(SRC.rglob("*.py"))
             for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports (ruff F401):\n" + "\n".join(found)
