"""No module in ``src/repro/server/`` or ``src/repro/storage/`` folds
sleeps of its own.

A server worker charges its CPU stages to its clock
(:class:`repro.sim.BurstClock`), the one place that decides which
stages share a timer and where that timer is posted. This scan fails on
the marks of the hand-threaded folds the clock replaced: a ``posted``
or ``since`` keyword argument or parameter, and any name, attribute,
parameter or def called ``on_cpu``, ``read_ends_on_cpu`` or
``read_resident``. It uses the standard library's ``ast`` alone, like
``tests/test_unused_imports.py``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
PACKAGES = ("server", "storage")
KEYWORDS = {"posted", "since"}
NAMES = {"on_cpu", "read_ends_on_cpu", "read_resident"}


def _name(node):
    """The identifier a node introduces or refers to, if any."""
    for kind, attr in ((ast.Name, "id"), (ast.Attribute, "attr"),
                       (ast.arg, "arg"), (ast.keyword, "arg"),
                       (ast.FunctionDef, "name")):
        if isinstance(node, kind):
            return getattr(node, attr)
    return None


def sleep_folds(source: str):
    """``(line, mark)`` of each fold mark in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = _name(node)
        if name in NAMES:
            found.append((node.lineno, name))
        elif name in KEYWORDS and isinstance(node, (ast.arg, ast.keyword)):
            found.append((node.lineno, name + "="))
    return sorted(found)


def test_the_scan_sees_each_mark():
    source = ("def f(t, since=None):\n"
              "    g(posted=t, at=t)\n"
              "    n, on_cpu = h()\n"
              "    return scheme.read_ends_on_cpu\n"
              "def read_resident(since_when): pass\n")
    assert sleep_folds(source) == [(1, "since="), (2, "posted="),
                                   (3, "on_cpu"), (4, "read_ends_on_cpu"),
                                   (5, "read_resident")]


def test_server_and_storage_fold_no_sleeps():
    found = [f"{path.relative_to(SRC)}:{line}: {mark}"
             for package in PACKAGES
             for path in sorted((SRC / package).rglob("*.py"))
             for line, mark in sleep_folds(path.read_text())]
    assert not found, "sleep folds outside the clock:\n" + "\n".join(found)
