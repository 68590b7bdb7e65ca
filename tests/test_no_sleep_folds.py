"""No module in ``src/repro/`` outside ``sim/`` and ``net/`` folds sleeps
of its own.

Every actor that spends CPU between real waits — a server worker, a
client's caller, its communication engine, a background miss fetch —
charges its stages to its own clock (:class:`repro.sim.BurstClock`), the
one place that decides which stages share a timer and where that timer
is posted. This scan fails on the marks of the hand-threaded folds the
clocks replaced: a ``posted`` or ``since`` keyword argument or
parameter; any name, attribute, parameter or def called ``on_cpu``,
``read_ends_on_cpu``, ``read_resident`` or ``_api_free``; and, in
``client/``, a ``caller`` parameter or keyword, the fork that ran a
background fetch on no caller's clock. It uses the standard library's
``ast`` alone, like ``tests/test_unused_imports.py``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
#: The packages that own simulated time: the engine and its clocks, and
#: the NICs' own pipe clocks.
EXEMPT = ("sim", "net")
KEYWORDS = {"posted", "since"}
NAMES = {"on_cpu", "read_ends_on_cpu", "read_resident", "_api_free"}
#: Keywords and parameters marked in ``client/`` alone.
CLIENT_KEYWORDS = {"caller"}


def _name(node):
    """The identifier a node introduces or refers to, if any."""
    for kind, attr in ((ast.Name, "id"), (ast.Attribute, "attr"),
                       (ast.arg, "arg"), (ast.keyword, "arg"),
                       (ast.FunctionDef, "name")):
        if isinstance(node, kind):
            return getattr(node, attr)
    return None


def sleep_folds(source: str, keywords=KEYWORDS):
    """``(line, mark)`` of each fold mark in ``source``; ``keywords`` are
    the keyword arguments and parameters that count as one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = _name(node)
        if name in NAMES:
            found.append((node.lineno, name))
        elif name in keywords and isinstance(node, (ast.arg, ast.keyword)):
            found.append((node.lineno, name + "="))
    return sorted(found)


def _scanned():
    """Every module under ``src/repro/`` outside the exempt packages."""
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).parts[0] not in EXEMPT:
            yield path


def test_the_scan_sees_each_mark():
    source = ("def f(t, since=None):\n"
              "    g(posted=t, at=t)\n"
              "    n, on_cpu = h()\n"
              "    return scheme.read_ends_on_cpu\n"
              "def read_resident(since_when): pass\n"
              "def issue(self, caller=True):\n"
              "    return self._api_free\n")
    assert sleep_folds(source) == [(1, "since="), (2, "posted="),
                                   (3, "on_cpu"), (4, "read_ends_on_cpu"),
                                   (5, "read_resident"), (7, "_api_free")]
    assert (6, "caller=") in sleep_folds(source,
                                         KEYWORDS | CLIENT_KEYWORDS)


def test_the_scan_covers_every_package_but_the_clocks():
    packages = {path.relative_to(SRC).parts[0] for path in _scanned()}
    assert {"client", "harness", "server", "storage"} <= packages
    assert not packages & set(EXEMPT)


def test_no_module_folds_sleeps_outside_the_clocks():
    found = []
    for path in _scanned():
        rel = path.relative_to(SRC)
        keywords = KEYWORDS | (CLIENT_KEYWORDS if rel.parts[0] == "client"
                               else set())
        found += [f"{rel}:{line}: {mark}"
                  for line, mark in sleep_folds(path.read_text(), keywords)]
    assert not found, "sleep folds outside the clock:\n" + "\n".join(found)
