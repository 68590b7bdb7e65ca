"""Which defs in ``src/repro`` no entry point calls: a def-level census.

    python tests/census.py [--jobs N] [--only TEXT]

Runs every command of ``COMMANDS`` in its own Python process under a
``sys.settrace`` call hook (not ``sys.setprofile``: kvbench's
``--trace 1`` runs ``cProfile``, which takes that hook), collects the
``src/repro`` code objects each one calls, and prints, module by
module, the def lines that none of them called, then the totals: defs,
and the source lines those defs span (decorators to last line, a
nested def's lines counted once). A def is counted by its code object,
so a nested def, a property and a generator each count once; lambdas
and comprehensions are not defs and are not counted.

``COMMANDS`` is the product's surface: every CLI subcommand (the
commands of ``cli.py``'s usage block and README.md, with ``reproduce``
and ``check`` at their grading scales), three short fuzz bands, each ``examples/`` script and each
kvbench workload (``--smoke``: the same code, fewer ops), and one
kvbench per-layer run, which adds its micro-drivers. A def that
only a flag outside this list reaches shows as uncalled; the fix is an
entry here, argued like the others.

Stdlib only. Not part of tier-1 or CI: the whole list takes about 5
minutes on two cores with ``--jobs 2`` (two commands at a time). A
command that exits non-zero is printed as a finding and its calls still
count.
"""

import argparse
import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"

#: ``(kind, args)``: ``repro`` runs ``repro.cli.main(args)``, ``script``
#: runs ``args[0]`` (relative to the repo root) as ``__main__`` with the
#: rest as its argv. Every command runs in a fresh temporary directory,
#: so file outputs land there.
COMMANDS = [
    ("repro", ["list-profiles"]),
    ("repro", ["run", "--profile", "h-rdma-opt-nonb-i", "--ops", "2000",
               "--value-kb", "32", "--servers", "1",
               "--read-fraction", "0.5"]),
    ("repro", ["run", "--servers", "4", "--clients", "2", "--router",
               "ketama", "--ops", "300", "--value-kb", "8", "--seed", "5",
               "--fault", "crash:server=1,at=200us",
               "--request-timeout", "2ms"]),
    ("repro", ["ycsb", "--workload", "A", "--profile", "h-rdma-def"]),
    ("repro", ["stats", "--profile", "h-rdma-def", "--ops", "1000",
               "--out", "stats"]),
    ("repro", ["trace", "--out", "run.trace.json", "--ops", "500"]),
    ("repro", ["profile", "--ycsb", "A", "--servers", "4", "--clients",
               "4", "--ops", "2000"]),
    ("repro", ["scale", "--from", "4", "--to", "8", "--at", "2ms",
               "--traffic", "diurnal"]),
    ("repro", ["topology", "--servers", "4", "--router", "ketama"]),
    ("repro", ["reproduce", "--scale", "32"]),
    ("repro", ["export", "--scale", "32", "--out", "figure_data"]),
    ("repro", ["check"]),
    ("repro", ["check", "--seed", "7", "--replication", "2",
               "--fault", "crash:server=1,at=4ms"]),
    ("repro", ["fuzz", "--seeds", "0:12", "--out", "fuzz-artifacts"]),
    ("repro", ["fuzz", "--eventual", "--seeds", "0:8", "--no-shrink"]),
    ("repro", ["fuzz", "--elastic", "--seeds", "0:12", "--no-shrink"]),
    *[("script", [f"examples/{path.name}"])
      for path in sorted((REPO / "examples").glob("*.py"))],
    *[("script", ["benchmarks/kvbench/run.py", "--workload", workload,
                  "--seed", "1", "--smoke"])
      for workload in ("ram_get_rdma", "ssd_mixed_nonb",
                       "ssd_write_ipoib", "paper_scale_32x100")],
    ("script", ["benchmarks/kvbench/run.py", "--workload", "ram_get_rdma",
                "--seed", "1", "--smoke", "--trace", "1"]),
]


def _label(command):
    kind, args = command
    return " ".join((["repro"] if kind == "repro" else []) + args)


# -- one command, in a child process --------------------------------------------


def _child(index: int, out: str) -> int:
    """Run ``COMMANDS[index]`` under the profile hook; write the
    ``[file, first line]`` of every ``src/repro`` code object it called
    to ``out``. Returns the command's exit status."""
    sys.path[:0] = [str(REPO / "src"), str(REPO)]
    seen = {}

    def hook(frame, event, arg):
        # The global trace hook sees only "call" events; returning None
        # leaves the frame's lines untraced.
        code = frame.f_code
        seen[id(code)] = code  # holding the code keeps its id unique

    kind, args = COMMANDS[index]
    status = 0
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        if kind == "repro":
            from repro.cli import main
            status = main(args) or 0
        else:
            sys.argv = [str(REPO / args[0]), *args[1:]]
            runpy.run_path(sys.argv[0], run_name="__main__")
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        status = 1
    finally:
        sys.settrace(None)
        threading.settrace(None)
    prefix = str(PACKAGE) + os.sep
    called = sorted({(code.co_filename[len(prefix):], code.co_firstlineno)
                     for code in seen.values()
                     if code.co_filename.startswith(prefix)})
    Path(out).write_text(json.dumps(called))
    return status


def _run(index: int):
    """``(label, status, stderr tail, called set)`` of one command."""
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        out = os.path.join(tmp, "called.json")
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child",
             str(index), out],
            cwd=tmp, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        called = (set(map(tuple, json.loads(Path(out).read_text())))
                  if os.path.exists(out) else set())
    return (_label(COMMANDS[index]), proc.returncode,
            proc.stderr.strip().splitlines()[-1:], called)


# -- the report -------------------------------------------------------------------


def defs():
    """``{module file: [(code first line, def line, last line,
    qualified name)]}``. A decorated def's code object starts at its
    first decorator."""
    table = {}

    def walk(node, prefix, rows):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                rows.append((first, child.lineno, child.end_lineno,
                             prefix + child.name))
                walk(child, prefix + child.name + ".", rows)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", rows)
            else:
                walk(child, prefix, rows)

    for path in sorted(PACKAGE.rglob("*.py")):
        rows = []
        walk(ast.parse(path.read_text(), filename=str(path)), "", rows)
        table[str(path.relative_to(PACKAGE))] = rows
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1,
                        help="commands run at a time (default 1)")
    parser.add_argument("--only", metavar="TEXT",
                        help="run only the commands whose line contains TEXT")
    parser.add_argument("--child", nargs=2, metavar=("INDEX", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return _child(int(args.child[0]), args.child[1])
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    picked = [i for i, command in enumerate(COMMANDS)
              if args.only is None or args.only in _label(command)]
    called = set()
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        for label, status, tail, got in pool.map(_run, picked):
            called |= got
            if status:
                print(f"# FINDING: exit {status}: {label}", *tail,
                      sep="\n#   ", flush=True)
            else:
                print(f"# ok: {label}", flush=True)
    total = uncalled = uncalled_lines = 0
    for module, rows in defs().items():
        missing = [row for row in rows if (module, row[0]) not in called]
        lines = set()
        for first, _, last, _ in missing:
            lines.update(range(first, last + 1))
        total += len(rows)
        uncalled += len(missing)
        uncalled_lines += len(lines)
        if missing:
            print(f"{module}: {len(missing)} of {len(rows)} defs uncalled,"
                  f" {len(lines)} lines")
            for _, line, _, name in missing:
                print(f"  {line:5d}  {name}")
    print(f"total: {uncalled} of {total} defs in src/repro, {uncalled_lines}"
          f" lines, uncalled by {len(picked)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
