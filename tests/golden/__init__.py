"""Pinned artifacts, one JSON file per kind; each file's ``"pins"`` line
says what it pins. ``repro_check.txt`` is the default-scale ``python -m
repro check`` output, byte for byte; CI's 3.12 leg diffs against it.
``fuzz_histories.txt`` is each CI fuzz band's header and per-seed
progress lines (verdict and ``history=`` digest); CI's consistency-fuzz
job diffs the three bands' output against it. ``examples/<name>.txt``
is the stdout of ``examples/<name>.py``, byte for byte; CI's 3.12 leg
diffs each example's output against it."""

import json
from pathlib import Path


def load(kind: str) -> dict:
    return json.loads((Path(__file__).parent / f"{kind}.json").read_text())


def mismatch(case: str, got: dict, rows: dict) -> str:
    """``""`` when ``got`` (column -> value) is the row pinned for
    ``case`` in ``rows``; otherwise each moved column, old -> new, and
    the JSON entry to paste."""
    want = rows.get(case, {})
    if got == want:
        return ""
    moved = [f"{col} {want.get(col)} -> {value}"
             for col, value in got.items() if value != want.get(col)]
    return (f"{case!r} moved: {'; '.join(moved)}; new entry:\n"
            f'  "{case}": {json.dumps(got)},')
