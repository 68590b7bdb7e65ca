"""Export reproduced figure/table data for external tooling.

``export_figure`` runs one figure of :data:`figures.FIGURES` and writes
its rows as JSON (with the run configuration alongside), so plots can be
made outside this repository without re-running simulations.
``export_all`` sweeps every figure.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Union

from repro._version import __version__
from repro.harness.figures import FIGURES


def export_figure(name: str, path: Union[str, Path], scale: int = 16,
                  ops: int = 1200) -> Path:
    """Run one figure and write its data as JSON; returns the path."""
    if name not in FIGURES:
        raise ValueError(f"unknown figure {name!r}; "
                         f"choose from {sorted(FIGURES)}")
    _title, run = FIGURES[name]
    data = run(scale, ops)
    payload = {
        "figure": name,
        "repro_version": __version__,
        "scale": scale,
        "ops": ops,
        "data": data,
    }
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    return path


def export_all(directory: Union[str, Path], scale: int = 16,
               ops: int = 1200) -> List[Path]:
    """Export every figure into ``directory`` as ``<name>.json``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return [export_figure(name, directory / f"{name}.json",
                          scale=scale, ops=ops)
            for name in FIGURES]
