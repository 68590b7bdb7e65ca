"""Per-operation trace export/import (CSV and JSON-lines).

Experiments produce lists of :class:`~repro.client.request.OpRecord`;
these helpers persist them for offline analysis/plotting and load them
back. ``miss_penalty`` is empty (CSV) or null (JSON) when nothing was
fetched from the backend.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, List, Sequence, Union

from repro.client.request import OpRecord

#: Every stored OpRecord field (audited against the dataclass: the
#: constructor takes exactly these plus the run-local ``trace_id``).
_BASE_FIELDS = ("op", "api", "key_length", "value_length", "status",
                "t_issue", "t_complete", "blocked_time", "server_index",
                "miss_penalty")

#: Computed properties written for offline analysis; ``_from_dict``
#: ignores them (they reconstruct exactly from the base fields).
_DERIVED_FIELDS = ("latency", "overlap_fraction")


def to_dicts(records: Iterable[OpRecord]) -> List[dict]:
    """Flatten records into one dict each."""
    return [{f: getattr(r, f) for f in _BASE_FIELDS + _DERIVED_FIELDS}
            for r in records]


def _from_dict(d: dict) -> OpRecord:
    penalty = d.get("miss_penalty")
    return OpRecord(
        op=d["op"], api=d["api"], key_length=int(d["key_length"]),
        value_length=int(d["value_length"]), status=d["status"],
        t_issue=float(d["t_issue"]), t_complete=float(d["t_complete"]),
        blocked_time=float(d["blocked_time"]),
        miss_penalty=None if penalty in (None, "") else float(penalty),
        server_index=int(d["server_index"]))


def write_csv(records: Sequence[OpRecord],
              path: Union[str, Path]) -> Path:
    """Dump records as CSV; returns the path written."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_BASE_FIELDS + _DERIVED_FIELDS)
        writer.writeheader()
        writer.writerows(to_dicts(records))
    return path


def read_csv(path: Union[str, Path]) -> List[OpRecord]:
    with Path(path).open() as fh:
        return [_from_dict(row) for row in csv.DictReader(fh)]


def write_jsonl(records: Sequence[OpRecord],
                path: Union[str, Path]) -> Path:
    """Dump records as JSON-lines; returns the path written."""
    path = Path(path)
    with path.open("w") as fh:
        for d in to_dicts(records):
            fh.write(json.dumps(d) + "\n")
    return path


def read_jsonl(path: Union[str, Path]) -> List[OpRecord]:
    out = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(_from_dict(json.loads(line)))
    return out
