"""Pinned artifacts, one JSON file per kind; each file's ``"pins"`` line
says what it pins."""

import json
from pathlib import Path


def load(kind: str) -> dict:
    return json.loads((Path(__file__).parent / f"{kind}.json").read_text())
