"""Every pin file under ``tests/golden/`` parses and says, in its
``"pins"`` line, what it pins."""

import json
from pathlib import Path

import pytest

FILES = sorted((Path(__file__).parent / "golden").glob("*.json"))


def test_the_pin_files_are_found():
    assert {p.stem for p in FILES} >= {"request_path", "event_budget",
                                       "op_streams", "fuzz_ledger"}


@pytest.mark.parametrize("path", FILES, ids=[p.stem for p in FILES])
def test_pin_file_parses_and_says_what_it_pins(path):
    pins = json.loads(path.read_text()).get("pins")
    assert isinstance(pins, str) and pins.strip(), path.name
