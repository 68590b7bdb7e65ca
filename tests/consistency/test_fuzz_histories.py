"""The first seeds of each CI fuzz band replay the committed histories.

Every ``repro fuzz`` progress line ends in the sha256 of that seed's
recorded history, and ``tests/golden/fuzz_histories.txt`` holds the
CI bands' lines. CI's consistency-fuzz job diffs all of them; here
seeds 0-7 of each band run in process, so a change that moves when a
crash, partition or migration path acts shows up in tier-1 as the seed
line that moved.
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "fuzz_histories.txt"
#: ``repro fuzz`` flags of each band, by the name its header line prints.
BANDS = {"linearizability": [],
         "eventual-convergence": ["--eventual"],
         "elasticity": ["--elastic"]}
SEEDS = 8


def pinned_lines(band: str) -> list:
    """The band's seed lines in the golden file, in seed order."""
    lines, inside = [], False
    for line in GOLDEN.read_text().splitlines():
        if line.startswith("fuzzing"):
            inside = line.endswith(f"[{band} band]...")
        elif inside:
            lines.append(line)
    return lines


@pytest.mark.parametrize("band", sorted(BANDS))
def test_first_seeds_replay_the_pinned_histories(capsys, band):
    assert main(["fuzz", *BANDS[band], "--seeds", f"0:{SEEDS}",
                 "--no-shrink"]) == 0
    got = [line for line in capsys.readouterr().out.splitlines()
           if line.startswith("  seed")]
    assert got == pinned_lines(band)[:SEEDS]
