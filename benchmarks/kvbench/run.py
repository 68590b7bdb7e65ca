"""Entry point of the benchmark.

    python3 benchmarks/kvbench/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload and prints one JSON object as its last line;
without ``--workload`` it runs the whole set (see ``cli.py``).
``python -m benchmarks.kvbench`` is the same program.
"""

import sys
import time

T0 = time.perf_counter()  # setup_s counts from here: before the heavy imports

from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"kvbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [p for p in sys.path if p != here]
    from benchmarks.kvbench.cli import main as cli_main
    return cli_main(sys.argv[1:], T0)


if __name__ == "__main__":
    sys.exit(main())
