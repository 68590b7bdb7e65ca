"""Diff kvbench's simulated numbers against ``kvbench_sim.json``.

    python tests/golden/kvbench_sim.py           # rerun and diff exactly
    python tests/golden/kvbench_sim.py --write   # re-pin from this tree

Runs each kvbench workload once at the pinned seed (``--seconds 15
--trace 0``, one fresh process each, one after another) and compares
every ``sim_*`` metric and ``sim_events_per_op`` with the committed
value, printing ``workload metric old -> new`` for each that moved.
Simulated numbers depend on the seed alone, so any difference is a
change in what the model does. About 90 s for all four on a 2-core box.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PIN = Path(__file__).with_suffix(".json")
RUN_PY = ROOT / "benchmarks" / "kvbench" / "run.py"
WORKLOADS = ("ram_get_rdma", "ssd_mixed_nonb", "ssd_write_ipoib",
             "paper_scale_32x100")
SEED = 1
SECONDS = 15


def measure(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload}: run not correct: {result}")
    return {name: metric["value"]
            for name, metric in sorted(result["metrics"].items())
            if name.startswith("sim_")}


def main(argv) -> int:
    new = {w: measure(w) for w in WORKLOADS}
    if "--write" in argv:
        PIN.write_text(json.dumps({
            "pins": f"kvbench sim_* metrics, seed {SEED}, --seconds "
                    f"{SECONDS} --trace 0 (tests/golden/kvbench_sim.py)",
            "workloads": new}, indent=1) + "\n")
        return 0
    old = json.loads(PIN.read_text())["workloads"]
    moved = 0
    for workload in WORKLOADS:
        for metric in sorted(set(old[workload]) | set(new[workload])):
            a = old[workload].get(metric)
            b = new[workload].get(metric)
            if a != b:
                moved += 1
                print(f"{workload} {metric} {a!r} -> {b!r}")
    print(f"{moved} simulated metric(s) moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
