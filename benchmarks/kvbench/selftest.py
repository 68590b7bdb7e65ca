"""Sensitivity self-test: proof that the benchmark measures.

(a) A 20 us busy-wait planted around ``HybridSlabManager.lookup`` must
    lower ``host_ops_per_s`` and raise ``server.host_us_per_op`` on
    ``ram_get_rdma`` while every simulated metric stays bit-identical.
(b) A device twice as slow must raise ``sim_get_p99_us`` on both
    ``ssd_*`` workloads and move nothing simulated on ``ram_get_rdma``.
(c) The next seed must change simulated metrics.

No source file is patched: (a) swaps the method on the class for the
length of one run, (b) passes ``ClusterSpec(device=...)``. Four measured
segments per run keep the whole test to about two minutes; its numbers
are not for comparison.
"""

from __future__ import annotations

import cProfile
import time
from contextlib import contextmanager
from typing import Dict

from repro.server import hybrid
from repro.storage.params import SATA_SSD

from .layers import fold_host_time, run_pass
from .measure import Spans, run_untraced
from .workloads import WORKLOADS, Workload

SEGMENTS = 4
PROFILED_SEGMENTS = 2

# Compiled under hybrid.py's file name, so the profile fold charges the
# planted loop to the ``server`` layer, where a real slowdown of
# ``lookup`` would be charged.
_PLANTED_LOOKUP = """
def planted_lookup(self, key):
    end = _clock() + _delay
    while _clock() < end:
        pass
    return _lookup(self, key)
"""


@contextmanager
def planted_lookup_delay(delay: float = 20e-6):
    original = hybrid.HybridSlabManager.lookup
    scope = {"_clock": time.perf_counter, "_delay": delay, "_lookup": original}
    exec(compile(_PLANTED_LOOKUP, hybrid.__file__, "exec"), scope)
    hybrid.HybridSlabManager.lookup = scope["planted_lookup"]
    try:
        yield
    finally:
        hybrid.HybridSlabManager.lookup = original


def _end_to_end(workload: Workload, seed: int, **cluster_overrides) -> Dict[str, float]:
    metrics, _, errors, _, _ = run_untraced(
        workload, seed, Spans(time.perf_counter()), SEGMENTS, **cluster_overrides)
    if errors:
        raise RuntimeError(f"{workload.name}: output checks failed: {errors}")
    return metrics


def _server_host_us_per_op(workload: Workload, seed: int) -> float:
    profiler = cProfile.Profile()
    _, segs = run_pass("selftest", workload, seed, Spans(time.perf_counter()),
                       segments=PROFILED_SEGMENTS, profiler=profiler)
    return fold_host_time(profiler)["server"]["seconds"] / sum(s.ops for s in segs) * 1e6


def _simulated(metrics: Dict[str, float]) -> Dict[str, float]:
    return {k: v for k, v in metrics.items() if k.startswith("sim_")}


def main(seed: int) -> int:
    passed = True

    def check(label: str, ok: bool, detail: str) -> None:
        nonlocal passed
        passed &= ok
        print(f"{'pass' if ok else 'FAIL'}  {label}: {detail}")

    ram = WORKLOADS["ram_get_rdma"]
    base = _end_to_end(ram, seed)
    base_server = _server_host_us_per_op(ram, seed)
    with planted_lookup_delay():
        slow = _end_to_end(ram, seed)
        slow_server = _server_host_us_per_op(ram, seed)
    check("(a) planted host delay lowers host_ops_per_s on ram_get_rdma",
          slow["host_ops_per_s"] < 0.95 * base["host_ops_per_s"],
          f"{base['host_ops_per_s']:.0f} -> {slow['host_ops_per_s']:.0f} 1/s")
    # Under cProfile the clock calls of the planted loop are built-ins,
    # charged to ``other``: about half of the 19 us per op stays on server.
    check("(a) and raises server.host_us_per_op", slow_server > base_server + 5,
          f"{base_server:.1f} -> {slow_server:.1f} us")
    check("(a) and leaves every simulated metric bit-identical",
          _simulated(slow) == _simulated(base), str(_simulated(slow)))

    slow_device = SATA_SSD.degraded(2.0)
    for name in ("ssd_mixed_nonb", "ssd_write_ipoib"):
        before = _end_to_end(WORKLOADS[name], seed)["sim_get_p99_us"]
        after = _end_to_end(WORKLOADS[name], seed, device=slow_device)["sim_get_p99_us"]
        check(f"(b) device 2x slower raises sim_get_p99_us on {name}", after > before,
              f"{before:.1f} -> {after:.1f} us")
    check("(b) and moves nothing simulated on ram_get_rdma",
          _simulated(_end_to_end(ram, seed, device=slow_device)) == _simulated(base),
          "simulated metrics equal the baseline's")

    other = _simulated(_end_to_end(ram, seed + 1))
    moved = [k for k, v in other.items() if v != _simulated(base)[k]]
    check(f"(c) seed {seed + 1} changes simulated metrics", bool(moved), ", ".join(moved))

    print("kvbench selftest:", "passed" if passed else "FAILED")
    return 0 if passed else 1
