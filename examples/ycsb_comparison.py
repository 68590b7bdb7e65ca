#!/usr/bin/env python
"""YCSB core workloads across the paper's designs, plus live server stats.

Runs YCSB A (update-heavy), B (read-mostly), C (read-only), D
(read-latest with inserts), and F (read-modify-write) against the
existing hybrid design and the paper's non-blocking proposal, with a
dataset 1.5x the cache memory. Ends by pulling the `stats` counters off
a server, the way an operator would monitor a deployment.

Run:  python examples/ycsb_comparison.py
"""

from repro.core import metrics
from repro.core.cluster import ClusterSpec
from repro.core.profiles import H_RDMA_DEF, H_RDMA_OPT_NONB_I
from repro.harness.report import ascii_bars, ascii_table, fmt_us
from repro.harness.runner import RunConfig
from repro.storage.params import PageCacheParams
from repro.units import KB, MB
from repro.workloads.generator import WorkloadSpec
from repro.workloads.ycsb import CORE_WORKLOADS, generate_ycsb_ops

SERVER_MEM = 48 * MB
VALUE = 8 * KB
OPS = 1200


def run_ycsb(workload, profile):
    num_keys = int(1.5 * SERVER_MEM) // VALUE
    spec = WorkloadSpec(num_ops=OPS, num_keys=num_keys, value_length=VALUE,
                        seed=11)
    cfg = RunConfig(profile=profile, workload=spec, cluster=ClusterSpec(
        server_mem=SERVER_MEM, ssd_limit=4 * SERVER_MEM,
        pagecache=PageCacheParams(size_bytes=24 * MB, dirty_ratio=0.4)))
    cluster = cfg.build()
    ops = generate_ycsb_ops(workload, OPS, num_keys, VALUE, seed=11)
    result = cfg.run_streams([ops], cluster=cluster)
    return cluster, metrics.effective_latency(result.records)


def main() -> None:
    rows = []
    bars = {}
    last_cluster = None
    for name in sorted(CORE_WORKLOADS):
        workload = CORE_WORKLOADS[name]
        _, def_lat = run_ycsb(workload, H_RDMA_DEF)
        last_cluster, nonb_lat = run_ycsb(workload, H_RDMA_OPT_NONB_I)
        rows.append({
            "workload": f"YCSB-{name}",
            "H-RDMA-Def": fmt_us(def_lat),
            "H-RDMA-Opt-NonB-i": fmt_us(nonb_lat),
            "improvement": f"{100 * (1 - nonb_lat / def_lat):.0f}%",
        })
        bars[f"YCSB-{name} Def"] = def_lat
        bars[f"YCSB-{name} NonB"] = nonb_lat

    print(ascii_table(rows, title="YCSB core workloads — effective latency "
                                  "(dataset 1.5x memory, SATA)"))
    print()
    print(ascii_bars(bars, title="Latency comparison"))

    # Operator view: pull the stats counters off the server.
    client = last_cluster.clients[0]
    sim = last_cluster.sim
    out = {}

    def monitor(sim):
        out["stats"] = yield from client.stats()

    sim.run(until=sim.spawn(monitor(sim)))
    interesting = {k: int(v) for k, v in out["stats"].items()
                   if k in ("cmd_get", "cmd_set", "get_hits", "get_misses",
                            "curr_items", "items_ram", "items_ssd",
                            "slab_flushes", "ssd_reads", "promotions")}
    print()
    print(ascii_table([interesting],
                      title="`stats` snapshot of server0 after the last "
                            "YCSB-F run"))


if __name__ == "__main__":
    main()
