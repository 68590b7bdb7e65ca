"""The four kvbench workloads. Their names are permanent: every later
performance or simplicity change is compared row by row against them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.cluster import ClusterSpec
from repro.core.profiles import (BLOCKING, FATCACHE, H_RDMA_OPT_NONB_I, RDMA_MEM,
                                 DesignProfile)
from repro.core.topology import TopologyConfig
from repro.harness.runner import RunConfig
from repro.storage.params import PageCacheParams
from repro.units import KB, MB
from repro.workloads.generator import WorkloadSpec

#: Default value mixture: three slab-class families and the 32 KiB
#: adaptive-I/O cutoff are exercised, so latency is a distribution and
#: never one constant (16 384 keys of it are about 85 MB).
MIXED_VALUES = ((512, 0.5), (4 * KB, 0.4), (32 * KB, 0.1))

#: The dataset is fixed: which keys are hot, each key's value size and
#: so which server holds what do not change with ``--seed``, which draws
#: the request streams only. With the dataset drawn from the seed too,
#: hot-key placement spread ``ram_get_rdma``'s simulated GET p99 by 9 %
#: and its throughput by 2 % between ten seeds, against 1.2 % and 0.2 %
#: with it fixed: a real change would hide behind that.
DATASET_SEED = 42


@dataclass(frozen=True)
class Workload:
    """One closed-loop traffic mix on one cluster shape."""

    name: str
    why: str
    profile: DesignProfile
    servers: int
    clients: int
    server_mem: int
    ssd_limit: int
    read_fraction: float
    distribution: str
    #: Operations each client issues in one segment (fixed: simulated
    #: numbers must not depend on how fast the host is).
    ops_per_client: int
    num_keys: int = 16384
    value_length: int = 4 * KB
    value_sizes: Optional[Tuple[Tuple[int, float], ...]] = MIXED_VALUES
    window: int = 64
    #: Page cache per server; None keeps the model's 256 MiB default.
    pagecache: Optional[int] = None

    @property
    def concurrency(self) -> int:
        """Requests the closed loop can have in flight at once."""
        per_client = 1 if self.profile.api == BLOCKING else self.window
        return self.clients * per_client

    def spec(self, ops_scale: float = 1.0) -> WorkloadSpec:
        return WorkloadSpec(
            num_ops=max(1, round(self.ops_per_client * ops_scale)),
            num_keys=self.num_keys, value_length=self.value_length,
            read_fraction=self.read_fraction, distribution=self.distribution,
            seed=DATASET_SEED, value_sizes=self.value_sizes)

    def run_config(self, ops_scale: float = 1.0, **cluster_overrides) -> RunConfig:
        """Preload is left to the caller so build and preload are timed
        apart."""
        if self.pagecache is not None:
            cluster_overrides.setdefault(
                "pagecache", PageCacheParams(size_bytes=self.pagecache))
        cluster = ClusterSpec(
            topology=TopologyConfig(initial_servers=self.servers),
            num_clients=self.clients, server_mem=self.server_mem,
            ssd_limit=self.ssd_limit, **cluster_overrides)
        return RunConfig(profile=self.profile, workload=self.spec(ops_scale),
                         cluster=cluster, window=self.window, preload=False)


def stream_offset(seed: int, segment: int) -> int:
    """``generate_ops`` offset of one segment's streams. The multiplier
    keeps every (seed, client, segment) stream distinct: generate_ops
    seeds a stream with spec.seed + 7919 * client + offset, and no
    cluster here has 126 clients."""
    return seed * 1_000_003 + segment


#: Sizing rule for the two SSD workloads on the non-blocking window
#: engine: the run must stay in *one* regime of the storage model, the
#: write-absorbing one (flushed slabs land in the page cache and are
#: written back behind the traffic). Two slower regimes lie behind
#: limits a longer run would cross: the SSD log filling up (slab drops,
#: then GET misses at 2 ms each) and the page cache's dirty limit
#: (writers throttled for tens of ms). A few dozen such events a segment
#: then set the simulated throughput, and their count alone moved it
#: by 3-13 % and the p99 by 7-29 % from one seed to the next, against
#: 2 % and 8-11 % in the absorbing regime (README, "Regimes"). So ``ssd_mixed_nonb`` gets
#: an SSD log (256 MiB) and a page cache (1 GiB, dirty limit 205 MiB)
#: that 2 + 16 segments at 11 MiB flushed per server and segment cannot
#: fill, and ``paper_scale_32x100`` (0.6 MiB per server and segment)
#: needs nothing. Keys are uniform at paper scale because under zipf
#: one of the 32 servers takes 11 % of the traffic and the latency
#: distribution splits in two with the median in the gap.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="ram_get_rdma",
        why="data fits RAM 3x: net.rdma, blocking client and RAM-hit handler do all "
            "the work, storage none; the bypass workload for storage/eviction changes",
        profile=RDMA_MEM, servers=4, clients=8, server_mem=64 * MB, ssd_limit=0,
        read_fraction=0.95, distribution="zipf", ops_per_client=2500),
    Workload(
        name="ssd_mixed_nonb",
        why="the paper's headline no-fit regime (data 2.7x RAM): hybrid evict/flush/"
            "promote, pagecache+device with adaptive I/O, non-blocking window engine",
        profile=H_RDMA_OPT_NONB_I, servers=4, clients=8, server_mem=8 * MB,
        ssd_limit=256 * MB, pagecache=1024 * MB, read_fraction=0.5,
        distribution="uniform", ops_per_client=1500),
    Workload(
        name="ssd_write_ipoib",
        why="same storage layers the other way round (90% SET, synchronous direct-I/O "
            "flushes) over net.ipoib: shows a read-path gain that costs the write path",
        profile=FATCACHE, servers=4, clients=8, server_mem=8 * MB,
        ssd_limit=64 * MB, read_fraction=0.1, distribution="uniform",
        ops_per_client=2500),
    Workload(
        name="paper_scale_32x100",
        why="the paper's testbed, 32 servers x 100 clients (3200 connections): cluster "
            "build cost, event-heap depth with 100 live drivers, and memory dominate",
        profile=H_RDMA_OPT_NONB_I, servers=32, clients=100, server_mem=4 * MB,
        ssd_limit=16 * MB, read_fraction=0.5, distribution="uniform",
        ops_per_client=100, num_keys=65536, value_sizes=None),
)}
