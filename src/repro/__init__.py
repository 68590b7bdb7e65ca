"""repro — reproduction of the IPDPS 2016 hybrid RDMA+SSD Memcached paper.

This package implements, from scratch and on top of a deterministic
discrete-event simulation substrate:

* an RDMA / IP-over-IB network model (``repro.net``),
* SATA/NVMe SSD devices, a page cache, and direct/cached/mmap I/O schemes
  (``repro.storage``),
* a Memcached server with slab allocation, LRU, and a hybrid RAM+SSD slab
  manager with adaptive I/O (``repro.server``),
* a libmemcached-style client with the paper's non-blocking API
  extensions — ``iset``/``iget``/``bset``/``bget``/``wait``/``test``
  (``repro.client``),
* design profiles, cluster builder, and metrics (``repro.core``),
* web-scale and bursty-I/O workload generators (``repro.workloads``),
* an experiment harness reproducing every table and figure of the paper's
  evaluation (``repro.harness``).

Quickstart::

    from repro import build_cluster, profiles

    cluster = build_cluster(profiles.H_RDMA_OPT_NONB_I)
    client = cluster.clients[0]

    def app(sim):
        req = yield from client.iset(b"key", 1024)
        # ... overlap with other work ...
        yield from client.wait(req)
        got = yield from client.get(b"key")
        assert got.value_length == 1024

    cluster.sim.spawn(app(cluster.sim))
    cluster.run()
"""

from repro._version import __version__
from repro.core import profiles
from repro.core.cluster import Cluster, build_cluster
from repro.core.profiles import DesignProfile

__all__ = [
    "__version__",
    "profiles",
    "DesignProfile",
    "Cluster",
    "build_cluster",
]
