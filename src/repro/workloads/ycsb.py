"""YCSB core-workload presets (Cooper et al., SoCC'10 — the paper's
reference for cloud access patterns, Sec VI-A).

Maps the standard core workloads onto op streams for the runner:

========  =========================================  ==================
workload  mix                                        distribution
========  =========================================  ==================
A         50% read / 50% update                      zipfian
B         95% read / 5% update                       zipfian
C         100% read                                  zipfian
D         95% read / 5% insert (read-latest)         latest-skewed
E         95% scan / 5% insert                       zipfian
F         50% read / 50% read-modify-write           zipfian
========  =========================================  ==================

memcached has no native range queries, so workload E's scans are
mapped the way caching tiers actually run it: a scan of length L over
the ordered keyspace becomes one multi-get of the L consecutive keys
(the runner drives it as a single ``mget``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.workloads.distributions import ZipfSampler
from repro.workloads.generator import Op
from repro.workloads.keyspace import Keyspace


@dataclass(frozen=True)
class YCSBWorkload:
    """One YCSB core-workload definition."""

    name: str
    read_fraction: float
    update_fraction: float = 0.0
    insert_fraction: float = 0.0
    rmw_fraction: float = 0.0
    scan_fraction: float = 0.0
    distribution: str = "zipfian"  # "zipfian" | "latest"
    theta: float = 0.99
    #: Scan lengths are uniform in [1, max_scan_len] (workload E).
    max_scan_len: int = 8

    def __post_init__(self):
        total = (self.read_fraction + self.update_fraction
                 + self.insert_fraction + self.rmw_fraction
                 + self.scan_fraction)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{self.name}: op mix must sum to 1.0")
        if self.max_scan_len < 1:
            raise ValueError(f"{self.name}: max_scan_len must be >= 1")


WORKLOAD_A = YCSBWorkload("A", read_fraction=0.5, update_fraction=0.5)
WORKLOAD_B = YCSBWorkload("B", read_fraction=0.95, update_fraction=0.05)
WORKLOAD_C = YCSBWorkload("C", read_fraction=1.0)
WORKLOAD_D = YCSBWorkload("D", read_fraction=0.95, insert_fraction=0.05,
                          distribution="latest")
WORKLOAD_E = YCSBWorkload("E", read_fraction=0.0, scan_fraction=0.95,
                          insert_fraction=0.05)
WORKLOAD_F = YCSBWorkload("F", read_fraction=0.5, rmw_fraction=0.5)

CORE_WORKLOADS = {w.name: w for w in
                  (WORKLOAD_A, WORKLOAD_B, WORKLOAD_C, WORKLOAD_D,
                   WORKLOAD_E, WORKLOAD_F)}


_OP_KIND = {"read": "get", "update": "set", "rmw": "rmw"}


def generate_ycsb_ops(workload: YCSBWorkload, num_ops: int, num_keys: int,
                      value_length: int, seed: int = 0,
                      client_index: int = 0) -> List[Op]:
    """Deterministic op stream for one client running a YCSB workload.

    Inserts (workload D) create fresh keys beyond the preloaded
    keyspace; the *latest* distribution skews reads toward the most
    recently inserted/loaded records, as YCSB defines it.

    All draws are made in bulk (same RNG streams and consumption order
    as the original per-op loop, whose streams are pinned in
    ``tests/golden/op_streams.json``); workloads without scans or
    inserts (A, B, C, F) take a fully vectorized path.
    """
    rng = np.random.default_rng(seed + 7919 * client_index + 13)
    keyspace = Keyspace(num_keys)
    zipf = ZipfSampler(num_keys, theta=workload.theta,
                       seed=seed + 7919 * client_index)
    kinds = rng.choice(
        ["read", "update", "insert", "rmw", "scan"],
        size=num_ops,
        p=[workload.read_fraction, workload.update_fraction,
           workload.insert_fraction, workload.rmw_fraction,
           workload.scan_fraction])
    scan_lens = rng.integers(1, workload.max_scan_len + 1, size=num_ops)
    zipf_draws = zipf.sample(num_ops)
    rank_draws = zipf.sample_ranks(num_ops)
    latest = workload.distribution == "latest"

    kind_list = kinds.tolist()
    if "scan" not in kind_list and "insert" not in kind_list:
        # Fast path: every op consumes exactly one key pick, nothing
        # grows the keyspace. Materialize keys in bulk and map kinds.
        if latest:
            # total is constant (no inserts): newest-first skew over
            # the preloaded keyspace alone.
            indices = num_keys - 1 - (rank_draws % num_keys)
        else:
            indices = zipf_draws
        keys = keyspace.keys_for(indices)
        kind_map = _OP_KIND
        # Op is frozen, so repeated (kind, key) pairs — frequent under
        # zipf skew — can share one instance instead of reallocating.
        memo = {}
        ops = []
        append = ops.append
        for kk, k in zip(kind_list, keys):
            op = memo.get((kk, k))
            if op is None:
                op = memo[(kk, k)] = Op(kind_map[kk], k, value_length)
            append(op)
        return ops

    # General path (scans and/or inserts present): same per-op walk,
    # but all draws are plain pre-pulled Python scalars.
    zipf_list = zipf_draws.tolist()
    rank_list = rank_draws.tolist()
    scan_list = scan_lens.tolist()
    zpos = 0   # next unconsumed zipf draw
    rpos = 0   # next unconsumed rank draw
    ops: List[Op] = []
    append = ops.append
    key_of = keyspace.key
    inserted = 0  # keys appended past the initial keyspace
    for n, kind in enumerate(kind_list):
        if kind == "scan":
            # A scan of length L from a zipf-chosen start becomes one
            # multi-get over the L consecutive preloaded keys.
            start = zipf_list[zpos]
            zpos += 1
            if start > num_keys - 1:
                start = num_keys - 1
            end = min(start + scan_list[n], num_keys)
            keys = tuple(key_of(i) for i in range(start, end))
            append(Op("scan", keys[0], value_length, keys=keys))
            continue
        if kind == "insert":
            append(Op("set", _insert_key(client_index, inserted),
                      value_length))
            inserted += 1
            continue
        if latest:
            # Skew toward the most recent records: draw a zipf rank and
            # count backwards from the newest key.
            total = num_keys + inserted
            back = rank_list[rpos] % total
            rpos += 1
            index = total - 1 - back
        else:
            index = zipf_list[zpos]
            zpos += 1
        key = (key_of(index) if index < num_keys
               else _insert_key(client_index, index - num_keys))
        append(Op(_OP_KIND[kind], key, value_length))
    return ops


def _insert_key(client_index: int, seq: int) -> bytes:
    return f"ins:{client_index:03d}:{seq:010d}".encode()
