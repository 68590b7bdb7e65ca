"""Golden digests of the request path (ROADMAP item 1, first slice).

Each case below is one small fixed run — about 300 operations — whose
whole observable outcome is folded into one SHA-256: every operation
record (``test_determinism.fingerprint``), the simulator's event count,
each server's ``manager.stats``, ``stats.stage_time`` and final table
contents and, where the run records one, the consistency history. The digests were generated on
the commit *before* the request-lifecycle refactor and committed ahead
of it, so "same behaviour" is an assertion in this file, not a scratch
script compared against a second checkout.

A failing case prints its new digest. Regenerating means pasting that
value into ``GOLDEN`` in a diff a reviewer sees, with the reason the
behaviour was meant to change.
"""

import dataclasses
import hashlib
from collections import deque
from types import SimpleNamespace

import pytest

from repro.consistency.history import to_jsonl
from repro.core.cluster import ClusterSpec, ReplicationConfig
from repro.core.profiles import (ALL_PROFILES, BLOCKING, H_RDMA_OPT_BLOCK,
                                 H_RDMA_OPT_NONB_I, NONB_B, NONB_I)
from repro.core.topology import TopologyConfig
from repro.faults import FaultPlan
from repro.harness.runner import RunConfig, ScaleEvent
from repro.units import KB, MB, MS, US
from repro.workloads.generator import WorkloadSpec, generate_ops
from tests.test_determinism import fingerprint

GOLDEN = {
    "all-verbs/r2-sync": "0fb425c0dc531e9ca2617815ec6175a8a3c971618e9347d610003f0b50cd75aa",
    "fatcache/blocking": "522ccd6efa74b25b5a6cd96283bfbfa15d4d031f71ab21df470e06512bd7f6db",
    "h-rdma-def/blocking": "1e94484481afb187f7c0bc7d2fd26000610904464e7428b4c26b4e2b9977ad47",
    "h-rdma-opt-block/blocking": "53c113aae769d4e367d48e8cbfbe576dc76b422887055136bcd876d778c65cbc",
    "h-rdma-opt-nonb-b/blocking": "53c113aae769d4e367d48e8cbfbe576dc76b422887055136bcd876d778c65cbc",
    "h-rdma-opt-nonb-b/nonb-b": "3465bd2a7cb2aba40c92efc4a5b68c38610420e17e8d0b9bc9d11fe85e89787a",
    "h-rdma-opt-nonb-b/nonb-i": "b2afb4ee14dc0652f1c346677c1204a3fddd06d729932c8cfaf0493d7f615073",
    "h-rdma-opt-nonb-i/blocking": "53c113aae769d4e367d48e8cbfbe576dc76b422887055136bcd876d778c65cbc",
    "h-rdma-opt-nonb-i/nonb-b": "3465bd2a7cb2aba40c92efc4a5b68c38610420e17e8d0b9bc9d11fe85e89787a",
    "h-rdma-opt-nonb-i/nonb-i": "b2afb4ee14dc0652f1c346677c1204a3fddd06d729932c8cfaf0493d7f615073",
    "ipoib-mem/blocking": "c923cd3ee5eb04509a4ab2ba0d97d5df4c3872eb69a658181dc57c32c3be305b",
    "mget/h-rdma-opt-block": "516006c3f3f9ea856ff4de31e413895303ef0fe79831285040c9b637f728664a",
    "r2-async-hlc/partition-heal": "30a9cc3acded361cb66220d16808f11cea261657eeb8ad3aaec1226971887960",
    "r2-sync/crash": "0146bcb7e64c134ff594d89c3218716700b775d30550a18cfcd6c0311578b1f8",
    "r2-sync/crash-restart-resync": "8f4afce68ca49474bd3280b9c131a681c89126a5afee964146edb1b66b120b7b",
    "rdma-mem/blocking": "4f699b20ef05a01d1bbc88b82b22cc4aeba223c7eb2c4cb9ff98f84b8d23f589",
    "scale-4-8/double-read/ycsb-a": "bc0707f8f0c73236da07628180b1bbe048d8c09b9bb39974d4df2d0863e1768a",
    "scale-4-8/double-read/ycsb-e": "f4521550e4b47c6d16c7caad970cd5f37a89cc1b6ccdfdede05a91703e8f9fd5",
    "scale-4-8/forward/ycsb-a": "1a927a1d96d41842af24df919e6b6306ceef4c048a7b5119c6c938d65eaccc9d",
    "scale-4-8/forward/ycsb-e": "fe7ec30029a734f8857955a79e7e59188ff334b5a3e93a1519813678d783b5fc",
}


def digest(result, cluster) -> str:
    h = hashlib.sha256()
    h.update(repr(fingerprint(result)).encode())
    h.update(repr(cluster.sim.events_processed).encode())
    for server in cluster.servers:
        manager = server.manager
        h.update(repr((dataclasses.astuple(manager.stats),
                       sorted(server.stats.stage_time.items()))).encode())
        # What the run left behind: zero-time installs (preload, resync,
        # migration) move no event and no stat, only this.
        h.update(repr((sorted((key, item.value_length, item.location,
                               item.expiration, item.numeric, item.hlc,
                               item.cas)
                              for key, item in manager.table.items()),
                       sorted(manager.tombstones.items()))).encode())
    history = getattr(result, "history", None)
    if history is not None:
        h.update(to_jsonl(history).encode())
    return h.hexdigest()


def run(cfg: RunConfig) -> str:
    cluster = cfg.build()
    return digest(cfg.run(cluster), cluster)


# -- the seven design profiles, each with the APIs it allows ----------------

#: Data (256 x 32 KB) is 2.7x server memory and 2x the SSD: the in-memory
#: designs evict and miss (backend fetch + unrecorded repopulating set);
#: the hybrid ones spill pages at preload and flush, promote and drop
#: whole SSD slots during the run, so they miss too.
GRID_WORKLOAD = WorkloadSpec(num_ops=150, num_keys=256, value_length=32 * KB,
                             read_fraction=0.5, distribution="zipf", seed=5)
GRID_CLUSTER = ClusterSpec(server_mem=3 * MB, ssd_limit=4 * MB,
                           num_clients=2)


def _drive_wait_any(client, ops, window=8):
    """``bset``/``bget`` completed through ``wait_any`` — the one client
    path the harness drivers (which use ``wait``) never take."""
    inflight = deque()
    for op in ops:
        if len(inflight) >= window:
            _done, rest = yield from client.wait_any(list(inflight))
            inflight = deque(rest)
        if op.kind == "get":
            req = yield from client.bget(op.key)
        else:
            req = yield from client.bset(op.key, op.value_length)
        inflight.append(req)
    while inflight:
        _done, rest = yield from client.wait_any(list(inflight))
        inflight = deque(rest)
    yield from client.quiesce()


def run_grid(profile, api) -> str:
    cfg = RunConfig(profile=profile, workload=GRID_WORKLOAD,
                    cluster=GRID_CLUSTER, api=api)
    if api != NONB_B:
        return run(cfg)
    cluster = cfg.build()
    cluster.reset_metrics()
    sim = cluster.sim
    drivers = [sim.spawn(_drive_wait_any(
        client, generate_ops(GRID_WORKLOAD, client_index=i)))
        for i, client in enumerate(cluster.clients)]
    sim.run(until=sim.all_of(drivers))
    return digest(SimpleNamespace(records=cluster.all_records()), cluster)


GRID = [(profile, api)
        for profile in ALL_PROFILES.values()
        for api in ((BLOCKING, NONB_I, NONB_B) if profile.nonblocking
                    else (BLOCKING,))]


# -- mget, replication, HLC, elastic scaling --------------------------------

def run_mget() -> str:
    spec = WorkloadSpec(num_ops=300, num_keys=700, value_length=30 * KB,
                        read_fraction=0.8, seed=2)
    return run(RunConfig(profile=H_RDMA_OPT_BLOCK, workload=spec,
                         mget_batch=8,
                         cluster=ClusterSpec(server_mem=8 * MB,
                                             ssd_limit=64 * MB)))


def run_replicated(write_mode, hlc, fault, check=False) -> str:
    spec = WorkloadSpec(num_ops=150, num_keys=512, value_length=8 * KB,
                        read_fraction=0.5, distribution="uniform", seed=5)
    cluster_spec = ClusterSpec(
        topology=TopologyConfig(initial_servers=4), num_clients=2,
        server_mem=16 * MB, ssd_limit=64 * MB,
        replication=ReplicationConfig(factor=2, write_mode=write_mode,
                                      router="ketama", hlc=hlc),
        request_timeout=2 * MS, retry_backoff=200 * US, failure_threshold=2)
    return run(RunConfig(profile=H_RDMA_OPT_NONB_I, workload=spec,
                         cluster=cluster_spec, check_consistency=check,
                         fault_plan=FaultPlan.parse([fault])))


def run_scale(handoff, ycsb) -> str:
    spec = ClusterSpec(
        topology=TopologyConfig(initial_servers=4, handoff=handoff),
        num_clients=2, server_mem=8 * MB, ssd_limit=64 * MB,
        replication=ReplicationConfig(factor=1, router="ketama"))
    workload = WorkloadSpec(num_ops=150, num_keys=256, value_length=4 * KB,
                            seed=11)
    return run(RunConfig(profile=H_RDMA_OPT_NONB_I, workload=workload,
                         cluster=spec, ycsb=ycsb, check_consistency=True,
                         scale_events=(ScaleEvent(at=40 * US, servers=8),)))


# -- every client verb once, on a replicated cluster ------------------------

def run_all_verbs() -> str:
    """The verbs no generated workload issues (add / replace / cas /
    delete / gets / flush_all / stats / test-polling) next to the ones
    they do, at R=2 sync so every write tail holds for replica acks."""
    cfg = RunConfig(
        profile=H_RDMA_OPT_NONB_I,
        workload=WorkloadSpec(num_ops=1, num_keys=64, value_length=2 * KB),
        cluster=ClusterSpec(
            topology=TopologyConfig(initial_servers=3), num_clients=1,
            server_mem=8 * MB, ssd_limit=64 * MB,
            replication=ReplicationConfig(factor=2, router="ketama"),
            request_timeout=2 * MS))
    cluster = cfg.build()
    cluster.reset_metrics()
    client, sim = cluster.clients[0], cluster.sim
    seen = []

    def app():
        for i in range(24):
            key = b"verb%d" % i
            seen.append((yield from client.add(key, 1 * KB)).status)
            seen.append((yield from client.add(key, 1 * KB)).status)
            seen.append((yield from client.replace(key, 2 * KB)).status)
            token = (yield from client.gets(key)).cas_token
            seen.append((yield from client.cas(key, 3 * KB, token)).status)
            seen.append((yield from client.cas(key, 3 * KB, token)).status)
            seen.append((yield from client.touch(key, sim.now + 1.0)).status)
            seen.append((yield from client.gat(key, sim.now + 1.0)).status)
            counter = b"ctr%d" % (i % 4)
            seen.append((yield from client.incr(counter, 2,
                                                initial=5)).counter_value)
            seen.append((yield from client.decr(counter, 1)).counter_value)
            req = yield from client.iget(b"absent%d" % i)  # miss via test()
            while not client.test(req):
                yield sim.timeout(50 * US)
            seen.append(req.status)
            if i % 3 == 0:
                seen.append((yield from client.delete(key)).status)
                seen.append((yield from client.get(key)).status)
        reqs = yield from client.mget([b"verb%d" % i for i in range(24)])
        seen.extend(r.status for r in reqs)
        seen.append(sorted((yield from client.stats(1)).items())[:8])
        seen.extend(r.status for r in (yield from client.flush_all()))
        seen.append((yield from client.get(b"verb1")).status)
        yield from client.quiesce()

    sim.run(until=sim.spawn(app()))
    result = SimpleNamespace(records=cluster.all_records())
    h = hashlib.sha256(digest(result, cluster).encode())
    h.update(repr(seen).encode())
    return h.hexdigest()


CASES = {f"{profile.key}/{api}": (run_grid, profile, api)
         for profile, api in GRID}
CASES.update({
    "mget/h-rdma-opt-block": (run_mget,),
    "r2-sync/crash": (run_replicated, "sync", False,
                      "crash:server=1,at=200us"),
    "r2-sync/crash-restart-resync": (run_replicated, "sync", False,
                                     "crash:server=1,at=200us,duration=1ms"),
    # Recorded and checked, so the run settles past the heal + resync.
    "r2-async-hlc/partition-heal": (
        run_replicated, "async", True,
        "partition:server=1,at=200us,duration=1ms", True),
    "scale-4-8/forward/ycsb-a": (run_scale, "forward", "A"),
    "scale-4-8/double-read/ycsb-a": (run_scale, "double-read", "A"),
    # YCSB-E scans are mgets: per-entry forwarding / pull-on-miss.
    "scale-4-8/forward/ycsb-e": (run_scale, "forward", "E"),
    "scale-4-8/double-read/ycsb-e": (run_scale, "double-read", "E"),
    "all-verbs/r2-sync": (run_all_verbs,),
})


def test_the_grid_covers_every_profile_and_api():
    assert len(ALL_PROFILES) == 7 and len(GRID) == 11
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    fn, *args = CASES[case]
    got = fn(*args)
    assert got == GOLDEN.get(case), (
        f"request-path digest changed for {case!r}; new digest:\n"
        f'    "{case}": "{got}",')
