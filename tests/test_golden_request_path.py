"""Golden digests of the request path (ROADMAP item 1, first slice).

Each case below is one small fixed run — about 300 operations — whose
whole observable outcome is folded into one SHA-256: every operation
record (``test_determinism.fingerprint``), each server's
``manager.stats`` and final table contents and, where the run records
one, the consistency history. Fig 2's per-stage split of each grid
case is pinned apart, in ``tests/golden/stage_breakdown.json``. The simulator's
event count is pinned next to it, apart: ``GOLDEN[case] =
(behaviour_digest, events)``, so a change that only makes the engine
cheaper touches the integer column and a reviewer sees that no digest
moved. The digests were generated on the commit *before* the
request-lifecycle refactor and committed ahead of it, so "same
behaviour" is an assertion in this file, not a scratch script compared
against a second checkout.

A failing case prints its new pair. Regenerating means pasting that
value into ``GOLDEN`` in a diff a reviewer sees, with the reason the
behaviour (or the event count) was meant to change.
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
from repro.core.topology import AutoscalePolicy, TopologyConfig
from repro.faults import FaultPlan
from repro.harness.runner import RunConfig, ScaleEvent
from repro.units import KB, MB, MS, US
from repro.workloads.generator import WorkloadSpec, generate_ops
from tests.test_determinism import fingerprint

GOLDEN = {
    "all-verbs/r2-sync": ("16690fcfb078f45b87cfabbd12c2cfd1e0a3489aa6e828525811757d38d5129e", 6261),
    "autoscale-3-4/ycsb-a": ("db3db9dcb284ba50a9f61dd5d6e884847def2d98d6e8110c96ced71491a6a826", 2718),
    "fatcache/blocking": ("3204612c5d01ff8b70bc9ba43a6f329cb8a023763590fd1bce682df44bd79db2", 2503),
    "h-rdma-def/blocking": ("c3a0ad690b85ba141243b94dca2a91fa0f87288344addbc382692b66071264d2", 3033),
    "h-rdma-opt-block/blocking": ("66bf0f855d6ca1c0ef2487b34815c80176aa5426d7e5e2ff1846fdd54ccf73a8", 3184),
    "h-rdma-opt-nonb-b/blocking": ("66bf0f855d6ca1c0ef2487b34815c80176aa5426d7e5e2ff1846fdd54ccf73a8", 3184),
    "h-rdma-opt-nonb-b/nonb-b": ("c3cf250d8219f72fef610d023746695f2ca58f43a949135634905469c2bb2e7c", 3794),
    "h-rdma-opt-nonb-b/nonb-i": ("8accc1b0591ee02cb50381adbfec520fbbbb9f66d470c03ed6040d2c016569f8", 3213),
    "h-rdma-opt-nonb-i/blocking": ("66bf0f855d6ca1c0ef2487b34815c80176aa5426d7e5e2ff1846fdd54ccf73a8", 3184),
    "h-rdma-opt-nonb-i/nonb-b": ("c3cf250d8219f72fef610d023746695f2ca58f43a949135634905469c2bb2e7c", 3794),
    "h-rdma-opt-nonb-i/nonb-i": ("8accc1b0591ee02cb50381adbfec520fbbbb9f66d470c03ed6040d2c016569f8", 3213),
    "ipoib-mem/blocking": ("1339dd17605201336bb7b76d4102b0a6bd55ea5d93c5f0abcddbf854c9eb0c15", 2437),
    "mget/h-rdma-opt-block": ("3414b9177f34390d2311dd1a1f40c0d203f086dc430426d51cfb9d74ffc94997", 2477),
    "r2-async-hlc/partition-heal": ("a7c6b810ca46901697235cfb333d219104a2f34e7e1aa59f5959e2f4bc38baf5", 4092),
    "r2-sync/crash": ("a3c7cd02e7f42a59dea3e39b858591098ead25a333b968c969991ce87696ddff", 4150),
    "r2-sync/crash-restart-resync": ("9157f919a504b2b496c2789d835ef860d80a75c89d815e9bf427ab14b62b09bc", 4159),
    "raft-r2-sync/leader-crash/ycsb-a": ("58beaef0cbe0040f53dbefc1df19e5d69f38b9ed91674e4802d9e5ec71f004a7", 4440),
    "rdma-mem/blocking": ("f63b966913f8fed6ebabc6fe47740bad14e6b8d9d963995de1deaa26ddb0d87c", 2998),
    "scale-4-8/double-read/ycsb-a": ("329e864740718cce19ca99017abcc594812b0e8cc62b1e4d1b8736c48de3ec99", 2781),
    "scale-4-8/double-read/ycsb-e": ("4b8ea753691f87e2304451a402fdb3093015a84bf7e95e259685e8df20dac4b7", 8209),
}


def digest(result, cluster, extra=None) -> tuple:
    """``(behaviour digest, events processed)`` of a finished run."""
    h = hashlib.sha256()
    h.update(repr(fingerprint(result)).encode())
    for server in cluster.servers:
        manager = server.manager
        h.update(repr(dataclasses.astuple(manager.stats)).encode())
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
    if extra is not None:
        h.update(repr(extra).encode())
    return h.hexdigest(), cluster.sim.events_processed


def run(cfg: RunConfig) -> tuple:
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


def grid_run(profile, api, cluster_spec=GRID_CLUSTER) -> tuple:
    """``(result, cluster)`` of one grid case: the harness drivers, or
    ``wait_any`` for ``bset``/``bget``."""
    cfg = RunConfig(profile=profile, workload=GRID_WORKLOAD,
                    cluster=cluster_spec, api=api)
    cluster = cfg.build()
    if api != NONB_B:
        return cfg.run(cluster), cluster
    cluster.reset_metrics()
    sim = cluster.sim
    drivers = [sim.spawn(_drive_wait_any(
        client, generate_ops(GRID_WORKLOAD, client_index=i)))
        for i, client in enumerate(cluster.clients)]
    sim.run(until=sim.all_of(drivers))
    return SimpleNamespace(records=cluster.all_records()), cluster


def run_grid(profile, api) -> tuple:
    return digest(*grid_run(profile, api))


GRID = [(profile, api)
        for profile in ALL_PROFILES.values()
        for api in ((BLOCKING, NONB_I, NONB_B) if profile.nonblocking
                    else (BLOCKING,))]


# -- mget, replication, HLC, elastic scaling --------------------------------

def run_mget() -> tuple:
    spec = WorkloadSpec(num_ops=300, num_keys=700, value_length=30 * KB,
                        read_fraction=0.8, seed=2)
    return run(RunConfig(profile=H_RDMA_OPT_BLOCK, workload=spec,
                         mget_batch=8,
                         cluster=ClusterSpec(server_mem=8 * MB,
                                             ssd_limit=64 * MB)))


def run_replicated(write_mode, hlc, fault, check=False) -> tuple:
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


def run_scale(ycsb) -> tuple:
    spec = ClusterSpec(
        topology=TopologyConfig(initial_servers=4),
        num_clients=2, server_mem=8 * MB, ssd_limit=64 * MB,
        replication=ReplicationConfig(factor=1, router="ketama"))
    workload = WorkloadSpec(num_ops=150, num_keys=256, value_length=4 * KB,
                            seed=11)
    return run(RunConfig(profile=H_RDMA_OPT_NONB_I, workload=workload,
                         cluster=spec, ycsb=ycsb, check_consistency=True,
                         scale_events=(ScaleEvent(at=40 * US, servers=8),)))


def run_raft_leader_crash() -> tuple:
    """Raft-owned membership at R=2 sync under YCSB-A: the group elects,
    then the leader crashes 200 us into the measured run, and the run
    goes on until the re-election settles."""
    cfg = RunConfig(
        profile=H_RDMA_OPT_NONB_I,
        workload=WorkloadSpec(num_ops=150, num_keys=64, value_length=4 * KB,
                              seed=11),
        ycsb="A", check_consistency=True,
        cluster=ClusterSpec(
            topology=TopologyConfig(initial_servers=3), num_clients=2,
            server_mem=16 * MB, ssd_limit=64 * MB,
            replication=ReplicationConfig(factor=2, router="ketama",
                                          consensus=True),
            request_timeout=1 * MS, failure_threshold=1))
    cluster = cfg.build()
    sim, raft = cluster.sim, cluster.raft
    sim.run(until=sim.timeout(8 * MS))
    leader = raft.leader_index
    crash = FaultPlan.parse([f"crash:server={leader},at=200us"])
    result = dataclasses.replace(cfg, fault_plan=crash).run(cluster)
    sim.run(until=sim.timeout(10 * MS))
    return digest(result, cluster, extra=(leader, raft.leader_index,
                                          raft.elections(), raft.view.epoch))


def run_autoscale() -> tuple:
    """One grow decided by the threshold autoscaler from the queue depth
    the YCSB-A load builds on single-worker servers, settled."""
    policy = AutoscalePolicy(high_watermark=4.0, low_watermark=-1.0,
                             min_servers=3, max_servers=4,
                             interval=50 * US, cooldown=1 * MS)
    cfg = RunConfig(
        profile=H_RDMA_OPT_NONB_I,
        workload=WorkloadSpec(num_ops=150, num_keys=256, value_length=4 * KB,
                              seed=11),
        ycsb="A", check_consistency=True,
        cluster=ClusterSpec(
            topology=TopologyConfig(initial_servers=3, autoscale=policy),
            num_clients=2, server_mem=8 * MB, ssd_limit=64 * MB,
            worker_threads=1,
            replication=ReplicationConfig(factor=1, router="ketama")))
    cluster = cfg.build()
    result = cfg.run(cluster)
    sim = cluster.sim
    for _ in range(50):
        if cluster.migration is None:
            break
        sim.run(until=sim.timeout(1 * MS))
    return digest(result, cluster, extra=(cluster.serving_indices(),
                                          cluster.view_epoch))


# -- every client verb once, on a replicated cluster ------------------------

def run_all_verbs() -> tuple:
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
    return digest(SimpleNamespace(records=cluster.all_records()), cluster,
                  extra=seen)


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
    # Publish-first migration (the case names predate the removal of
    # the second, copy-first protocol and are kept as recorded).
    "scale-4-8/double-read/ycsb-a": (run_scale, "A"),
    # YCSB-E scans are mgets: per-entry pull-on-miss.
    "scale-4-8/double-read/ycsb-e": (run_scale, "E"),
    "raft-r2-sync/leader-crash/ycsb-a": (run_raft_leader_crash,),
    "autoscale-3-4/ycsb-a": (run_autoscale,),
    "all-verbs/r2-sync": (run_all_verbs,),
})


def test_the_grid_covers_every_profile_and_api():
    assert len(ALL_PROFILES) == 7 and len(GRID) == 11
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    fn, *args = CASES[case]
    got = fn(*args)
    want = GOLDEN.get(case, (None, None))
    assert got == want, (
        f"request path changed for {case!r}: behaviour digest "
        f"{'same' if got[0] == want[0] else 'MOVED'}, events "
        f"{want[1]} -> {got[1]}; new entry:\n"
        f'    "{case}": ("{got[0]}", {got[1]}),')
