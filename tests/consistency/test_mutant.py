"""The checker must catch a deliberately broken replication client.

The mutant acks sync writes after the primary alone (it skips the
replica-ack barrier) — the classic replica-apply-reordered-vs-ack bug.
Every shipped configuration passes the checker
(test_shipped_configs.py); this scenario makes the mutant observable:

* one worker, large values and a slow memcpy give server 1 a deep
  store queue; a bomber client keeps it full;
* a victim write replicates s0 -> s1; its replica copy queues behind
  the bombers, so its apply lands milliseconds after the primary ack;
* s0 then crashes, and a reader's GET fails over to s1 where
  ``get_priority`` lets it jump the queued SETs — observing the stale
  preloaded token.

With the barrier, the write only acks after the replica sub resolves
(here: a bounded SERVER_DOWN give-up), so the read is concurrent and
legal. The mutant acks at the primary response, the sub later acks
STORED — and the sync-visibility rule fires.
"""

import pytest

from repro.client.client import MemcachedClient
from repro.consistency import HistoryRecorder, check_history
from repro.core.cluster import (ClusterSpec, ReplicationConfig,
                                build_cluster)
from repro.core.profiles import H_RDMA_OPT_NONB_I
from repro.core.topology import TopologyConfig
from repro.faults import FaultPlan
from repro.server.server import ServerCosts
from repro.units import KB, MB

VAL = 512 * KB


def keys_by_primary(client, want, count):
    out, i = [], 0
    while len(out) < count:
        key = b"key:%010d" % i
        i += 1
        if client._route(key).index == want:
            out.append(key)
    return out


def run_scenario_once():
    spec = ClusterSpec(topology=TopologyConfig(initial_servers=3),
                       num_clients=3,
                       server_mem=256 * MB,
                       replication=ReplicationConfig(
                           factor=2, write_mode="sync", router="modulo"),
                       worker_threads=1, get_priority=True,
                       costs=ServerCosts(memcpy_bandwidth=5e8),
                       request_timeout=1.5e-3, retry_backoff=5e-6)
    cluster = build_cluster(H_RDMA_OPT_NONB_I, spec=spec,
                            value_length_for=lambda _k: VAL)
    sim = cluster.sim
    writer, bomber, reader = cluster.clients
    victim = keys_by_primary(writer, 0, 1)[0]
    bombers = keys_by_primary(writer, 1, 8)
    cluster.preload([(victim, VAL)])
    recorder = HistoryRecorder().attach(cluster)
    FaultPlan.parse(["crash:server=0,at=0.0016"]).inject(cluster)

    def drive_bomber():
        reqs = []
        for key in bombers:
            req = yield from bomber.iset(key, VAL)
            reqs.append(req)
        for req in reqs:
            yield from bomber.wait(req)
        yield from bomber.quiesce()

    def drive_writer():
        yield sim.timeout(300e-6)
        yield from writer.set(victim, VAL)
        # Stay alive past the replica copy's real ack, so a broken
        # client records it STORED instead of quiesce timing it out.
        if sim.now < 8e-3:
            yield sim.timeout(8e-3 - sim.now)
        yield from writer.quiesce()

    def drive_reader():
        yield sim.timeout(1.7e-3)
        yield from reader.get(victim)
        yield from reader.quiesce()

    done = sim.all_of([sim.spawn(drive_bomber(), name="bomber"),
                       sim.spawn(drive_writer(), name="writer"),
                       sim.spawn(drive_reader(), name="reader")])
    sim.run(until=done)
    events = recorder.finish()
    recorder.detach()
    return check_history(events, recorder.initial_tokens,
                         write_mode="sync", faults=True)


@pytest.fixture
def broken_replica_barrier(monkeypatch):
    def broken(self, req, clock):
        self._replica_subs.pop(req.req_id, None)
        return
        yield

    monkeypatch.setattr(MemcachedClient, "_await_replica_acks", broken)


def test_correct_client_passes():
    report = run_scenario_once()
    assert report.ok, report.violations[:3]


def test_mutant_caught(broken_replica_barrier):
    report = run_scenario_once()
    assert not report.ok
    assert {v.kind for v in report.violations} == {"sync-stale-read"}
