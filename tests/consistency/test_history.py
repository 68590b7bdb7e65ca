"""History recording: hooks, pending flush, determinism, serialization."""

from repro import build_cluster, profiles
from repro.consistency import (HistoryRecorder, from_jsonl, run_scenario,
                               to_jsonl)
from repro.consistency.fuzz import Scenario
from repro.units import KB, MB


def small_cluster(**kw):
    kw.setdefault("server_mem", 32 * MB)
    kw.setdefault("ssd_limit", 64 * MB)
    return build_cluster(profiles.H_RDMA_OPT_NONB_I, **kw)


class TestRecording:
    def test_records_roundtrip_ops(self):
        cluster = small_cluster()
        rec = HistoryRecorder().attach(cluster)
        client = cluster.clients[0]

        def app():
            yield from client.set(b"k1", 4 * KB)
            yield from client.get(b"k1")
            yield from client.delete(b"k1")

        cluster.sim.run(until=cluster.sim.spawn(app()))
        events = rec.finish()
        assert [(e.op, e.status) for e in events] == [
            ("set", "STORED"), ("get", "HIT"), ("delete", "DELETED")]
        store, hit, _ = events
        assert hit.cas_token == store.cas_token > 0
        assert hit.key == store.key == "k1"
        assert 0 <= store.t_issue < store.t_complete <= hit.t_issue

    def test_initial_tokens_snapshot_preload(self):
        cluster = small_cluster()
        cluster.preload([(b"warm", 4 * KB)])
        rec = HistoryRecorder().attach(cluster)
        assert any(key == "warm" and tok > 0
                   for (_s, key), (tok, _vlen) in
                   rec.initial_tokens.items())

    def test_unwaited_request_flushed_pending(self):
        cluster = small_cluster()
        rec = HistoryRecorder().attach(cluster)
        client = cluster.clients[0]

        def app():
            yield from client.iset(b"k1", 4 * KB)
            # never waited: still open at run end

        cluster.sim.run(until=cluster.sim.spawn(app()))
        events = rec.finish()
        assert len(events) == 1
        assert events[0].status == "PENDING"
        assert events[0].t_complete == -1.0

    def test_finish_idempotent(self):
        rec = HistoryRecorder()
        assert rec.finish() == rec.finish() == []

    def test_detach_unhooks_clients(self):
        cluster = small_cluster()
        rec = HistoryRecorder().attach(cluster)
        rec.detach()
        assert all(c.recorder is None for c in cluster.clients)


class TestDeterminism:
    def test_jsonl_roundtrip(self):
        scn = Scenario(seed=3, num_clients=1, ops_per_client=30)
        _report, events, _rec = run_scenario(scn)
        assert from_jsonl(to_jsonl(events)) == events
