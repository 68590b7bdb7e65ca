"""Tests for the client API: blocking, non-blocking, wait/test semantics."""

from collections import deque

import pytest

from repro import build_cluster, profiles
from repro.client.client import UnsupportedOperation
from repro.core.topology import TopologyConfig
from repro.server.protocol import HIT, MISS, STORED
from repro.units import KB, MB, MS, US


def run_app(cluster, gen_fn):
    sim = cluster.sim
    p = sim.spawn(gen_fn(sim))
    return sim.run(until=p)


def small_cluster(profile, **kw):
    kw.setdefault("server_mem", 32 * MB)
    kw.setdefault("ssd_limit", 64 * MB)
    return build_cluster(profile, **kw)


class TestBlockingAPI:
    def test_set_get_roundtrip(self):
        cluster = small_cluster(profiles.RDMA_MEM)
        client = cluster.clients[0]

        def app(sim):
            r = yield from client.set(b"key", 4 * KB)
            assert r.status == STORED
            g = yield from client.get(b"key")
            assert g.status == HIT
            assert g.value_length == 4 * KB

        run_app(cluster, app)

    def test_blocking_ops_have_zero_overlap(self):
        cluster = small_cluster(profiles.RDMA_MEM)
        client = cluster.clients[0]

        def app(sim):
            yield from client.set(b"key", 4 * KB)
            yield from client.get(b"key")

        run_app(cluster, app)
        for rec in client.records:
            assert rec.overlap_fraction < 0.05

    def test_miss_pays_backend_penalty(self):
        cluster = small_cluster(profiles.RDMA_MEM)
        cluster.backend.default_value_length = 4 * KB
        client = cluster.clients[0]

        def app(sim):
            g = yield from client.get(b"absent")
            assert g.status == MISS
            assert g.miss_penalty == pytest.approx(2 * MS)
            # Repopulated: next get hits without penalty.
            g2 = yield from client.get(b"absent")
            assert g2.status == HIT

        run_app(cluster, app)

    def test_records_keep_the_contract_the_benchmark_reader_relies_on(self):
        """``benchmarks/kvbench/measure.py`` tells a repopulated MISS
        from a failed GET by ``rec.stages.get("miss_penalty", 0.0)``;
        its smoke run is short enough to see no MISS, so this is what
        holds that line to the record."""
        cluster = small_cluster(profiles.H_RDMA_OPT_NONB_I)
        cluster.backend.default_value_length = 4 * KB
        client = cluster.clients[0]

        def app(sim):
            yield from client.get(b"absent")  # MISS, fetched, repopulated
            yield from client.get(b"absent")  # HIT

        run_app(cluster, app)
        miss, hit = client.records
        assert miss.status == MISS
        assert miss.stages.get("miss_penalty", 0.0) > 0.0
        assert hit.status == HIT and hit.stages == {}

    def test_delete(self):
        cluster = small_cluster(profiles.RDMA_MEM)
        client = cluster.clients[0]

        def app(sim):
            yield from client.set(b"key", 1 * KB)
            d = yield from client.delete(b"key")
            assert d.status == "DELETED"

        run_app(cluster, app)


class TestNonBlockingGating:
    @pytest.mark.parametrize("profile", [
        profiles.IPOIB_MEM, profiles.RDMA_MEM, profiles.H_RDMA_DEF])
    def test_existing_designs_reject_nonblocking(self, profile):
        cluster = small_cluster(profile)
        client = cluster.clients[0]

        def app(sim):
            with pytest.raises(UnsupportedOperation):
                yield from client.iset(b"k", 1 * KB)
            with pytest.raises(UnsupportedOperation):
                yield from client.iget(b"k")
            with pytest.raises(UnsupportedOperation):
                yield from client.bset(b"k", 1 * KB)
            with pytest.raises(UnsupportedOperation):
                yield from client.bget(b"k")
            yield sim.timeout(0)

        run_app(cluster, app)

    def test_blocking_apis_coexist_with_nonblocking(self):
        """Sec IV: the extensions co-exist with the blocking APIs."""
        cluster = small_cluster(profiles.H_RDMA_OPT_NONB_I)
        client = cluster.clients[0]

        def app(sim):
            r1 = yield from client.set(b"a", 1 * KB)  # blocking
            r2 = yield from client.iset(b"b", 1 * KB)  # non-blocking
            yield from client.wait(r2)
            assert r1.status == STORED and r2.status == STORED

        run_app(cluster, app)


class TestIsetIget:
    def test_iset_returns_before_completion(self):
        cluster = small_cluster(profiles.H_RDMA_OPT_NONB_I)
        client = cluster.clients[0]
        seen = {}

        def app(sim):
            req = yield from client.iset(b"key", 32 * KB)
            seen["done_at_return"] = req.done
            yield from client.wait(req)
            seen["done_after_wait"] = req.done
            seen["status"] = req.status

        run_app(cluster, app)
        assert seen["done_at_return"] is False
        assert seen["done_after_wait"] is True
        assert seen["status"] == STORED

    def test_iget_fetches_value(self):
        cluster = small_cluster(profiles.H_RDMA_OPT_NONB_I)
        client = cluster.clients[0]

        def app(sim):
            yield from client.set(b"key", 8 * KB)
            req = yield from client.iget(b"key")
            yield from client.wait(req)
            assert req.status == HIT
            assert req.value_length == 8 * KB

        run_app(cluster, app)

    def test_iset_blocked_time_is_tiny(self):
        cluster = small_cluster(profiles.H_RDMA_OPT_NONB_I)
        client = cluster.clients[0]
        out = {}

        def app(sim):
            req = yield from client.iset(b"key", 256 * KB)
            out["blocked_at_return"] = req.blocked_time
            yield from client.wait(req)

        run_app(cluster, app)
        assert out["blocked_at_return"] < 1 * US

    def test_pipelined_isets_outperform_blocking_sets(self):
        def elapsed(profile, use_iset):
            cluster = small_cluster(profile)
            client = cluster.clients[0]
            sim = cluster.sim

            def app(sim):
                if use_iset:
                    reqs = []
                    for i in range(50):
                        reqs.append((yield from client.iset(
                            f"k{i}".encode(), 32 * KB)))
                    yield from client.wait_all(reqs)
                else:
                    for i in range(50):
                        yield from client.set(f"k{i}".encode(), 32 * KB)

            t0 = sim.now
            run_app(cluster, app)
            return sim.now - t0

        t_nonb = elapsed(profiles.H_RDMA_OPT_NONB_I, True)
        t_block = elapsed(profiles.H_RDMA_OPT_BLOCK, False)
        assert t_nonb < t_block


class TestBsetBget:
    def test_bset_buffer_safe_at_return(self):
        cluster = small_cluster(profiles.H_RDMA_OPT_NONB_B)
        client = cluster.clients[0]
        out = {}

        def app(sim):
            req = yield from client.bset(b"key", 32 * KB)
            out["safe"] = req.buffer_safe.triggered
            out["done"] = req.done
            yield from client.wait(req)

        run_app(cluster, app)
        assert out["safe"] is True  # buffer reusable at API return
        assert out["done"] is False  # ...but op not yet complete

    def test_bget_returns_after_header_on_wire(self):
        cluster = small_cluster(profiles.H_RDMA_OPT_NONB_B)
        client = cluster.clients[0]
        out = {}

        def app(sim):
            yield from client.set(b"key", 64 * KB)
            req = yield from client.bget(b"key")
            out["safe"] = req.buffer_safe.triggered
            out["done"] = req.done
            yield from client.wait(req)
            out["status"] = req.status

        run_app(cluster, app)
        assert out["safe"] is True
        assert out["done"] is False
        assert out["status"] == HIT

    def test_bset_blocks_longer_than_iset(self):
        def blocked_at_return(profile, api):
            cluster = small_cluster(profile)
            client = cluster.clients[0]
            out = {}

            def app(sim):
                fn = client.bset if api == "bset" else client.iset
                req = yield from fn(b"key", 512 * KB)
                out["blocked"] = req.blocked_time
                yield from client.wait(req)

            run_app(cluster, app)
            return out["blocked"]

        b = blocked_at_return(profiles.H_RDMA_OPT_NONB_B, "bset")
        i = blocked_at_return(profiles.H_RDMA_OPT_NONB_I, "iset")
        assert b > i  # bset waits for the value to leave the buffer


class TestWaitTest:
    def test_test_polls_without_blocking(self):
        cluster = small_cluster(profiles.H_RDMA_OPT_NONB_I)
        client = cluster.clients[0]
        polls = []

        def app(sim):
            req = yield from client.iset(b"key", 32 * KB)
            polls.append(client.test(req))
            while not client.test(req):
                yield sim.timeout(1 * US)
            polls.append(client.test(req))

        run_app(cluster, app)
        assert polls[0] is False
        assert polls[-1] is True

    def test_wait_all_bursty_pattern(self):
        """The Listing-2 usage: issue a block of chunks, wait at the end."""
        cluster = small_cluster(profiles.H_RDMA_OPT_NONB_I)
        client = cluster.clients[0]

        def app(sim):
            reqs = []
            for i in range(16):
                reqs.append((yield from client.iset(
                    f"chunk{i}".encode(), 256 * KB)))
            done = yield from client.wait_all(reqs)
            assert all(r.status == STORED for r in done)

        run_app(cluster, app)

    def test_quiesce_drains_outstanding(self):
        cluster = small_cluster(profiles.H_RDMA_OPT_NONB_I)
        client = cluster.clients[0]

        def app(sim):
            for i in range(10):
                yield from client.iset(f"k{i}".encode(), 8 * KB)
            yield from client.quiesce()
            assert client.outstanding_count == 0

        run_app(cluster, app)


class TestRecords:
    def test_records_written_once_per_op(self):
        cluster = small_cluster(profiles.H_RDMA_OPT_NONB_I)
        client = cluster.clients[0]

        def app(sim):
            req = yield from client.iset(b"k", 1 * KB)
            yield from client.wait(req)
            yield from client.wait(req)  # double-wait must not double-record
            yield from client.get(b"k")

        run_app(cluster, app)
        assert len(client.records) == 2

    def test_reset_metrics(self):
        cluster = small_cluster(profiles.RDMA_MEM)
        client = cluster.clients[0]

        def app(sim):
            yield from client.set(b"k", 1 * KB)

        run_app(cluster, app)
        assert client.records
        client.reset_metrics()
        assert not client.records
        assert client.total_blocked == 0.0

    def test_client_memory_is_bounded_by_outstanding_not_by_ops(self):
        """After quiesce + reset_metrics a client holds nothing per
        operation it ever ran: every container attribute is sized by the
        window, the key set and the server list, not by the op count."""
        cluster = small_cluster(profiles.H_RDMA_OPT_NONB_I)
        client = cluster.clients[0]
        keys = [b"k%d" % i for i in range(8)]

        def app(sim):
            window = []
            for i in range(2000):
                key = keys[i % len(keys)]
                if i % 4 == 0:
                    yield from client.set(key, 1 * KB)
                elif i % 4 == 1:
                    yield from client.get(key)
                elif i % 4 == 2:
                    window.append((yield from client.iset(key, 1 * KB)))
                else:
                    window.append((yield from client.iget(key)))
                if len(window) >= 16 or i == 1999:
                    yield from client.wait_all(window)
                    window.clear()
            yield from client.quiesce()

        run_app(cluster, app)
        assert len(client.records) == 2000
        client.reset_metrics()
        held = {name: len(value) for name, value in vars(client).items()
                if isinstance(value, (set, dict, list, deque))}
        assert sum(held.values()) <= 64, held

    def test_repopulate_set_not_recorded(self):
        cluster = small_cluster(profiles.RDMA_MEM)
        cluster.backend.default_value_length = 1 * KB
        client = cluster.clients[0]

        def app(sim):
            yield from client.get(b"absent")  # miss -> backend -> re-set

        run_app(cluster, app)
        ops = [r.op for r in client.records]
        assert ops == ["get"]  # the internal repopulation set is hidden

    def test_a_blocking_miss_is_blocked_time_once(self):
        """A blocking GET miss blocks its caller through the backend
        fetch and the set that repopulates the cache. That set is no
        operation of its own: the client's blocked total is the sum of
        its records' blocked times, not that plus the set's."""
        cluster = small_cluster(profiles.RDMA_MEM)
        cluster.backend.default_value_length = 4 * KB
        client = cluster.clients[0]

        def app(sim):
            yield from client.get(b"absent-1")
            yield from client.get(b"absent-2")

        run_app(cluster, app)
        assert [r.status for r in client.records] == [MISS, MISS]
        assert client.total_blocked == pytest.approx(
            sum(r.blocked_time for r in client.records), rel=1e-12)

    def test_a_polled_miss_fetch_blocks_nobody(self):
        """``test()`` starts a completed miss's backend fetch and cache
        repopulation in the background, off the caller's critical path:
        the caller blocked only in its ``iget`` call."""
        cluster = small_cluster(profiles.H_RDMA_OPT_NONB_I)
        cluster.backend.default_value_length = 4 * KB
        client = cluster.clients[0]

        def app(sim):
            req = yield from client.iget(b"absent")
            while not client.test(req):
                yield sim.timeout(1 * US)

        run_app(cluster, app)
        (rec,) = client.records
        assert rec.status == MISS and rec.value_length == 4 * KB
        assert client.total_blocked == rec.blocked_time


class TestMultiServer:
    def test_keys_spread_over_servers(self):
        cluster = small_cluster(profiles.H_RDMA_OPT_NONB_I,
                                topology=TopologyConfig(initial_servers=4))
        client = cluster.clients[0]

        def app(sim):
            reqs = []
            for i in range(64):
                reqs.append((yield from client.iset(
                    f"key{i}".encode(), 4 * KB)))
            yield from client.wait_all(reqs)

        run_app(cluster, app)
        sizes = [len(s.manager.table) for s in cluster.servers]
        assert sum(sizes) == 64
        assert all(n > 0 for n in sizes)

    def test_get_routes_to_owner(self):
        cluster = small_cluster(profiles.H_RDMA_OPT_NONB_I,
                                topology=TopologyConfig(initial_servers=4))
        client = cluster.clients[0]

        def app(sim):
            yield from client.set(b"routed", 4 * KB)
            g = yield from client.get(b"routed")
            assert g.status == HIT

        run_app(cluster, app)
