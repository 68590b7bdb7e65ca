"""Client-side fault-tolerance semantics and the bugs ISSUE 2 fixes:
ketama end-to-end routing (preload must follow the clients' router) and
the test()/wait miss-path + blocked-time accounting."""

import pytest

from repro import build_cluster, profiles
from repro.core.cluster import ReplicationConfig
from repro.core.topology import TopologyConfig
from repro.client.hashing import make_router
from repro.server.protocol import HIT, MISS
from repro.units import KB, MB, MS, US


def run_app(cluster, gen_fn):
    sim = cluster.sim
    p = sim.spawn(gen_fn(sim))
    return sim.run(until=p)


def small_cluster(profile, **kw):
    kw.setdefault("server_mem", 32 * MB)
    kw.setdefault("ssd_limit", 64 * MB)
    return build_cluster(profile, **kw)


KEYS = [b"key-%d" % i for i in range(48)]


class TestKetamaEndToEnd:
    def test_preload_follows_ketama_router(self):
        """Regression: preload used to hardcode ModuloRouter, landing
        every key on the wrong server under router='ketama'."""
        cluster = small_cluster(
            profiles.RDMA_MEM, topology=TopologyConfig(initial_servers=4),
            replication=ReplicationConfig(router="ketama"))
        cluster.preload([(k, 4 * KB) for k in KEYS])
        client = cluster.clients[0]

        def app(sim):
            for key in KEYS:
                g = yield from client.get(key)
                assert g.status == HIT, key

        run_app(cluster, app)

    def test_surviving_servers_keys_still_hit_after_ejection(self):
        cluster = small_cluster(
            profiles.RDMA_MEM, topology=TopologyConfig(initial_servers=4),
            replication=ReplicationConfig(router="ketama"),
            request_timeout=1 * MS, failure_threshold=1)
        cluster.backend.default_value_length = 4 * KB
        cluster.preload([(k, 4 * KB) for k in KEYS])
        client = cluster.clients[0]
        router = make_router("ketama", 4)
        dead = 1
        dead_keys = [k for k in KEYS if router.server_for(k) == dead]
        surviving = [k for k in KEYS if router.server_for(k) != dead]
        assert dead_keys and surviving
        cluster.servers[dead].crash()

        def app(sim):
            # One get against the dead server: times out and ejects it.
            yield from client.get(dead_keys[0])
            assert not client._conns[dead].healthy
            # Every key owned by a surviving server is untouched.
            for key in surviving:
                g = yield from client.get(key)
                assert g.status == HIT, key

        run_app(cluster, app)

    def test_failover_rehashes_only_dead_servers_keys(self):
        """Ketama dead-server rehash: keys of the ejected server spread
        to survivors; survivors' own keys keep their placement."""
        alive = {0, 2, 3}
        router = make_router("ketama", 4)
        for key in KEYS:
            owner = router.server_for(key)
            rerouted = router.server_for(key, alive)
            if owner in alive:
                assert rerouted == owner
            else:
                assert rerouted in alive


class TestWaitTimeoutAccounting:
    def test_blocked_time_not_double_counted(self):
        cluster = small_cluster(profiles.H_RDMA_OPT_NONB_I)
        client = cluster.clients[0]

        def app(sim):
            req = yield from client.iset(b"key", 256 * KB)
            b0 = req.blocked_time
            t0 = sim.now
            r = yield from client.wait(req, timeout=5 * US)
            assert r is req and not req.done  # timed out, still pending
            yield from client.wait(req)
            assert req.done
            # Total blocked across both waits == the single span from
            # first wait to completion; a double-count would exceed it.
            assert req.blocked_time == pytest.approx(b0 + (sim.now - t0))

        run_app(cluster, app)

    def test_completed_before_timeout_accounts_once(self):
        cluster = small_cluster(profiles.H_RDMA_OPT_NONB_I)
        client = cluster.clients[0]

        def app(sim):
            req = yield from client.iset(b"key", 4 * KB)
            b0 = req.blocked_time
            t0 = sim.now
            yield from client.wait(req, timeout=50 * MS)
            assert req.done
            assert req.blocked_time == pytest.approx(b0 + (sim.now - t0))

        run_app(cluster, app)


class TestTestMissPath:
    def test_polling_loop_drives_miss_penalty_and_repopulation(self):
        """Regression: test() used to skip _handle_miss and never
        finalize MISS ops — misses vanished from records and the cache
        was never repopulated."""
        cluster = small_cluster(profiles.H_RDMA_OPT_NONB_I)
        cluster.backend.default_value_length = 4 * KB
        client = cluster.clients[0]

        def app(sim):
            req = yield from client.iget(b"absent")
            polls = 0
            while not client.test(req):
                polls += 1
                yield sim.timeout(10 * US)
            assert polls > 0
            assert req.status == MISS
            assert req.miss_penalty > 0
            # The op reached the records (it used to be dropped).
            assert any(r.status == MISS for r in client.records)
            # And the cache was repopulated.
            g = yield from client.get(b"absent")
            assert g.status == HIT

        run_app(cluster, app)

    def test_poll_stays_zero_time_and_wait_joins_background_fetch(self):
        cluster = small_cluster(profiles.H_RDMA_OPT_NONB_I)
        cluster.backend.default_value_length = 4 * KB
        client = cluster.clients[0]

        def app(sim):
            req = yield from client.iget(b"absent")
            yield req.complete
            t0 = sim.now
            done = client.test(req)  # starts the background fetch
            assert sim.now == t0  # the poll itself is zero-time
            assert not done  # not consumable until the fetch lands
            r = yield from client.wait(req)  # joins the same fetch
            assert r.done and r.status == MISS
            assert r.miss_penalty > 0
            yield from client.quiesce()
            assert client.test(req)

        run_app(cluster, app)

    @pytest.mark.parametrize("penalty", [0.0, 2 * MS])
    def test_wait_after_a_polled_miss_fetches_once(self, penalty):
        """Regression: "already fetched" used to be "the miss penalty is
        truthy", so with a free backend a wait() after test() returned
        True fetched and repopulated the key a second time."""
        cluster = small_cluster(profiles.H_RDMA_OPT_NONB_I,
                                backend_penalty=penalty)
        cluster.backend.default_value_length = 4 * KB
        client = cluster.clients[0]
        server = cluster.servers[0]

        def app(sim):
            req = yield from client.iget(b"absent")
            while not client.test(req):
                yield sim.timeout(10 * US)
            yield from client.wait(req)
            assert req.miss_penalty == penalty
            yield from client.quiesce()

        run_app(cluster, app)
        assert cluster.backend.fetches == 1
        assert server.stats.sets == 1  # one repopulating SET
        assert [r.miss_penalty for r in client.records] == [penalty]

    def test_retry_queued_behind_the_answer_keeps_its_header(self):
        """A retry still waiting for the engine when the first attempt
        is answered goes out anyway; it must carry the header the first
        attempt did. It used to be rebuilt from defaults — an ``add``
        became an unconditional ``set`` and overwrote the key."""
        import dataclasses

        from repro.server.protocol import NOT_STORED
        from repro.server.server import ServerCosts

        cluster = build_cluster(
            profiles.RDMA_MEM, server_mem=16 * MB,
            costs=ServerCosts(parse=200 * US),
            request_timeout=200 * US, retry_backoff=50 * US,
            failure_threshold=0)
        client = cluster.clients[0]
        client.config = dataclasses.replace(client.config,
                                            engine_cpu=100 * US)
        cluster.preload([(b"held", 1 * KB)])

        def app(sim):
            req = yield from client.add(b"held", 4 * KB)
            assert req.status == NOT_STORED

        run_app(cluster, app)
        cluster.run()  # let the queued second attempt reach the server
        assert cluster.servers[0].stats.sets == 2  # both attempts arrived
        table = cluster.servers[0].manager.table
        assert table[b"held"].value_length == 1 * KB

    def test_hit_path_unchanged(self):
        cluster = small_cluster(profiles.H_RDMA_OPT_NONB_I)
        client = cluster.clients[0]

        def app(sim):
            yield from client.set(b"key", 4 * KB)
            req = yield from client.iget(b"key")
            while not client.test(req):
                yield sim.timeout(10 * US)
            assert req.status == HIT

        run_app(cluster, app)
