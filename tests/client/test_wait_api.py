"""wait_any / wait_all-timeout / wait-timeout + test interplay."""

import pytest

from repro import build_cluster, profiles
from repro.server.protocol import MISS, STORED
from repro.units import KB, MB, MS, US


def small_cluster(**kw):
    kw.setdefault("server_mem", 32 * MB)
    kw.setdefault("ssd_limit", 64 * MB)
    return build_cluster(profiles.H_RDMA_OPT_NONB_I, **kw)


def run_app(cluster, gen_fn):
    sim = cluster.sim
    return sim.run(until=sim.spawn(gen_fn(sim)))


class TestWaitAny:
    def test_returns_first_completion_and_remaining(self):
        cluster = small_cluster()
        client = cluster.clients[0]

        def app(sim):
            big = yield from client.iset(b"big", 256 * KB)
            small = yield from client.iset(b"small", 1 * KB)
            done, remaining = yield from client.wait_any([big, small])
            # The small transfer finishes first even though it was
            # issued second.
            assert done is small
            assert remaining == [big]
            assert done.status == STORED
            done2, remaining2 = yield from client.wait_any(remaining)
            assert done2 is big and remaining2 == []

        run_app(cluster, app)

    def test_already_done_wins_in_input_order(self):
        cluster = small_cluster()
        client = cluster.clients[0]

        def app(sim):
            r1 = yield from client.iset(b"a", 1 * KB)
            r2 = yield from client.iset(b"b", 1 * KB)
            yield from client.wait_all([r1, r2])
            t0 = sim.now
            done, remaining = yield from client.wait_any([r2, r1])
            assert done is r2 and remaining == [r1]
            assert sim.now == t0  # zero simulated time

        run_app(cluster, app)

    def test_empty_sequence(self):
        cluster = small_cluster()
        client = cluster.clients[0]

        def app(sim):
            done, remaining = yield from client.wait_any([])
            assert done is None and remaining == []

        run_app(cluster, app)

    def test_timeout_leaves_ops_in_flight(self):
        cluster = small_cluster()
        client = cluster.clients[0]

        def app(sim):
            req = yield from client.iset(b"big", 256 * KB)
            t0 = client.now  # the caller's clock: the wait starts there
            done, remaining = yield from client.wait_any(
                [req], timeout=1 * US)
            assert done is None and remaining == [req]
            assert sim.now - t0 == pytest.approx(1 * US)
            done, remaining = yield from client.wait_any(remaining)
            assert done is req and done.status == STORED

        run_app(cluster, app)
        assert len(client.records) == 1  # finalized exactly once

    def test_finalizes_like_wait(self):
        cluster = small_cluster()
        client = cluster.clients[0]

        def app(sim):
            req = yield from client.iget(b"nokey")
            done, _ = yield from client.wait_any([req])
            assert done.status == MISS
            assert done.miss_penalty > 0  # miss path applied

        run_app(cluster, app)
        assert len(client.records) == 1


class TestWaitAllTimeout:
    def test_budget_is_shared_across_the_batch(self):
        cluster = small_cluster()
        client = cluster.clients[0]

        def app(sim):
            reqs = []
            for i in range(4):
                req = yield from client.iset(b"k%d" % i, 128 * KB)
                reqs.append(req)
            t0 = sim.now
            yield from client.wait_all(reqs, timeout=2 * US)
            # One shared budget, not per request.
            assert sim.now - t0 <= 4 * US
            pending = [r for r in reqs if not r.recorded]
            assert pending  # something was left in flight
            yield from client.wait_all(reqs)
            assert all(r.status == STORED for r in reqs)

        run_app(cluster, app)
        assert len(client.records) == 4

    def test_none_timeout_waits_everything(self):
        cluster = small_cluster()
        client = cluster.clients[0]

        def app(sim):
            reqs = []
            for i in range(3):
                req = yield from client.iset(b"k%d" % i, 4 * KB)
                reqs.append(req)
            done = yield from client.wait_all(reqs)
            assert done == reqs
            assert all(r.status == STORED for r in reqs)

        run_app(cluster, app)


class TestWaitTimeoutTestInterplay:
    def test_timed_out_wait_then_test_single_miss_penalty(self):
        cluster = small_cluster()
        cluster.backend.default_value_length = 4 * KB
        client = cluster.clients[0]

        def app(sim):
            req = yield from client.iget(b"absent")
            got = yield from client.wait(req, timeout=1 * US)
            assert got is req
            assert not req.recorded  # not finalized
            # Poll until the background backend fetch completes.
            while not client.test(req):
                yield sim.timeout(100 * US)
            assert req.status == MISS
            assert req.miss_penalty == pytest.approx(2 * MS)
            # A later wait on the finalized request is a no-op.
            yield from client.wait(req)
            assert req.miss_penalty == pytest.approx(2 * MS)

        run_app(cluster, app)
        assert len(client.records) == 1
        assert sum(1 for r in client.records if r.status == MISS) == 1

    def test_wait_after_completion_still_counts_once(self):
        cluster = small_cluster()
        cluster.backend.default_value_length = 4 * KB
        client = cluster.clients[0]

        def app(sim):
            req = yield from client.iget(b"absent2")
            # Let the MISS response land, then drive the penalty via a
            # full wait; test() afterwards must not restart anything.
            yield from client.wait(req)
            assert req.miss_penalty == pytest.approx(2 * MS)
            assert client.test(req) is True

        run_app(cluster, app)
        assert len(client.records) == 1
        assert sum(1 for r in client.records if r.status == MISS) == 1
