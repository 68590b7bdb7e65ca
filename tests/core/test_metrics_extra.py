"""Tests for wait timeouts."""


class TestWaitTimeout:
    def test_wait_times_out_then_completes_later(self):
        from repro import build_cluster, profiles
        from repro.units import KB, MB, US

        cluster = build_cluster(profiles.H_RDMA_OPT_NONB_I,
                                server_mem=16 * MB, ssd_limit=64 * MB)
        client = cluster.clients[0]
        out = {}

        def app(sim):
            req = yield from client.iset(b"key", 256 * KB)
            # 1 µs is far too short for a 256 KB transfer.
            r = yield from client.wait(req, timeout=1 * US)
            out["after_timeout"] = r.done
            yield from client.wait(req)  # no timeout: completes
            out["final"] = req.status

        cluster.sim.run(until=cluster.sim.spawn(app(cluster.sim)))
        assert out["after_timeout"] is False
        assert out["final"] == "STORED"

    def test_wait_with_ample_timeout_behaves_normally(self):
        from repro import build_cluster, profiles
        from repro.units import KB, MB

        cluster = build_cluster(profiles.H_RDMA_OPT_NONB_I,
                                server_mem=16 * MB, ssd_limit=64 * MB)
        client = cluster.clients[0]

        def app(sim):
            req = yield from client.iset(b"key", 4 * KB)
            r = yield from client.wait(req, timeout=1.0)
            assert r.done and r.status == "STORED"

        cluster.sim.run(until=cluster.sim.spawn(app(cluster.sim)))
        assert len(client.records) == 1
