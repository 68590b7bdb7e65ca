"""Tests for the RDMA memory-registration model (Section IV motivation)."""

from repro import build_cluster, profiles
from repro.client.buffers import (
    PAGE,
    BufferPool,
    registration_cost,
    size_class,
)
from repro.client.client import ClientConfig
from repro.core.cluster import ClusterSpec
from repro.units import KB, MB


class TestBufferPoolUnit:
    def test_size_class_pow2_min_page(self):
        assert size_class(1) == PAGE
        assert size_class(PAGE) == PAGE
        assert size_class(PAGE + 1) == 2 * PAGE
        assert size_class(33 * KB) == 64 * KB

    def test_registration_cost_grows_with_size(self):
        assert registration_cost(1 * MB) > registration_cost(4 * KB)

    def test_acquire_release_reuse(self):
        pool = BufferPool()
        c1 = pool.acquire(8 * KB)
        assert c1 > 0
        pool.release(8 * KB)
        c2 = pool.acquire(8 * KB)
        assert c2 == 0.0  # registered buffer reused
        assert pool.stats.registrations == 1
        assert pool.stats.reuses == 1

    def test_different_classes_do_not_share(self):
        pool = BufferPool()
        pool.acquire(4 * KB)
        pool.release(4 * KB)
        assert pool.acquire(1 * MB) > 0

    def test_peak_tracking(self):
        pool = BufferPool()
        pool.acquire(4 * KB)
        pool.acquire(4 * KB)
        pool.release(4 * KB)
        pool.acquire(4 * KB)
        assert pool.stats.peak_bytes == 2 * PAGE
        assert pool.in_use_bytes == 2 * PAGE


def pool_after(profile, api, n=64, value=32 * KB):
    spec = ClusterSpec(server_mem=32 * MB, ssd_limit=64 * MB)
    cluster = build_cluster(profile, spec=spec)
    # Rebuild the client config with registration modeling on.
    client = cluster.clients[0]
    client.config = ClientConfig(
        nonblocking_allowed=profile.nonblocking, model_registration=True)
    sim = cluster.sim

    def app(sim):
        reqs = []
        for i in range(n):
            if api == "iset":
                reqs.append((yield from client.iset(
                    f"k{i}".encode(), value)))
            elif api == "bset":
                reqs.append((yield from client.bset(
                    f"k{i}".encode(), value)))
            else:
                yield from client.set(f"k{i}".encode(), value)
        yield from client.wait_all(reqs)

    sim.run(until=sim.spawn(app(sim)))
    return client.buffer_pool


def test_registration_disabled_by_default():
    cluster = build_cluster(profiles.H_RDMA_OPT_NONB_I, server_mem=16 * MB,
                            ssd_limit=32 * MB)
    client = cluster.clients[0]

    def app(sim):
        yield from client.set(b"k", 8 * KB)

    cluster.sim.run(until=cluster.sim.spawn(app(cluster.sim)))
    assert client.buffer_pool.stats.registrations == 0


def test_blocking_client_needs_one_buffer():
    pool = pool_after(profiles.H_RDMA_OPT_BLOCK, "set")
    assert pool.stats.registrations == 1
    assert pool.stats.reuses == 63


def test_bset_reuses_buffers_early():
    """The b-variants' whole point: few registered buffers suffice."""
    pool_b = pool_after(profiles.H_RDMA_OPT_NONB_B, "bset")
    pool_i = pool_after(profiles.H_RDMA_OPT_NONB_I, "iset")
    # iset pins buffers until wait/test: a deep pipeline registers many.
    assert pool_i.stats.registrations > pool_b.stats.registrations
    assert pool_i.stats.peak_bytes > pool_b.stats.peak_bytes


def test_warm_pool_stops_registering():
    pool = pool_after(profiles.H_RDMA_OPT_NONB_I, "iset", n=200)
    # Far fewer registrations than ops: steady state reuses.
    assert pool.stats.registrations < 80
    assert pool.stats.reuses > 120
