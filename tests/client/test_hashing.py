"""Tests for key-to-server routing."""

import pytest

from repro.client import hashing
from repro.client.hashing import (KetamaRouter, ModuloRouter, RouterTable,
                                  one_at_a_time)


def test_one_at_a_time_is_deterministic_32bit():
    h1 = one_at_a_time(b"some-key")
    h2 = one_at_a_time(b"some-key")
    assert h1 == h2
    assert 0 <= h1 < 2 ** 32


def test_one_at_a_time_disperses():
    hashes = {one_at_a_time(f"key{i}".encode()) for i in range(1000)}
    assert len(hashes) > 990  # essentially no collisions


def test_modulo_router_covers_all_servers():
    router = ModuloRouter(4)
    seen = {router.server_for(f"key{i}".encode()) for i in range(1000)}
    assert seen == {0, 1, 2, 3}


def test_modulo_router_balance():
    router = ModuloRouter(4)
    counts = [0] * 4
    for i in range(4000):
        counts[router.server_for(f"key{i}".encode())] += 1
    assert min(counts) > 700  # roughly balanced


def test_router_validates_server_count():
    with pytest.raises(ValueError):
        ModuloRouter(0)
    with pytest.raises(ValueError):
        KetamaRouter(0)


def test_ketama_stability_on_server_add():
    """Consistent hashing moves only ~1/n of the keys."""
    r3 = KetamaRouter(3)
    r4 = KetamaRouter(4)
    keys = [f"key{i}".encode() for i in range(2000)]
    moved = sum(1 for k in keys if r3.server_for(k) != r4.server_for(k))
    assert moved < len(keys) * 0.5  # far fewer than modulo's ~75%


def test_modulo_instability_on_server_add():
    r3 = ModuloRouter(3)
    r4 = ModuloRouter(4)
    keys = [f"key{i}".encode() for i in range(2000)]
    moved = sum(1 for k in keys if r3.server_for(k) != r4.server_for(k))
    assert moved > len(keys) * 0.5


def test_ketama_deterministic():
    r = KetamaRouter(5)
    assert [r.server_for(b"abc")] * 3 == [r.server_for(b"abc") for _ in range(3)]


# -- replica sets (ring-successor replication) ------------------------------


@pytest.mark.parametrize("router_cls", [ModuloRouter, KetamaRouter])
def test_replicas_head_matches_server_for(router_cls):
    """``replicas_for(key, n)[0]`` is the primary, under any alive view."""
    router = router_cls(4)
    keys = [f"key{i}".encode() for i in range(200)]
    for alive in (None, {0, 1, 2, 3}, {0, 2, 3}, {2}):
        for k in keys:
            reps = router.replicas_for(k, 2, alive)
            assert reps[0] == router.server_for(k, alive)


@pytest.mark.parametrize("router_cls", [ModuloRouter, KetamaRouter])
def test_replicas_distinct_and_capped(router_cls):
    router = router_cls(4)
    for i in range(200):
        reps = router.replicas_for(f"key{i}".encode(), 3)
        assert len(reps) == 3
        assert len(set(reps)) == 3
    # More replicas than live servers: degrade, don't raise.
    assert len(router.replicas_for(b"k", 3, alive={0, 2})) == 2
    with pytest.raises(ValueError):
        router.replicas_for(b"k", 2, alive=set())
    with pytest.raises(ValueError):
        router.replicas_for(b"k", 0)


def test_failover_read_lands_on_surviving_replica():
    """When the primary dies, the rehashed read target is exactly the
    key's second replica — so R=2 failover reads hit warm data."""
    for router in (KetamaRouter(4), ModuloRouter(4)):
        for i in range(300):
            key = f"key{i}".encode()
            primary, secondary = router.replicas_for(key, 2)
            alive = {0, 1, 2, 3} - {primary}
            assert router.server_for(key, alive) == secondary


def test_ketama_replica_set_stable_across_heal():
    """Crash + heal returns every key to its original replica set, and
    during the outage the surviving replica keeps its role."""
    router = KetamaRouter(4)
    keys = [f"key{i}".encode() for i in range(300)]
    before = {k: tuple(router.replicas_for(k, 2)) for k in keys}
    alive = {0, 2, 3}  # server 1 down
    for k in keys:
        during = router.replicas_for(k, 2, alive)
        # Survivors keep their replica role; only the dead server's
        # slot is re-delegated to the next live ring successor.
        for s in before[k]:
            if s != 1:
                assert s in during
    after = {k: tuple(router.replicas_for(k, 2)) for k in keys}
    assert after == before


# -- memoized positions and the router table -------------------------------


def test_no_module_level_mutable_state():
    """Routing state lives in router objects, never in the module: two
    clusters in one process cannot see each other's keys."""
    mutable = (dict, list, set, bytearray)
    assert [name for name, value in vars(hashing).items()
            if isinstance(value, mutable) and not name.startswith("__")] == []


@pytest.mark.parametrize("router_cls", [ModuloRouter, KetamaRouter])
def test_memo_is_the_position_and_resets_when_full(router_cls, monkeypatch):
    router = router_cls(5)
    fresh = router_cls(5)
    keys = [f"key{i}".encode() for i in range(50)]
    monkeypatch.setattr(router, "MEMO_MAX", 16)
    for k in keys:
        assert router.server_for(k) == fresh.server_for(k)
        assert router.replicas_for(k, 2) == fresh.replicas_for(k, 2)
        assert len(router._memo) <= 16
    assert router.position(keys[0]) == fresh._locate(keys[0])


def test_router_table_builds_one_router_per_kind_and_size():
    table = RouterTable()
    assert table.get("ketama", 4) is table.get("ketama", 4)
    assert table.get("ketama", 5) is not table.get("ketama", 4)
    assert table.get("modulo", 4) is not table.get("ketama", 4)
    assert isinstance(table.get("modulo", 4), ModuloRouter)
    with pytest.raises(ValueError):
        table.get("rendezvous", 4)
