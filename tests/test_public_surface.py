"""Every definition in ``src/repro`` is reached by the package itself.

A def or class that no non-``__init__`` module of the package names (as
a bare name, an attribute or an import) runs only when a test, a doc or
a re-export calls it. Such code is dead unless it is kept on purpose:
then it is on ``ALLOWED`` under one of the ``REASONS``. Anything else
goes, together with its tests and docs.

"Named" is by bare name, so a def counts as reached when any module
names anything of that name. The scan errs towards letting code stay.
Dunder methods are never scanned: Python calls them.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"

REASONS = {
    "kvbench": "benchmarks/kvbench calls it",
    "oracle": "a test computes its expected values through it",
    "accessor": "a read-only view that tests check conservation laws"
                " through",
    "documented": "public API that the docs teach",
    "example": "an examples/ script calls it",
    "evidence": "EXPERIMENTS.md cites what it produces",
}

ALLOWED = {
    # benchmarks/kvbench (micro.py, measure.py)
    "repro.sim.resources.Store": "kvbench",
    "repro.net.transport.Endpoint.recv": "kvbench",
    "repro.client.request.OpRecord.stages": "kvbench",
    "repro.core.metrics.load_imbalance": "kvbench",
    # test oracles
    "repro.core.analytic.predict_get_latency": "oracle",
    "repro.core.analytic.predict_set_latency": "oracle",
    "repro.storage.params.DeviceParams.read_time": "oracle",
    "repro.storage.params.DeviceParams.write_time": "oracle",
    "repro.workloads.distributions.ZipfSampler.hot_fraction": "oracle",
    "repro.workloads.keyspace.Keyspace.all_keys": "oracle",
    # ``summarize`` must equal these per-metric definitions bit for bit.
    "repro.core.metrics.percentile_latency": "oracle",
    "repro.core.metrics.mean_blocked": "oracle",
    # conservation-law inputs: slab, page-cache and buffer gauges, ...
    "repro.server.slab.SlabClass.total_chunks": "accessor",
    "repro.server.slab.SlabClass.used_chunks": "accessor",
    "repro.server.slab.SlabAllocator.assigned_pages": "accessor",
    "repro.server.slab.SlabAllocator.stored_bytes": "accessor",
    "repro.storage.pagecache.PageCacheStats.hit_rate": "accessor",
    "repro.storage.pagecache.PageCache.dirty_pages": "accessor",
    "repro.storage.pagecache.PageCache.resident_pages": "accessor",
    # ... with the page cache's drain-to-clean barrier they are read after
    "repro.storage.pagecache.PageCache.sync": "accessor",
    "repro.client.buffers.BufferPool.allocated_bytes": "accessor",
    "repro.client.buffers.BufferPool.in_use_bytes": "accessor",
    "repro.client.client.MemcachedClient.outstanding_count": "accessor",
    "repro.sim.events.Process.is_alive": "accessor",
    "repro.server.hybrid.HybridSlabManager.live_slot_count": "accessor",
    "repro.server.item.Item.in_ram": "accessor",
    "repro.server.item.Item.on_ssd": "accessor",
    "repro.core.cluster.Cluster.total_items": "accessor",
    "repro.consensus.raft.RaftGroup.elections": "accessor",
    # documented API
    "repro.client.client.MemcachedClient.test": "documented",
    "repro.core.topology.ClusterAdmin.rebalance": "documented",
    "repro.consensus.hlc.later": "documented",
    "repro.consistency.history.record_run": "documented",
    "repro.consistency.history.from_jsonl": "documented",
    # examples/
    "repro.harness.report.ascii_bars": "example",
    # EXPERIMENTS.md's sensitivity tables
    "repro.harness.sensitivity.sweep_ssd_latency": "evidence",
    "repro.harness.sensitivity.sweep_ssd_bandwidth": "evidence",
    "repro.harness.sensitivity.sweep_zipf_theta": "evidence",
    "repro.harness.sensitivity.sweep_network": "evidence",
    "repro.harness.sensitivity.sweep_backend_penalty": "evidence",
    "repro.harness.sensitivity.sweep_pagecache": "evidence",
}


def _module_name(path):
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _definitions(tree, prefix):
    """``(qualified name, bare name)`` of every non-dunder def/class."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            qualified = f"{prefix}.{node.name}"
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield qualified, node.name
            yield from _definitions(node, qualified)
        else:
            yield from _definitions(node, prefix)


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
            if node.asname:
                yield node.asname


def _scan():
    """``({qualified name: bare name}, {every name a module uses})``."""
    defined, named = {}, set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined.update(_definitions(tree, _module_name(path)))
        if path.name != "__init__.py":
            named.update(_names(tree))
    return defined, named


def _unreached():
    defined, named = _scan()
    return sorted(q for q, bare in defined.items() if bare not in named)


def test_every_definition_is_reached_or_allowed():
    dead = [q for q in _unreached() if q not in ALLOWED]
    assert not dead, (
        "nothing in src/repro names these; delete them with their tests"
        " and docs, or add them to ALLOWED with a reason:\n  "
        + "\n  ".join(dead))


def test_allow_list_is_current():
    defined, _ = _scan()
    assert set(ALLOWED.values()) <= set(REASONS)
    missing = sorted(set(ALLOWED) - set(defined))
    assert not missing, f"no such definition: {missing}"
    reached = sorted(set(ALLOWED) - set(_unreached()))
    assert not reached, f"the package reaches these now; unlist them: {reached}"
    # The scan itself must keep working.
    assert len(defined) > 800
