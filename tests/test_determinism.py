"""End-to-end determinism: identical runs produce identical results.

The simulator must be exactly reproducible — seeded RNGs, FIFO
tie-breaking, no wall-clock — because EXPERIMENTS.md numbers, benchmark
assertions, and regression tests all rely on it.
"""

from repro.core.cluster import ClusterSpec
from repro.core.profiles import H_RDMA_OPT_NONB_I, RDMA_MEM
from repro.harness.runner import RunConfig
from repro.units import KB, MB
from repro.workloads.generator import WorkloadSpec


def run_once(profile):
    spec = WorkloadSpec(num_ops=300, num_keys=512, value_length=8 * KB,
                        read_fraction=0.5, distribution="zipf", seed=5)
    cfg = RunConfig(profile=profile, workload=spec,
                    cluster=ClusterSpec(server_mem=16 * MB,
                                        ssd_limit=64 * MB, num_clients=2))
    cluster = cfg.build()
    return cfg.run(cluster), cluster


def fingerprint(result):
    """What each record says happened. Of Fig 2's stages only the miss
    penalty is the record's own; the others are pinned as means in
    ``tests/golden/stage_breakdown.json``."""
    return [(r.op, r.key_length, r.status, r.t_issue, r.t_complete,
             r.blocked_time, r.miss_penalty)
            for r in result.records]


def test_nonblocking_hybrid_run_is_deterministic():
    a, ca = run_once(H_RDMA_OPT_NONB_I)
    b, cb = run_once(H_RDMA_OPT_NONB_I)
    assert fingerprint(a) == fingerprint(b)
    assert a.span == b.span
    # Server-side state identical too.
    for sa, sb in zip(ca.servers, cb.servers):
        assert sa.manager.stats == sb.manager.stats
        assert len(sa.manager.table) == len(sb.manager.table)
        assert sa.stats == sb.stats


def test_blocking_inmemory_run_is_deterministic():
    a, _ = run_once(RDMA_MEM)
    b, _ = run_once(RDMA_MEM)
    assert fingerprint(a) == fingerprint(b)


def test_different_seeds_differ():
    spec1 = WorkloadSpec(num_ops=200, num_keys=256, value_length=4 * KB,
                         seed=1)
    spec2 = WorkloadSpec(num_ops=200, num_keys=256, value_length=4 * KB,
                         seed=2)
    r1, r2 = (RunConfig(profile=RDMA_MEM, workload=spec,
                        cluster=ClusterSpec(server_mem=16 * MB)).run()
              for spec in (spec1, spec2))
    assert fingerprint(r1) != fingerprint(r2)
