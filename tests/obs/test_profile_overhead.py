"""Guard tests: profiling off must cost (near) nothing.

Two complementary guarantees:

* the NULL path never even *calls* the profiler — every hot-path call
  site is guarded on ``profiler.enabled`` / ``req.trace_id is not None``,
  proven by making every :class:`_NullProfiler` method raise;
* profiling is pure observation — a profiled run is event-for-event
  identical to an unprofiled one (same records, same times, same
  simulator event count), so turning it on cannot change results and
  turning it off cannot leave residue.
"""

import pytest

from repro.core.cluster import ClusterSpec
from repro.core.profiles import H_RDMA_OPT_NONB_I
from repro.core.topology import TopologyConfig
from repro.harness.runner import RunConfig
from repro.obs.profile import context as profile_context
from repro.units import KB, MB
from repro.workloads.generator import WorkloadSpec


def _cfg(**cluster_kw):
    spec = WorkloadSpec(num_ops=150, num_keys=256, value_length=8 * KB,
                        read_fraction=0.5, distribution="zipf", seed=3)
    cluster = ClusterSpec(topology=TopologyConfig(initial_servers=2),
                          num_clients=2,
                          server_mem=8 * MB, ssd_limit=32 * MB,
                          **cluster_kw)
    return RunConfig(profile=H_RDMA_OPT_NONB_I, workload=spec,
                     cluster=cluster)


def _fingerprint(result):
    return [(r.op, r.key_length, r.status, r.t_issue, r.t_complete,
             r.blocked_time, r.miss_penalty)
            for r in result.records]


def test_null_path_allocates_no_profile_state(monkeypatch):
    """With profiling off, no request ever touches the profiler.

    ``reset``/``report``/``live`` are cold-path admin entry points the
    harness may call once per run; everything a *request* would call is
    booby-trapped.
    """

    def boom(self, *args, **kwargs):
        raise AssertionError("profiler touched on the NULL path")

    for name in ("maybe_start", "record", "open_stage", "close_stage",
                 "finish", "discard"):
        monkeypatch.setattr(profile_context._NullProfiler, name, boom)
    cfg = _cfg()
    cluster = cfg.build()
    result = cfg.run(cluster=cluster)
    assert result.profile is None
    assert len(result.records) == 300
    # No request carried a trace id either.
    assert cluster.obs.profiler.live == 0


def test_profiled_run_is_event_for_event_identical():
    base_cfg = _cfg()
    base_cluster = base_cfg.build()
    base = base_cfg.run(cluster=base_cluster)

    prof_cfg = _cfg(profile=True, profile_sample=1)
    prof_cluster = prof_cfg.build()
    prof = prof_cfg.run(cluster=prof_cluster)

    assert _fingerprint(base) == _fingerprint(prof)
    assert base.span == prof.span
    # Pure observation: not a single extra simulation event.
    assert (base_cluster.sim.events_processed
            == prof_cluster.sim.events_processed)
    # ...and the profiled run actually profiled something.
    assert prof.profile is not None
    assert prof.profile.finished > 0


def test_sampling_profiles_every_nth_request():
    cfg = _cfg(profile=True, profile_sample=10)
    result = cfg.run()
    report = result.profile
    assert report is not None
    issued = 300
    assert report.started == pytest.approx(issued / 10, abs=2)
    assert report.finished == report.started
    assert report.sample_every == 10
