"""TopologyConfig: the typed topology surface.

``ClusterSpec(topology=TopologyConfig(initial_servers=4))`` is the only
spelling of fleet size; the ``num_servers`` keyword it replaced is
rejected like any other unknown field
(``tests/harness/test_runconfig.py::test_removed_keywords_are_rejected``).
"""

import pytest

from repro.core.cluster import build_cluster
from repro.core.profiles import H_RDMA_OPT_NONB_I
from repro.core.topology import (AutoscalePolicy, TopologyConfig,
                                 TopologySnapshot)
from repro.units import MB


class TestValidation:
    def test_initial_servers_must_be_positive(self):
        with pytest.raises(ValueError):
            TopologyConfig(initial_servers=0)

    def test_handoff_knobs_are_rejected(self):
        # Publish-first / pull-on-miss is the only migration protocol:
        # there is no mode to pick and no relay hop to size.
        with pytest.raises(TypeError):
            TopologyConfig(handoff="double-read")
        with pytest.raises(TypeError):
            TopologyConfig(forward_hop=3e-6)

    def test_migration_batch_must_be_positive(self):
        with pytest.raises(ValueError):
            TopologyConfig(migration_batch=0)

    def test_negative_timings_rejected(self):
        with pytest.raises(ValueError):
            TopologyConfig(migration_interval=-1e-6)
        with pytest.raises(ValueError):
            TopologyConfig(drain_delay=-1.0)

    def test_autoscale_watermarks_ordered(self):
        with pytest.raises(ValueError):
            AutoscalePolicy(low_watermark=9.0, high_watermark=1.0)

    def test_autoscale_bounds_ordered(self):
        with pytest.raises(ValueError):
            AutoscalePolicy(min_servers=4, max_servers=2)
        with pytest.raises(ValueError):
            AutoscalePolicy(min_servers=0)


class TestAdminQueries:
    def test_snapshot_shape_and_describe(self):
        cluster = build_cluster(
            H_RDMA_OPT_NONB_I,
            topology=TopologyConfig(initial_servers=3),
            server_mem=16 * MB, ssd_limit=64 * MB)
        snap = cluster.admin.topology()
        assert isinstance(snap, TopologySnapshot)
        assert snap.epoch == 0
        assert snap.ring_size == 3
        assert snap.serving == (0, 1, 2)
        assert snap.excluded == ()
        assert not snap.migrating
        assert sum(snap.ownership) == pytest.approx(1.0)
        text = snap.describe()
        assert "server0" in text and "server2" in text
        assert "serving" in text
