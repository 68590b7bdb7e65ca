"""ReplicationConfig: the typed replication surface.

``ClusterSpec(replication=ReplicationConfig(...))`` is the only spelling
of factor, write mode and router; the flat keywords it replaced are
rejected like any other unknown field
(``tests/harness/test_runconfig.py::test_removed_keywords_are_rejected``).
"""

import pytest

from repro.core.cluster import ReplicationConfig, build_cluster
from repro.core.profiles import RDMA_MEM
from repro.core.topology import TopologyConfig


class TestValidation:
    def test_factor_must_be_positive(self):
        with pytest.raises(ValueError):
            ReplicationConfig(factor=0)

    def test_write_mode_validated(self):
        with pytest.raises(ValueError):
            ReplicationConfig(factor=2, write_mode="eventual")

    def test_factor_bounded_by_cluster_size(self):
        with pytest.raises(ValueError):
            build_cluster(RDMA_MEM,
                          topology=TopologyConfig(initial_servers=2),
                          replication=ReplicationConfig(factor=3))
