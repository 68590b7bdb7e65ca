"""Eventual-consistency checking of HLC-convergent async replication.

The partition-heavy fuzz band (``derive_eventual``) must converge —
replicas agree per key after quiesce, and every winner is justified by
HLC order — and the checker must catch a seeded divergence mutant whose
resync ignores the stamps (the pre-HLC fill-holes behaviour).
"""

import dataclasses

import pytest

from repro.consistency import derive, derive_eventual
from repro.consistency.fuzz import run_scenario
from repro.core.cluster import Cluster

#: Local slice of the CI band; the full 48-seed sweep runs in CI.
BAND = range(8)


class TestDeriveEventual:
    def test_band_shape(self):
        for seed in range(40):
            scn = derive_eventual(seed)
            assert scn.hlc
            assert scn.write_mode == "async"
            assert scn.replication >= 2
            assert scn.fault_specs
            # Partition-only, and every partition heals: convergence is
            # only promised once the replicas can talk again.
            for spec in scn.fault_specs:
                assert spec.startswith("partition:")
                assert "duration=" in spec
        assert {derive_eventual(s).consensus for s in range(40)} == \
            {True, False}
        assert {derive_eventual(s).router for s in range(40)} == \
            {"modulo", "ketama"}


class TestConvergence:
    @pytest.mark.parametrize("seed", BAND)
    def test_band_converges(self, seed):
        report, events, _ = run_scenario(derive_eventual(seed), full=True)
        assert report.mode == "eventual"
        assert report.ok, report.summary()
        assert report.ops_checked == len(events) > 0
        assert report.keys_checked > 0

    def test_sync_scenarios_still_check_linearizability(self):
        scn = dataclasses.replace(derive(0), hlc=False)
        report, _, _ = run_scenario(scn, full=True)
        assert report.mode == "linearizable"


class TestDivergenceMutant:
    """Resync that ignores HLC stamps (copy only missing keys, drop
    tombstones) leaves replicas disagreeing; the checker must say so."""

    @staticmethod
    def legacy_merge(src, dst, dst_index, router, r, alive=None):
        moved = 0
        table = dst.manager.table
        for key, value_length, expiration, numeric, _hlc in \
                src.manager.live_items():
            if key in table \
                    or dst_index not in router.replicas_for(key, r, alive):
                continue
            dst.manager.preload(key, value_length, expiration=expiration,
                                numeric=numeric)
            moved += 1
        return moved

    def test_mutant_caught(self, monkeypatch):
        monkeypatch.setattr(Cluster, "_merge_lww",
                            staticmethod(self.legacy_merge))
        caught = []
        for seed in BAND:
            report, _, _ = run_scenario(derive_eventual(seed), full=True)
            caught.extend(v.kind for v in report.violations)
        assert "diverged" in caught
