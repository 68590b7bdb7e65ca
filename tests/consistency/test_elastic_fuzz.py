"""Elasticity fuzz band: derive_elastic scenarios and their scale specs.

Every elastic scenario must scale, and be green when actually run —
scale events racing optional faults stay linearizable. Which scenario
each CI seed derives, and its ``repro check`` round trip, are checked
with the other bands in ``test_fuzz.py``.
"""

import pytest

from repro.consistency import derive_elastic, run_scenario
from repro.consistency.fuzz import Scenario, _parse_scale_spec


class TestDerive:
    def test_every_scenario_scales(self):
        for seed in range(24):
            scn = derive_elastic(seed)
            assert scn.scale_specs
            assert scn.replication == 1  # elastic ops require R=1
            for spec in scn.scale_specs:
                action, index, at = _parse_scale_spec(spec)
                assert action in ("add", "remove")
                assert at > 0

    def test_band_varies_the_interesting_axes(self):
        scenarios = [derive_elastic(s) for s in range(32)]
        assert {s.router for s in scenarios} == {"modulo", "ketama"}
        actions = {_parse_scale_spec(sp)[0]
                   for s in scenarios for sp in s.scale_specs}
        assert actions == {"add", "remove"}
        assert any(s.consensus for s in scenarios)
        assert any(s.fault_specs for s in scenarios)


class TestCliRoundTrip:
    def test_parse_scale_spec_forms(self):
        assert _parse_scale_spec("add@0.004") == ("add", None, 0.004)
        assert _parse_scale_spec("remove@0.004") == ("remove", None, 0.004)
        assert _parse_scale_spec("remove:1@0.002") == ("remove", 1, 0.002)
        with pytest.raises(ValueError):
            _parse_scale_spec("grow@0.004")


class TestRun:
    @pytest.mark.parametrize("seed", [0, 2, 3])
    def test_elastic_seeds_stay_green(self, seed):
        scn = derive_elastic(seed)
        report, events, _recorder = run_scenario(scn)
        assert report.ok, report.violations
        assert events

    def test_manual_scenario_with_scale_and_handoff(self):
        scn = Scenario(seed=5, num_servers=2, num_clients=2,
                       ops_per_client=60, replication=1,
                       router="ketama", scale_specs=("add@0.003",))
        report, _events, _recorder = run_scenario(scn)
        assert report.ok, report.violations
