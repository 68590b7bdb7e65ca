"""CLI surface (``check --seed`` / ``fuzz``) and RunConfig wiring."""

import pytest

from repro.cli import main
from repro.core.cluster import ClusterSpec, ReplicationConfig
from repro.core.profiles import H_RDMA_OPT_NONB_I
from repro.core.topology import TopologyConfig
from repro.harness.runner import RunConfig
from repro.workloads.generator import WorkloadSpec


def run_cli(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


class TestCheckSeed:
    def test_clean_scenario_exits_zero(self, capsys):
        rc, out = run_cli(capsys, "check", "--seed", "7", "--clients",
                          "1", "--ops", "30")
        assert rc == 0
        assert out.startswith("repro check --seed 7")
        assert "consistency: OK" in out

    def test_with_fault_and_replication(self, capsys):
        rc, out = run_cli(capsys, "check", "--seed", "3", "--clients",
                          "1", "--ops", "30", "--replication", "3",
                          "--write-mode", "async",
                          "--fault", "crash:server=1,at=0.004")
        assert rc == 0
        assert "--fault crash:server=1,at=0.004" in out.splitlines()[0]

    @pytest.mark.parametrize("flag, value, echoed", [
        ("--request-timeout", "2ms", "--request-timeout 0.002"),
        ("--eject-duration", "5ms", "--eject-duration 0.005"),
        ("--scale-op", "add@4ms", "--scale-op add@4ms"),
    ])
    def test_time_values_take_unit_suffixes(self, capsys, flag, value,
                                            echoed):
        """``check`` reads times like ``run`` and ``scale`` do
        (``faults.parse_time``); bare seconds still parse, so every
        fuzzer repro line does too."""
        rc, out = run_cli(capsys, "check", "--seed", "3", "--clients",
                          "1", "--ops", "30", flag, value)
        assert rc == 0
        assert echoed in out.splitlines()[0]
        assert "consistency: OK" in out

    def test_history_out(self, capsys, tmp_path):
        out_file = tmp_path / "h.jsonl"
        rc, out = run_cli(capsys, "check", "--seed", "1", "--clients",
                          "1", "--ops", "20", "--history-out",
                          str(out_file))
        assert rc == 0
        assert out_file.exists()
        assert out_file.read_text().count("\n") > 0

    def test_claims_mode_still_reachable(self, capsys):
        # Without --seed, `check` keeps its paper-claims meaning; just
        # verify dispatch (a full claims run is test_harness territory).
        import repro.cli as cli

        captured = {}

        def fake_checks(scale, ops):
            captured.update(scale=scale, ops=ops)
            return []

        import repro.harness.check as chk
        original = chk.run_checks
        chk.run_checks = fake_checks
        try:
            rc = cli.main(["check", "--scale", "2"])
        finally:
            chk.run_checks = original
        capsys.readouterr()
        assert rc == 0
        assert captured == {"scale": 2, "ops": 1200}


class TestFuzzCommand:
    def test_clean_sweep_exits_zero(self, capsys, tmp_path):
        out_dir = tmp_path / "artifacts"
        rc, out = run_cli(capsys, "fuzz", "--seeds", "0:3", "--out",
                          str(out_dir))
        assert rc == 0
        assert "3/3 seeds clean" in out
        assert (out_dir / "repro.txt").exists()

    def test_comma_list(self, capsys):
        rc, out = run_cli(capsys, "fuzz", "--seeds", "3,5")
        assert rc == 0
        assert "2/2 seeds clean" in out


class TestRunConfigWiring:
    def test_check_consistency_populates_result(self):
        cfg = RunConfig(profile=H_RDMA_OPT_NONB_I,
                        workload=WorkloadSpec(num_ops=80, num_keys=40,
                                              value_length=4096),
                        check_consistency=True,
                        cluster=ClusterSpec(
                            topology=TopologyConfig(initial_servers=3),
                            num_clients=2,
                            replication=ReplicationConfig(factor=2)))
        result = cfg.run()
        assert result.consistency is not None
        assert result.consistency.ok
        assert result.history and len(result.history) >= result.ops

    def test_off_by_default(self):
        cfg = RunConfig(profile=H_RDMA_OPT_NONB_I,
                        workload=WorkloadSpec(num_ops=40, num_keys=20,
                                              value_length=4096))
        result = cfg.run()
        assert result.consistency is None
        assert result.history is None
