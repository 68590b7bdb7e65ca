"""Fuzzer machinery: seed derivation, repro lines, shrinking, sweeps."""

import dataclasses
import shlex

import pytest

from repro.cli import build_parser, main
from repro.consistency import (ConsistencyReport, Violation, derive,
                               fuzz_seeds, repro_line)
from repro.consistency import fuzz as fuzz_mod
from repro.consistency.fuzz import Scenario, shrink


class TestDerive:
    def test_deterministic(self):
        assert derive(5) == derive(5)
        assert derive(5) != derive(6)

    def test_sweeps_the_config_space(self):
        scenarios = [derive(s) for s in range(40)]
        assert {s.replication for s in scenarios} == {1, 2, 3}
        assert {s.write_mode for s in scenarios} == {"sync", "async"}
        assert {s.router for s in scenarios} == {"modulo", "ketama"}
        assert {s.fast_lane for s in scenarios} == {True, False}
        assert any(s.fault_specs for s in scenarios)
        assert any(not s.fault_specs for s in scenarios)


class TestReproLine:
    def test_cli_flags_reconstruct_the_scenario(self):
        scn = derive(17)
        args = build_parser().parse_args(["check"] + scn.to_cli_args())
        rebuilt = Scenario(
            seed=args.seed, num_servers=args.servers,
            num_clients=args.clients, ops_per_client=args.ops,
            num_keys=args.keys, value_length=args.value_length,
            replication=args.replication, write_mode=args.write_mode,
            router=args.router, fast_lane=not args.legacy_sim,
            fault_specs=tuple(args.fault or ()),
            request_timeout=args.request_timeout,
            eject_duration=args.eject_duration,
            server_mem_mb=args.server_mem_mb,
            ssd_limit_mb=args.ssd_limit_mb,
            consensus=args.consensus, hlc=args.hlc)
        assert rebuilt == scn

    def test_line_is_one_command(self):
        line = repro_line(derive(17))
        assert line.startswith("repro check --seed 17")
        assert "\n" not in line


class TestShrink:
    def test_minimizes_while_failure_survives(self, monkeypatch):
        # Stand-in oracle: the "bug" needs the crash fault and nothing
        # else; shrink must strip the partition, the ops, the clients.
        def fake_run(scn, *, full=True):
            failing = any("crash" in s for s in scn.fault_specs)
            violations = ((Violation("stale-read", "k", 0, "stub"),)
                          if failing else ())
            return ConsistencyReport(violations=violations), [], None

        monkeypatch.setattr(fuzz_mod, "run_scenario", fake_run)
        scn = Scenario(seed=1, num_clients=2, ops_per_client=120,
                       fault_specs=("partition:server=1,at=0.002,"
                                    "duration=0.001",
                                    "crash:server=0,at=0.001"))
        small = shrink(scn)
        assert small.fault_specs == ("crash:server=0,at=0.001",)
        assert small.ops_per_client == 10
        assert small.num_clients == 1

    def test_budget_bounds_reruns(self, monkeypatch):
        calls = []

        def fake_run(scn, *, full=True):
            calls.append(scn)
            report = ConsistencyReport(
                violations=(Violation("stale-read", "k", 0, "stub"),))
            return report, [], None

        monkeypatch.setattr(fuzz_mod, "run_scenario", fake_run)
        scn = Scenario(seed=1, num_clients=2, ops_per_client=4096,
                       fault_specs=tuple(
                           f"crash:server=0,at=0.00{i+1}"
                           for i in range(3)))
        shrink(scn, max_runs=5)
        assert len(calls) <= 5


class TestFuzzSeeds:
    def test_clean_sweep(self):
        seen = []
        results = fuzz_seeds(range(3), progress=seen.append)
        assert len(results) == len(seen) == 3
        assert all(r.ok for r in results)
        assert all(r.shrunk is None and r.repro is None for r in results)

    def test_failure_gets_shrunk_repro(self, monkeypatch):
        def fake_run(scn, *, full=True):
            report = ConsistencyReport(
                violations=(Violation("stale-read", "k", 0, "stub"),))
            return report, [], None

        monkeypatch.setattr(fuzz_mod, "run_scenario", fake_run)
        (result,) = fuzz_seeds([9])
        assert not result.ok
        assert result.shrunk is not None
        assert result.repro == repro_line(result.shrunk)

    def test_keep_history(self):
        (result,) = fuzz_seeds(
            [derive_small_seed()], keep_history=True)
        assert result.ok and result.events


def derive_small_seed() -> int:
    # Any seed whose derived scenario is small keeps this test quick.
    for seed in range(64):
        scn = derive(seed)
        if scn.num_clients == 1 and scn.ops_per_client <= 80:
            return seed
    return 0


class TestShrunkRepros:
    """Repro lines the fuzzer once printed for real bugs, replayed
    through the CLI exactly as printed (exit 0 = history checked clean)."""

    @pytest.mark.parametrize("line", [
        # A server added by add_server is wired into the client before
        # the grown view is applied; with every in-ring server then
        # crashed, routing must end the op SERVER_DOWN instead of
        # raising "no live servers" out of the simulation.
        "repro check --seed 629 --servers 2 --clients 1 --ops 80 "
        "--keys 24 --value-length 1024 --replication 1 --write-mode sync "
        "--router ketama --request-timeout 0.002 --eject-duration 0.005 "
        "--server-mem-mb 4 --ssd-limit-mb 32 --consensus "
        "--fault crash:server=0,at=0.0024420808850184523 "
        "--fault crash:server=1,at=0.0026 --scale-op add@0.002429",
        # An HLC-stamped SET that loses last-writer-wins to an
        # overlapping DELETE still answers STORED (token 0); the checker
        # must not ask the search to place it as an apply.
        "repro check --seed 782 --servers 2 --clients 2 --ops 120 "
        "--keys 24 --value-length 4096 --replication 1 --write-mode sync "
        "--router ketama --request-timeout 0.002 --eject-duration 0.005 "
        "--server-mem-mb 4 --ssd-limit-mb 32 --hlc",
    ], ids=["client-route-outside-ring", "hlc-write-lost-to-delete"])
    def test_repro_line_checks_clean(self, line, capsys):
        assert main(shlex.split(line)[1:]) == 0, capsys.readouterr().out
