"""Fuzzer machinery: seed derivation, repro lines, shrinking, sweeps."""

import dataclasses
import hashlib
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main, scenario_from_args
from repro.consistency import (ConsistencyReport, Violation, derive,
                               derive_elastic, derive_eventual, fuzz_seeds,
                               repro_line, to_jsonl)
from repro.consistency import fuzz as fuzz_mod
from repro.consistency.fuzz import Scenario, shrink
from tests.golden import load

#: The seeds the consistency-fuzz CI job sweeps, per band.
BANDS = {"linearizability": (derive, range(96)),
         "eventual-convergence": (derive_eventual, range(48)),
         "elasticity": (derive_elastic, range(256))}


@pytest.mark.parametrize("band", sorted(BANDS))
def test_ci_seeds_derive_the_ledgered_scenarios(band):
    """Which scenario each CI seed runs is pinned: a change to a
    derivation shows up as a reviewed diff of the ledger."""
    derive_fn, seeds = BANDS[band]
    ledger = load("fuzz_ledger")["bands"][band]
    for seed in seeds:
        line = repro_line(derive_fn(seed))
        assert line == ledger.get(str(seed)), f"seed {seed} now: {line}"
    assert len(ledger) == len(seeds)


def test_the_ledger_holds_exactly_the_ci_bands():
    """Each ``repro fuzz ... --seeds A:B`` step of the CI workflow sweeps
    exactly the seeds its band's ledger pins."""
    ci = (Path(__file__).resolve().parents[2] / ".github" / "workflows"
          / "ci.yml").read_text()
    swept = {}
    for flags, lo, hi in re.findall(
            r"repro fuzz((?: --[\w-]+)*) --seeds (\d+):(\d+)", ci):
        band = ("eventual-convergence" if "--eventual" in flags else
                "elasticity" if "--elastic" in flags else "linearizability")
        assert band not in swept, f"two CI steps sweep the {band} band"
        swept[band] = list(range(int(lo), int(hi)))
    bands = load("fuzz_ledger")["bands"]
    assert set(swept) == set(bands)
    for band, seeds in swept.items():
        assert sorted(int(seed) for seed in bands[band]) == seeds, band


class TestDerive:
    def test_sweeps_the_config_space(self):
        scenarios = [derive(s) for s in range(40)]
        assert {s.replication for s in scenarios} == {1, 2, 3}
        assert {s.write_mode for s in scenarios} == {"sync", "async"}
        assert {s.router for s in scenarios} == {"modulo", "ketama"}
        assert any(s.fault_specs for s in scenarios)
        assert any(not s.fault_specs for s in scenarios)


class TestReproLine:
    def test_cli_flags_reconstruct_the_scenario(self):
        """``repro check`` rebuilds exactly the scenario each CI seed
        ran from the line the fuzzer prints for it."""
        parser = build_parser()
        for derive_fn, seeds in BANDS.values():
            for seed in seeds:
                scn = derive_fn(seed)
                args = parser.parse_args(["check"] + scn.to_cli_args())
                assert scenario_from_args(args) == scn


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

    def test_seed_67_ends_with_every_server_idle(self, monkeypatch):
        """Regression: seed 67 crashes server2 after an RDMA SET's header
        was picked up and before its parse ended. The worker used to
        park for good on a value rendezvous made after the crash purged
        them, one busy worker too many for the rest of the run."""
        built, build = [], fuzz_mod.build_cluster

        def spy(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(fuzz_mod, "build_cluster", spy)
        report, _events, _recorder = fuzz_mod.run_scenario(derive(67))
        (cluster,) = built
        assert [s._busy_workers for s in cluster.servers] == [0, 0, 0]
        assert [s._value_events for s in cluster.servers] == [{}, {}, {}]
        assert report.ok, report.violations

    def test_a_busy_server_at_quiesce_is_a_violation(self, monkeypatch):
        """The idle check can fire: a worker left busy, or a value
        rendezvous left behind, fails the run's verdict."""
        build = fuzz_mod.build_cluster

        def leaky(*args, **kwargs):
            cluster = build(*args, **kwargs)
            server = cluster.servers[1]
            server._busy_workers += 1
            server._value_events[(0, 0)] = cluster.sim.event()
            return cluster

        monkeypatch.setattr(fuzz_mod, "build_cluster", leaky)
        scn = dataclasses.replace(derive(derive_small_seed()), fault_specs=())
        report, _events, _recorder = fuzz_mod.run_scenario(scn)
        (violation,) = report.violations
        assert (violation.kind, violation.server) == ("busy-at-quiesce", 1)
        assert "1 busy worker(s), 1 SET-value rendezvous" in violation.detail

    def test_a_rendezvous_left_alone_at_quiesce_is_a_violation(
            self, monkeypatch):
        """No worker is busy, but a SET value's dropped marker outlived
        the run (its header never came): the verdict still fails."""
        build = fuzz_mod.build_cluster

        def leaky(*args, **kwargs):
            cluster = build(*args, **kwargs)
            server = cluster.servers[2]
            server._value_events[(0, 0)] = server._dropped_value
            return cluster

        monkeypatch.setattr(fuzz_mod, "build_cluster", leaky)
        scn = dataclasses.replace(derive(derive_small_seed()), fault_specs=())
        report, _events, _recorder = fuzz_mod.run_scenario(scn)
        (violation,) = report.violations
        assert (violation.kind, violation.server) == ("busy-at-quiesce", 2)
        assert "0 busy worker(s), 1 SET-value rendezvous" in violation.detail

    def test_keep_history(self):
        (result,) = fuzz_seeds(
            [derive_small_seed()], keep_history=True)
        assert result.ok and result.events

    def test_progress_line_names_the_history_digest(self, capsys):
        """Each seed's line carries the sha256 of its recorded history,
        so two trees' sweeps diff wherever a run's outcome moved."""
        seed = derive_small_seed()
        (result,) = fuzz_seeds([seed], keep_history=True)
        digest = hashlib.sha256(to_jsonl(result.events).encode()).hexdigest()
        assert result.history == digest[:16]
        assert main(["fuzz", "--seeds", str(seed), "--no-shrink"]) == 0
        (line,) = [ln for ln in capsys.readouterr().out.splitlines()
                   if ln.startswith(f"  seed {seed:>4} ")]
        assert line.endswith(f" history={digest[:16]}")


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
