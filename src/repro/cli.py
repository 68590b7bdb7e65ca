"""Command-line interface: run experiments without writing code.

Usage::

    python -m repro list-profiles
    python -m repro run --profile h-rdma-opt-nonb-i --ops 2000 \
        --value-kb 32 --servers 1 --read-fraction 0.5
    python -m repro ycsb --workload A --profile h-rdma-def
    python -m repro reproduce --figure fig6 --scale 16
    python -m repro stats --profile h-rdma-def --ops 1000
    python -m repro trace --out run.trace.json --ops 500
    python -m repro profile --ycsb A --servers 4 --clients 4 --ops 2000
    python -m repro fuzz --seeds 0:24 --out fuzz-artifacts
    python -m repro check --seed 7 --replication 2 --fault crash:server=1,at=4ms
    python -m repro scale --from 4 --to 8 --at 2ms --traffic diurnal
    python -m repro topology --servers 4 --router ketama
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.core.cluster import ClusterSpec, ReplicationConfig
from repro.core.profiles import ALL_PROFILES
from repro.core.topology import TopologyConfig
from repro.faults import FaultPlan, parse_time
from repro.harness import figures
from repro.harness.report import ascii_table, fmt_pct, fmt_us, obs_report
from repro.harness.runner import RunConfig, ScaleEvent
from repro.storage.params import NVME_SSD, SATA_SSD
from repro.units import KB, MB, MS, US
from repro.workloads.generator import WorkloadSpec
from repro.workloads.traffic import TRAFFIC_SHAPES, make_traffic
from repro.workloads.ycsb import CORE_WORKLOADS, generate_ycsb_ops

DEVICES = {"sata": SATA_SSD, "nvme": NVME_SSD}


def _scale(text: str) -> int:
    """``--scale``: the figures divide the paper's sizes by it, so it is
    a whole number of at least 1."""
    scale = int(text)
    if scale < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {scale}")
    return scale


def _add_cluster_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profile", default="h-rdma-opt-nonb-i",
                   choices=sorted(ALL_PROFILES),
                   help="design profile (default: the paper's proposal)")
    p.add_argument("--servers", type=int, default=1)
    p.add_argument("--clients", type=int, default=1)
    p.add_argument("--server-mem-mb", type=int, default=64,
                   help="memory limit per server (MB)")
    p.add_argument("--ssd-limit-mb", type=int, default=256,
                   help="SSD budget per server (MB)")
    p.add_argument("--device", default="sata", choices=sorted(DEVICES))
    p.add_argument("--async-flush", action="store_true",
                   help="enable asynchronous SSD flushes (future work)")
    p.add_argument("--router", default="modulo",
                   choices=("modulo", "ketama"),
                   help="key->server routing (ketama: consistent hashing, "
                        "needed for clean failover)")
    p.add_argument("--fault", action="append", metavar="KIND:k=v,...",
                   help="inject a fault, repeatable; e.g. "
                        "crash:server=1,at=5ms,duration=20ms — kinds: "
                        "crash, partition, link, ssd; options: server, at, "
                        "duration, factor, wipe (times take us/ms/s)")
    p.add_argument("--request-timeout", default=None, metavar="TIME",
                   help="client completion timeout (e.g. 5ms); turns on "
                        "retry/ejection/failover. Defaults to 5ms when "
                        "--fault is given, else off")
    p.add_argument("--max-retries", type=int, default=2,
                   help="reissues after the first timeout (default 2)")
    p.add_argument("--eject-duration", default=None, metavar="TIME",
                   help="re-probe an ejected server after this long "
                        "(default: never)")
    p.add_argument("--replication", type=int, default=1, metavar="R",
                   help="copies of each key (primary + R-1 successors); "
                        "1 disables replication")
    p.add_argument("--write-mode", default="sync",
                   choices=("sync", "async"),
                   help="sync: writes ack after every replica; async: "
                        "after the primary alone (replicas propagate in "
                        "the background)")
    p.add_argument("--no-active-expiry", action="store_true",
                   help="disable the background TTL sweeper (expired "
                        "items are then reclaimed only on access)")
    p.add_argument("--consensus", action="store_true",
                   help="run the Raft membership group: crash/partition "
                        "faults drive leader elections and epoch-stamped "
                        "view changes that clients route by")
    p.add_argument("--hlc", action="store_true",
                   help="stamp writes with hybrid logical clocks and "
                        "merge replicas last-writer-wins (convergent "
                        "async replication + anti-entropy resync)")


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ops", type=int, default=2000,
                   help="operations per client")
    p.add_argument("--value-kb", type=int, default=32)
    p.add_argument("--keys", type=int, default=0,
                   help="keyspace size (default: from dataset ratio)")
    p.add_argument("--dataset-ratio", type=float, default=1.5,
                   help="dataset bytes / aggregate server memory")
    p.add_argument("--read-fraction", type=float, default=0.5)
    p.add_argument("--distribution", default="zipf",
                   choices=("zipf", "uniform"))
    p.add_argument("--theta", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pattern", default="basic",
                   choices=("basic", "counter", "ttl-churn", "hot-storm"),
                   help="stream shape: basic get/set mix, counter "
                        "(incr/decr-heavy), ttl-churn (expiring "
                        "stores + gat/touch refreshes), or hot-storm "
                        "(rotating single-key flash crowd on the zipf "
                        "base mix)")
    p.add_argument("--ttl", type=float, default=0.0, metavar="SECONDS",
                   help="relative TTL attached to stores (0: none; "
                        "ttl-churn defaults to 50ms)")
    p.add_argument("--storm-fraction", type=float, default=0.3,
                   help="hot-storm: share of ops redirected to the "
                        "storm key (default 0.3)")
    p.add_argument("--storm-phase-ops", type=int, default=100,
                   help="hot-storm: ops per client between storm-key "
                        "rotations (default 100)")


def _num_keys(args) -> int:
    """``--keys``, or as many keys of ``--value-kb`` as fill
    ``--dataset-ratio`` times the servers' aggregate memory."""
    return args.keys or max(8, int(args.dataset_ratio * args.server_mem_mb
                                   * MB * args.servers)
                            // (args.value_kb * KB))


def _workload_spec(args) -> WorkloadSpec:
    return WorkloadSpec(
        num_ops=args.ops,
        num_keys=_num_keys(args),
        value_length=args.value_kb * KB,
        read_fraction=args.read_fraction,
        distribution=args.distribution,
        theta=args.theta,
        seed=args.seed,
        pattern=args.pattern,
        ttl=args.ttl,
        storm_fraction=args.storm_fraction,
        storm_phase_ops=args.storm_phase_ops,
    )


def _fault_plan(args) -> Optional[FaultPlan]:
    if not args.fault:
        return None
    return FaultPlan.parse(args.fault)


def _request_timeout(args) -> Optional[float]:
    if args.request_timeout is not None:
        return parse_time(args.request_timeout)
    if args.fault:
        return 5 * MS  # faults without a timeout would hang the run
    return None


def _build(args, spec: WorkloadSpec, observe: bool = False,
           trace: bool = False, profile: bool = False,
           profile_sample: int = 1) -> RunConfig:
    profile_key = ALL_PROFILES[args.profile]
    eject = args.eject_duration
    cluster_spec = ClusterSpec(
        topology=TopologyConfig(initial_servers=args.servers),
        num_clients=args.clients,
        server_mem=args.server_mem_mb * MB,
        ssd_limit=args.ssd_limit_mb * MB,
        device=DEVICES[args.device],
        async_flush=args.async_flush,
        request_timeout=_request_timeout(args),
        max_retries=args.max_retries,
        eject_duration=parse_time(eject) if eject is not None else None,
        replication=ReplicationConfig(
            factor=args.replication,
            write_mode=args.write_mode,
            router=args.router,
            consensus=args.consensus,
            hlc=args.hlc,
        ),
        active_expiry=not args.no_active_expiry,
        observe=observe,
        trace=trace,
        profile=profile,
        profile_sample=profile_sample,
    )
    return RunConfig(profile=profile_key, workload=spec,
                     cluster=cluster_spec, fault_plan=_fault_plan(args))


def _output_file(path: Optional[str]) -> None:
    """Create the parent directory of an output file flag's ``path``, so
    that the flag fails (if at all) before the run rather than after it."""
    if path:
        Path(path).parent.mkdir(parents=True, exist_ok=True)


def _print_summary(title: str, result) -> None:
    s = result.summary
    print(ascii_table([{
        "ops": int(s["ops"]),
        "mean latency": fmt_us(s["mean_latency"]),
        "effective latency": fmt_us(s["effective_latency"]),
        "p50": fmt_us(s.get("p50_latency", 0.0)),
        "p95": fmt_us(s.get("p95_latency", 0.0)),
        "p99": fmt_us(s["p99_latency"]),
        "throughput": f"{s['throughput']:,.0f} ops/s",
        "overlap": fmt_pct(s["overlap_pct"]),
        "miss rate": f"{s['miss_rate']:.1%}",
    }], title=title))


def cmd_list_profiles(_args) -> int:
    rows = [{
        "key": p.key,
        "label": p.label,
        "transport": p.transport,
        "hybrid": "Y" if p.hybrid else "N",
        "io": p.io_policy,
        "non-blocking": "Y" if p.nonblocking else "N",
        "description": p.description[:60],
    } for p in ALL_PROFILES.values()]
    print(ascii_table(rows, title="Design profiles"))
    return 0


def cmd_run(args) -> int:
    spec = _workload_spec(args)
    cfg = _build(args, spec)
    if args.cprofile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        result = cfg.run()
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(25)
    else:
        result = cfg.run()
    _print_summary(
        f"{ALL_PROFILES[args.profile].label} — {args.ops} ops x "
        f"{args.clients} client(s), {args.value_kb} KB values, "
        f"{spec.num_keys} keys", result)
    return 0


def cmd_stats(args) -> int:
    """Run a workload with live metrics on; print the registry."""
    spec = _workload_spec(args)
    cfg = _build(args, spec, observe=True)
    cluster = cfg.build()
    result = cfg.run(cluster=cluster)
    _print_summary(
        f"{ALL_PROFILES[args.profile].label} — observed run", result)
    print()
    print(obs_report(cluster.obs, match=args.match))
    if args.out:
        from repro.obs.export import write_bundle

        for path in write_bundle(cluster.obs, args.out, prefix="stats"):
            print(f"wrote {path}")
    return 0


def cmd_trace(args) -> int:
    """Run a workload with span tracing on; write a Chrome trace."""
    _output_file(args.out)
    spec = _workload_spec(args)
    cfg = _build(args, spec, observe=True, trace=True)
    cluster = cfg.build()
    result = cfg.run(cluster=cluster)
    _print_summary(
        f"{ALL_PROFILES[args.profile].label} — traced run", result)
    from repro.obs.export import chrome_trace

    path = chrome_trace(cluster.obs.tracer, args.out,
                        metadata={"profile": args.profile,
                                  "ops": args.ops,
                                  "clients": args.clients})
    print(f"\nwrote {path} ({len(cluster.obs.tracer)} spans) — open in "
          "chrome://tracing or https://ui.perfetto.dev")
    return 0


def cmd_profile(args) -> int:
    """Run a workload with causal profiling; print the critical-path
    latency decomposition (per-class percentiles + stage breakdowns)."""
    _output_file(args.json)
    _output_file(args.folded)
    spec = _workload_spec(args)
    cfg = _build(args, spec, profile=True, profile_sample=args.sample)
    if args.ycsb:
        workload = CORE_WORKLOADS[args.ycsb.upper()]
        streams = [generate_ycsb_ops(workload, args.ops, spec.num_keys,
                                     args.value_kb * KB, seed=args.seed,
                                     client_index=i)
                   for i in range(args.clients)]
        result = cfg.run_streams(streams)
        title = (f"YCSB-{workload.name} on "
                 f"{ALL_PROFILES[args.profile].label} — profiled run")
    else:
        result = cfg.run()
        title = f"{ALL_PROFILES[args.profile].label} — profiled run"
    _print_summary(title, result)
    report = result.profile
    if report is None:
        print("\nprofile: (no sampled requests)", file=sys.stderr)
        return 1
    print()
    print(report.table())
    print()
    print(report.breakdown_table())
    print()
    print(report.breakdown_table(q=0.50))
    print()
    print(report.breakdown_table(q=0.99))
    if args.json:
        import json as _json

        Path(args.json).write_text(_json.dumps(report.to_dict(), indent=2))
        print(f"\nwrote {args.json}")
    if args.folded:
        lines = report.folded_lines()
        Path(args.folded).write_text("\n".join(lines)
                                     + ("\n" if lines else ""))
        print(f"wrote {args.folded} ({len(lines)} stacks) — feed to "
              "flamegraph.pl or speedscope")
    return 0


def cmd_ycsb(args) -> int:
    workload = CORE_WORKLOADS[args.workload.upper()]
    num_keys = _num_keys(args)
    spec = WorkloadSpec(num_ops=args.ops, num_keys=num_keys,
                        value_length=args.value_kb * KB, seed=args.seed)
    cfg = _build(args, spec)
    streams = [generate_ycsb_ops(workload, args.ops, num_keys,
                                 args.value_kb * KB, seed=args.seed,
                                 client_index=i)
               for i in range(args.clients)]
    result = cfg.run_streams(streams)
    _print_summary(
        f"YCSB-{workload.name} on {ALL_PROFILES[args.profile].label}",
        result)
    return 0


def cmd_scale(args) -> int:
    """Run a workload while the cluster scales between two sizes and
    report steady-state vs migration-window behaviour."""
    import dataclasses

    args.servers = args.from_servers
    spec = _workload_spec(args)
    cfg = _build(args, spec, observe=True)
    cfg = dataclasses.replace(
        cfg,
        scale_events=(ScaleEvent(at=parse_time(args.at),
                                 servers=args.to_servers),),
        traffic=(make_traffic(args.traffic)
                 if args.traffic != "steady" else None),
    )
    cluster = cfg.build()
    result = cfg.run(cluster=cluster)
    _print_summary(
        f"{ALL_PROFILES[args.profile].label} — scale "
        f"{args.from_servers}->{args.to_servers} at {args.at} "
        f"({args.traffic} traffic)", result)
    reg = cluster.obs.registry

    def _total(name: str) -> int:
        return int(sum(c.value for c in reg.counters(
            lambda m: m.name == name)))

    print()
    print(ascii_table([{
        "migrated items": _total("migration_items"),
        "double reads": _total("double_reads"),
        "final epoch": cluster.view_epoch,
    }], title="Migration"))
    print()
    print(cluster.admin.topology().describe())
    return 0


def cmd_topology(args) -> int:
    """Build the cluster (no workload) and print ring ownership."""
    spec = _workload_spec(args)
    cfg = _build(args, spec)
    cluster = cfg.build()
    print(cluster.admin.topology().describe())
    return 0


def cmd_reproduce(args) -> int:
    names = list(figures.FIGURES) if args.figure == "all" else [args.figure]
    for name in names:
        title, run = figures.FIGURES[name]
        data = run(args.scale, args.ops)
        # Figs 1, 2 and 6 return {"fit": rows, "nofit": rows}.
        show = _show_fig16 if isinstance(data, dict) else _show_rows
        show(data, title)
    return 0


def _show_rows(rows, title) -> None:
    safe = []
    for r in rows:
        safe.append({k: (fmt_us(v) if isinstance(v, float) and v < 1 else v)
                     for k, v in r.items() if not isinstance(v, dict)})
    print(ascii_table(safe, title=title))


def _show_fig16(data, title) -> None:
    """Latency rows of Figures 1, 2 and 6 (Figure 2: and its stages)."""
    rows = []
    for regime in ("fit", "nofit"):
        for r in data[regime]:
            row = {"regime": regime, "design": r["design"],
                   "latency": fmt_us(r["latency"]),
                   "overlap": f"{r['overlap_pct']:.0f}%",
                   "miss": f"{r['miss_rate']:.1%}"}
            for stage, seconds in r.get("breakdown", {}).items():
                row[stage] = f"{seconds / US:.1f}"
            rows.append(row)
    if any("breakdown" in r for r in data["fit"]):
        title += " (stages in mean us per op)"
    print(ascii_table(rows, title=title))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hybrid RDMA+SSD Memcached reproduction (IPDPS 2016)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-profiles",
                   help="show the six design profiles").set_defaults(
        func=cmd_list_profiles)

    run_p = sub.add_parser("run", help="run one custom workload")
    _add_cluster_args(run_p)
    _add_workload_args(run_p)
    # --profile is taken by the design-profile selector, so the wall-clock
    # profiler gets the unambiguous spelling.
    run_p.add_argument("--cprofile", action="store_true",
                       help="dump cProfile top-25 cumulative to stderr")
    run_p.set_defaults(func=cmd_run)

    stats_p = sub.add_parser(
        "stats", help="run a workload with live metrics and print them")
    _add_cluster_args(stats_p)
    _add_workload_args(stats_p)
    stats_p.add_argument("--match", default=None,
                         help="substring filter on metric keys")
    stats_p.add_argument("--out", default=None,
                         help="also write trace/metrics/series bundle here")
    stats_p.set_defaults(func=cmd_stats)

    trace_p = sub.add_parser(
        "trace", help="run a workload and export a Chrome trace timeline")
    _add_cluster_args(trace_p)
    _add_workload_args(trace_p)
    trace_p.add_argument("--out", default="repro.trace.json",
                         help="Chrome trace_event JSON output path")
    trace_p.set_defaults(func=cmd_trace)

    prof_p = sub.add_parser(
        "profile", help="run a workload with per-request causal tracing "
                        "and print the critical-path latency breakdown")
    _add_cluster_args(prof_p)
    _add_workload_args(prof_p)
    prof_p.add_argument("--ycsb", default=None, metavar="A..F",
                        help="drive a YCSB core workload instead of the "
                             "custom read/write mix")
    prof_p.add_argument("--sample", type=int, default=1, metavar="N",
                        help="profile every Nth request (default 1: all)")
    prof_p.add_argument("--json", default=None, metavar="PATH",
                        help="write the full profile report as JSON")
    prof_p.add_argument("--folded", default=None, metavar="PATH",
                        help="write folded stacks (flamegraph.pl format)")
    prof_p.set_defaults(func=cmd_profile)

    ycsb_p = sub.add_parser("ycsb", help="run a YCSB core workload")
    _add_cluster_args(ycsb_p)
    ycsb_p.add_argument("--workload", default="A",
                        choices=sorted(CORE_WORKLOADS) +
                        [w.lower() for w in CORE_WORKLOADS])
    ycsb_p.add_argument("--ops", type=int, default=2000)
    ycsb_p.add_argument("--value-kb", type=int, default=8)
    ycsb_p.add_argument("--keys", type=int, default=0)
    ycsb_p.add_argument("--dataset-ratio", type=float, default=1.5)
    ycsb_p.add_argument("--seed", type=int, default=1)
    ycsb_p.set_defaults(func=cmd_ycsb)

    scale_p = sub.add_parser(
        "scale", help="run a workload while elastically resizing the "
                      "cluster (online shard migration under live "
                      "traffic) and report migration counters")
    _add_cluster_args(scale_p)
    _add_workload_args(scale_p)
    scale_p.add_argument("--from", dest="from_servers", type=int,
                         default=4, metavar="N",
                         help="initial server count (default 4)")
    scale_p.add_argument("--to", dest="to_servers", type=int, default=8,
                         metavar="N",
                         help="target server count (default 8)")
    scale_p.add_argument("--at", default="2ms", metavar="TIME",
                         help="sim time of the resize (default 2ms)")
    scale_p.add_argument("--traffic", default="steady",
                         choices=sorted(TRAFFIC_SHAPES),
                         help="traffic shape pacing the clients: steady, "
                              "diurnal (sinusoidal), or spike (flash "
                              "crowd)")
    scale_p.set_defaults(func=cmd_scale)

    topo_p = sub.add_parser(
        "topology", help="print ring ownership per server at the "
                         "current view epoch")
    _add_cluster_args(topo_p)
    _add_workload_args(topo_p)
    topo_p.set_defaults(func=cmd_topology)

    rep_p = sub.add_parser("reproduce",
                           help="regenerate a paper table/figure")
    rep_p.add_argument("--figure", default="all",
                       choices=["all", *figures.FIGURES])
    rep_p.add_argument("--scale", type=_scale, default=16)
    rep_p.add_argument("--ops", type=int, default=1200)
    rep_p.set_defaults(func=cmd_reproduce)

    chk_p = sub.add_parser("check",
                           help="grade the paper's claims against this "
                                "build (artifact evaluation), or — with "
                                "--seed — replay one consistency-fuzz "
                                "scenario and check its history")
    chk_p.add_argument("--scale", type=_scale, default=16)
    chk_p.add_argument("--ops", type=int, default=None,
                       help="claims: ops per run (default 1200); "
                            "consistency: ops per client (default 120)")
    _add_consistency_args(chk_p)
    chk_p.set_defaults(func=cmd_check)

    fuzz_p = sub.add_parser(
        "fuzz", help="sweep consistency-fuzz seeds (randomized fault "
                     "schedules x replication x write mode x router), "
                     "check every history, shrink failures to one-line "
                     "repros")
    fuzz_p.add_argument("--seeds", default="0:24", metavar="A:B|N,N,...",
                        help="seed range a:b (half-open) or comma list "
                             "(default 0:24)")
    fuzz_p.add_argument("--no-shrink", action="store_true",
                        help="skip minimizing failing scenarios")
    fuzz_p.add_argument("--out", default=None, metavar="DIR",
                        help="write failing histories (JSONL) and "
                             "repro lines here")
    fuzz_p.add_argument("--eventual", action="store_true",
                        help="fuzz the eventual-consistency band instead: "
                             "partition-heavy async/HLC scenarios checked "
                             "for post-quiesce convergence")
    fuzz_p.add_argument("--elastic", action="store_true",
                        help="fuzz the elasticity band instead: scale "
                             "add/remove events (racing optional faults) "
                             "during the run")
    fuzz_p.set_defaults(func=cmd_fuzz)

    exp_p = sub.add_parser("export",
                           help="write figure data as JSON for plotting")
    exp_p.add_argument("--figure", default="all",
                       choices=["all", *figures.FIGURES])
    exp_p.add_argument("--out", default="figure_data",
                       help="output directory (or file for one figure)")
    exp_p.add_argument("--scale", type=_scale, default=16)
    exp_p.add_argument("--ops", type=int, default=1200)
    exp_p.set_defaults(func=cmd_export)

    return parser


def _add_consistency_args(p: argparse.ArgumentParser) -> None:
    """Flags mirroring :class:`repro.consistency.Scenario` — the
    ``repro check --seed N ...`` repro line the fuzzer prints."""
    p.add_argument("--seed", type=int, default=None,
                   help="consistency mode: replay this fuzz scenario "
                        "(all other flags default to Scenario defaults)")
    p.add_argument("--servers", type=int, default=3)
    p.add_argument("--clients", type=int, default=2)
    p.add_argument("--keys", type=int, default=24)
    p.add_argument("--value-length", type=int, default=4096)
    p.add_argument("--replication", type=int, default=2, metavar="R")
    p.add_argument("--write-mode", default="sync",
                   choices=("sync", "async"))
    p.add_argument("--router", default="ketama",
                   choices=("modulo", "ketama"))
    p.add_argument("--request-timeout", type=parse_time, default=2e-3,
                   metavar="TIME")
    p.add_argument("--eject-duration", type=parse_time, default=5e-3,
                   metavar="TIME")
    p.add_argument("--server-mem-mb", type=int, default=4)
    p.add_argument("--ssd-limit-mb", type=int, default=32)
    p.add_argument("--fault", action="append", metavar="KIND:k=v,...",
                   help="fault spec (repeatable), FaultPlan.parse format")
    p.add_argument("--ttl-ops", action="store_true",
                   help="mix TTL-bearing ops into the fuzz stream "
                        "(set-with-ttl / gat / touch / rare flush_all)")
    p.add_argument("--counter-ops", action="store_true",
                   help="mix incr/decr (with and without auto-create) "
                        "into the fuzz stream")
    p.add_argument("--consensus", action="store_true",
                   help="run the Raft membership group during the replay")
    p.add_argument("--hlc", action="store_true",
                   help="HLC-stamped writes with last-writer-wins merge; "
                        "with --write-mode async the history is checked "
                        "for eventual convergence instead")
    p.add_argument("--scale-op", action="append", metavar="SPEC",
                   help="elastic event during the replay (repeatable): "
                        "add@TIME, remove@TIME, or remove:IDX@TIME "
                        "(e.g. add@4ms; bare numbers are seconds)")
    p.add_argument("--history-out", default=None, metavar="FILE",
                   help="also write the recorded history as JSONL")


def scenario_from_args(args):
    """The :class:`~repro.consistency.Scenario` a ``repro check --seed``
    command line describes (the inverse of ``Scenario.to_cli_args``)."""
    from repro.consistency import Scenario

    return Scenario(
        seed=args.seed,
        num_servers=args.servers,
        num_clients=args.clients,
        ops_per_client=args.ops if args.ops is not None else 120,
        num_keys=args.keys,
        value_length=args.value_length,
        replication=args.replication,
        write_mode=args.write_mode,
        router=args.router,
        fault_specs=tuple(args.fault or ()),
        request_timeout=args.request_timeout,
        eject_duration=args.eject_duration,
        server_mem_mb=args.server_mem_mb,
        ssd_limit_mb=args.ssd_limit_mb,
        ttl_ops=args.ttl_ops,
        counter_ops=args.counter_ops,
        consensus=args.consensus,
        hlc=args.hlc,
        scale_specs=tuple(args.scale_op or ()),
    )


def cmd_check_consistency(args) -> int:
    from repro.consistency import repro_line, run_scenario

    scn = scenario_from_args(args)
    _output_file(args.history_out)
    print(repro_line(scn))
    report, events, _recorder = run_scenario(scn)
    if args.history_out:
        from repro.consistency import to_jsonl

        Path(args.history_out).write_text(to_jsonl(events))
        print(f"wrote {args.history_out} ({len(events)} events)")
    print(report.summary())
    for violation in report.violations:
        print(f"  {violation}")
    return 0 if report.ok else 1


def cmd_fuzz(args) -> int:
    from repro.consistency import (derive, derive_elastic, derive_eventual,
                                   fuzz_seeds, to_jsonl)

    try:
        if ":" in args.seeds:
            lo, hi = args.seeds.split(":", 1)
            seeds = list(range(int(lo), int(hi)))
        else:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        seeds = []
    if not seeds:
        # A sweep of nothing would report "0/0 seeds clean" and pass.
        print(f"--seeds {args.seeds!r} names no seed (A:B with A < B, "
              "or N,N,...)", file=sys.stderr)
        return 2
    eventual, elastic = args.eventual, args.elastic
    if eventual and elastic:
        print("--eventual and --elastic are mutually exclusive",
              file=sys.stderr)
        return 2

    def progress(result) -> None:
        mark = "ok  " if result.ok else "FAIL"
        scn = result.scenario
        faults = ";".join(scn.fault_specs) or "-"
        extras = ""
        if scn.consensus:
            extras += "/raft"
        if scn.hlc:
            extras += "/hlc"
        scaling = ""
        if scn.scale_specs:
            scaling = f" scale={';'.join(scn.scale_specs)}"
        print(f"  seed {result.seed:>4} {mark} R={scn.replication} "
              f"{scn.write_mode}/{scn.router}{extras} faults={faults}"
              f"{scaling} "
              f"({result.report.mode}: {result.report.verdict}, "
              f"{result.report.ops_checked} ops) history={result.history}")

    if eventual:
        band, derive_fn = "eventual-convergence", derive_eventual
    elif elastic:
        band, derive_fn = "elasticity", derive_elastic
    else:
        band, derive_fn = "linearizability", derive
    print(f"fuzzing {len(seeds)} seed(s) [{band} band]...")
    results = fuzz_seeds(seeds, shrink_failures=not args.no_shrink,
                         progress=progress, derive_fn=derive_fn)
    failures = [r for r in results if not r.ok]
    if args.out:
        import json as _json

        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        lines = []
        for r in failures:
            (out / f"seed{r.seed}.history.jsonl").write_text(
                to_jsonl(r.events))
            lines.append(r.repro or "")
        (out / "repro.txt").write_text(
            "\n".join(lines) + ("\n" if lines else ""))
        (out / "reports.json").write_text(_json.dumps(
            {str(r.seed): r.report.to_dict() for r in results},
            indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(failures)} failing histories, repro.txt, and "
              f"reports.json to {out}")
    print(f"\n{len(results) - len(failures)}/{len(results)} seeds clean")
    for r in failures:
        print(f"  seed {r.seed}: {r.report.violations[0]}")
        if r.repro:
            print(f"    repro: {r.repro}")
    return 1 if failures else 0


def cmd_check(args) -> int:
    if args.seed is not None:
        return cmd_check_consistency(args)
    from repro.harness.check import run_checks, summarize_verdicts

    verdicts = run_checks(scale=args.scale,
                          ops=args.ops if args.ops is not None else 1200)
    print(ascii_table([v.row for v in verdicts],
                      title="Paper-claim check "
                            f"(scale={args.scale})"))
    summary = summarize_verdicts(verdicts)
    print(f"\n{summary['PASS']} PASS, {summary['SHAPE']} SHAPE "
          f"(direction holds, magnitude off), {summary['FAIL']} FAIL")
    return 1 if summary["FAIL"] else 0


def cmd_export(args) -> int:
    from repro.harness.export import export_all, export_figure

    if args.figure == "all":
        paths = export_all(args.out, scale=args.scale, ops=args.ops)
        for p in paths:
            print(f"wrote {p}")
    else:
        out = args.out
        if not out.endswith(".json"):
            out = f"{out}/{args.figure}.json"
        _output_file(out)
        print(f"wrote {export_figure(args.figure, out, scale=args.scale, ops=args.ops)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
