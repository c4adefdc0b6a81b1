"""Command-line interface: ``python -m repro <command>``.

Small, scriptable entry points over the library's main flows:

* ``table1`` / ``platforms`` — the paper's summary tables;
* ``run`` — sample a BayesSuite workload and print posterior summaries;
* ``characterize`` — profile a workload and simulate its hardware counters;
* ``elide`` — run with convergence detection and report the savings;
* ``census`` — the Section VII-A distribution census;
* ``subsample`` — the Section VII-B cache-fitting data-subsampling advice;
* ``submit`` / ``serve`` — queue sampling jobs and drain them through the
  :mod:`repro.serve` inference service (parallel chains, mid-run
  elision); ``serve --http PORT`` additionally exposes the
  :mod:`repro.gateway` HTTP API from the same process, and ``submit
  --remote URL`` sends the job to such a gateway instead of the local
  queue file (see ``docs/gateway.md``);
* ``metrics`` / ``report`` — render one or more recorded metrics snapshots
  (merged) as Prometheus text, or as the Markdown runtime report (see
  ``docs/telemetry.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

#: Posterior summary rows ``repro run`` prints.
SUMMARY_ROWS = 12


def _add_workload_argument(parser: argparse.ArgumentParser) -> None:
    from repro.suite import workload_names

    parser.add_argument("workload", choices=workload_names())


def _add_engine_argument(parser: argparse.ArgumentParser) -> None:
    from repro.inference import engine_names

    parser.add_argument("--engine", choices=engine_names(), default="nuts")


def _add_snapshot_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--queue-dir", default=".repro-serve")
    parser.add_argument("--snapshot", action="append", default=None,
                        dest="snapshots", metavar="PATH",
                        help="snapshot file (repeatable: multiple "
                             "snapshots are merged — counters and "
                             "histograms sum, gauges last-write-win; "
                             "default: <queue-dir>/metrics.json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BayesSuite reproduction (ISPASS 2019) command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the Table I workload summary")
    sub.add_parser("platforms", help="print the Table II platform summary")
    sub.add_parser("census", help="distribution census across the suite")

    run = sub.add_parser("run", help="sample a workload and summarize")
    _add_workload_argument(run)
    run.add_argument("--iterations", type=int, default=400)
    run.add_argument("--chains", type=int, default=4)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--scale", type=float, default=0.5)
    _add_engine_argument(run)
    run.add_argument("--no-suffstats", action="store_true",
                     help="disable the sufficient-statistics tape rewrite "
                          "for this run (same as REPRO_SUFFSTATS=0); with "
                          "the rewrite on, draws match the unrewritten "
                          "path within documented tolerances")

    char = sub.add_parser("characterize", help="profile + simulated counters")
    _add_workload_argument(char)
    char.add_argument("--cores", type=int, default=4)
    char.add_argument("--chains", type=int, default=4)

    elide = sub.add_parser("elide", help="run with convergence detection")
    _add_workload_argument(elide)
    elide.add_argument("--iterations", type=int, default=400)
    elide.add_argument("--seed", type=int, default=0)
    elide.add_argument("--scale", type=float, default=0.5)

    subsample = sub.add_parser(
        "subsample", help="cache-fitting data-subsampling recommendation"
    )
    _add_workload_argument(subsample)
    subsample.add_argument("--platform", choices=("skylake", "broadwell"),
                           default="skylake")
    subsample.add_argument("--chains", type=int, default=4)

    report = sub.add_parser(
        "report", help="render recorded serve metrics as a Markdown report"
    )
    _add_snapshot_arguments(report)

    submit = sub.add_parser(
        "submit", help="queue a sampling job for `repro serve`"
    )
    _add_workload_argument(submit)
    submit.add_argument("--iterations", type=int, default=400)
    submit.add_argument("--warmup", type=int, default=None,
                        help="warmup iterations (default: half)")
    submit.add_argument("--chains", type=int, default=4)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--scale", type=float, default=0.5)
    _add_engine_argument(submit)
    submit.add_argument("--mode", choices=("fast", "checked", "exact"),
                        default="exact",
                        help="serving tier: amortized surrogate (fast), "
                             "PSIS-gated surrogate with escalation to "
                             "exact MCMC (checked), or full MCMC (exact)")
    submit.add_argument("--priority", type=int, default=0,
                        help="higher runs first")
    submit.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="end-to-end deadline: the job is shed, "
                             "expired, or answered with the draws it has "
                             "(degraded) once this many seconds pass after "
                             "submission")
    submit.add_argument("--no-elide", action="store_true",
                        help="always run the full budget")
    submit.add_argument("--checkpoint-every", type=int, default=0,
                        help="iterations between chain checkpoints (0: off)")
    submit.add_argument("--queue-dir", default=".repro-serve")
    submit.add_argument("--shards", type=int, default=None, metavar="K",
                        help="submit into a K-shard fleet queue under "
                             "<queue-dir>, routed by the placement ring")
    submit.add_argument("--fleet", default=None, metavar="FILE",
                        help="fleet topology JSON driving the routing ring "
                             "(implies sharded submit)")
    submit.add_argument("--remote", default=None, metavar="URL",
                        help="submit to a gateway (`repro serve --http`) "
                             "instead of the local queue file")
    submit.add_argument("--token", default=None,
                        help="bearer token for --remote")
    submit.add_argument("--wait", action="store_true",
                        help="with --remote: block until the job is "
                             "terminal and print its summary")

    serve = sub.add_parser(
        "serve", help="run queued jobs through the inference service"
    )
    serve.add_argument("--drain", action="store_true",
                       help="run every queued job to completion, then exit")
    serve.add_argument("--queue-dir", default=".repro-serve")
    serve.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: min(4, cores))")
    serve.add_argument("--guide-dir", default=None,
                       help="directory of persisted amortized guides "
                            "(default: <queue-dir>/guides)")
    serve.add_argument("--max-attempts", type=int, default=3,
                       help="execution attempts per job before it is "
                            "quarantined as failed")
    serve.add_argument("--metrics-file", default=None,
                       help="Prometheus text file, rewritten atomically "
                            "after every job attempt (for a textfile "
                            "collector to scrape)")
    serve.add_argument("--http", type=int, default=None, metavar="PORT",
                       help="also serve the gateway HTTP API on this port "
                            "(0 picks an ephemeral port) while draining; "
                            "runs until interrupted")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address for --http")
    serve.add_argument("--token", action="append", default=None,
                       dest="tokens", metavar="TOKEN",
                       help="bearer token accepted by --http (repeatable; "
                            "no --token disables auth)")
    serve.add_argument("--rate-limit", type=float, default=None,
                       help="per-token request rate for --http "
                            "(requests/second; off by default)")
    serve.add_argument("--burst", type=int, default=None,
                       help="rate-limiter burst capacity "
                            "(default: ceil(rate))")
    serve.add_argument("--max-expected-wait", type=float, default=None,
                       metavar="SECONDS",
                       help="shed submissions (503 + Retry-After) once the "
                            "estimated queue wait exceeds this (off by "
                            "default; deadline-infeasible jobs are always "
                            "shed when they carry a deadline)")
    serve.add_argument("--brownout-after", type=float, default=None,
                       metavar="SECONDS",
                       help="enter brownout (checked-tier jobs served from "
                            "the surrogate without escalation) when the "
                            "estimated queue wait stays above this; "
                            "recovers when the wait falls back under it")
    serve.add_argument("--shards", type=int, default=None, metavar="K",
                       help="fleet mode (requires --http): drain a K-shard "
                            "leased queue under <queue-dir> instead of the "
                            "single JSONL log (see docs/fleet.md)")
    serve.add_argument("--replica-id", default=None,
                       help="this replica's fleet identity (default: "
                            "host-pid)")
    serve.add_argument("--fleet", default=None, metavar="FILE",
                       help="fleet topology JSON (replicas, platforms, "
                            "preferred shards); implies fleet mode and "
                            "overrides --shards")

    fleet = sub.add_parser(
        "fleet", help="inspect a fleet of gateway replicas"
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_status = fleet_sub.add_parser(
        "status", help="aggregate health across replicas + on-disk leases"
    )
    fleet_status.add_argument("--url", action="append", default=None,
                              dest="urls", metavar="URL",
                              help="replica gateway URL (repeatable)")
    fleet_status.add_argument("--fleet", default=None, metavar="FILE",
                              help="fleet topology JSON; its box URLs are "
                                   "polled when no --url is given")
    fleet_status.add_argument("--queue-dir", default=".repro-serve",
                              help="sharded queue root for the on-disk "
                                   "lease/depth table")
    fleet_status.add_argument("--shards", type=int, default=None,
                              help="shard count when no --fleet file "
                                   "describes it")
    fleet_status.add_argument("--token", default=None,
                              help="bearer token for the replica healthz "
                                   "endpoints")

    metrics = sub.add_parser(
        "metrics", help="render recorded serve metrics as Prometheus text"
    )
    _add_snapshot_arguments(metrics)
    return parser


def _engine(name: str):
    from repro.inference import build_engine

    return build_engine(name)


def cmd_table1() -> None:
    from repro.suite import table_one

    print(f"{'Name':<10s} {'Model':<32s} {'Application':<50s} {'Iters':>6s}")
    for info in table_one():
        print(f"{info.name:<10s} {info.model_family:<32s} "
              f"{info.application[:50]:<50s} {info.default_iterations:>6d}")


def cmd_platforms() -> None:
    from repro.arch.platforms import BROADWELL, SKYLAKE, TABLE2_HEADER

    print(TABLE2_HEADER)
    print(SKYLAKE.row())
    print(BROADWELL.row())


def cmd_census() -> None:
    from repro.suite.analysis import distribution_census, special_function_requirements

    census = distribution_census()
    print("distribution family usage across BayesSuite:")
    for family, count in sorted(census.items(), key=lambda kv: -kv[1]):
        print(f"  {family:<14s} {count:>3d}")
    print("\nspecial-function units needed (workloads):")
    for fn, count in sorted(special_function_requirements().items(),
                            key=lambda kv: -kv[1]):
        print(f"  {fn:<10s} {count:>3d}")


def cmd_run(args) -> None:
    from repro.autodiff import suffstats
    from repro.batch import run_chains_batched
    from repro.diagnostics import format_summary, max_rhat
    from repro.suite import load_workload
    from repro.telemetry import instrument as ins
    from repro.telemetry.metrics import MetricsRegistry

    if getattr(args, "no_suffstats", False):
        # Process-wide for this one-command process; the tape records
        # lazily during sampling, so this must precede the first gradient.
        suffstats.disable()
    model = load_workload(args.workload, scale=args.scale)
    sampler = _engine(args.engine)
    # Every chain runs in one round loop (solo for one chain or under
    # REPRO_BATCH=0); the draws are run_chains' either way.
    print(f"sampling {model.name} (dim={model.dim}) with {args.engine} "
          f"[{args.chains} chains]...")
    registry = MetricsRegistry()
    result = run_chains_batched(
        model, sampler, n_iterations=args.iterations,
        n_chains=args.chains, seed=args.seed, registry=registry,
    )
    rounds = registry.sum_counter(ins.BATCH_ROUNDS)
    lane_evals = registry.sum_counter(ins.BATCH_LANE_EVALS)
    # The lanes the group ended on: an mh group may keep several per chain
    # (reject-path prefetch), so occupancy, per chain, may pass 100 %.
    width = registry.gauge_value(ins.BATCH_WIDTH, {
        "workload": model.name, "engine": sampler.engine,
    }) or args.chains
    occupancy = lane_evals / (rounds * args.chains) if rounds else 0.0
    print(f"batched rounds: {rounds:.0f}   lanes: {width:.0f}   "
          f"occupancy: {100 * occupancy:.0f}%")
    draws = result.stacked()
    print(f"R-hat (worst): {max_rhat(draws):.3f}   "
          f"divergences: {result.divergences}   "
          f"work: {result.total_work:.0f} gradient evals")
    tape_stats = model.tape_stats()
    if tape_stats and tape_stats.get("suffstats_active"):
        mode = "exact" if tape_stats.get("suffstats_exact") else "approximate"
        print(f"suffstats rewrite: active ({mode}), "
              f"{tape_stats['suffstats_folded_ops']} folds, "
              f"{int(tape_stats['suffstats_folded_elements']):,d} "
              f"elements/iteration eliminated, "
              f"{tape_stats['suffstats_demotions']} demotions")
    names = model.flat_param_names()[:SUMMARY_ROWS]
    print(format_summary(draws[:, :, :len(names)], names))


def cmd_characterize(args) -> None:
    from repro.arch import BROADWELL, SKYLAKE, MachineModel, profile_workload
    from repro.suite import load_workload

    model = load_workload(args.workload)
    profile = profile_workload(model, calibration_iterations=30)
    print(f"{model.name}: data={profile.modeled_data_bytes:,d} B, "
          f"dim={profile.dim}, tape={profile.tape_nodes} nodes, "
          f"WS/chain={profile.working_set_bytes / 1e6:.2f} MB, "
          f"work/iter={profile.work_per_iteration:.1f}")
    print(f"\n{'platform':<10s} {'IPC':>5s} {'I$':>6s} {'br':>6s} "
          f"{'LLC':>7s} {'BW MB/s':>8s}")
    for platform in (SKYLAKE, BROADWELL):
        c = MachineModel(platform).counters(
            profile, n_cores=min(args.cores, platform.cores),
            n_chains=args.chains,
        )
        print(f"{platform.codename:<10s} {c.ipc:>5.2f} {c.icache_mpki:>6.2f} "
              f"{c.branch_mpki:>6.2f} {c.llc_mpki:>7.2f} "
              f"{c.bandwidth_mbs:>8.0f}")


def cmd_elide(args) -> None:
    from repro.core.elision import StopRule
    from repro.batch import run_chains_batched
    from repro.inference import NUTS
    from repro.suite import load_workload

    model = load_workload(args.workload, scale=args.scale)
    result = run_chains_batched(model, NUTS(max_tree_depth=6), n_chains=4,
                                n_iterations=args.iterations, seed=args.seed)
    report = StopRule(check_interval=20).replay(result)
    if report.converged:
        print(f"{model.name}: converged at kept-iteration "
              f"{report.converged_iteration} of {report.budget_iterations} "
              f"({100 * report.iterations_saved_fraction:.0f}% elided, "
              f"{100 * report.work_saved_fraction(result):.0f}% of work)")
    else:
        print(f"{model.name}: the stop rule never passed within "
              f"{report.budget_iterations} kept iterations "
              f"(last max R-hat {report.trace[-1]:.3f})")


def cmd_subsample(args) -> None:
    from repro.arch import PLATFORMS, profile_workload
    from repro.core.subsample import recommend_subsample
    from repro.suite import load_workload

    model = load_workload(args.workload)
    profile = profile_workload(model, calibration_iterations=30)
    plan = recommend_subsample(profile, PLATFORMS[args.platform],
                               n_active_chains=args.chains)
    if not plan.subsampling_needed:
        print(f"{plan.workload} fits {plan.platform}'s LLC with "
              f"{plan.n_active_chains} active chains; no subsampling needed")
    else:
        print(f"{plan.workload} on {plan.platform} with "
              f"{plan.n_active_chains} active chains: subsample data to "
              f"{100 * plan.data_fraction:.0f}% "
              f"(projected occupancy {plan.projected_working_set_bytes / 1e6:.1f} MB"
              f"{'' if plan.fits else ', still over capacity'})")


def _queue_file(queue_dir: str):
    from pathlib import Path

    return Path(queue_dir) / "queue.jsonl"


def _guide_store(args, queue_path):
    """Directory-backed guide cache for the amortized serving tiers."""
    from repro.amortize import GuideStore

    directory = args.guide_dir or str(queue_path.parent / "guides")
    return GuideStore(directory=directory)


def cmd_submit(args) -> int:
    from repro.serve import FileJobQueue, JobSpec

    spec = JobSpec(
        workload=args.workload,
        engine=args.engine,
        mode=args.mode,
        n_iterations=args.iterations,
        n_warmup=args.warmup,
        n_chains=args.chains,
        seed=args.seed,
        scale=args.scale,
        priority=args.priority,
        elide=not args.no_elide,
        checkpoint_interval=args.checkpoint_every,
        deadline_s=args.deadline,
    )
    if args.remote:
        return _submit_remote(args, spec)
    if args.fleet or args.shards:
        return _submit_sharded(args, spec)
    path = _queue_file(args.queue_dir)
    FileJobQueue(path).submit(spec)
    print(f"queued {spec.workload} (key {spec.key()}) in {path}")
    return 0


def _fleet_topology(fleet_file, n_shards, replica_id="local"):
    """Topology from a JSON file, or a single-box map over ``n_shards``."""
    from repro.fleet import FleetTopology

    if fleet_file:
        return FleetTopology.load(fleet_file)
    return FleetTopology.single_box(n_shards, replica_id=replica_id)


def _submit_sharded(args, spec) -> int:
    from repro.fleet import FleetPlacement, ShardedQueue

    topology = _fleet_topology(args.fleet, args.shards or 1)
    shard = FleetPlacement(topology).shard_for(spec)
    queue = ShardedQueue(args.queue_dir, topology.n_shards)
    queue.producer(shard).submit(spec)
    print(f"queued {spec.workload} (key {spec.key()}) in shard {shard} "
          f"of {queue.root}")
    return 0


def _submit_remote(args, spec) -> int:
    from repro.client import GatewayClient, GatewayError

    client = GatewayClient(args.remote, token=args.token)
    try:
        view = client.submit(spec)
    except GatewayError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    job_id = view["job_id"]
    print(f"submitted {spec.workload} (key {spec.key()}) to {args.remote} "
          f"as job {job_id} [{view['state']}]")
    if not args.wait:
        return 0
    view = client.wait(job_id)
    print(f"job {job_id}: {view['state']} after {view['attempts']} attempt(s)")
    if view["state"] == "failed":
        if view.get("error"):
            print(f"  error: {view['error'].rstrip().splitlines()[-1]}",
                  file=sys.stderr)
        return 1
    result = client.result(job_id)
    print(f"{'param':<16s} {'mean':>9s} {'sd':>8s} {'rhat':>6s}")
    summary = result["summary"]
    for row in summary[:12]:
        # JSON null: a non-finite R-hat (one chain has none to report).
        rhat = float("nan") if row["rhat"] is None else row["rhat"]
        print(f"{row['name']:<16s} {row['mean']:>9.3f} {row['sd']:>8.3f} "
              f"{rhat:>6.3f}")
    if result["elision"] is not None:  # what the stop rule judged
        worst = max(r["rhat"] or float("inf") for r in summary)
        print(f"stop rule {'met' if view['state'] == 'converged' else 'not met'}"
              f": max R-hat {worst:.3f}, min ESS "
              f"{min(r['ess'] for r in summary):.0f} over {result['n_kept']} kept")
    return 0


def cmd_serve(args) -> int:
    from repro import telemetry
    from repro.serve import (
        FileJobQueue, InferenceServer, JobState, ResultStore, RetryPolicy,
    )
    from repro.telemetry.exposition import write_snapshot
    from repro.telemetry.instrument import (
        SERVE_CHAIN_RETRIES, SERVE_JOB_RETRIES, SERVE_WORKER_RESTARTS,
    )

    if args.http is not None:
        return _serve_http(args)
    if args.shards or args.fleet:
        print("fleet mode (--shards/--fleet) requires --http PORT; "
              "see docs/fleet.md", file=sys.stderr)
        return 2
    if not args.drain:
        print("repro serve supports --drain (run every queued job to "
              "completion, then exit) or --http PORT (expose the gateway "
              "HTTP API while draining; see docs/gateway.md)")
        return 2

    path = _queue_file(args.queue_dir)
    if not path.exists():
        print(f"no submit queue at {path}; use `repro submit` first")
        return 1

    file_queue = FileJobQueue(path)
    recovery = file_queue.load()
    entries = recovery.entries
    if recovery.orphaned:
        print(f"recovering {len(recovery.orphaned)} job(s) a previous "
              f"server started but never finished")
    if not entries:
        print("submit queue is empty")
        return 0

    store = ResultStore(directory=str(path.parent / "results"))
    registry = telemetry.get_registry()
    with InferenceServer(
        n_workers=args.workers,
        store=store,
        checkpoint_dir=str(path.parent / "checkpoints"),
        retry_policy=RetryPolicy(max_attempts=args.max_attempts),
        guide_store=_guide_store(args, path),
        metrics_file=args.metrics_file,
        registry=registry,
    ) as server:
        jobs = []
        for entry in entries:
            job = server.submit(entry.spec)
            server.journal.record(job, file_queue, entry.entry_id)
            jobs.append(job)
        queued = {job.job_id for job in jobs if job.state is JobState.QUEUED}
        print(f"draining {len(queued)} job(s) "
              f"({sum(job.deduped for job in jobs)} answered from the result "
              f"store)")
        server.run_until_drained()

        print(f"{'job':<14s} {'workload':<10s} {'state':<10s} "
              f"{'kept':>9s} {'elided':>7s} {'tries':>6s}")
        failed = 0
        for job in jobs:
            failed += job.state is JobState.FAILED
            if job.elision is not None and job.elision.elided:
                kept = f"{job.elision.converged_kept}/{job.elision.budget_kept}"
                saved = f"{100 * job.elision.iterations_saved_fraction:.0f}%"
            elif job.result is not None:
                kept = f"{job.result.n_kept}/{job.spec.budget_kept}"
                saved = "0%"
            else:
                kept, saved = "-", "-"
            print(f"{job.job_id:<14s} {job.spec.workload:<10s} "
                  f"{job.state.value:<10s} {kept:>9s} "
                  f"{saved:>7s} {job.attempts:>6d}")
            if job.error:
                print(f"  error: {job.error.rstrip().splitlines()[-1]}")

        snapshot_path = write_snapshot(
            str(path.parent / "metrics.json"), registry
        )
        print(
            f"telemetry: "
            f"{registry.sum_counter(SERVE_WORKER_RESTARTS):.0f} worker "
            f"restart(s), "
            f"{registry.sum_counter(SERVE_CHAIN_RETRIES):.0f} chain "
            f"retrie(s), "
            f"{registry.sum_counter(SERVE_JOB_RETRIES):.0f} job retrie(s); "
            f"snapshot in {snapshot_path} (render with `repro metrics`)"
        )

    # Processed submissions leave the queue (results stay in the store); a
    # `repro submit` appended while this drain ran stays live for the next.
    file_queue.compact()
    print(f"results stored in {path.parent / 'results'}")
    return 1 if failed else 0


def _serve_http(args) -> int:
    import signal
    import threading

    from repro.gateway import Gateway
    from repro.resilience import AdmissionController
    from repro.serve import (
        FileJobQueue, InferenceServer, ResultStore, RetryPolicy,
    )
    from repro.telemetry.exposition import write_snapshot

    fleet_mode = bool(args.fleet or args.shards)
    path = _queue_file(args.queue_dir)
    file_queue = None
    recovery = None
    member = None
    if fleet_mode:
        import os
        import socket

        from repro.fleet import FleetMember

        replica_id = (
            args.replica_id or f"{socket.gethostname()}-{os.getpid()}"
        )
        topology = _fleet_topology(
            args.fleet, args.shards or 1, replica_id=replica_id
        )
        member = FleetMember(args.queue_dir, topology, replica_id)
    else:
        file_queue = FileJobQueue(path)
        recovery = file_queue.load() if path.exists() else None

    store = ResultStore(directory=str(path.parent / "results"))
    server = InferenceServer(
        n_workers=args.workers,
        store=store,
        checkpoint_dir=str(path.parent / "checkpoints"),
        retry_policy=RetryPolicy(max_attempts=args.max_attempts),
        guide_store=_guide_store(args, path),
        metrics_file=args.metrics_file,
        admission=AdmissionController(
            max_expected_wait=args.max_expected_wait,
            brownout_wait=args.brownout_after,
        ),
    )
    shutdown = threading.Event()

    def request_shutdown(signum, frame) -> None:
        shutdown.set()

    previous_handlers = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous_handlers[signum] = signal.signal(signum, request_shutdown)
    with server, Gateway(
        server,
        host=args.host,
        port=args.http,
        tokens=args.tokens,
        rate_limit=args.rate_limit,
        burst=args.burst,
        file_queue=file_queue,
        fleet=member,
    ) as gateway:
        if recovery is not None and recovery.entries:
            if recovery.orphaned:
                print(f"recovering {len(recovery.orphaned)} job(s) a "
                      f"previous server started but never finished")
            print(f"re-queued {gateway.recover(recovery.entries)} of "
                  f"{len(recovery.entries)} submission(s) from {path}")
        auth = (f"{len(args.tokens)} bearer token(s)" if args.tokens
                else "no auth")
        limit = (f"{args.rate_limit:g} req/s per token" if args.rate_limit
                 else "no rate limit")
        if member is not None:
            # start() (via the context manager) has already acquired the
            # preferred shards and replayed their logs.
            print(f"fleet replica {member.replica_id!r}: "
                  f"{len(member.owned_shards)}/{member.topology.n_shards} "
                  f"shard(s) leased {member.owned_shards} "
                  f"(ttl {member.ttl:g}s)")
        print(f"gateway listening on {gateway.url} ({auth}, {limit}); "
              f"SIGTERM/Ctrl-C drains and exits")
        shutdown.wait()
        # Graceful drain: stop admitting (new submissions get 503 +
        # Retry-After), halt in-flight chains at their next iteration
        # boundary — each writes a final checkpoint, so the job parks as
        # RETRYING and the next server resumes it bit-identically — then
        # join the threads and flush a metrics snapshot.
        print("\ndraining: refusing new jobs, checkpointing in-flight "
              "chains")
        gateway.begin_drain()
        stuck = gateway.stop()
        for name in stuck:
            print(f"warning: thread {name!r} did not stop in time",
                  file=sys.stderr)
        # Replicas sharing one queue root each write their own snapshot;
        # `repro metrics --snapshot a --snapshot b` merges them (counters
        # sum, gauges last-write-win) into one fleet-wide exposition.
        snapshot_name = (
            f"metrics-{member.replica_id}.json"
            if member is not None else "metrics.json"
        )
        snapshot_path = write_snapshot(
            str(path.parent / snapshot_name), server.registry
        )
        print(f"metrics snapshot in {snapshot_path} "
              f"(render with `repro metrics`)")
    for signum, handler in previous_handlers.items():
        signal.signal(signum, handler)
    return 0


def cmd_fleet(args) -> int:
    """`repro fleet status`: replica health + the on-disk lease table."""
    import time as _time
    from pathlib import Path

    from repro.client import FleetClient
    from repro.fleet import ShardedQueue

    topology = None
    if args.fleet:
        topology = _fleet_topology(args.fleet, None)
    urls = list(args.urls or [])
    if not urls and topology is not None:
        urls = [box.url for box in topology.boxes if box.url]

    if urls:
        health = FleetClient(urls, token=args.token).healthz()
        print(f"{'replica':<16s} {'status':<12s} {'queued':>7s} "
              f"{'jobs':>6s} {'leases':<20s} url")
        for url, view in health.items():
            if view.get("status") == "unreachable":
                print(f"{'-':<16s} {'unreachable':<12s} {'-':>7s} "
                      f"{'-':>6s} {'-':<20s} {url}")
                continue
            leases = ",".join(
                str(lease["shard"]) for lease in view.get("leases", ())
            ) or "-"
            print(f"{str(view.get('replica_id', '-')):<16s} "
                  f"{view['status']:<12s} {view['queued']:>7d} "
                  f"{view['jobs']:>6d} {leases:<20s} {url}")

    n_shards = topology.n_shards if topology is not None else args.shards
    root = Path(args.queue_dir)
    if n_shards is None:
        # Infer from the shard directories on disk (sparse: a shard no
        # spec has routed to yet has no directory, so take the max index).
        indices = []
        for shard_path in root.glob("shard-*"):
            try:
                indices.append(int(shard_path.name.split("-", 1)[1]))
            except ValueError:
                continue
        n_shards = max(indices) + 1 if indices else None
    if n_shards:
        queue = ShardedQueue(root, n_shards)
        print(f"\n{'shard':>5s} {'depth':>6s} {'owner':<16s} "
              f"{'epoch':>6s} {'expires':>8s}")
        for shard, state in queue.lease_table().items():
            depth = queue.depth(shard)
            if state is None:
                print(f"{shard:>5d} {depth:>6d} {'-':<16s} {'-':>6s} "
                      f"{'-':>8s}")
                continue
            remaining = state.expires_at - _time.time()
            expires = f"{remaining:+.1f}s" if remaining < 3600 else "far"
            print(f"{shard:>5d} {depth:>6d} {state.owner:<16s} "
                  f"{state.epoch:>6d} {expires:>8s}")
    elif not urls:
        print("nothing to show: pass --url, --fleet, or --queue-dir with "
              "shard directories", file=sys.stderr)
        return 1
    return 0


def _load_snapshots(args) -> Optional[dict]:
    """The snapshot files ``args`` names, merged into one registry snapshot;
    None, said on stderr, when one is missing."""
    from pathlib import Path

    from repro.telemetry.exposition import read_snapshot
    from repro.telemetry.metrics import MetricsRegistry

    paths = [
        Path(p)
        for p in (args.snapshots or [Path(args.queue_dir) / "metrics.json"])
    ]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"no metrics snapshot at "
              f"{', '.join(str(p) for p in missing)}; "
              f"run `repro serve --drain` first", file=sys.stderr)
        return None
    merged = MetricsRegistry()
    for snapshot_path in paths:
        merged.merge_snapshot(read_snapshot(str(snapshot_path)))
    return merged.snapshot()


def cmd_metrics(args) -> int:
    from repro.telemetry.exposition import render_prometheus

    metrics = _load_snapshots(args)
    if metrics is None:
        return 1
    print(render_prometheus(metrics), end="")
    return 0


def cmd_report(args) -> int:
    from repro.report import generate_report
    from repro.telemetry import TelemetrySnapshot

    metrics = _load_snapshots(args)
    if metrics is None:
        return 1
    print(generate_report(TelemetrySnapshot(metrics=metrics, spans=[])))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    np.set_printoptions(precision=3, suppress=True)
    if args.command == "table1":
        cmd_table1()
    elif args.command == "platforms":
        cmd_platforms()
    elif args.command == "census":
        cmd_census()
    elif args.command == "run":
        cmd_run(args)
    elif args.command == "characterize":
        cmd_characterize(args)
    elif args.command == "elide":
        cmd_elide(args)
    elif args.command == "subsample":
        cmd_subsample(args)
    elif args.command == "submit":
        return cmd_submit(args)
    elif args.command == "serve":
        return cmd_serve(args)
    elif args.command == "fleet":
        return cmd_fleet(args)
    elif args.command == "metrics":
        return cmd_metrics(args)
    elif args.command == "report":
        return cmd_report(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
