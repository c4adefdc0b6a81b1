"""The performance ledger: one command, every metric by name.

    python benchmarks/ledger/run.py [--workload W] [--seed N] [--seconds S]
                                    [--trace [0|1]] [--smoke | --aa]
                                    [--repeats R]

With ``--workload`` this process *is* the workload run (the form the
benchmark contract's driver calls): it boots the real serving stack on a
fresh temp root, warms it up (``setup_s``), drives a closed loop of two
clients through real jobs for about ``--seconds``, checks the outputs, and
prints every metric with its unit — the last line of stdout is one JSON
object. ``--trace 1`` repeats the same job list with the span shims of
``trace.py`` installed and reports the per-layer metrics instead.

Without ``--workload`` it runs all four workloads, each in a fresh child
process, and with ``--trace`` regenerates ``LEDGER.md`` from the traced
runs. ``--smoke`` is the two-jobs-per-workload version for CI; ``--aa``
runs two full sets back to back and fails when they disagree by more than
the benchmark's own bounds. See ``README.md`` beside this file.
"""

import env

env.prepare()

import argparse  # noqa: E402 - env.prepare() must precede the numpy import
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

import check  # noqa: E402
import metrics  # noqa: E402
import probes  # noqa: E402
import report as report_mod  # noqa: E402
import sentinel  # noqa: E402
import stack as stack_mod  # noqa: E402
import trace as ledger_trace  # noqa: E402
from repro.telemetry.instrument import SERVE_CHECKPOINT_WRITES  # noqa: E402
from workloads import WORKLOADS, PlannedJob  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
#: Fresh-process runs per workload whose median the full ledger reports.
DEFAULT_REPEATS = 3


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """``ru_maxrss`` (KiB on Linux) of this process or its largest child."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def report_path(workload: str, seed: int, traced: bool) -> Path:
    return OUT / f"{workload}-seed{seed}-trace{int(traced)}.json"


# -- one workload, in this process -----------------------------------------------


@dataclass
class Served:
    """What the serving phase of a run leaves behind. Every stamp is a
    ``time.perf_counter()`` reading, like the reference loop's probes."""

    gateways: List
    warm: List[Dict]
    outcomes: List[Dict]
    #: (boot began, warm-up answered) of each set-up; the last one's stack
    #: served the timed phase.
    setups: List[Tuple[float, float]]
    #: (start, end) of the timed phase.
    timed: Tuple[float, float]
    closed_at: float
    #: CPU of the process tree over the last set-up's stack, boot to close.
    cpu_s: float
    peak_rss_mb: float
    #: Per-layer values that can only be read while the stack is up.
    live: Dict[str, float]


def serve(workload, root: Path, warmups, clients, recorder) -> Served:
    """Set up ``workload.setups`` times, run the timed phase on the last
    stack, shut it down."""
    on_job_start = (
        (lambda job: recorder.event("job_started", job.job_id))
        if recorder is not None else None
    )
    setups: List[Tuple[float, float]] = []
    # The traced run reports no set-up time, and its cold spans (guide
    # training, profiling) are summed over the set-up phase: once.
    n_setups = workload.setups if recorder is None else 1
    for index in range(n_setups):
        cpu_before = _cpu_seconds()
        boot_at = time.perf_counter()
        stack_root = root / f"setup-{index}"
        stack_root.mkdir()
        stack = stack_mod.boot(workload, stack_root, on_job_start)
        try:
            warm = [
                stack_mod.run_job(stack.client, PlannedJob(spec), recorder)
                for spec in stack_mod.warmup_specs(workload, warmups, stack)
            ]
            setups.append((boot_at, time.perf_counter()))
            for outcome in warm:
                problems = check.check_job(outcome)
                if problems:
                    raise RuntimeError(f"warm-up job failed: {problems}")
            if index < n_setups - 1:
                continue  # a rehearsal: only its set-up time is kept

            writes_before = _checkpoint_writes(stack)
            start, end, outcomes = stack_mod.drive(stack, clients, recorder)

            live: Dict[str, float] = {}
            if recorder is not None:
                live = _live_numbers(stack, stack_root, outcomes, writes_before)
                if workload.fleet:
                    live.update(probes.checked_probe(stack.client, recorder))
        finally:
            stack.close()  # joins the threads and reaps the pool workers
    # Read now: the reference loop's child is not reaped yet (its CPU is
    # not ours), and the output checks re-run a chain in this very process.
    return Served(
        stack.gateways, warm, outcomes, setups, (start, end),
        time.perf_counter(), _cpu_seconds() - cpu_before, _peak_rss_mb(), live,
    )


def _checkpoint_writes(stack) -> float:
    """The program's own counter: it also sees writes made in workers."""
    return sum(
        counter["value"]
        for server in stack.servers
        for counter in server.registry.snapshot()["counters"]
        if counter["name"] == SERVE_CHECKPOINT_WRITES
    )


def _live_numbers(stack, root: Path, outcomes, writes_before) -> Dict[str, float]:
    """Per-layer values read off the booted stack rather than off spans."""
    ran = [o for o in outcomes if o.get("error") is None and not o["deduped"]]
    timed_ids = {o["job_id"] for o in outcomes}
    place = [
        span.duration_s
        for server in stack.servers
        for span in server.tracer.spans("serve.place")
        if span.attrs.get("job") in timed_ids
    ]
    return {
        "serve.filequeue.log_bytes": sum(
            path.stat().st_size for path in root.rglob("queue.jsonl")
        ),
        "serve.checkpoint.saves": (
            (_checkpoint_writes(stack) - writes_before) / max(1, len(ran))
        ),
        "core.place_ms": 1e3 * statistics.median(place) if place else 0.0,
    }


def _shim_seconds(recorder, timed_ids) -> float:
    """What the shims themselves cost the timed jobs: each kind of shim is
    timed around a no-op after the run, and multiplied by the calls made."""
    scratch = ledger_trace.Recorder()
    spanned = ledger_trace.span_shim(scratch, "calibrate", lambda: None)
    hot = ledger_trace.hot_shim(scratch, "calibrate", lambda: None)

    def cost(fn, calls=2000) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        shimmed = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            pass
        return (shimmed - (time.perf_counter() - start)) / calls

    spans = [s for s in recorder.spans if s.job in timed_ids or s.job is None]
    hot_calls = sum(row[0] for s in spans for row in s.hot.values())
    return cost(spanned) * len(spans) + cost(hot) * hot_calls


def traced_sections(workload, served: Served, recorder, out_name: str) -> Dict:
    """The traced run's extra report sections: per-layer metrics, shares."""
    good = [o for o in served.outcomes if o.get("error") is None]
    timed_ids = {o["job_id"] for o in good}
    extra = dict(served.live)
    if workload.exact and good:
        spec = good[0]["spec"]
        extra.update(probes.autodiff_probe(spec["workload"], spec["scale"]))
        extra.update(probes.ablation_probe(spec))
    shares = metrics.layer_shares(
        ledger_trace.job_trees(recorder), served.outcomes
    )
    layer = metrics.per_layer(
        recorder, served.outcomes, shares, extra,
        shim_seconds=_shim_seconds(recorder, timed_ids),
    )
    if workload.exact and good:
        layer["serve.workers.pool_efficiency"] = probes.pool_efficiency_probe(
            good[0]["spec"], workload.n_workers,
            layer["serve.workers.run_job_s"],
        )
    recorder.write_jsonl(OUT / out_name)
    return {"per_layer": layer, "layer_shares": shares}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 jobs: Optional[int] = None) -> Dict:
    """Boot, warm up, drive, check, measure: the full report of one run."""
    env.assert_defaults()
    workload = WORKLOADS[name]
    n_jobs = jobs if jobs is not None else workload.n_jobs(seconds)
    warmups, clients = workload.plan(seed, n_jobs)

    OUT.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    started_at = time.perf_counter()
    recorder = ledger_trace.Recorder() if traced else None
    reference = sentinel.Reference()
    try:
        with ledger_trace.Patches(
            ledger_trace.boundary_patches(recorder) if traced else ()
        ):
            served = serve(workload, root, warmups, clients, recorder)
        header = env.header(root)
        traced_report = traced_sections(
            workload, served, recorder, f"trace-{name}-seed{seed}.jsonl"
        ) if traced else {}
        probed_at = time.perf_counter()
    finally:
        reference.stop()
        shutil.rmtree(root, ignore_errors=True)

    failed_ids, problems = check.check_run(
        workload, served.outcomes, served.gateways
    )
    checked_at = time.perf_counter()
    ref_setup = reference.reading_ms(served.setups[0][0], served.setups[-1][1])
    ref_timed = reference.reading_ms(*served.timed)
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "traced": traced,
        "jobs": {"timed": len(served.outcomes), "warmup": len(served.warm),
                 "clients": len(clients), "setups": len(served.setups)},
        "env": header,
        "attempted": len(served.outcomes), "failed": len(failed_ids),
        "problems": problems,
        "timed_wall_s": served.timed[1] - served.timed[0],
        "grad_evals": metrics.grad_evals(served.outcomes),
        "end_to_end": metrics.end_to_end(
            served.outcomes, failed_ids, served.timed, served.setups,
            (served.setups[-1][0], served.closed_at, served.cpu_s),
            n_answered_with_warmup=(
                len(served.outcomes) - len(failed_ids) + len(served.warm)
            ),
            peak_rss_mb=served.peak_rss_mb,
            scale=reference.scale,
        ),
        # The reference loop's reading during set-up and during the timed phase.
        "machine_ref_ms": [ref_setup, ref_timed],
        "noisy": (
            abs(ref_timed - ref_setup) / min(ref_setup, ref_timed)
            > env.NOISY_SENTINEL_DRIFT
        ),
    }
    if traced:
        traced_report["per_layer"] = metrics.in_reference_time(
            traced_report["per_layer"], reference.scale(started_at, probed_at)
        )
        report.update(traced_report)

    # Where the run's own wall time went (the contract caps it).
    report["phases_s"] = {
        "setup": served.timed[0] - served.setups[0][0],
        "timed": served.closed_at - served.timed[0],
        "probes_and_analysis": probed_at - served.closed_at,
        "checks": checked_at - probed_at,
        "total": time.perf_counter() - started_at,
    }
    report_path(name, seed, traced).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    return report


def print_report(report: Dict, contract: Dict) -> Dict:
    """Every metric by name with its unit; returns the contract's object."""
    section = "per_layer" if report["traced"] else "end_to_end"
    values = report[section]
    print(f"== {report['workload']} seed={report['seed']} "
          f"trace={int(report['traced'])} jobs={report['jobs']['timed']} "
          f"timed_wall={report['timed_wall_s']:.2f}s "
          f"machine_ref_ms={report['machine_ref_ms'][0]:.2f}/"
          f"{report['machine_ref_ms'][1]:.2f} (nominal "
          f"{sentinel.NOMINAL_MS:g}){' NOISY' if report['noisy'] else ''}")
    print("times are reference seconds: wall x nominal / the reference "
          "loop's reading over the same interval")
    out = {}
    for spec in contract[section]:
        value = values[spec["name"]]
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
        bound = f"  (bound {spec['bound']:.0%})" if "bound" in spec else ""
        wall = values.get("raw", {}).get(spec["name"])
        wall = f"  [wall clock {wall:.6g}]" if wall is not None else ""
        print(f"{spec['name']:34s} {value:14.6g} {spec['unit']}{bound}{wall}")
    if not report["traced"]:
        e2e = report["end_to_end"]
        print(f"{'failed_ratio':34s} {e2e['failed_ratio']:14.6g} ratio"
              f"  (any rise above 0 is a regression)")
        print(f"latency_tail_s is the {e2e['latency_tail_rule']} of "
              f"n={e2e['latency_n']} timed jobs")
    for line in report["problems"]:
        print(f"CHECK FAILED: {line}")
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": out,
    }


# -- all workloads, each in a child process ----------------------------------------


def child(name: str, seed: int, seconds: float, traced: bool,
          jobs: Optional[int]) -> Dict:
    """Run one workload in a fresh process; returns its full report."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(traced)),
    ]
    if jobs is not None:
        command += ["--jobs", str(jobs)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        raise SystemExit(f"ledger: {name} exited with {done.returncode}")
    return json.loads(report_path(name, seed, traced).read_text())


def run_set(names, seed, seconds, repeats, smoke) -> Dict[str, List[Dict]]:
    """``repeats`` untraced runs of every workload: name -> its reports."""
    reports: Dict[str, List[Dict]] = {name: [] for name in names}
    for _ in range(repeats):
        for name in names:  # interleaved: drift hits every workload alike
            jobs = WORKLOADS[name].smoke_jobs if smoke else None
            reports[name].append(child(name, seed, seconds, False, jobs))
    return reports


def summarize(reports: List[Dict], contract: Dict) -> Dict[str, Dict]:
    """Median, min and max of each end-to-end metric over the repeats."""
    out = {}
    for spec in contract["end_to_end"]:
        values = [r["end_to_end"][spec["name"]] for r in reports]
        out[spec["name"]] = {
            "median": statistics.median(values),
            "min": min(values), "max": max(values),
        }
    out["failed_ratio"] = {
        "median": statistics.median(
            r["end_to_end"]["failed_ratio"] for r in reports
        ),
    }
    return out


def compare_sets(first, second, contract) -> List[str]:
    """A/A verdict lines, one per workload and metric, then the sentinel
    readings of both sets. ``FAIL`` and ``UNRESOLVED`` are not passes."""
    lines = []
    for name in first:
        noisy = any(r["noisy"] for r in first[name] + second[name])
        a = summarize(first[name], contract)
        b = summarize(second[name], contract)
        for spec in contract["end_to_end"]:
            metric = spec["name"]
            x, y = a[metric]["median"], b[metric]["median"]
            diff = abs(y - x) / x
            verdict = "ok"
            if diff > spec["bound"]:
                verdict = "UNRESOLVED (noisy run)" if noisy else "FAIL"
            lines.append(
                f"{verdict:22s} {name:12s} {metric:16s} "
                f"A={x:.5g} B={y:.5g} diff={diff:.1%} bound={spec['bound']:.0%}"
            )
        if a["failed_ratio"]["median"] or b["failed_ratio"]["median"]:
            lines.append(f"{'FAIL':22s} {name:12s} failed_ratio above 0")
    for name in first:
        readings = " | ".join(
            " ".join(
                f"{r['machine_ref_ms'][0]:.2f}/{r['machine_ref_ms'][1]:.2f}"
                + ("(noisy)" if r["noisy"] else "")
                for r in runs[name]
            )
            for runs in (first, second)
        )
        lines.append(f"{'sentinel':22s} {name:12s} machine_ref_ms A | B: {readings}")
    return lines


def main(argv=None) -> int:
    contract = metrics.contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--jobs", type=int, default=None,
                        help="timed jobs, instead of deriving them from --seconds")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args(argv)
    if args.repeats is None:
        args.repeats = 1 if args.smoke else DEFAULT_REPEATS

    if args.workload:
        report = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.jobs
        )
        print(json.dumps(print_report(report, contract)))
        return 0

    first = run_set(names, args.seed, args.seconds, args.repeats, args.smoke)
    status = 0
    aa_lines = None
    if args.aa:
        second = run_set(names, args.seed, args.seconds, args.repeats, args.smoke)
        aa_lines = compare_sets(first, second, contract)
        print("\n== A/A: two sets of the same code ==")
        print("\n".join(aa_lines))
        if any(line.startswith(("FAIL", "UNRESOLVED")) for line in aa_lines):
            status = 1
    traced = {}
    if args.trace:
        for name in names:
            jobs = WORKLOADS[name].smoke_jobs if args.smoke else None
            traced[name] = child(name, args.seed, args.seconds, True, jobs)
    print("\n== summary (median of "
          f"{args.repeats} fresh-process run(s) per workload) ==")
    for name in names:
        for metric, row in summarize(first[name], contract).items():
            spread = (f"  [{row['min']:.5g} .. {row['max']:.5g}]"
                      if "min" in row else "")
            print(f"{name:12s} {metric:16s} {row['median']:12.5g}{spread}")
    if traced and not args.smoke:
        report_mod.write_ledger(first, traced, contract, summarize, aa_lines)
        print(f"wrote {report_mod.LEDGER}")
    if any(r["failed"] for rs in first.values() for r in rs):
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
