"""Unit tests for repro.telemetry: metrics, tracing, exposition, hooks.

The serving-layer integration (cross-process merge, SIGKILL accounting)
lives in ``tests/test_telemetry_serve.py``; this file covers the primitives
and the in-process sampler instrumentation — including that an in-process
run reports the very series a served run of the same spec does.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.batch.driver import run_chains_batched
from repro.inference import NUTS, compose_hooks, run_chains
from repro.inference.engines import build_engine
from repro.serve import ChainWorkerPool, JobSpec, chain_tasks
from repro.suite import load_workload
from repro.telemetry import (
    ChainMetricsMerger,
    ChainStats,
    ChainTelemetry,
    Histogram,
    MetricsRegistry,
    TelemetrySnapshot,
    Tracer,
    log_buckets,
    read_jsonl,
    read_snapshot,
    render_prometheus,
    write_metrics_file,
    write_snapshot,
)
from repro.telemetry.instrument import (
    BATCH_CHAINS,
    BATCH_LANE_EVALS,
    BATCH_ROUNDS,
    BATCH_SOLO_CALLS,
    BATCH_WIDTH,
    RESILIENCE_BREAKER_STATE,
    RESILIENCE_BREAKER_TRIPS,
    SAMPLER_DIVERGENCES,
    SAMPLER_ITERATIONS,
    SAMPLER_STEP_SIZE,
    SAMPLER_TREE_DEPTH,
    SAMPLER_WORK,
    TAPE_RECORDS,
    TAPE_REPLAY_SECONDS,
    TAPE_REPLAYS,
    TAPE_VALUE_REPLAYS,
)


@pytest.fixture(autouse=True)
def _isolated_telemetry():
    """Every test starts disabled with empty global registry/tracer."""
    was_enabled = telemetry.enabled()
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.enable() if was_enabled else telemetry.disable()
    telemetry.reset()


class TestMetricsPrimitives:
    def test_counter_monotone(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1.0)

    def test_gauge_last_write(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(4.0)
        gauge.inc()
        gauge.dec(2.0)
        assert gauge.value == 3.0

    def test_histogram_buckets_and_quantile(self):
        hist = Histogram(bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            hist.observe(value)
        assert hist.counts == [1, 1, 1, 1]
        assert hist.count == 4
        assert hist.sum == pytest.approx(555.5)
        assert hist.quantile(0.25) == 1.0
        assert hist.quantile(1.0) == math.inf
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))

    def test_log_buckets_deterministic_and_validated(self):
        assert log_buckets(1e-3, 1e4, per_decade=1) == log_buckets(
            1e-3, 1e4, per_decade=1
        )
        ladder = log_buckets(1.0, 100.0, per_decade=2)
        assert ladder[0] == pytest.approx(1.0)
        assert ladder[-1] == pytest.approx(100.0)
        with pytest.raises(ValueError):
            log_buckets(0.0, 10.0)
        with pytest.raises(ValueError):
            log_buckets(1.0, 10.0, per_decade=0)

    def test_registry_get_or_create_identity(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", {"k": "v"})
        b = registry.counter("x_total", {"k": "v"})
        other = registry.counter("x_total", {"k": "w"})
        assert a is b
        assert a is not other
        assert registry.counter_value("x_total", {"k": "v"}) == 0.0
        a.inc(3)
        other.inc(4)
        assert registry.sum_counter("x_total") == 7.0

    def test_snapshot_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c_total").inc(2)
        b.counter("c_total").inc(3)
        a.gauge("g").set(1.0)
        b.gauge("g").set(9.0)
        a.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        b.histogram("h", buckets=(1.0, 2.0)).observe(0.5, n=2)
        a.merge_snapshot(b.snapshot())
        assert a.counter_value("c_total") == 5.0
        assert a.gauge_value("g") == 9.0  # last write wins
        ((_, hist),) = a.histograms_named("h")
        assert hist.counts == [2, 1, 0]
        assert hist.count == 3

    def test_merge_rejects_mismatched_bucket_ladders(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1.0, 2.0)).observe(1.0)
        b.histogram("h", buckets=(1.0, 4.0)).observe(1.0)
        with pytest.raises(ValueError, match="bucket bounds differ"):
            a.merge_snapshot(b.snapshot())

    def test_snapshot_is_json_round_trippable(self):
        registry = MetricsRegistry()
        registry.counter("c_total", {"a": "b"}, help="help me").inc()
        registry.histogram("h").observe(3.0)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        fresh = MetricsRegistry()
        fresh.merge_snapshot(snapshot)
        assert fresh.counter_value("c_total", {"a": "b"}) == 1.0
        assert fresh.help_text("c_total") == "help me"


class TestExposition:
    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("c_total", {"wl": 'quo"te'}, help="a counter").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(1.0, 10.0)).observe(5.0)
        text = render_prometheus(registry.snapshot())
        assert "# HELP c_total a counter" in text
        assert "# TYPE c_total counter" in text
        assert 'c_total{wl="quo\\"te"} 2' in text
        assert "g 1.5" in text
        assert 'h_bucket{le="1"} 0' in text
        assert 'h_bucket{le="10"} 1' in text
        assert 'h_bucket{le="+Inf"} 1' in text
        assert "h_sum 5" in text
        assert "h_count 1" in text

    def test_catalog_names_render_their_help_without_being_told(self):
        """No call site passes ``help=`` for a catalog name: the registry
        looks it up, so no series (the ``repro_batch_*`` ones used to)
        renders ``# TYPE`` alone."""
        from repro.telemetry import instrument

        catalog = instrument._HELP
        assert len(catalog) > 60
        registry = MetricsRegistry()
        for name in catalog:
            if name.endswith(("_seconds", "_tree_depth")):
                registry.histogram(name).observe(1.0)
            elif name.endswith("_total"):
                registry.counter(name).inc()
            else:
                registry.gauge(name).set(1.0)
        text = render_prometheus(registry.snapshot())
        for name, help_text in catalog.items():
            assert f"# HELP {name} {help_text}\n# TYPE {name} " in text
        # An explicit help still wins, and non-catalog names need none.
        registry.counter("other_total", help="mine").inc()
        registry.gauge("bare").set(1.0)
        text = render_prometheus(registry.snapshot())
        assert "# HELP other_total mine" in text
        assert "# HELP bare" not in text

    def test_snapshot_file_roundtrip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(7)
        path = write_snapshot(str(tmp_path / "m.json"), registry)
        snapshot = read_snapshot(str(path))
        fresh = MetricsRegistry()
        fresh.merge_snapshot(snapshot)
        assert fresh.counter_value("c_total") == 7.0

    def test_snapshot_version_checked(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 99, "metrics": {}}))
        with pytest.raises(ValueError, match="version"):
            read_snapshot(str(bad))

    def test_metrics_file_rewritten_atomically(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c_total").inc()
        target = tmp_path / "sub" / "metrics.prom"
        write_metrics_file(str(target), registry)
        registry.counter("c_total").inc()
        write_metrics_file(str(target), registry)
        assert "c_total 2" in target.read_text()
        assert not list(target.parent.glob("*.tmp*"))


class TestTracing:
    def test_span_nesting_and_attrs(self):
        tracer = Tracer()
        with tracer.span("outer", workload="votes") as attrs:
            with tracer.span("inner"):
                pass
            attrs["result"] = "ok"
        inner, outer = tracer.spans()
        assert (inner.name, outer.name) == ("inner", "outer")
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.attrs == {"workload": "votes", "result": "ok"}
        assert outer.duration_s >= inner.duration_s >= 0.0

    def test_ring_eviction_counted(self):
        tracer = Tracer(capacity=2)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer) == 2
        assert tracer.evicted == 3
        assert [span.name for span in tracer.spans()] == ["s3", "s4"]

    def test_jsonl_export_roundtrip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("phase", workload="ad"):
            pass
        path = tmp_path / "spans.jsonl"
        assert tracer.export_jsonl(str(path)) == 1
        (span,) = read_jsonl(str(path))
        assert span.name == "phase"
        assert span.attrs == {"workload": "ad"}


class TestComposeHooks:
    def test_none_hooks_collapse(self):
        assert compose_hooks(None, None) is None
        sentinel = lambda t, draw: True  # noqa: E731
        assert compose_hooks(None, sentinel) is sentinel

    def test_wants_stats_propagates_and_routes(self):
        seen = []

        def plain(t, draw):
            seen.append(("plain", t))
            return True

        class Stats:
            wants_stats = True

            def __call__(self, t, draw, stats=None):
                seen.append(("stats", t, stats))
                return True

        composed = compose_hooks(Stats(), plain)
        assert composed.wants_stats
        assert composed(0, None, {"work": 2.0})
        assert seen == [("stats", 0, {"work": 2.0}), ("plain", 0)]

    def test_any_false_stops(self):
        composed = compose_hooks(
            lambda t, draw: False, lambda t, draw: True
        )
        assert composed(0, None) is False


class TestSamplerInstrumentation:
    def test_disabled_records_nothing_and_is_hook_free(self):
        model = load_workload("votes", scale=0.25)
        run_chains(model, build_engine("mh"), n_iterations=30, n_chains=2,
                   seed=5)
        assert len(telemetry.get_registry()) == 0

    def test_tape_breaker_follows_the_telemetry_switch(self, monkeypatch):
        """The process-wide tape breaker writes nowhere while telemetry is
        off — not on first use (what used to make the test above depend on
        an earlier file having built it) and not on a trip — and into the
        global registry while it is on."""
        from repro.autodiff import compile as tape_compile

        monkeypatch.setattr(tape_compile, "_breaker_instance", None)
        breaker = tape_compile.tape_breaker()

        def trip():
            for _ in range(tape_compile.BREAKER_THRESHOLD):
                breaker.record_failure()
            assert breaker.state == "open"

        trip()
        registry = telemetry.get_registry()
        assert len(registry) == 0
        telemetry.enable()
        labels = {"breaker": "compiled_tape"}
        breaker.record_success()
        assert registry.gauge_value(RESILIENCE_BREAKER_STATE, labels) == 0.0
        trip()
        assert registry.gauge_value(RESILIENCE_BREAKER_STATE, labels) == 1.0
        assert registry.counter_value(RESILIENCE_BREAKER_TRIPS, labels) == 1.0

    def test_enabled_counters_match_result_exactly(self):
        model = load_workload("votes", scale=0.25)
        sampler = build_engine("mh")
        reference = run_chains(model, sampler, n_iterations=30, n_chains=2,
                               seed=5)
        telemetry.enable()
        result = run_chains(model, sampler, n_iterations=30, n_chains=2,
                            seed=5)
        registry = telemetry.get_registry()
        # The engine label is the engine tag, as on a served run's series.
        labels = {"workload": model.name, "engine": "mh"}
        assert registry.counter_value(SAMPLER_ITERATIONS, labels) == 60.0
        assert registry.counter_value(SAMPLER_WORK, labels) == pytest.approx(
            result.total_work
        )
        # Instrumentation must not perturb the chains.
        for got, want in zip(result.chains, reference.chains):
            np.testing.assert_array_equal(got.samples, want.samples)
        # MH evaluates densities only — one per iteration plus one at each
        # chain's start: every replay of the (already proven) tape in the
        # instrumented run was the value program. Tape series carry the
        # engine too, so an MH and a slice run never share one.
        value_replays = registry.counter_value(TAPE_VALUE_REPLAYS, labels)
        assert value_replays == result.total_work + 2
        assert value_replays == registry.counter_value(TAPE_REPLAYS, labels)

    def test_nuts_stats_fill_depth_histogram(self):
        model = load_workload("12cities", scale=0.5)
        telemetry.enable()
        result = run_chains(model, NUTS(max_tree_depth=6), n_iterations=30,
                            n_chains=2, seed=1)
        registry = telemetry.get_registry()
        labels = {"workload": model.name, "engine": "nuts"}
        assert registry.counter_value(SAMPLER_ITERATIONS, labels) == 60.0
        assert registry.counter_value(SAMPLER_WORK, labels) == pytest.approx(
            result.total_work
        )
        assert registry.counter_value(
            SAMPLER_DIVERGENCES, labels
        ) == result.divergences
        ((pairs, depth_hist),) = registry.histograms_named(SAMPLER_TREE_DEPTH)
        assert dict(pairs) == labels
        assert depth_hist.count == 60
        assert registry.gauge_value(SAMPLER_STEP_SIZE, labels) > 0.0

    def test_chain_run_hooks_only_when_enabled(self):
        model = load_workload("votes", scale=0.25)
        open_chain = telemetry.chain_run(model, NUTS(), 10, 2, None)
        hook, close = open_chain(0)
        assert hook is None
        close()
        assert len(telemetry.get_registry()) == 0
        telemetry.enable()
        hook, _ = telemetry.chain_run(model, NUTS(), 10, 2, None)(0)
        assert isinstance(hook, ChainTelemetry) and hook.wants_stats
        assert hook.labels == {"workload": "votes", "engine": "nuts"}

    def test_env_var_enables(self):
        env = dict(os.environ, REPRO_TELEMETRY="yes")
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c",
             "import repro.telemetry as t; print(t.enabled())"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "True"


#: Series a run reports per chain: what the two paths below must agree on.
_CHAIN_SERIES = ("repro_sampler_", "repro_tape_")


def _chain_series(registry, prefixes=_CHAIN_SERIES) -> dict:
    """``(name, labels) -> value`` of every series named with one of
    ``prefixes`` (a histogram's value is its bucket counts and sum), but
    wall time."""
    snapshot = registry.snapshot()
    series = {}
    for kind in ("counters", "gauges", "histograms"):
        for entry in snapshot[kind]:
            name = entry["name"]
            if name.startswith(prefixes) and name != TAPE_REPLAY_SECONDS:
                value = (
                    (entry["counts"], entry["sum"])
                    if kind == "histograms" else entry["value"]
                )
                series[name, tuple(map(tuple, entry["labels"]))] = value
    return series


def _served_series(spec: JobSpec, prefixes=_CHAIN_SERIES) -> dict:
    """The series of ``spec`` run by the service's pool on one worker
    process: hmc/nuts as one batched group, mh/slice one chain at a time
    (so chains merge in index order as they do in-process)."""
    telemetry.reset()
    pool = ChainWorkerPool(n_workers=1, registry=telemetry.get_registry())
    try:
        pool.run_job(chain_tasks(spec, "job"))
    finally:
        pool.shutdown()
    return _chain_series(telemetry.get_registry(), prefixes)


class TestOneChainStatisticsPath:
    """An in-process run and a served run of one spec report the same
    series: same names, same ``{workload, engine}`` labels (the engine
    tag, not the sampler's class name), same values."""

    @staticmethod
    def _spec(workload, scale, engine) -> JobSpec:
        # 60 iterations: past one flush of the cadence both paths share.
        return JobSpec(
            workload=workload, engine=engine, n_iterations=60, n_warmup=30,
            n_chains=2, seed=4, scale=scale, elide=False,
        )

    @pytest.mark.parametrize("engine", ["mh", "slice", "nuts"])
    @pytest.mark.parametrize("workload,scale", [("votes", 0.25),
                                                ("12cities", 0.5)])
    def test_run_chains_reports_the_served_series(self, workload, scale,
                                                  engine):
        spec = self._spec(workload, scale, engine)
        telemetry.enable()
        run_chains(
            load_workload(workload, scale=scale), build_engine(engine),
            n_iterations=spec.n_iterations, n_warmup=spec.n_warmup,
            n_chains=spec.n_chains, seed=spec.seed,
        )
        in_process = _chain_series(telemetry.get_registry())
        served = _served_series(spec)
        assert sorted(in_process) == sorted(served)
        # Recordings and replays count how the executor evaluated, not
        # what the chains did: the pool builds one model per chain (each
        # records its own tape), and the batched group replays the
        # lane-batched tape instead of the solo one. The batched pair
        # below agrees on them too.
        executor_work = (TAPE_RECORDS, TAPE_REPLAYS)
        assert {
            key: value for key, value in in_process.items()
            if key[0] not in executor_work
        } == {
            key: value for key, value in served.items()
            if key[0] not in executor_work
        }

    @pytest.mark.parametrize("workload,scale", [("votes", 0.25),
                                                ("12cities", 0.5)])
    def test_run_chains_batched_reports_the_served_series(self, workload,
                                                          scale):
        """Batch series included: the served group's counters cross the
        process boundary in its chains' close payloads. How many rounds
        the evaluator answered solo before batching is executor work
        again: the served group's initial-density check records the tape
        before the first round."""
        spec = self._spec(workload, scale, "nuts")
        series = _CHAIN_SERIES + ("repro_batch_",)
        telemetry.enable()
        run_chains_batched(
            load_workload(workload, scale=scale), build_engine("nuts"),
            n_iterations=spec.n_iterations, n_warmup=spec.n_warmup,
            n_chains=spec.n_chains, seed=spec.seed,
        )
        in_process = _chain_series(telemetry.get_registry(), series)
        served = _served_series(spec, series)
        executor_work = (BATCH_ROUNDS, BATCH_LANE_EVALS, BATCH_SOLO_CALLS)
        assert {
            key: value for key, value in in_process.items()
            if key[0] not in executor_work
        } == {
            key: value for key, value in served.items()
            if key[0] not in executor_work
        }
        assert {name for name, _ in served} >= {
            BATCH_ROUNDS, BATCH_LANE_EVALS, BATCH_CHAINS, BATCH_WIDTH,
        }


def _stats_stream(rng, n):
    """A deterministic fake per-iteration stats stream."""
    return [
        {
            "work": float(3 + (t % 5)),
            "tree_depth": int(1 + t % 3),
            "divergent": t % 17 == 0,
            "accept": float(0.5 + 0.01 * (t % 7)),
            "step_size": 0.1 + 0.001 * t,
        }
        for t in range(n)
    ]


class TestChainTelemetryAndMerger:
    def test_chain_stats_roundtrip(self):
        stats = ChainStats(hi=40, work=120.5, divergences=2,
                           accept_sum=31.0, depth_counts={1: 30, 2: 10},
                           step_size=0.2)
        assert ChainStats.from_dict(
            json.loads(json.dumps(stats.to_dict()))
        ) == stats

    def test_flush_grid_and_final(self):
        payloads = []
        chain = ChainTelemetry("votes", "mh", payloads.append,
                               flush_interval=10)
        for t, stats in enumerate(_stats_stream(None, 25)):
            chain.observe(t, stats)
        chain.flush(final=True)
        assert [p["cum"]["hi"] for p in payloads] == [10, 20, 25]
        assert payloads[-1]["final"] is True

    def test_ops_are_deltas_between_flushes(self):
        payloads = []
        chain = ChainTelemetry("votes", "mh", payloads.append,
                               flush_interval=10)
        chain.count_op("checkpoint_writes", 1)
        chain.count_op("checkpoint_bytes", 100)
        for t, stats in enumerate(_stats_stream(None, 10)):
            chain.observe(t, stats)
        chain.flush(final=True)
        assert payloads[0]["ops"] == {
            "checkpoint_writes": 1, "checkpoint_bytes": 100,
        }
        assert payloads[1]["ops"] == {}

    def test_merger_is_idempotent_across_replays(self):
        """The exactly-once property: replaying a chain's cumulative blocks
        (a crash re-run, a duplicated event) never double-counts."""
        stream = _stats_stream(None, 60)

        def payloads(flush_interval):
            out = []
            chain = ChainTelemetry("votes", "mh", out.append,
                                   flush_interval=flush_interval)
            for t, stats in enumerate(stream):
                chain.observe(t, stats)
            chain.flush(final=True)
            return out

        uninterrupted = MetricsRegistry()
        merger = ChainMetricsMerger(uninterrupted)
        for payload in payloads(10):
            merger.merge("job", 0, payload)

        # Crash after 40 iterations: the replacement chain replays blocks
        # 10..40 (identical, by determinism) before advancing to 60.
        crashed = MetricsRegistry()
        merger = ChainMetricsMerger(crashed)
        blocks = payloads(10)
        for payload in blocks[:4]:
            merger.merge("job", 0, payload)
        for payload in blocks:  # full replay from scratch
            merger.merge("job", 0, payload)

        assert crashed.snapshot() == uninterrupted.snapshot()
        assert crashed.counter_value(
            SAMPLER_ITERATIONS, {"workload": "votes", "engine": "mh"}
        ) == 60.0

    def test_seeded_resume_matches_uninterrupted(self):
        """seed_from_resume reconstructs the restored prefix's cumulative
        stats, so resumed blocks continue the dead run's watermarks."""
        stream = _stats_stream(None, 60)
        uninterrupted = []
        chain = ChainTelemetry("votes", "nuts", uninterrupted.append,
                               flush_interval=20)
        for t, stats in enumerate(stream):
            chain.observe(t, stats)
        chain.flush(final=True)

        # A sampler-state snapshot at t=39 (checkpoint boundary).
        resume_state = {
            "t": 39,
            "work": np.array([s["work"] for s in stream[:40]]),
            "tree_depths": np.array(
                [s["tree_depth"] for s in stream[:40]]
            ),
            "divergences": sum(s["divergent"] for s in stream[:40]),
            "accept_stat_total": sum(s["accept"] for s in stream[:40]),
            "step": stream[39]["step_size"],
        }
        resumed = []
        chain = ChainTelemetry("votes", "nuts", resumed.append,
                               flush_interval=20)
        chain.seed_from_resume(resume_state)
        for t in range(40, 60):
            chain.observe(t, stream[t])
        chain.flush(final=True)

        a, b = MetricsRegistry(), MetricsRegistry()
        merger_a = ChainMetricsMerger(a)
        for payload in uninterrupted:
            merger_a.merge("job", 0, payload)
        merger_b = ChainMetricsMerger(b)
        for payload in uninterrupted[:2]:  # blocks the dead run delivered
            merger_b.merge("job", 0, payload)
        for payload in resumed:
            merger_b.merge("job", 0, payload)
        assert a.snapshot() == b.snapshot()

    def test_discard_job_drops_watermarks_only(self):
        registry = MetricsRegistry()
        merger = ChainMetricsMerger(registry)
        payload = {
            "labels": {"workload": "votes", "engine": "mh"},
            "cum": ChainStats(hi=10, work=30.0, accept_sum=5.0).to_dict(),
            "ops": {},
        }
        merger.merge("job", 0, payload)
        merger.discard_job("job")
        assert registry.sum_counter(SAMPLER_ITERATIONS) == 10.0
        # Watermark gone: the same block would now count again (callers
        # only discard after the job is finished and its events drained).
        merger.merge("job", 0, payload)
        assert registry.sum_counter(SAMPLER_ITERATIONS) == 20.0


class TestTelemetrySnapshot:
    def test_empty_property(self):
        registry, tracer = MetricsRegistry(), Tracer()
        snapshot = TelemetrySnapshot.capture(registry, tracer)
        assert snapshot.empty
        registry.counter("c_total").inc()
        assert not TelemetrySnapshot.capture(registry, tracer).empty
