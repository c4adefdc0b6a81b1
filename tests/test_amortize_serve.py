"""Serving-path tests for the amortized tiers.

The fast tier's unit tests use the ``mh`` engine at tiny budgets with
injected guides, so every branch of the escalation policy is exercised
deterministically without paying for real inference. The slow (nightly)
end-to-end test runs the full story on ``votes``: a well-matched guide
serves through the checked tier without escalation, a poor guide trips the
PSIS gate and escalates to NUTS draws bit-identical to a direct exact
submission, and both answers carry the right provenance.
"""

import numpy as np
import pytest

from repro.amortize import EscalationPolicy, GuideRecord, GuideStore
from repro.amortize.policy import surrogate_rng
from repro.inference.advi import ADVI, AdviResult
from repro.serve import InferenceServer, JobSpec, JobState, ResultStore
from repro.serve.store import stored_provenance
from repro.suite import load_workload
from repro.telemetry.instrument import (
    AMORTIZE_ESCALATIONS,
    AMORTIZE_GUIDE_TRAINS,
    AMORTIZE_SERVED,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Tracer

WORKLOAD = "12cities"


def make_server(**kwargs):
    kwargs.setdefault("n_workers", 2)
    kwargs.setdefault("registry", MetricsRegistry())
    kwargs.setdefault("tracer", Tracer())
    server = InferenceServer(**kwargs)
    server.guide_store.advi = ADVI(n_iterations=40)
    return server


def spec_for(mode, **overrides):
    overrides.setdefault("workload", WORKLOAD)
    overrides.setdefault("engine", "mh")
    overrides.setdefault("n_iterations", 40)
    overrides.setdefault("n_chains", 2)
    overrides.setdefault("elide", False)
    return JobSpec(mode=mode, **overrides)


def inject_guide(store: GuideStore, model, mu_offset=0.0, log_sigma=0.0):
    """Hand a known guide to the store (bypassing training)."""
    advi = AdviResult(
        mu=np.full(model.dim, mu_offset),
        log_sigma=np.full(model.dim, log_sigma),
    )
    record = GuideRecord(
        guide_id=store.key_for(model),
        family=model.name,
        advi=advi,
    )
    store.put(record)
    return record


class TestFastTier:
    def test_serves_surrogate_and_records_provenance(self):
        with make_server() as server:
            job = server.submit(spec_for("fast"))
            server.run_until_drained()
            assert job.state is JobState.DONE
            assert job.result is not None
            assert job.result.model_name.endswith("-amortized")
            assert job.result.n_chains == 2
            assert job.result.n_kept == job.spec.budget_kept
            prov = job.provenance
            assert prov.mode == "fast" and prov.tier == "fast"
            assert prov.guide_trained and not prov.escalated
            assert prov.k_hat is None  # fast never pays the check
            assert server.registry.counter_value(
                AMORTIZE_SERVED, {"tier": "fast"}
            ) == 1.0
            assert server.registry.counter_value(AMORTIZE_GUIDE_TRAINS) == 1.0

    def test_draws_are_deterministic_and_dedup(self):
        with make_server() as a, make_server() as b:
            ja = a.submit(spec_for("fast"))
            a.run_until_drained()
            jb = b.submit(spec_for("fast"))
            b.run_until_drained()
            for ca, cb in zip(ja.result.chains, jb.result.chains):
                assert np.array_equal(ca.samples, cb.samples)
            # Repeat submission is answered from the store, guide untouched.
            repeat = a.submit(spec_for("fast"))
            assert repeat.deduped
            assert repeat.provenance.tier == "fast"
            assert a.registry.counter_value(AMORTIZE_GUIDE_TRAINS) == 1.0

    def test_guide_reused_across_jobs(self):
        with make_server() as server:
            server.submit(spec_for("fast", seed=0))
            server.submit(spec_for("fast", seed=1))
            server.run_until_drained()
            assert server.registry.counter_value(AMORTIZE_GUIDE_TRAINS) == 1.0
            assert server.registry.counter_value(
                AMORTIZE_SERVED, {"tier": "fast"}
            ) == 2.0

    def test_different_request_seeds_differ(self):
        with make_server() as server:
            j0 = server.submit(spec_for("fast", seed=0))
            j1 = server.submit(spec_for("fast", seed=1))
            server.run_until_drained()
            assert not np.array_equal(
                j0.result.chains[0].samples, j1.result.chains[0].samples
            )


class TestCheckedTier:
    def test_awful_guide_escalates_to_exact(self):
        with make_server() as server:
            model = load_workload(WORKLOAD)
            # A guide so wrong every draw lands outside p's support:
            # PSIS fails closed (k-hat = inf) and the gate escalates.
            inject_guide(server.guide_store, model, mu_offset=50.0,
                         log_sigma=-3.0)
            job = server.submit(spec_for("checked"))
            server.run_until_drained()
            assert job.state is JobState.DONE
            prov = job.provenance
            assert prov.mode == "checked" and prov.tier == "exact"
            assert prov.escalated
            assert prov.k_hat == np.inf
            assert prov.k_hat_threshold == EscalationPolicy().k_hat_threshold
            assert not job.result.model_name.endswith("-amortized")
            assert server.registry.counter_value(
                AMORTIZE_ESCALATIONS, {"workload": WORKLOAD}
            ) == 1.0

    def test_escalated_draws_match_direct_exact_submission(self):
        with make_server() as escalated, make_server() as direct:
            inject_guide(
                escalated.guide_store, load_workload(WORKLOAD),
                mu_offset=50.0, log_sigma=-3.0,
            )
            cjob = escalated.submit(spec_for("checked"))
            escalated.run_until_drained()
            ejob = direct.submit(spec_for("exact"))
            direct.run_until_drained()
            for ca, cb in zip(cjob.result.chains, ejob.result.chains):
                assert np.array_equal(ca.samples, cb.samples)
                assert np.array_equal(ca.logps, cb.logps)

    def test_escalation_settles_both_result_keys(self):
        with make_server() as server:
            inject_guide(server.guide_store, load_workload(WORKLOAD),
                         mu_offset=50.0, log_sigma=-3.0)
            spec = spec_for("checked")
            server.submit(spec)
            server.run_until_drained()
            checked = server.store.get(spec.key())
            exact = server.store.get(spec.with_mode("exact").key())
            assert stored_provenance(checked).escalated
            assert stored_provenance(exact).tier == "exact"
            assert not stored_provenance(exact).escalated
            # A later exact submission dedups against the escalated run.
            twin = server.submit(spec.with_mode("exact"))
            assert twin.deduped
            # And a checked repeat is answered under its own key.
            repeat = server.submit(spec)
            assert repeat.deduped and repeat.provenance.escalated

    def test_passing_gate_serves_surrogate_with_k_hat(self):
        # A lenient policy isolates the serve-without-escalation path from
        # PSIS's statistical power (covered in test_amortize_psis and the
        # slow end-to-end test): the surrogate is served and the measured
        # k-hat still lands in the provenance.
        with make_server(
            escalation_policy=EscalationPolicy(k_hat_threshold=np.inf)
        ) as server:
            model = load_workload(WORKLOAD)
            inject_guide(server.guide_store, model, mu_offset=0.0,
                         log_sigma=0.0)
            job = server.submit(spec_for("checked"))
            server.run_until_drained()
            prov = job.provenance
            assert prov.tier == "checked" and not prov.escalated
            assert prov.k_hat is not None and not np.isnan(prov.k_hat)
            assert prov.k_hat_threshold == np.inf
            assert job.result.model_name.endswith("-amortized")

    def test_broken_amortized_path_degrades_to_exact(self):
        class ExplodingStore(GuideStore):
            def get_or_train(self, model):
                raise RuntimeError("guide cache on fire")

        with make_server(guide_store=ExplodingStore()) as server:
            job = server.submit(spec_for("checked"))
            server.run_until_drained()
            assert job.state is JobState.DONE
            assert job.provenance.tier == "exact"
            assert not job.provenance.escalated
            assert any("fell back to exact" in e for e in job.attempt_errors)


class TestDedupInheritance:
    def test_stored_exact_answers_amortized_modes(self):
        with make_server() as server:
            spec = spec_for("exact")
            server.submit(spec)
            server.run_until_drained()
            for mode in ("fast", "checked"):
                job = server.submit(spec.with_mode(mode))
                assert job.deduped
                assert job.provenance.mode == mode
                assert job.provenance.tier == "exact"
                assert not job.provenance.escalated

    def test_surrogate_never_answers_exact(self):
        with make_server() as server:
            spec = spec_for("fast")
            fast = server.submit(spec)
            server.run_until_drained()
            exact = server.submit(spec.with_mode("exact"))
            assert not exact.deduped
            server.run_until_drained()
            assert not np.array_equal(
                fast.result.chains[0].samples,
                exact.result.chains[0].samples,
            )

    def test_already_stored_exact_answers_checked_at_submit(self):
        with make_server() as server:
            spec = spec_for("checked")
            exact_job = server.submit(spec.with_mode("exact"))
            server.run_until_drained()
            inject_guide(server.guide_store, load_workload(WORKLOAD),
                         mu_offset=50.0, log_sigma=-3.0)
            # The stored exact result short-circuits at submit time: the
            # surrogate (and its doomed PSIS check) never runs.
            job = server.submit(spec)
            assert job.deduped
            assert job.provenance.tier == "exact"
            assert not job.provenance.escalated
            assert job.result is exact_job.result

    def test_escalated_job_inherits_exact_result_stored_mid_queue(self):
        # Both jobs queued before draining, the exact twin at higher
        # priority: by the time the checked job escalates, the exact run
        # is already in the store, so the escalation dedups instead of
        # sampling the same chains again.
        from dataclasses import replace

        with make_server() as server:
            inject_guide(server.guide_store, load_workload(WORKLOAD),
                         mu_offset=50.0, log_sigma=-3.0)
            spec = spec_for("checked")
            job = server.submit(spec)
            exact_job = server.submit(
                replace(spec.with_mode("exact"), priority=5)
            )
            server.run_until_drained()
            assert not exact_job.deduped
            assert job.deduped  # escalation answered from the store
            assert job.provenance.escalated
            assert job.result is exact_job.result


class TestGuidePersistenceAcrossServers:
    def test_guide_survives_restart(self, tmp_path):
        store_dir = str(tmp_path / "guides")
        with make_server(guide_store=GuideStore(
            directory=store_dir, advi=ADVI(n_iterations=40)
        )) as first:
            server_spec = spec_for("fast")
            job = first.submit(server_spec)
            first.run_until_drained()
            assert job.provenance.guide_trained
        with make_server(guide_store=GuideStore(
            directory=store_dir, advi=ADVI(n_iterations=40)
        )) as second:
            job = second.submit(spec_for("fast", seed=5))
            second.run_until_drained()
            assert not job.provenance.guide_trained
            assert second.registry.counter_value(AMORTIZE_GUIDE_TRAINS) == 0.0


@pytest.mark.slow
class TestCheckedModeEndToEnd:
    """The full nightly story on votes: serve, escalate, bit-identical."""

    WORKLOAD = "votes"
    SCALE = 0.5

    def oracle_guide(self, model):
        """A well-matched guide: moment-matched to a short NUTS run."""
        from repro.inference import run_chains
        from repro.inference.engines import build_engine

        result = run_chains(
            model, build_engine("nuts", {"max_tree_depth": 6}),
            n_chains=2, n_iterations=400, seed=0,
        )
        flat = np.vstack([c.samples for c in result.chains])
        return AdviResult(
            mu=flat.mean(axis=0),
            log_sigma=np.log(flat.std(axis=0) * 1.3),
        )

    def test_good_guide_serves_poor_guide_escalates_bit_identical(self):
        model = load_workload(self.WORKLOAD, scale=self.SCALE)

        # Part 1: the well-matched guide passes the gate and is served.
        good_spec = JobSpec(
            workload=self.WORKLOAD, scale=self.SCALE, mode="checked",
            engine="nuts", engine_options={"max_tree_depth": 6},
            n_iterations=800, n_chains=2, elide=False, seed=0,
        )
        with make_server() as server:
            good = inject_guide(server.guide_store, model)
            good.advi = self.oracle_guide(model)
            server.guide_store.put(good)
            job = server.submit(good_spec)
            server.run_until_drained()
            prov = job.provenance
            assert prov.tier == "checked" and not prov.escalated
            assert prov.k_hat <= prov.k_hat_threshold == 0.7
            assert job.result.model_name.endswith("-amortized")
            assert job.result.n_kept == 400 and job.result.n_chains == 2

        # Part 2: a poor guide trips the gate; the escalated NUTS draws are
        # bit-identical to a direct exact submission of the same spec.
        bad_spec = JobSpec(
            workload=self.WORKLOAD, scale=self.SCALE, mode="checked",
            engine="nuts", engine_options={"max_tree_depth": 6},
            n_iterations=300, n_chains=2, elide=False, seed=0,
        )
        with make_server() as escalating, make_server() as direct:
            inject_guide(escalating.guide_store, model, mu_offset=40.0,
                         log_sigma=-2.0)
            cjob = escalating.submit(bad_spec)
            escalating.run_until_drained()
            prov = cjob.provenance
            assert prov.escalated and prov.tier == "exact"
            assert prov.k_hat > 0.7
            ejob = direct.submit(bad_spec.with_mode("exact"))
            direct.run_until_drained()
            assert ejob.provenance.tier == "exact"
            assert not ejob.provenance.escalated
            for ca, cb in zip(cjob.result.chains, ejob.result.chains):
                assert np.array_equal(ca.samples, cb.samples)
                assert np.array_equal(ca.logps, cb.logps)
