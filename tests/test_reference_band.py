"""Served answers against a committed reference posterior.

Every identity battery proves one path matches another; this file proves
a served answer is the right posterior. ``reference_posteriors.npz`` in
``tests/data`` (written by ``benchmarks/reference_posteriors.py``) holds a
long 4-chain NUTS run per shape; a job in the ledger's ``small-exact`` shape is
submitted through the real :class:`InferenceServer` in ``exact`` and
``checked`` mode, and each answer must land inside
:func:`~repro.diagnostics.mcse.posterior_band` of the reference. A sampler
that targets ``logp / 4`` must not.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.batch import run_chains_batched
from repro.diagnostics.mcse import posterior_band, posterior_moments
from repro.inference.nuts import NUTS
from repro.serve import InferenceServer, JobSpec, JobState
from repro.suite import load_workload
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Tracer

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "reference_posteriors.py"
_spec = importlib.util.spec_from_file_location("reference_posteriors", SCRIPT)
reference_posteriors = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference_posteriors)

SHAPE = "12cities@0.5"
#: The ledger's ``small-exact`` job (benchmarks/ledger/workloads.py), at its
#: first pool seed: the reference runs seed 0.
SPEC = dict(
    workload="12cities", scale=0.5, engine="nuts", n_chains=4,
    n_iterations=200, elide=True, checkpoint_interval=50, seed=1001,
)


class QuarterNUTS(NUTS):
    """NUTS on ``logp / 4``: a wrong sampler, which doubles every sd of a
    Gaussian posterior (12cities' median sd ratio reads 2.7)."""

    def _steps(self, loop):
        steps = super()._steps(loop)
        answer = None
        while True:
            try:
                x = steps.send(answer)
            except StopIteration as stop:
                return stop.value
            logp, grad = yield x
            answer = (logp / 4.0, grad / 4.0)


def served(mode: str):
    with InferenceServer(
        n_workers=1, registry=MetricsRegistry(), tracer=Tracer()
    ) as server:
        job = server.submit(JobSpec(mode=mode, **SPEC))
        server.run_until_drained()
    assert job.state is JobState.DONE
    return job


@pytest.fixture(scope="module")
def ref():
    return reference_posteriors.load()[SHAPE]


@pytest.mark.parametrize("mode", ["exact", "checked"])
def test_served_answer_is_inside_the_band(mode, ref):
    job = served(mode)
    prov = job.provenance
    # The mean-field guide's k-hat on 12cities is above 0.7, so the checked
    # tier answers with exact NUTS; its provenance must say so.
    assert prov.tier == "exact"
    assert prov.escalated == (mode == "checked")
    if mode == "checked":
        assert prov.k_hat > prov.k_hat_threshold
    band = posterior_band(posterior_moments(job.result.stacked()), ref)
    assert band.passed, (band.max_z, band.z)


def test_a_mis_scaled_sampler_fails_the_band(ref):
    model = load_workload(SPEC["workload"], scale=SPEC["scale"])
    result = run_chains_batched(
        model, QuarterNUTS(max_tree_depth=6), SPEC["n_iterations"],
        n_chains=SPEC["n_chains"], seed=SPEC["seed"],
    )
    band = posterior_band(posterior_moments(result.stacked()), ref)
    assert not band.passed
    assert np.median(band.sd_ratio) > 1.5
