"""Figure 3 — LLC miss-rate prediction from modeled data size.

Each workload contributes three points (full, half ``-h`` and quarter ``-q``
datasets, as in the paper). Shapes to hold: modeled data size is positively
correlated with the 4-core LLC miss rate; above 1 MPKI the relationship is
accurately linear; tickets, survival, and ad are identifiable by a single
data-size threshold.
"""

import numpy as np
from conftest import print_table

from repro.arch.machine import MachineModel
from repro.arch.platforms import SKYLAKE
from repro.core.predictor import (
    LlcMissPredictor,
    PredictionPoint,
    characterization_points,
)
from repro.suite import workload_names

SCALES = {"": 1.0, "-h": 0.5, "-q": 0.25}
#: The workloads the threshold is judged on, and the LLC-bound ones of them.
CLASSIFIED = ("12cities", "ad", "butterfly", "disease", "ode", "racial",
              "survival", "tickets", "votes")
LLC_BOUND = ("ad", "survival", "tickets")


def build_fig3(runner):
    machine = MachineModel(SKYLAKE)
    points = []
    for name in workload_names():
        for suffix, scale in SCALES.items():
            profile = runner.profile(name, scale=scale)
            counters = machine.counters(profile, n_cores=4, n_chains=4)
            points.append(
                PredictionPoint(
                    name=name + suffix,
                    modeled_data_bytes=profile.modeled_data_bytes,
                    llc_mpki=counters.llc_mpki,
                )
            )
    predictor = LlcMissPredictor().fit(points)
    return points, predictor


def test_fig3_llc_prediction(runner, benchmark, claim):
    points, predictor = benchmark.pedantic(
        build_fig3, args=(runner,), rounds=1, iterations=1
    )
    rows = [
        f"{p.name:<12s} {p.modeled_data_bytes:>9.0f} {p.llc_mpki:>8.2f} "
        f"{'bound' if p.llc_bound else '-':>6s} "
        f"{predictor.predict_mpki(p.modeled_data_bytes):>8.2f}"
        for p in sorted(points, key=lambda p: p.modeled_data_bytes)
    ]
    header = (
        f"{'point':<12s} {'data B':>9s} {'MPKI':>8s} {'class':>6s} {'pred':>8s}"
    )
    print_table(
        "Figure 3: LLC miss rate vs modeled data size (full/-h/-q)",
        header, rows,
        footer=f"threshold = {predictor.threshold_bytes:,.0f} bytes, "
               f"R^2 (>=1 MPKI region) = {predictor.r_squared(points):.3f}",
    )

    # Positive correlation between data size and miss rate.
    sizes = np.array([p.modeled_data_bytes for p in points])
    mpkis = np.array([p.llc_mpki for p in points])
    assert np.corrcoef(sizes, mpkis)[0, 1] > 0.6

    # The paper's three LLC-bound workloads are classified by the threshold.
    above = tuple(
        name for name in CLASSIFIED
        if predictor.predict_llc_bound(runner.profile(name).modeled_data_bytes)
    )
    claim("Fig. 3", "workloads above the data-size threshold",
          "ad, survival, tickets", above, "==", LLC_BOUND)

    # Accurate linear prediction in the >= 1 MPKI region.
    claim("Fig. 3", "R² of the linear fit above 1 MPKI", "accurately linear",
          predictor.r_squared(points), ">", 0.75, fmt="{:.3f}")
