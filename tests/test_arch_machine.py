"""Tests for platforms, profiles, the machine model, and the energy model."""

import numpy as np
import pytest

from repro.arch.energy import EnergyModel
from repro.arch.machine import MachineModel
from repro.arch.platforms import BROADWELL, PLATFORMS, SKYLAKE, TABLE2_HEADER
from repro.arch.profile import WorkloadProfile


def make_profile(
    name="synthetic",
    data_bytes=64 * 1024,
    intermediate_kb=200,
    gather_kb=0,
    nodes=150,
    code_bytes=800,
    work_per_iteration=40.0,
    span=1e4,
):
    return WorkloadProfile(
        name=name,
        modeled_data_bytes=data_bytes,
        modeled_data_points=data_bytes // 8,
        dim=50,
        code_footprint_bytes=code_bytes,
        tape_nodes=nodes,
        tape_bytes=int(intermediate_kb * 1024 + data_bytes),
        tape_intermediate_bytes=int(intermediate_kb * 1024),
        tape_gather_bytes=int(gather_kb * 1024),
        tape_span_instructions=span,
        work_per_iteration=work_per_iteration,
        default_iterations=2000,
        default_warmup=500,
        default_chains=4,
    )


SMALL = make_profile("small", data_bytes=4 * 1024, intermediate_kb=20)
LARGE = make_profile("large", data_bytes=400 * 1024, intermediate_kb=1100,
                     gather_kb=220, code_bytes=1100)


class TestPlatforms:
    def test_table2_values(self):
        assert SKYLAKE.cores == 4
        assert SKYLAKE.llc_mb == 8.0
        assert SKYLAKE.turbo_ghz == 4.2
        assert BROADWELL.cores == 16
        assert BROADWELL.llc_mb == 40.0
        assert BROADWELL.tdp_w == 145.0

    def test_derived_quantities(self):
        assert SKYLAKE.llc_bytes == 8 * 1024 * 1024
        assert SKYLAKE.icache_bytes == 32 * 1024
        assert SKYLAKE.frequency_hz == 4.2e9

    def test_registry(self):
        assert PLATFORMS["skylake"] is SKYLAKE
        assert PLATFORMS["broadwell"] is BROADWELL

    def test_row_rendering(self):
        row = SKYLAKE.row()
        assert "i7-6700K" in row
        assert "Skylake" in row
        assert len(TABLE2_HEADER) > 0


class TestWorkloadProfile:
    def test_working_set_grows_with_intermediates(self):
        assert LARGE.working_set_bytes > SMALL.working_set_bytes

    def test_instruction_count_positive(self):
        assert SMALL.instructions_per_work_unit > 0


class TestMachineModel:
    def test_small_workload_no_llc_pressure(self):
        machine = MachineModel(SKYLAKE)
        counters = machine.counters(SMALL, n_cores=4, n_chains=4)
        assert counters.llc_mpki < 0.5
        assert counters.ipc > 2.0

    def test_large_workload_llc_bound_at_four_cores(self):
        machine = MachineModel(SKYLAKE)
        one = machine.counters(LARGE, n_cores=1, n_chains=4)
        four = machine.counters(LARGE, n_cores=4, n_chains=4)
        assert four.llc_mpki > one.llc_mpki
        assert four.llc_mpki > 5.0
        assert four.ipc < one.ipc

    def test_big_llc_platform_relieves_pressure(self):
        sky = MachineModel(SKYLAKE).counters(LARGE, 4, 4)
        bdw = MachineModel(BROADWELL).counters(LARGE, 4, 4)
        assert bdw.llc_mpki < sky.llc_mpki
        assert bdw.ipc > sky.ipc

    def test_one_core_runs_chains_sequentially(self):
        # With 1 core, only one chain's working set is resident at a time.
        machine = MachineModel(SKYLAKE)
        counters = machine.counters(LARGE, n_cores=1, n_chains=4)
        assert counters.llc_miss_ratio == machine.llc_miss_ratio(LARGE, 1)
        assert counters.llc_miss_ratio < machine.llc_miss_ratio(LARGE, 4)

    def test_icache_overflow_penalized(self):
        big_code = make_profile(code_bytes=1200)
        small_code = make_profile(code_bytes=400)
        machine = MachineModel(SKYLAKE)
        assert (
            machine.icache_mpki(big_code) > 5 * machine.icache_mpki(small_code)
        )

    def test_branch_mpki_in_paper_range(self):
        machine = MachineModel(SKYLAKE)
        for profile in (SMALL, LARGE):
            assert 0.0 < machine.branch_mpki(profile) < 3.0

    def test_bandwidth_capped_at_platform_peak(self):
        monster = make_profile(
            data_bytes=4 * 1024 * 1024, intermediate_kb=8000, gather_kb=4000
        )
        machine = MachineModel(SKYLAKE)
        counters = machine.counters(monster, 4, 4)
        assert counters.bandwidth_mbs <= SKYLAKE.bandwidth_gbs * 1000.0 + 1.0

    def test_core_count_validation(self):
        machine = MachineModel(SKYLAKE)
        with pytest.raises(ValueError, match="cores"):
            machine.counters(SMALL, n_cores=8)
        with pytest.raises(ValueError, match="n_chains"):
            machine.counters(SMALL, n_cores=1, n_chains=0)

    def test_seconds_per_work_unit_positive(self):
        counters = MachineModel(SKYLAKE).counters(SMALL, 1, 4)
        assert counters.seconds_per_work_unit > 0


class TestJobSeconds:
    def test_equal_chains_scale_with_cores_when_compute_bound(self):
        machine = MachineModel(SKYLAKE)
        works = [1000.0] * 4
        t1 = machine.job_seconds(SMALL, works, n_cores=1)
        t4 = machine.job_seconds(SMALL, works, n_cores=4)
        assert t1 / t4 == pytest.approx(4.0, rel=0.01)

    def test_llc_bound_speedup_saturates(self):
        machine = MachineModel(SKYLAKE)
        works = [1000.0] * 4
        t1 = machine.job_seconds(LARGE, works, n_cores=1)
        t4 = machine.job_seconds(LARGE, works, n_cores=4)
        assert t1 / t4 < 2.5  # paper: LLC-bound workloads scale poorly

    def test_slowest_chain_constrains_latency(self):
        machine = MachineModel(SKYLAKE)
        balanced = machine.job_seconds(SMALL, [1000.0] * 4, n_cores=4)
        imbalanced = machine.job_seconds(SMALL, [1700.0, 900.0, 700.0, 700.0],
                                         n_cores=4)
        # Same total work, but the long chain dominates on 4 cores.
        assert imbalanced > balanced * 1.5

    def test_lpt_assignment_beats_naive_worstcase(self):
        machine = MachineModel(SKYLAKE)
        works = [900.0, 800.0, 200.0, 100.0]
        two_cores = machine.job_seconds(SMALL, works, n_cores=2)
        per_unit = machine.counters(SMALL, 2, 4).seconds_per_work_unit
        # LPT puts 900+100 and 800+200 together -> makespan 1000 units.
        assert two_cores == pytest.approx(1000.0 * per_unit, rel=1e-9)

    def test_empty_works(self):
        assert MachineModel(SKYLAKE).job_seconds(SMALL, [], 2) == 0.0

    def test_profiles_are_always_calibrated(self):
        """Every profile carries a measured trajectory length: a profile
        without a calibration run is refused where it would be built."""
        from repro.arch.profile import profile_workload

        with pytest.raises(ValueError, match="calibration_iterations"):
            profile_workload(object(), calibration_iterations=0)


class TestEnergyModel:
    def test_power_monotone_in_cores(self):
        energy = EnergyModel(SKYLAKE)
        powers = [energy.power_watts(c) for c in range(5)]
        assert powers == sorted(powers)
        assert powers[4] == pytest.approx(SKYLAKE.tdp_w)

    def test_idle_fraction(self):
        energy = EnergyModel(SKYLAKE)
        assert energy.power_watts(0) == pytest.approx(0.3 * SKYLAKE.tdp_w)

    def test_energy_scales_with_time(self):
        energy = EnergyModel(BROADWELL)
        assert energy.energy_joules(4, 10.0) == pytest.approx(
            10.0 * energy.power_watts(4)
        )

    def test_validation(self):
        energy = EnergyModel(SKYLAKE)
        with pytest.raises(ValueError, match="active cores"):
            energy.power_watts(5)
        with pytest.raises(ValueError, match="non-negative"):
            energy.energy_joules(1, -1.0)

    def test_fewer_cores_lower_power_but_longer_time_tradeoff(self):
        # The DSE tradeoff: 1 core of Skylake burns less power than 4.
        energy = EnergyModel(SKYLAKE)
        assert energy.power_watts(1) < 0.6 * energy.power_watts(4)
