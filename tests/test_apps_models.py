"""Tests for the phase-based application models and platforms."""

import numpy as np
import pytest

from repro.apps import (
    ALL_APPS,
    ApplicationModel,
    CommKind,
    Device,
    ExecutionPlatform,
    Phase,
    bqcd,
    nemo,
    quantum_espresso,
    specfem3d,
)


class TestPhase:
    def test_validation(self):
        with pytest.raises(ValueError):
            Phase(name="bad", flops=-1.0)
        with pytest.raises(ValueError):
            Phase(name="bad", comm_neighbors=-1)

    def test_arithmetic_intensity(self):
        assert Phase(name="x", flops=100.0, bytes_moved=50.0).arithmetic_intensity == 2.0
        assert Phase(name="x", flops=100.0, bytes_moved=0.0).arithmetic_intensity == float("inf")
        assert Phase(name="x").arithmetic_intensity == 0.0


class TestApplicationModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ApplicationModel(name="x", phases=())
        with pytest.raises(ValueError):
            ApplicationModel(name="x", phases=(Phase(name="p"),), n_iterations=0)

    def test_factories_validate_scale(self):
        for factory in (quantum_espresso, nemo, specfem3d, bqcd):
            with pytest.raises(ValueError):
                factory(scale=0.0)

    def test_all_apps_registry(self):
        assert set(ALL_APPS) == {"qe", "nemo", "specfem", "bqcd"}


class TestExecutionPlatforms:
    @pytest.mark.parametrize("factory", [quantum_espresso, nemo, specfem3d, bqcd])
    def test_gpu_beats_cpu_for_all_apps(self, factory):
        app = factory(scale=0.5, n_iterations=5)
        cpu = ExecutionPlatform.cpu_only().run(app, n_nodes=4)
        gpu = ExecutionPlatform.gpu_nvlink().run(app, n_nodes=4)
        assert gpu.time_to_solution_s < cpu.time_to_solution_s

    @pytest.mark.parametrize("factory", [quantum_espresso, nemo, specfem3d, bqcd])
    def test_gpu_saves_energy_for_all_apps(self, factory):
        app = factory(scale=0.5, n_iterations=5)
        cpu = ExecutionPlatform.cpu_only().run(app, n_nodes=4)
        gpu = ExecutionPlatform.gpu_nvlink().run(app, n_nodes=4)
        assert gpu.energy_to_solution_j < cpu.energy_to_solution_j

    def test_nvlink_beats_pcie_for_qe(self):
        # The paper: FFT pair-exchange over NVLink is QE's headline win.
        app = quantum_espresso(scale=1.0, n_iterations=5)
        pcie = ExecutionPlatform.gpu_pcie().run(app, n_nodes=4)
        nvlink = ExecutionPlatform.gpu_nvlink().run(app, n_nodes=4)
        assert nvlink.time_to_solution_s < pcie.time_to_solution_s

    def test_nvlink_beats_pcie_for_bqcd(self):
        app = bqcd(scale=1.0, n_iterations=5)
        pcie = ExecutionPlatform.gpu_pcie().run(app, n_nodes=4)
        nvlink = ExecutionPlatform.gpu_nvlink().run(app, n_nodes=4)
        assert nvlink.time_to_solution_s < pcie.time_to_solution_s

    def test_nvlink_matters_less_for_nemo(self):
        # NEMO has no device-peer traffic: NVLink gain should be marginal.
        app = nemo(scale=1.0, n_iterations=5)
        pcie = ExecutionPlatform.gpu_pcie().run(app, n_nodes=4)
        nvlink = ExecutionPlatform.gpu_nvlink().run(app, n_nodes=4)
        gain = pcie.time_to_solution_s / nvlink.time_to_solution_s
        assert gain < 1.05

    def test_nemo_speedup_tracks_bandwidth_ratio(self):
        # Bandwidth-bound: GPU/CPU speedup ~ aggregate HBM / socket DDR.
        app = nemo(scale=1.0, n_iterations=5)
        cpu = ExecutionPlatform.cpu_only().run(app, n_nodes=1)
        gpu = ExecutionPlatform.gpu_nvlink().run(app, n_nodes=1)
        speedup = cpu.time_to_solution_s / gpu.time_to_solution_s
        bw_ratio = (4 * 732e9) / (2 * 115e9)  # ~12.7x
        assert speedup == pytest.approx(bw_ratio, rel=0.35)

    def test_single_node_run_has_no_network_comm(self):
        app = nemo(scale=1.0, n_iterations=5)
        report = ExecutionPlatform.gpu_nvlink().run(app, n_nodes=1)
        halo = [t for t in report.phase_timings if t.phase.comm is CommKind.HALO]
        assert all(t.comm_s == 0.0 for t in halo)

    def test_comm_fraction_grows_with_nodes(self):
        app = bqcd(scale=1.0, n_iterations=5)
        platform = ExecutionPlatform.gpu_nvlink()
        small = platform.run(app, n_nodes=2)
        large = platform.run(app, n_nodes=32)
        assert large.comm_fraction() >= small.comm_fraction()

    def test_invalid_node_count(self):
        with pytest.raises(ValueError):
            ExecutionPlatform.gpu_nvlink().run(nemo(n_iterations=1), n_nodes=0)


class TestExecutionReport:
    def test_power_trace_structure(self):
        app = quantum_espresso(scale=0.5, n_iterations=10)
        report = ExecutionPlatform.gpu_nvlink().run(app, n_nodes=2)
        trace = report.power_trace(iterations=3)
        assert len(trace) > 0
        assert trace.peak_power_w() < 2500.0
        assert trace.mean_power_w() > 500.0

    def test_energy_consistent_with_mean_power(self):
        app = nemo(scale=0.5, n_iterations=10)
        report = ExecutionPlatform.gpu_nvlink().run(app, n_nodes=2)
        assert report.energy_to_solution_j == pytest.approx(
            report.mean_power_w * report.time_to_solution_s, rel=1e-9
        )

    def test_cpu_platform_sleeps_gpus_for_power(self):
        app = nemo(scale=0.5, n_iterations=5)
        cpu_report = ExecutionPlatform.cpu_only().run(app, n_nodes=1)
        # With GPUs asleep, node power must sit well below the GPU envelope.
        assert cpu_report.mean_power_w < 1100.0
