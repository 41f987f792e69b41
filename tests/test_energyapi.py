"""Tests for the energy-proportionality node API and instrumentation."""

import numpy as np
import pytest

from repro.energyapi import (
    ComponentConfig,
    Instrumentation,
    NodeEnergyApi,
    TradeoffRecorder,
)
from repro.hardware import ComputeNode
from repro.telemetry import PowerProfiler
from repro.power import PowerTrace


def _asleep(gpu) -> bool:
    """A sleeping GPU resolves to a zero clock."""
    return gpu.operating_point().clock_hz == 0.0


class TestComponentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ComponentConfig(gpus_needed=-1)
        ComponentConfig()  # all-None is a valid no-op


class TestNodeEnergyApi:
    def test_sleep_unused_gpus_saves_power(self):
        node = ComputeNode()
        api = NodeEnergyApi(node)
        before = node.power_w()
        slept = api.sleep_unused_gpus(1)
        assert slept == 3
        assert node.power_w() < before
        assert not _asleep(node.gpus[0])
        assert all(_asleep(g) for g in node.gpus[1:])

    def test_apply_composite_config(self):
        node = ComputeNode()
        api = NodeEnergyApi(node)
        api.apply(ComponentConfig(active_cores_per_cpu=4, gpus_needed=2))
        cpu = node.cpus[0]
        assert cpu.peak_flops() == pytest.approx(
            4 * cpu.spec.flops_per_cycle_per_core * cpu.frequency_hz)
        assert sum(_asleep(g) for g in node.gpus) == 2

    def test_call_log(self):
        api = NodeEnergyApi(ComputeNode())
        api.set_active_cores(2)
        api.sleep_unused_gpus(1)
        api.apply(ComponentConfig(active_cores_per_cpu=4))
        assert api.log.calls == ["cores=2", "gpus=1", "cores=4"]


class TestInstrumentation:
    def test_markers_recorded_with_clock(self):
        now = {"t": 0.0}
        instr = Instrumentation(clock=lambda: now["t"])
        with instr.region("fft"):
            now["t"] = 2.0
        with instr.region("mpi"):
            now["t"] = 3.0
        assert len(instr.markers) == 2
        fft = instr.markers_for("fft")[0]
        assert fft.t_enter_s == 0.0 and fft.t_exit_s == 2.0

    def test_markers_feed_profiler(self):
        now = {"t": 0.0}
        instr = Instrumentation(clock=lambda: now["t"])
        with instr.region("hot"):
            now["t"] = 1.0
        with instr.region("cold"):
            now["t"] = 2.0
        t = np.arange(0, 2, 0.01)
        trace = PowerTrace(t, np.where(t < 1.0, 1800.0, 600.0))
        profiler = PowerProfiler(trace)
        sep = profiler.region_power_separation(instr.markers, "hot", "cold")
        assert sep > 1000.0


class TestTradeoffRecorder:
    def test_best_selectors(self):
        rec = TradeoffRecorder()
        rec.record("fast", time_s=10.0, energy_j=2000.0)
        rec.record("eco", time_s=20.0, energy_j=1200.0)
        rec.record("balanced", time_s=12.0, energy_j=1500.0)
        assert rec.best_time().label == "fast"
        assert rec.best_energy().label == "eco"

    def test_pareto_front(self):
        rec = TradeoffRecorder()
        rec.record("a", 10.0, 2000.0)
        rec.record("b", 12.0, 1500.0)
        rec.record("dominated", 13.0, 1600.0)
        rec.record("c", 20.0, 1200.0)
        front = [p.label for p in rec.pareto_front()]
        assert front == ["a", "b", "c"]

    def test_validation(self):
        rec = TradeoffRecorder()
        with pytest.raises(ValueError):
            rec.record("x", time_s=0.0, energy_j=1.0)
        with pytest.raises(ValueError):
            rec.best_energy()
