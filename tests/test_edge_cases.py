"""Edge-case coverage for corners the main suites don't reach."""

import numpy as np
import pytest

from repro.hardware import ComputeNode, GpuModel, MemorySubsystem
from repro.power import PowerTrace
from repro.sim import Environment, SimulationError


class TestSimEngineEdges:
    def test_timeout_carries_value(self):
        env = Environment()
        t = env.timeout(2.0, value={"k": 1})
        assert env.run(until=t) == {"k": 1}

    def test_interrupt_cause_none_by_default(self):
        env = Environment()

        def victim():
            try:
                yield env.timeout(10.0)
            except BaseException as e:
                return e.cause

        def attacker(target):
            yield env.timeout(1.0)
            target.interrupt()

        v = env.process(victim())
        env.process(attacker(v))
        assert env.run(until=v) is None


class TestTraceEdges:
    def test_resample_short_trace_identity(self):
        tr = PowerTrace(np.array([0.0]), np.array([5.0]))
        assert tr.resample(10.0) is tr

    def test_single_sample_mean_power(self):
        tr = PowerTrace(np.array([1.0]), np.array([42.0]))
        assert tr.mean_power_w() == 42.0

    def test_add_type_mismatch(self):
        tr = PowerTrace(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(TypeError):
            _ = tr + 5


class TestHardwareEdges:
    def test_stream_time_infinite_on_zero_bandwidth_mix(self):
        mem = MemorySubsystem()
        # A valid mix always has bandwidth; zero bytes is free.
        assert mem.stream_time_s(0.0) == 0.0
        with pytest.raises(ValueError):
            mem.stream_time_s(-1.0)

    def test_gpu_kernel_time_validation(self):
        gpu = GpuModel()
        with pytest.raises(ValueError):
            gpu.kernel_time_s(-1.0, 1.0)
        with pytest.raises(ValueError):
            gpu.attainable_flops(-1.0)
        # A sleeping GPU computes nothing: infinite kernel time.
        gpu.sleep()
        assert gpu.kernel_time_s(1e9, 10.0) == float("inf")

    def test_node_repr_smoke(self):
        assert "ComputeNode" in repr(ComputeNode())

    def test_cpu_energy_validation(self):
        node = ComputeNode()
        with pytest.raises(ValueError):
            node.cpus[0].energy_j(0.5, -1.0)
        assert node.cpus[0].energy_j(0.5, 2.0) > 0
