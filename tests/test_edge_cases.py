"""Edge-case coverage for corners the main suites don't reach."""

import numpy as np
import pytest

from repro.hardware import ComputeNode
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
    def test_single_sample_mean_power(self):
        tr = PowerTrace(np.array([1.0]), np.array([42.0]))
        assert tr.mean_power_w() == 42.0

    def test_add_type_mismatch(self):
        tr = PowerTrace(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(TypeError):
            _ = tr + 5


class TestHardwareEdges:
    def test_node_repr_smoke(self):
        assert "ComputeNode" in repr(ComputeNode())

    def test_cpu_energy_validation(self):
        node = ComputeNode()
        with pytest.raises(ValueError):
            node.cpus[0].energy_j(0.5, -1.0)
        assert node.cpus[0].energy_j(0.5, 2.0) > 0
