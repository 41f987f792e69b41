"""The Garrison compute node: 2x POWER8+ + 4x P100 + fabric + memory.

This is the unit every higher layer operates on: the energy gateway taps
its power rails, the capping controllers tune its components, the
scheduler allocates it, the cooling loop extracts its heat.

The node exposes:

* per-component power breakdown (the EG measures each rail separately);
* a utilization state (CPU / GPU busy fractions) set by running jobs;
* a **node power cap** implemented by proportionally limiting the GPUs
  and stepping the CPUs down the p-state ladder — the "local feedback
  controllers which tune the operating points of the internal components"
  of Section III-A2 (the node provides the actuators; on a live
  cluster :class:`~repro.monitoring.daemon.CappingAgent` closes the
  loop);
* peak-performance roll-ups used by the envelope benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpu import CpuModel
from .gpu import GpuModel
from .interconnect import NodeFabric
from .memory import MemorySubsystem
from .specs import GARRISON_NODE, NodeSpec

__all__ = ["PowerBreakdown", "ComputeNode"]


@dataclass(frozen=True)
class PowerBreakdown:
    """Instantaneous node power split by rail (watts)."""

    cpus: tuple[float, ...]
    gpus: tuple[float, ...]
    memory: float
    misc: float

    @property
    def total_w(self) -> float:
        """Sum over all rails."""
        return sum(self.cpus) + sum(self.gpus) + self.memory + self.misc

    def as_dict(self) -> dict[str, float]:
        """Flat rail-name -> watts mapping (the EG's channel map)."""
        d: dict[str, float] = {}
        for i, p in enumerate(self.cpus):
            d[f"cpu{i}"] = p
        for i, p in enumerate(self.gpus):
            d[f"gpu{i}"] = p
        d["mem"] = self.memory
        d["misc"] = self.misc
        return d


class ComputeNode:
    """Stateful Garrison node model."""

    #: Memory power scales between these bounds with traffic intensity.
    MEM_IDLE_W = 40.0
    MEM_ACTIVE_W = 120.0

    def __init__(self, node_id: int = 0, spec: NodeSpec = GARRISON_NODE):
        self.node_id = node_id
        self.spec = spec
        self.cpus = [CpuModel(spec.cpu) for _ in range(spec.n_cpus)]
        self.gpus = [GpuModel(spec.gpu) for _ in range(spec.n_gpus)]
        self.memory = MemorySubsystem(spec.memory)
        self.fabric = NodeFabric(n_cpus=spec.n_cpus, gpus_per_cpu=spec.n_gpus // spec.n_cpus)
        self.cpu_utilization = [0.0] * spec.n_cpus
        self.gpu_utilization = [0.0] * spec.n_gpus
        self.memory_intensity = 0.0  # fraction of sustained bandwidth in use
        self._power_cap_w: float | None = None

    # -- workload state -------------------------------------------------------
    def set_utilization(
        self,
        cpu: float | list[float] = 0.0,
        gpu: float | list[float] = 0.0,
        memory_intensity: float | None = None,
    ) -> None:
        """Set busy fractions for CPUs and GPUs (scalar broadcasts to all)."""
        cpu_list = [cpu] * self.spec.n_cpus if np.isscalar(cpu) else list(cpu)
        gpu_list = [gpu] * self.spec.n_gpus if np.isscalar(gpu) else list(gpu)
        if len(cpu_list) != self.spec.n_cpus or len(gpu_list) != self.spec.n_gpus:
            raise ValueError("utilization list length mismatch")
        for u in cpu_list + gpu_list:
            if not 0.0 <= u <= 1.0:
                raise ValueError("utilization must lie in [0, 1]")
        self.cpu_utilization = [float(u) for u in cpu_list]
        self.gpu_utilization = [float(u) for u in gpu_list]
        if memory_intensity is not None:
            if not 0.0 <= memory_intensity <= 1.0:
                raise ValueError("memory intensity must lie in [0, 1]")
            self.memory_intensity = float(memory_intensity)

    def idle(self) -> None:
        """Return the node to the idle state (all utilization zero)."""
        self.set_utilization(cpu=0.0, gpu=0.0, memory_intensity=0.0)

    # -- power -----------------------------------------------------------------
    def power_breakdown(self) -> PowerBreakdown:
        """Per-rail power at the current state (post-cap actuation)."""
        cpu_p = tuple(c.power_w(u) for c, u in zip(self.cpus, self.cpu_utilization))
        gpu_p = tuple(g.power_w(u) for g, u in zip(self.gpus, self.gpu_utilization))
        mem_p = self.MEM_IDLE_W + (self.MEM_ACTIVE_W - self.MEM_IDLE_W) * self.memory_intensity
        return PowerBreakdown(cpus=cpu_p, gpus=gpu_p, memory=mem_p, misc=self.spec.misc_power_w)

    def power_w(self) -> float:
        """Total node power at the wall of the 12 V busbar."""
        return self.power_breakdown().total_w

    # -- capping actuators -------------------------------------------------------
    def apply_power_cap(self, cap_w: float | None) -> float:
        """Actuate component limits so predicted power meets ``cap_w``.

        Strategy (mirrors the shipped firmware policy): misc + memory are
        uncontrollable; the controllable budget is split between GPUs and
        CPUs proportionally to their uncapped demand, then each GPU gets a
        board power limit and each CPU the fastest p-state whose predicted
        power fits its share.  Returns the predicted post-actuation power.
        Passing ``None`` removes the cap and restores full limits.
        """
        if cap_w is None:
            self._power_cap_w = None
            for g in self.gpus:
                g.set_power_limit(g.spec.tdp_w)
            for c in self.cpus:
                c.set_pstate(0)
            return self.power_w()
        if not cap_w > 0:
            # ``not >`` so a NaN cap is rejected too (NaN compares false).
            raise ValueError(f"cap_w must be positive, got {cap_w!r}")
        self._power_cap_w = float(cap_w)
        # Uncapped demand per component at current utilization.
        for g in self.gpus:
            g.set_power_limit(g.spec.tdp_w)
        for c in self.cpus:
            c.set_pstate(0)
        bd = self.power_breakdown()
        fixed = bd.memory + bd.misc
        budget = max(cap_w - fixed, 0.0)
        demand_gpu = sum(bd.gpus)
        demand_cpu = sum(bd.cpus)
        demand = demand_gpu + demand_cpu
        if demand <= budget or demand == 0:
            return self.power_w()
        gpu_budget = budget * demand_gpu / demand
        cpu_budget = budget * demand_cpu / demand
        # GPUs: equal share of the GPU budget as board limits.
        if self.gpus:
            per_gpu = gpu_budget / len(self.gpus)
            for g in self.gpus:
                g.set_power_limit(max(per_gpu, g.spec.idle_w))
        # CPUs: walk down the ladder until the share fits.
        if self.cpus:
            per_cpu = cpu_budget / len(self.cpus)
            for c, u in zip(self.cpus, self.cpu_utilization):
                for idx in range(len(c.pstates)):
                    c.set_pstate(idx)
                    if c.power_w(u) <= per_cpu:
                        break
        return self.power_w()

    # -- performance roll-ups ------------------------------------------------------
    @property
    def peak_flops(self) -> float:
        """Node FP64 peak at current operating points."""
        return sum(c.peak_flops() for c in self.cpus) + sum(g.peak_flops() for g in self.gpus)

    @property
    def nameplate_flops(self) -> float:
        """Node FP64 peak from the datasheet (paper: 22 TFlops)."""
        return self.spec.peak_flops

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ComputeNode {self.node_id}: {self.spec.n_cpus}xCPU {self.spec.n_gpus}xGPU "
            f"P={self.power_w():.0f}W cap={self._power_cap_w}>"
        )
