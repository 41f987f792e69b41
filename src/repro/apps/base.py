"""Phase-based application model and the roofline executor.

Section IV analyses each ported application in terms of *phases* — FFT
kernels, stencil sweeps, sparse matvecs, halo exchanges — and of *which
resource bounds each phase* (GPU flops, HBM bandwidth, CPU memory
bandwidth, NVLink, the InfiniBand fabric).  This module turns that
analysis into an executable model:

* a :class:`Phase` carries the work of one program region per iteration
  (flops, memory traffic, communication);
* an :class:`ApplicationModel` is an iteration loop over phases;
* an :class:`ExecutionPlatform` resolves each phase's duration on a
  concrete node configuration (CPU-only / GPU over PCIe / GPU over
  NVLink) through the roofline models of :mod:`repro.hardware`, and
  integrates power into energy-to-solution.

The three platform variants are exactly the comparison of experiment
E10: what the paper expects from porting each code to GPU, and what
NVLink adds on top of PCIe.  NVLink enters E10 through GPU-peer
(:attr:`CommKind.P2P_GPU`) traffic only; host<->device traffic over
NVLink is :mod:`repro.apps.unified_memory`'s subject (E17).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..hardware.node import ComputeNode
from ..network.collectives import EDR_DUAL_RAIL
from ..power.trace import PowerTrace

__all__ = ["Device", "CommKind", "Phase", "ApplicationModel", "ExecutionPlatform", "ExecutionReport"]


class Device(enum.Enum):
    """Where a phase's computation runs."""

    CPU = "cpu"
    GPU = "gpu"


class CommKind(enum.Enum):
    """MPI operation a communication phase performs."""

    NONE = "none"
    HALO = "halo"
    ALLTOALL = "alltoall"
    ALLREDUCE = "allreduce"
    P2P_GPU = "p2p_gpu"          # GPU-to-GPU within the node (NVLink vs PCIe)


@dataclass(frozen=True)
class Phase:
    """One program region's per-iteration, per-node work."""

    name: str
    device: Device = Device.GPU
    flops: float = 0.0               # per node per iteration
    bytes_moved: float = 0.0         # device-memory traffic per node
    comm: CommKind = CommKind.NONE
    comm_bytes: float = 0.0          # per message / per face / per pair
    comm_neighbors: int = 0          # for halo exchanges
    #: Utilization the phase imposes on the non-running components
    #: (a GPU phase still keeps a CPU core busy driving it).
    background_cpu_util: float = 0.15

    def __post_init__(self) -> None:
        for v in (self.flops, self.bytes_moved, self.comm_bytes):
            if v < 0:
                raise ValueError("phase work must be non-negative")
        if self.comm_neighbors < 0:
            raise ValueError("neighbor count must be non-negative")

    @property
    def arithmetic_intensity(self) -> float:
        """Flops per byte of memory traffic (inf for traffic-free phases)."""
        if self.bytes_moved == 0:
            return float("inf") if self.flops > 0 else 0.0
        return self.flops / self.bytes_moved


@dataclass(frozen=True)
class ApplicationModel:
    """An application as an iteration loop over phases."""

    name: str
    phases: tuple[Phase, ...]
    n_iterations: int = 100

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("application needs at least one phase")
        if self.n_iterations < 1:
            raise ValueError("need at least one iteration")


@dataclass(frozen=True)
class PhaseTiming:
    """Resolved cost of one phase on one platform."""

    phase: Phase
    compute_s: float
    comm_s: float
    power_w: float

    @property
    def total_s(self) -> float:
        """Wall time of the phase per iteration."""
        return self.compute_s + self.comm_s


@dataclass(frozen=True)
class ExecutionReport:
    """Time/energy/power outcome of one application run on one platform."""

    app: str
    platform: str
    n_nodes: int
    phase_timings: tuple[PhaseTiming, ...]
    n_iterations: int

    @property
    def time_to_solution_s(self) -> float:
        """Total wall time."""
        return self.n_iterations * sum(t.total_s for t in self.phase_timings)

    @property
    def energy_to_solution_j(self) -> float:
        """Total node energy (per node) over the run."""
        return self.n_iterations * sum(t.total_s * t.power_w for t in self.phase_timings)

    @property
    def mean_power_w(self) -> float:
        """Time-averaged node power."""
        t = self.time_to_solution_s
        return self.energy_to_solution_j / t if t > 0 else 0.0

    def power_trace(self, iterations: int | None = None) -> PowerTrace:
        """Materialise the phase-structured node power as a step trace."""
        reps = min(iterations if iterations is not None else self.n_iterations, self.n_iterations)
        times, powers = [0.0], []
        t = 0.0
        for _ in range(reps):
            for pt in self.phase_timings:
                if pt.total_s <= 0:
                    continue
                powers.append(pt.power_w)
                t += pt.total_s
                times.append(t)
        if not powers:
            return PowerTrace(np.array([]), np.array([]))
        return PowerTrace(np.array(times[:-1] + [times[-1]]), np.array(powers + [powers[-1]]))

    def comm_fraction(self) -> float:
        """Share of wall time spent in communication."""
        total = sum(t.total_s for t in self.phase_timings)
        comm = sum(t.comm_s for t in self.phase_timings)
        return comm / total if total > 0 else 0.0


class ExecutionPlatform:
    """A concrete node configuration that can run an ApplicationModel."""

    def __init__(
        self,
        name: str,
        node: ComputeNode | None = None,
        use_gpus: bool = True,
        nvlink: bool = True,
    ):
        self.name = name
        self.node = node if node is not None else ComputeNode()
        self.use_gpus = use_gpus
        self.nvlink = nvlink
        self.fabric = self.node.fabric if nvlink else self.node.fabric.pcie_fallback()

    # -- canonical platforms -----------------------------------------------------
    @classmethod
    def cpu_only(cls) -> "ExecutionPlatform":
        """Both POWER8+ sockets, GPUs idle."""
        return cls("cpu-only", use_gpus=False, nvlink=False)

    @classmethod
    def gpu_pcie(cls) -> "ExecutionPlatform":
        """GPUs attached over PCIe only (the non-NVLink baseline)."""
        return cls("gpu-pcie", use_gpus=True, nvlink=False)

    @classmethod
    def gpu_nvlink(cls) -> "ExecutionPlatform":
        """The D.A.V.I.D.E. configuration: GPUs on 2-link NVLink gangs."""
        return cls("gpu-nvlink", use_gpus=True, nvlink=True)

    # -- phase resolution -----------------------------------------------------------
    def _compute_time(self, phase: Phase) -> float:
        if phase.flops == 0 and phase.bytes_moved == 0:
            return 0.0
        if self.use_gpus and phase.device is Device.GPU:
            # Work spreads over the node's GPUs.
            n = len(self.node.gpus)
            gpu = self.node.gpus[0]
            flops = phase.flops / n
            nbytes = phase.bytes_moved / n
            t_flops = flops / gpu.peak_flops() if flops > 0 else 0.0
            t_bytes = nbytes / gpu.spec.hbm_bandwidth_Bps if nbytes > 0 else 0.0
            return max(t_flops, t_bytes)
        # CPU path: both sockets share the work.
        n = len(self.node.cpus)
        cpu = self.node.cpus[0]
        flops = phase.flops / n
        nbytes = phase.bytes_moved / n
        bw = self.node.memory.sustained_bandwidth_Bps
        t_flops = flops / cpu.peak_flops() if flops > 0 else 0.0
        t_bytes = nbytes / bw if nbytes > 0 else 0.0
        return max(t_flops, t_bytes)

    def _comm_time(self, phase: Phase, n_nodes: int) -> float:
        if phase.comm is CommKind.NONE:
            return 0.0
        if phase.comm is CommKind.P2P_GPU:
            if not self.use_gpus:
                return 0.0  # CPU runs have no device-peer traffic
            cost = self.fabric.transfer("gpu0", "gpu1", phase.comm_bytes)
            return cost.time_s
        if n_nodes <= 1:
            return 0.0
        if phase.comm is CommKind.HALO:
            return EDR_DUAL_RAIL.halo_exchange_time_s(phase.comm_bytes, phase.comm_neighbors)
        if phase.comm is CommKind.ALLTOALL:
            return EDR_DUAL_RAIL.alltoall_time_s(phase.comm_bytes, n_nodes)
        if phase.comm is CommKind.ALLREDUCE:
            return EDR_DUAL_RAIL.allreduce_time_s(phase.comm_bytes, n_nodes)
        raise ValueError(f"unhandled comm kind {phase.comm}")

    def _phase_power(self, phase: Phase) -> float:
        node = self.node
        pure_comm = phase.flops == 0 and phase.bytes_moved == 0
        if self.use_gpus and phase.device is Device.GPU:
            # During pure communication phases the GPUs wait on
            # the fabric — they idle at a fraction of their busy draw.
            gpu_util = 0.25 if pure_comm else 1.0
            node.set_utilization(
                cpu=phase.background_cpu_util, gpu=gpu_util,
                memory_intensity=min(phase.background_cpu_util * 2, 1.0),
            )
        elif phase.device is Device.CPU or not self.use_gpus:
            mem_intensity = 1.0 if phase.arithmetic_intensity < 1.0 else 0.5
            node.set_utilization(cpu=1.0, gpu=0.0, memory_intensity=mem_intensity)
            if self.use_gpus:
                for g in node.gpus:
                    g.wake()
            else:
                for g in node.gpus:
                    g.sleep()
        p = node.power_w()
        node.idle()
        for g in node.gpus:
            g.wake()
        return p

    def run(self, app: ApplicationModel, n_nodes: int = 1) -> ExecutionReport:
        """Execute the application model; returns the full report.

        On CPU-only platforms GPU phases fall back to the CPU (the code
        path that exists before the port), exactly as the pre-porting
        baseline behaves.
        """
        if n_nodes < 1:
            raise ValueError("need at least one node")
        timings = []
        for phase in app.phases:
            timings.append(
                PhaseTiming(
                    phase=phase,
                    compute_s=self._compute_time(phase),
                    comm_s=self._comm_time(phase, n_nodes),
                    power_w=self._phase_power(phase),
                )
            )
        return ExecutionReport(
            app=app.name,
            platform=self.name,
            n_nodes=n_nodes,
            phase_timings=tuple(timings),
            n_iterations=app.n_iterations,
        )
