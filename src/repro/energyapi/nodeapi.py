"""The developer-facing energy-proportionality node API (Section IV).

"In collaboration with the ETH Multitherman Laboratory we are designing
a set of APIs to switch off or put in sleep mode particular system
components on-demand, such as unused CPU cores, memory controllers and
GPU.  These APIs will be wrapped in the job scheduler to size the node
around the job requirements as well as around a library that application
developers will explicitly call inside the source code."

:class:`NodeEnergyApi` is that library's job-shaping half: explicit
calls to gate cores and sleep GPUs, one :meth:`~NodeEnergyApi.apply`
that actuates a job's :class:`ComponentConfig`, and a call log so the
scheduler/accounting side can credit them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hardware.node import ComputeNode

__all__ = ["ComponentConfig", "ApiCallLog", "NodeEnergyApi"]


@dataclass(frozen=True)
class ComponentConfig:
    """A requested node shape for a job."""

    active_cores_per_cpu: int | None = None   # None = leave unchanged
    gpus_needed: int | None = None            # others go to sleep

    def __post_init__(self) -> None:
        if self.gpus_needed is not None and self.gpus_needed < 0:
            raise ValueError("gpus_needed must be non-negative")


@dataclass
class ApiCallLog:
    """What the API actuated, for auditing/crediting."""

    calls: list[str] = field(default_factory=list)

    def record(self, entry: str) -> None:
        """Append one actuation record."""
        self.calls.append(entry)


class NodeEnergyApi:
    """Per-node actuation handle handed to jobs and to the scheduler."""

    def __init__(self, node: ComputeNode):
        self.node = node
        self.log = ApiCallLog()

    # -- individual knobs ---------------------------------------------------------
    def set_active_cores(self, per_cpu: int) -> None:
        """Gate each socket down to ``per_cpu`` cores."""
        for cpu in self.node.cpus:
            cpu.set_active_cores(per_cpu)
        self.log.record(f"cores={per_cpu}")

    def sleep_unused_gpus(self, gpus_needed: int) -> int:
        """Put all but the first ``gpus_needed`` GPUs to sleep; returns count."""
        if gpus_needed < 0:
            raise ValueError("gpus_needed must be non-negative")
        slept = 0
        for i, gpu in enumerate(self.node.gpus):
            if i < gpus_needed:
                gpu.wake()
            else:
                gpu.sleep()
                slept += 1
        self.log.record(f"gpus={gpus_needed}")
        return slept

    # -- composite configuration -----------------------------------------------------
    def apply(self, config: ComponentConfig) -> None:
        """Actuate a full node shape in one call (the scheduler wrapper)."""
        if config.active_cores_per_cpu is not None:
            self.set_active_cores(config.active_cores_per_cpu)
        if config.gpus_needed is not None:
            self.sleep_unused_gpus(config.gpus_needed)
