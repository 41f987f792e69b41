"""Intra-node interconnect model: NVLink gangs, PCIe, SMP bus.

Section II-D of the paper describes the Garrison node wiring: each
POWER8+ socket drives two P100s; CPU<->GPU and GPU<->GPU data movement
rides NVLink 1.0 ganged 2-wide (80 GB/s bidirectional), PCIe carries
management traffic and the EDR NICs, and the two sockets talk over the SMP
bus (which the dual-plane network configuration deliberately avoids for
MPI traffic).

The model is a small weighted graph over node endpoints, held in two
plain dicts, with alpha-beta (latency + size/bandwidth) transfer costs,
which is exactly the level at which the paper reasons about NVLink
benefits for the four applications.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import NamedTuple

from .specs import NVLINK_1, PCIE_GEN3_X16, LinkSpec

__all__ = ["NodeFabric", "TransferCost"]


@dataclass(frozen=True)
class TransferCost:
    """Resolved cost of a transfer between two endpoints."""

    bytes: float
    latency_s: float
    bandwidth_Bps: float
    path: tuple[str, ...]

    @property
    def time_s(self) -> float:
        """Alpha-beta transfer time."""
        return self.latency_s + (self.bytes / self.bandwidth_Bps if self.bandwidth_Bps else 0.0)


class Link(NamedTuple):
    """One wired link between two endpoints."""

    bandwidth_Bps: float
    latency_s: float
    medium: str   # 'nvlink' | 'pcie' | 'smp'


class NodeFabric:
    """The Garrison node's internal wiring: endpoints and link specs.

    Topology (per paper Section II-D, replicated symmetrically per socket):

    * ``cpu0 -- gpu0`` and ``cpu0 -- gpu1`` : NVLink gang (2 links).
    * ``gpu0 -- gpu1``                      : NVLink gang (2 links).
    * same for ``cpu1 / gpu2 / gpu3``.
    * ``cpuX -- nicX``                      : PCIe Gen3 x16.
    * ``cpu0 -- cpu1``                      : SMP X-bus.
    * management PCIe to every GPU (not used for data here).

    ``kinds`` maps each endpoint name to its kind ('cpu' | 'gpu' | 'nic');
    ``links`` maps each wired pair, stored once in wiring order, to its
    :class:`Link`.
    """

    #: POWER8 SMP X-bus between the two sockets, ~38.4 GB/s per direction.
    SMP_BUS = LinkSpec(name="POWER8 SMP X-bus", bandwidth_Bps=38.4e9, latency_s=0.5e-6)

    def __init__(
        self,
        n_cpus: int = 2,
        gpus_per_cpu: int = 2,
        nvlink: LinkSpec = NVLINK_1,
        nvlink_gang_width: int = 2,
        pcie: LinkSpec = PCIE_GEN3_X16,
    ):
        if n_cpus < 1 or gpus_per_cpu < 1:
            raise ValueError("need at least one CPU and one GPU per CPU")
        self.n_cpus = n_cpus
        self.gpus_per_cpu = gpus_per_cpu
        self.nvlink = nvlink
        self.gang_width = nvlink_gang_width
        self.pcie = pcie
        self.kinds: dict[str, str] = {}
        self.links: dict[tuple[str, str], Link] = {}
        gang = Link(nvlink.bandwidth_Bps * nvlink_gang_width, nvlink.latency_s, "nvlink")
        for c in range(n_cpus):
            cpu, nic = f"cpu{c}", f"nic{c}"
            self.kinds[cpu] = "cpu"
            self.kinds[nic] = "nic"
            self.links[cpu, nic] = Link(pcie.bandwidth_Bps, pcie.latency_s, "pcie")
            local_gpus = [f"gpu{c * gpus_per_cpu + g}" for g in range(gpus_per_cpu)]
            for gpu in local_gpus:
                self.kinds[gpu] = "gpu"
                self.links[cpu, gpu] = gang
            # Peer NVLink between GPUs under the same socket.
            for i, a in enumerate(local_gpus):
                for b in local_gpus[i + 1:]:
                    self.links[a, b] = gang
        smp = Link(self.SMP_BUS.bandwidth_Bps, self.SMP_BUS.latency_s, "smp")
        for c in range(n_cpus - 1):
            self.links[f"cpu{c}", f"cpu{c + 1}"] = smp

    # -- queries ---------------------------------------------------------------
    def transfer(self, src: str, dst: str, nbytes: float) -> TransferCost:
        """Cost of moving ``nbytes`` from ``src`` to ``dst``.

        Routes along the path of least summed 1/bandwidth (the per-byte
        serial time); latency adds per hop, bandwidth is the path minimum.
        """
        if nbytes < 0:
            raise ValueError("bytes must be non-negative")
        if src == dst:
            return TransferCost(bytes=nbytes, latency_s=0.0, bandwidth_Bps=float("inf"), path=(src,))
        path, hops = self._route(src, dst)
        return TransferCost(
            bytes=nbytes,
            latency_s=sum(link.latency_s for link in hops),
            bandwidth_Bps=min(link.bandwidth_Bps for link in hops),
            path=path,
        )

    def _route(self, src: str, dst: str) -> tuple[tuple[str, ...], tuple[Link, ...]]:
        """Dijkstra over link weight 1/bandwidth: the endpoints and links
        of the cheapest ``src`` -> ``dst`` path, in path order."""
        frontier = [(0.0, (src,), ())]
        settled = set()
        while frontier:
            dist, path, hops = heapq.heappop(frontier)
            here = path[-1]
            if here == dst:
                return path, hops
            if here in settled:
                continue
            settled.add(here)
            for (a, b), link in self.links.items():
                if here in (a, b):
                    there = b if here == a else a
                    if there not in settled:
                        heapq.heappush(frontier, (dist + 1.0 / link.bandwidth_Bps,
                                                  path + (there,), hops + (link,)))
        raise ValueError(f"no path from {src!r} to {dst!r}; endpoints: {sorted(self.kinds)}")

    def gpu_peer_bandwidth_Bps(self, gpu_a: int, gpu_b: int) -> float:
        """GPU<->GPU bottleneck bandwidth (NVLink if same socket, else SMP)."""
        return self.transfer(f"gpu{gpu_a}", f"gpu{gpu_b}", 1.0).bandwidth_Bps

    def pcie_fallback(self) -> "NodeFabric":
        """A copy of this fabric with every NVLink link degraded to PCIe.

        This is the baseline the paper's porting section compares against
        (a PCIe-attached P100 system without NVLink).
        """
        clone = NodeFabric(
            n_cpus=self.n_cpus,
            gpus_per_cpu=self.gpus_per_cpu,
            nvlink=self.nvlink,
            nvlink_gang_width=self.gang_width,
            pcie=self.pcie,
        )
        pcie = Link(self.pcie.bandwidth_Bps, self.pcie.latency_s, "pcie")
        clone.links = {pair: pcie if link.medium == "nvlink" else link
                       for pair, link in clone.links.items()}
        return clone
