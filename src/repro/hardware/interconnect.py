"""Intra-node interconnect model: NVLink gangs, PCIe, SMP bus.

Section II-D of the paper describes the Garrison node wiring: each
POWER8+ socket drives two P100s; CPU<->GPU and GPU<->GPU data movement
rides NVLink 1.0 ganged 2-wide (80 GB/s bidirectional), PCIe carries
management traffic and the EDR NICs, and the two sockets talk over the SMP
bus (which the dual-plane network configuration deliberately avoids for
MPI traffic).

The model is a small weighted graph over node endpoints with
alpha-beta (latency + size/bandwidth) transfer costs, which is exactly the
level at which the paper reasons about NVLink benefits for the four
applications.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from .specs import NVLINK_1, PCIE_GEN3_X16, LinkSpec

__all__ = ["Endpoint", "NodeFabric", "TransferCost"]


@dataclass(frozen=True)
class Endpoint:
    """A data endpoint inside the node (socket, GPU, or NIC)."""

    kind: str   # 'cpu' | 'gpu' | 'nic'
    index: int

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"


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


class NodeFabric:
    """The Garrison node's internal wiring as a graph with link specs.

    Topology (per paper Section II-D, replicated symmetrically per socket):

    * ``cpu0 -- gpu0`` and ``cpu0 -- gpu1`` : NVLink gang (2 links).
    * ``gpu0 -- gpu1``                      : NVLink gang (2 links).
    * same for ``cpu1 / gpu2 / gpu3``.
    * ``cpuX -- nicX``                      : PCIe Gen3 x16.
    * ``cpu0 -- cpu1``                      : SMP X-bus.
    * management PCIe to every GPU (not used for data here).
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
        self.graph = nx.Graph()
        gang_bw = nvlink.bandwidth_Bps * nvlink_gang_width
        for c in range(n_cpus):
            cpu = f"cpu{c}"
            self.graph.add_node(cpu, kind="cpu")
            nic = f"nic{c}"
            self.graph.add_node(nic, kind="nic")
            self.graph.add_edge(cpu, nic, bandwidth=pcie.bandwidth_Bps, latency=pcie.latency_s, medium="pcie")
            local_gpus = []
            for g in range(gpus_per_cpu):
                gid = c * gpus_per_cpu + g
                gpu = f"gpu{gid}"
                self.graph.add_node(gpu, kind="gpu")
                local_gpus.append(gpu)
                self.graph.add_edge(cpu, gpu, bandwidth=gang_bw, latency=nvlink.latency_s, medium="nvlink")
            # Peer NVLink between GPUs under the same socket.
            for i, a in enumerate(local_gpus):
                for b in local_gpus[i + 1:]:
                    self.graph.add_edge(a, b, bandwidth=gang_bw, latency=nvlink.latency_s, medium="nvlink")
        for c in range(n_cpus - 1):
            self.graph.add_edge(
                f"cpu{c}", f"cpu{c + 1}",
                bandwidth=self.SMP_BUS.bandwidth_Bps, latency=self.SMP_BUS.latency_s, medium="smp",
            )

    # -- queries ---------------------------------------------------------------
    def transfer(self, src: str, dst: str, nbytes: float) -> TransferCost:
        """Cost of moving ``nbytes`` from ``src`` to ``dst``.

        Uses the max-bottleneck-bandwidth path (ties broken by hop count);
        latency adds per hop, bandwidth is the path minimum.
        """
        if nbytes < 0:
            raise ValueError("bytes must be non-negative")
        if src == dst:
            return TransferCost(bytes=nbytes, latency_s=0.0, bandwidth_Bps=float("inf"), path=(src,))
        path = nx.shortest_path(
            self.graph, src, dst, weight=lambda u, v, d: 1.0 / d["bandwidth"]
        )
        bw = min(self.graph[u][v]["bandwidth"] for u, v in zip(path, path[1:]))
        lat = sum(self.graph[u][v]["latency"] for u, v in zip(path, path[1:]))
        return TransferCost(bytes=nbytes, latency_s=lat, bandwidth_Bps=bw, path=tuple(path))

    def gpu_peer_bandwidth_Bps(self, gpu_a: int, gpu_b: int) -> float:
        """GPU<->GPU bottleneck bandwidth (NVLink if same socket, else SMP)."""
        return self.transfer(f"gpu{gpu_a}", f"gpu{gpu_b}", 1.0).bandwidth_Bps

    def pcie_fallback(self) -> "NodeFabric":
        """A copy of this fabric with every NVLink edge degraded to PCIe.

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
        for u, v, d in clone.graph.edges(data=True):
            if d["medium"] == "nvlink":
                d["bandwidth"] = self.pcie.bandwidth_Bps
                d["latency"] = self.pcie.latency_s
                d["medium"] = "pcie"
        return clone
