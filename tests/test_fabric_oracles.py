"""NetworkX as the reference oracle for the node fabric and the fat tree.

``NodeFabric`` routes with its own Dijkstra over plain dicts and
``FatTree`` computes its bisection in closed form; nothing under
``src/`` imports NetworkX.  These tests rebuild each topology as a
NetworkX graph, independently of the code under test, and demand
bit-identical answers from ``nx.shortest_path`` and ``nx.maximum_flow``.
They skip where NetworkX is not installed.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware import NodeFabric, TransferCost, phase2_fabric
from repro.hardware.specs import NVLINK_1, PCIE_GEN3_X16
from repro.network import FatTree

nx = pytest.importorskip("networkx")


def _reference_node_graph(n_cpus, gpus_per_cpu, nvlink=NVLINK_1, gang_width=2,
                          pcie=PCIE_GEN3_X16, nvlink_as=None):
    """The Garrison wiring as an ``nx.Graph``; ``nvlink_as`` = (bandwidth,
    latency, medium) replaces every NVLink edge's attributes."""
    g = nx.Graph()
    gang = dict(bandwidth=nvlink.bandwidth_Bps * gang_width, latency=nvlink.latency_s,
                medium="nvlink")
    if nvlink_as is not None:
        gang = dict(zip(("bandwidth", "latency", "medium"), nvlink_as))
    for c in range(n_cpus):
        g.add_node(f"cpu{c}", kind="cpu")
        g.add_node(f"nic{c}", kind="nic")
        g.add_edge(f"cpu{c}", f"nic{c}", bandwidth=pcie.bandwidth_Bps,
                   latency=pcie.latency_s, medium="pcie")
        gpus = [f"gpu{c * gpus_per_cpu + i}" for i in range(gpus_per_cpu)]
        for gpu in gpus:
            g.add_node(gpu, kind="gpu")
            g.add_edge(f"cpu{c}", gpu, **gang)
        for a, b in itertools.combinations(gpus, 2):
            g.add_edge(a, b, **gang)
    smp = NodeFabric.SMP_BUS
    for c in range(n_cpus - 1):
        g.add_edge(f"cpu{c}", f"cpu{c + 1}", bandwidth=smp.bandwidth_Bps,
                   latency=smp.latency_s, medium="smp")
    return g


def _fabrics():
    pcie = (PCIE_GEN3_X16.bandwidth_Bps, PCIE_GEN3_X16.latency_s, "pcie")
    for n_cpus, gpus_per_cpu in itertools.product(range(1, 5), repeat=2):
        fabric = NodeFabric(n_cpus=n_cpus, gpus_per_cpu=gpus_per_cpu)
        yield (f"{n_cpus}x{gpus_per_cpu}", fabric,
               _reference_node_graph(n_cpus, gpus_per_cpu))
        yield (f"{n_cpus}x{gpus_per_cpu}-pcie", fabric.pcie_fallback(),
               _reference_node_graph(n_cpus, gpus_per_cpu, nvlink_as=pcie))
    yield ("phase2", phase2_fabric(),
           _reference_node_graph(1, 2, nvlink=PCIE_GEN3_X16, gang_width=1, nvlink_as=pcie))


#: 33 fabrics: 1-4 CPUs x 1-4 GPUs per CPU, each also in its PCIe
#: fallback, plus phase II; 5,176 ordered endpoint pairs in all.
FABRICS = list(_fabrics())


@pytest.mark.parametrize("fabric, graph", [f[1:] for f in FABRICS],
                         ids=[f[0] for f in FABRICS])
def test_fabric_wiring_and_every_transfer_match_networkx(fabric, graph):
    assert fabric.kinds == dict(graph.nodes(data="kind"))
    assert {frozenset(pair): tuple(link) for pair, link in fabric.links.items()} == {
        frozenset((u, v)): (d["bandwidth"], d["latency"], d["medium"])
        for u, v, d in graph.edges(data=True)}
    nbytes = 3.5e9
    for src, dst in itertools.product(graph.nodes, repeat=2):
        if src == dst:
            expected = TransferCost(nbytes, 0.0, float("inf"), (src,))
        else:
            path = nx.shortest_path(graph, src, dst,
                                    weight=lambda u, v, d: 1.0 / d["bandwidth"])
            hops = [graph[u][v] for u, v in zip(path, path[1:])]
            expected = TransferCost(nbytes, sum(d["latency"] for d in hops),
                                    min(d["bandwidth"] for d in hops), tuple(path))
        cost = fabric.transfer(src, dst, nbytes)
        assert cost == expected, (src, dst)
        assert cost.time_s == expected.time_s


def _reference_max_flow(tree):
    """The bisection as ``nx.maximum_flow`` over the whole tree."""
    shape, bw, inf = tree.shape, tree.link.bandwidth_Bps, float("inf")
    g = nx.Graph()
    for leaf, spine in itertools.product(range(shape.n_leaves), range(shape.n_spines)):
        g.add_edge(f"leaf{leaf}", f"spine{spine}", capacity=bw)
    for host in range(shape.n_nodes):
        g.add_edge(f"host{host}", f"leaf{host // shape.hosts_per_leaf}", capacity=bw)
    half = shape.n_nodes // 2
    if half == 0:
        return 0.0
    g.add_nodes_from(("S", "T"))
    for host in range(half):
        g.add_edge("S", f"host{host}", capacity=inf)
    for host in range(half, 2 * half):
        g.add_edge(f"host{host}", "T", capacity=inf)
    value, _ = nx.maximum_flow(g, "S", "T")
    return float(value)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=150),
       radix=st.integers(min_value=2, max_value=48),
       oversubscription=st.floats(min_value=1.0, max_value=8.0))
def test_bisection_matches_networkx_max_flow(n, radix, oversubscription):
    tree = FatTree(n_nodes=n, switch_radix=radix, oversubscription=oversubscription)
    assert tree.bisection_bandwidth_Bps() == _reference_max_flow(tree)
