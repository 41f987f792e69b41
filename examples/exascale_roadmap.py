#!/usr/bin/env python3
"""The conclusion's claim, quantified: the road from D.A.V.I.D.E. to exascale.

"This system is the building block for the forthcoming exascale
supercomputer based on a class of system where Energy Aware management
is mandatory."  This example puts numbers behind that sentence: what an
exaflop built from Garrison-class nodes costs in power and money across
efficiency scenarios, and how much of the bill energy-aware operation
(power capping to the free-cooling envelope, node shaping) claws back.

Run:  python examples/exascale_roadmap.py
"""

from repro.analysis import TcoModel, project_exascale
from repro.cluster import ClusterBuilder


def main() -> None:
    # The building block the projections scale from: the pilot machine.
    pilot = ClusterBuilder().build_hardware()
    print(f"building block: {pilot.spec.name} — {pilot.n_nodes} nodes, "
          f"{pilot.nameplate_flops / 1e15:.2f} PFlops nameplate, "
          f"{pilot.energy_efficiency_flops_per_w() / 1e9:.1f} GFlops/W")
    print("\nExascale projections from the Garrison building block")
    print("(1 EFlops sustained target, 75% Linpack efficiency)\n")
    header = f"{'scenario':30s} {'nodes':>8s} {'power':>9s} {'GF/W':>6s} {'20 MW?':>7s}"
    print(header)
    print("-" * len(header))
    for p in project_exascale():
        print(f"{p.scenario:30s} {p.n_nodes:8d} {p.system_power_mw:7.1f}MW "
              f"{p.gflops_per_w:6.1f} {'yes' if p.within_20mw_target else 'no':>7s}")

    # TCO: why the power column is the one that matters.
    print("\nTCO over 5 years for the baseline-scenario machine:")
    baseline = project_exascale()[0]
    tco = TcoModel(
        capex=baseline.n_nodes * 65_000.0,       # ~EUR 65k per dense GPU node
        it_power_w=baseline.system_power_mw * 1e6,
    )
    print(f"  capex:              EUR {tco.capex / 1e6:8.1f} M")
    print(f"  energy (5 y):       EUR {tco.lifetime_energy_cost / 1e6:8.1f} M")
    print(f"  maintenance (5 y):  EUR {tco.lifetime_maintenance_cost / 1e6:8.1f} M")
    print(f"  energy share of TCO: {tco.energy_fraction * 100:.0f}%")

    # What energy-aware operation is worth at that scale.
    for saving in (0.05, 0.10):
        saved = tco.lifetime_energy_cost * saving
        print(f"  a {saving * 100:.0f}% energy saving (capping + shaping + free "
              f"cooling) is worth EUR {saved / 1e6:.0f} M over the lifetime")


if __name__ == "__main__":
    main()
