#!/usr/bin/env python3
"""Walking through the D.A.V.I.D.E. cooling design (Sections II-C/G/I).

Computes the rack heat split between cold plates and the fan wall, sizes
the liquid loop at the paper's design point (30 L/min, 35 degC facility
water), verifies the dew-point and temperature constraints, shows why
air-cooled nodes throttle where liquid-cooled nodes do not, and
quantifies the free-cooling benefit of hot-water operation.

Run:  python examples/cooling_design.py
"""

import numpy as np

from repro.cooling import (
    AIR_COOLED_GPU,
    LIQUID_COOLED_GPU,
    DatacenterCooling,
    HeatExchanger,
    LiquidLoop,
    ThrottleGovernor,
    dew_point_c,
    heat_split_for_rack,
)
from repro.cluster import ClusterBuilder


def main() -> None:
    # A full-load rack.
    rack = ClusterBuilder().build_rack()
    for n in rack.nodes:
        n.set_utilization(cpu=1.0, gpu=1.0, memory_intensity=1.0)
    split = heat_split_for_rack(rack)
    print(f"rack heat: {split.total_w / 1e3:.1f} kW total -> "
          f"{split.liquid_fraction * 100:.0f}% liquid / "
          f"{(1 - split.liquid_fraction) * 100:.0f}% air "
          f"(paper: 75-80% / 20-25%)")

    # The liquid loop at the design point.
    loop = LiquidLoop(HeatExchanger(ua_w_per_k=4000.0))
    op = loop.operating_point(heat_w=split.liquid_w, facility_inlet_c=35.0)
    print(f"\nliquid loop @ 30 L/min, 35 degC facility water:")
    print(f"  secondary supply/return: {op['secondary_supply_c']:.1f} / "
          f"{op['secondary_return_c']:.1f} degC")
    print(f"  facility outlet:         {op['facility_outlet_c']:.1f} degC (max 55)")
    dew = dew_point_c(25.0, 0.5)
    print(f"  dew point @ 25 degC/50%RH: {dew:.1f} degC "
          f"(supply must stay above {dew + 5:.1f})")
    violations = loop.check_constraints(op)
    print(f"  constraints: {'all met' if not violations else violations}")

    # Throttling: liquid vs air across sink temperatures.
    gov = ThrottleGovernor()
    print("\nsustained P100 performance (300 W demand, 20 min):")
    print(f"  {'sink degC':>10s} {'liquid':>8s} {'air':>8s}")
    for temp in (30.0, 36.0, 42.0, 45.0):
        liq = gov.run(LIQUID_COOLED_GPU(temp), 300.0, duration_s=1200.0)
        air = gov.run(AIR_COOLED_GPU(temp), 300.0, duration_s=1200.0)
        print(f"  {temp:10.0f} {liq.mean_performance_fraction:8.3f} "
              f"{air.mean_performance_fraction:8.3f}")

    # Free cooling: hot water pays off at the facility level.
    rng = np.random.default_rng(0)
    year = rng.normal(14.0, 8.0, 8760)
    print("\nfree-cooling hours (temperate climate) and PUE:")
    for supply in (18.0, 35.0, 40.0):
        dc = DatacenterCooling(liquid_supply_c=supply)
        frac = dc.free_cooling_hours_fraction(year)["liquid"]
        pue = dc.pue(90e3, split, outdoor_c=14.0)
        print(f"  {supply:4.0f} degC water: {frac * 100:5.1f}% free cooling, "
              f"PUE {pue:.3f} at 14 degC outdoors")


if __name__ == "__main__":
    main()
