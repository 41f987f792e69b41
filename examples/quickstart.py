#!/usr/bin/env python3
"""Quickstart: the whole D.A.V.I.D.E. loop in ~40 lines of API.

Builds the integrated system (cluster + gateways + MQTT + TSDB +
accounting + predictor + power-aware scheduler), runs a synthetic
campaign under a 60 kW envelope, and prints what every Fig.-4 stage
produced.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import ClusterBuilder
from repro.scheduler import WorkloadConfig, WorkloadGenerator


def main() -> None:
    # 1. The machine: 45 Garrison nodes in 3 OpenRacks, one energy
    #    gateway per node, an MQTT broker, a TSDB collector agent.
    system = ClusterBuilder(seed=0).build_system()
    print(f"cluster: {system.cluster.n_nodes} nodes, "
          f"{system.cluster.nameplate_flops / 1e15:.2f} PFlops nameplate")

    # 2. A synthetic production workload (the CINECA-trace stand-in):
    #    the paper's four-application mix.
    jobs = WorkloadGenerator(
        WorkloadConfig(n_jobs=150, cluster_nodes=45, load_factor=1.1),
        rng=np.random.default_rng(0),
    ).generate()
    print(f"workload: {len(jobs)} jobs from "
          f"{len({j.user for j in jobs})} users, apps "
          f"{sorted({j.app for j in jobs})}")

    # 3. The campaign: monitored history -> predictor training ->
    #    proactive power-capped production with the reactive backstop.
    budget_w = 60e3
    report = system.run_campaign(jobs, power_budget_w=budget_w)

    print("\n--- monitoring (EG -> MQTT -> TSDB) ---")
    print(f"messages published: {report.mqtt_published}")
    print(f"TSDB samples:       {report.tsdb_samples}")

    print("\n--- energy accounting (EA) ---")
    print(f"billed energy: {report.total_billed_energy_j / 3.6e6:.1f} kWh "
          f"across {len(report.bills)} jobs")
    top = sorted(report.statements.values(), key=lambda s: s.total_cost, reverse=True)[:3]
    for s in top:
        print(f"  {s.user}: {s.n_jobs} jobs, {s.total_energy_kwh:.1f} kWh, "
              f"EUR {s.total_cost:.2f}")

    print("\n--- power prediction (EP) ---")
    print(f"ridge predictor MAPE on unseen jobs: {report.predictor_score.mape * 100:.1f}%")

    print(f"\n--- power-capped production (budget {budget_w / 1e3:.0f} kW) ---")
    for key, value in report.qos_summary().items():
        print(f"  {key}: {value:.3f}" if isinstance(value, float) else f"  {key}: {value}")


if __name__ == "__main__":
    main()
