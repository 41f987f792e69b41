#!/usr/bin/env python3
"""Operating a power-capped supercomputer at high QoS.

The paper's Section III-A2 scenario: the datacenter imposes a power
envelope; compare four ways to live under it —

* ignore it (uncapped EASY backfill): best QoS, busts the envelope;
* reactive-only (RAPL-style trimming of running jobs): envelope holds,
  every job under the cap runs slower;
* proactive-only (the paper's predictive dispatcher): envelope holds by
  reordering admissions, jobs run at full speed;
* combined: the production configuration.

Run:  python examples/power_capped_scheduling.py [budget_kw]
"""

import sys

import numpy as np

from repro.cluster import ClusterBuilder
from repro.prediction import JobPowerModel, chronological_split
from repro.scheduler import (
    EasyBackfillScheduler,
    PowerAwareScheduler,
    WorkloadConfig,
    WorkloadGenerator,
)

N_NODES = 45


def main() -> None:
    budget_w = float(sys.argv[1]) * 1e3 if len(sys.argv) > 1 else 52e3
    jobs = WorkloadGenerator(
        WorkloadConfig(n_jobs=250, cluster_nodes=N_NODES, load_factor=1.15),
        rng=np.random.default_rng(7),
    ).generate()

    # Train a predictor on the first 40% of the stream (the history the
    # monitoring stack would have recorded), schedule the rest.
    history, production = chronological_split(jobs, 0.4)
    model = JobPowerModel.fit_ridge(history)
    print(f"workload: {len(production)} production jobs on {N_NODES} nodes; "
          f"budget {budget_w / 1e3:.0f} kW")
    print(f"predictor trained on {len(history)} historical jobs\n")

    policies = {
        "uncapped EASY": (EasyBackfillScheduler(), None),
        "reactive only": (EasyBackfillScheduler(), budget_w),
        "proactive only": (
            PowerAwareScheduler(cap_w=budget_w, predictor=model), None),
        "combined": (
            PowerAwareScheduler(cap_w=budget_w, predictor=model), budget_w),
    }

    header = (f"{'policy':16s} {'peak kW':>8s} {'mean wait':>10s} "
              f"{'slowdown':>9s} {'stretch':>8s} {'energy MWh':>11s}")
    print(header)
    print("-" * len(header))
    for name, (policy, cap) in policies.items():
        sim = ClusterBuilder(n_nodes=N_NODES).with_scheduler(policy, cap_w=cap).build_simulator()
        result = sim.run(production)
        print(f"{name:16s} {result.peak_power_w() / 1e3:8.1f} "
              f"{result.mean_wait_s() / 60:8.1f} m "
              f"{result.mean_bounded_slowdown():9.2f} "
              f"{result.mean_stretch():8.3f} "
              f"{result.total_energy_j / 3.6e9:11.2f}")

    print("\nreading: 'stretch' is cap-induced job slowdown (1.0 = full-speed");
    print("runs); the proactive dispatcher holds the envelope purely by job")
    print("ordering, the paper's headline scheduling claim.")


if __name__ == "__main__":
    main()
