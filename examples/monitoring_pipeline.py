#!/usr/bin/env python3
"""Fine-grain power monitoring of a real computation.

Runs an *actual* NumPy workload with the phase structure of BQCD's CG
solver (compute bursts alternating with 'communication' waits),
instruments it with region markers, synthesises the node's ground-truth
power from the instrumented phases, pushes it through the full energy
gateway chain (shunt sensor -> 12-bit SAR ADC @ 800 kS/s -> x16 HW
average -> MQTT), and compares what the EG reports against an
IPMI-class poller — then profiles energy per region.

Run:  python examples/monitoring_pipeline.py
"""

import numpy as np

from repro.apps import cg_solve
from repro.cluster import ClusterBuilder
from repro.energyapi import Instrumentation
from repro.monitoring import EnergyGateway, IpmiMonitor, MqttBroker
from repro.power import PowerTrace
from repro.telemetry import PowerProfiler

COMPUTE_W = 1820.0   # node power while the GPUs grind the CG
WAIT_W = 740.0       # node power during halo-wait phases


def run_instrumented_solver() -> Instrumentation:
    """A CG solve split into bursts, with a simulated clock and markers."""
    clock = {"t": 0.0}
    instr = Instrumentation(clock=lambda: clock["t"])
    rng = np.random.default_rng(0)
    n = 400
    A = rng.normal(size=(n, n))
    A = A @ A.T + n * np.eye(n)
    b = rng.normal(size=n)
    x = np.zeros(n)
    for burst in range(20):
        with instr.region("cg-compute"):
            result = cg_solve(lambda v: A @ v, b, x0=x, tol=1e-10, max_iter=25)
            x = result.x
            clock["t"] += 1.0    # each burst 'runs' 1 s on the node
        with instr.region("halo-wait"):
            clock["t"] += 0.4    # 400 ms of MPI waiting
    print(f"solver: {len(instr.markers)} instrumented regions, "
          f"final residual {result.residual_norm:.2e}")
    return instr


def ground_truth_power(instr: Instrumentation, rate_hz: float = 400e3) -> PowerTrace:
    """Node power waveform implied by the instrumented phases."""
    t_end = max(m.t_exit_s for m in instr.markers)
    t = np.arange(0.0, t_end, 1.0 / rate_hz)
    p = np.full(t.size, WAIT_W)
    for m in instr.markers_for("cg-compute"):
        p[(t >= m.t_enter_s) & (t < m.t_exit_s)] = COMPUTE_W
    return PowerTrace(t, p)


def main() -> None:
    instr = run_instrumented_solver()
    truth = ground_truth_power(instr)
    print(f"ground truth: {truth.duration_s * 1e3:.0f} ms, "
          f"{truth.energy_j():.1f} J, mean {truth.mean_power_w():.0f} W")

    # The energy gateway measures and publishes; a collector re-assembles.
    # (For this 28 s demo we run the ADC at 100 kS/s instead of the
    # production 800 kS/s — identical physics, lighter arrays.)
    from repro.monitoring import GatewayConfig

    broker = MqttBroker()
    collector = broker.connect("collector")
    collector.subscribe("davide/node0/power/node", qos=1)
    eg = ClusterBuilder().build_gateway(
        broker=broker, config=GatewayConfig(adc_rate_hz=100e3))
    measured = eg.acquire_and_publish(truth)
    rebuilt = EnergyGateway.reassemble(collector.drain())
    print(f"\nenergy gateway @ {measured.sample_rate_hz / 1e3:.0f} kS/s:")
    print(f"  energy error: {measured.energy_error_fraction(truth) * 100:+.3f}%")
    print(f"  samples over MQTT: {len(rebuilt)}")

    # The IPMI baseline sees almost none of the phase structure.
    ipmi = IpmiMonitor(rng=np.random.default_rng(1)).measure(truth)
    print(f"\nIPMI-class poller @ 1 S/s:")
    print(f"  samples: {len(ipmi)}, energy error: "
          f"{ipmi.energy_error_fraction(truth) * 100:+.2f}%")

    # Region-level energy attribution from the EG's measured trace.
    profiler = PowerProfiler(measured)
    print("\nper-region profile (from measured power):")
    for name, prof in profiler.profile(instr.markers).items():
        print(f"  {name:12s}: {prof.n_instances} x, {prof.total_time_s * 1e3:6.1f} ms, "
              f"{prof.total_energy_j:7.2f} J, mean {prof.mean_power_w:7.1f} W")
    sep = profiler.region_power_separation(instr.markers, "cg-compute", "halo-wait")
    print(f"compute-vs-wait power separation: {sep:.0f} W "
          f"(truth {COMPUTE_W - WAIT_W:.0f} W)")


if __name__ == "__main__":
    main()
