"""E16 — designed-for extensions: MS3-style envelopes and data intelligence.

Two capabilities the paper designs for without evaluating:

* §III-A2: "The power cap can be specified by the system administrator
  to follow infrastructure requirements" — exercised here as an
  MS3-style ([15], "do less when it's too hot") time-varying envelope:
  a demand-response curtailment window mid-campaign;
* §III-A1: monitoring "runs data intelligence on the monitored data to
  identify sources of not-optimality and hazards" — exercised as the
  anomaly/hazard/inefficiency detectors over a campaign's telemetry.
"""

import numpy as np
import pytest

from repro.monitoring import EfficiencyAuditor, HazardDetector, PowerAnomalyDetector
from repro.power import PowerTrace
from repro.scheduler import (
    ClusterSimulator,
    TimeVaryingBudgetScheduler,
    WorkloadConfig,
    WorkloadGenerator,
    heat_wave_budget,
)

N_NODES = 45


def _curtailment_campaign():
    jobs = WorkloadGenerator(
        WorkloadConfig(n_jobs=150, cluster_nodes=N_NODES, load_factor=1.1),
        rng=np.random.default_rng(16),
    ).generate()
    horizon = max(j.submit_time_s for j in jobs) * 1.5
    wave = (horizon * 0.35, horizon * 0.55)
    budget = heat_wave_budget(65e3, 35e3, *wave)
    policy = TimeVaryingBudgetScheduler(
        budget, predictor=lambda j: j.true_power_w,
        lookahead_s=24 * 3600.0, lookahead_step_s=1800.0,
    )
    result = ClusterSimulator(N_NODES, policy).run(jobs)
    return result, wave


def test_e16_time_varying_envelope(benchmark, table):
    result, wave = benchmark(_curtailment_campaign)
    trace = result.power_trace
    before = trace.slice(0.0, wave[0])
    inside = trace.slice(*wave)
    after = trace.slice(wave[1], trace.times_s[-1])
    table(
        "E16: demand-response curtailment (65 kW -> 35 kW -> 65 kW)",
        ["window", "mean [kW]", "peak [kW]"],
        [
            ["before wave", f"{before.mean_power_w() / 1e3:.1f}", f"{before.peak_power_w() / 1e3:.1f}"],
            ["curtailment", f"{inside.mean_power_w() / 1e3:.1f}", f"{inside.peak_power_w() / 1e3:.1f}"],
            ["after wave", f"{after.mean_power_w() / 1e3:.1f}", f"{after.peak_power_w() / 1e3:.1f}"],
        ],
    )
    # The envelope steps down inside the window and recovers after it.
    assert inside.mean_power_w() <= 35e3 * 1.05
    assert inside.peak_power_w() <= 35e3 * 1.15  # lone force-admission slack
    assert after.peak_power_w() > 45e3
    # No job was trimmed: the envelope held by ordering alone.
    assert result.mean_stretch() == pytest.approx(1.0)


def _intelligence_sweep():
    rng = np.random.default_rng(17)
    t = np.arange(20000) / 100.0
    # A rack trace with a fault spike and a spell of over-limit pressure.
    rack = np.where((t % 40) < 28, 27e3, 18e3) + rng.normal(0, 100, t.size)
    rack[5000] = 45e3                      # sensor/fault spike
    rack[12000:13000] = 31e3               # 10 s above the 30 kW feed
    trace = PowerTrace(t, rack)
    anomalies = PowerAnomalyDetector(threshold=8.0, min_sigma_w=50.0).scan(trace, "rack0")
    hazards = HazardDetector(limit_w=30e3).scan(trace, "rack0")
    idle = EfficiencyAuditor().audit_idle_capacity(utilization=0.45, queue_length=9)
    return anomalies, hazards, idle


def test_e16a_data_intelligence(benchmark, table):
    anomalies, hazards, idle = benchmark(_intelligence_sweep)
    rows = [[f.kind, f.severity, f.subject, f.message[:64]] for f in anomalies + hazards + idle]
    table("E16a: findings raised by the intelligence layer",
          ["kind", "severity", "subject", "message"], rows)
    assert len(anomalies) == 1 and anomalies[0].value == pytest.approx(45e3)
    severities = {f.severity for f in hazards}
    assert "critical" in severities  # the over-limit spell
    assert len(idle) == 1            # nodes idle while jobs queue
