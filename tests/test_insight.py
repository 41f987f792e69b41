"""Tests for the data-intelligence layer (anomalies, hazards, inefficiency)."""

import numpy as np
import pytest

from repro.monitoring import (
    EfficiencyAuditor,
    HazardDetector,
    PowerAnomalyDetector,
)
from repro.power import PowerTrace
from repro.scheduler import Job, JobRecord


def trace_of(values, rate=100.0):
    values = np.asarray(values, dtype=float)
    return PowerTrace(np.arange(values.size) / rate, values)


class TestPowerAnomalyDetector:
    def test_clean_noise_raises_nothing(self):
        rng = np.random.default_rng(0)
        tr = trace_of(1500.0 + rng.normal(0, 5, 2000))
        assert PowerAnomalyDetector().scan(tr) == []

    def test_spike_detected_with_time_and_value(self):
        rng = np.random.default_rng(1)
        vals = 1500.0 + rng.normal(0, 5, 2000)
        vals[1234] = 2400.0  # a 180-sigma spike
        findings = PowerAnomalyDetector().scan(trace_of(vals), subject="node7")
        assert len(findings) == 1
        f = findings[0]
        assert f.kind == "anomaly" and f.subject == "node7"
        assert f.value == pytest.approx(2400.0)
        assert f.time_s == pytest.approx(12.34, abs=0.01)

    def test_phase_steps_are_not_anomalies(self):
        # A legitimate compute/idle square wave must not trigger: the
        # persistence check classifies steps as regime changes.
        rng = np.random.default_rng(2)
        t = np.arange(4000) / 100.0
        vals = np.where((t % 20) < 12, 1800.0, 700.0) + rng.normal(0, 5, t.size)
        findings = PowerAnomalyDetector(threshold=8.0).scan(PowerTrace(t, vals))
        assert findings == []

    def test_spike_on_top_of_phase_structure_still_detected(self):
        rng = np.random.default_rng(5)
        t = np.arange(4000) / 100.0
        vals = np.where((t % 20) < 12, 1800.0, 700.0) + rng.normal(0, 5, t.size)
        vals[2500] = 3200.0  # genuine isolated fault on a plateau
        findings = PowerAnomalyDetector(threshold=8.0).scan(PowerTrace(t, vals))
        assert len(findings) == 1
        assert findings[0].value == pytest.approx(3200.0)

    def test_short_trace_skipped(self):
        assert PowerAnomalyDetector().scan(trace_of(np.ones(10))) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerAnomalyDetector(threshold=0.0)


class TestHazardDetector:
    def test_over_limit_critical(self):
        det = HazardDetector(limit_w=30e3)
        tr = trace_of(np.concatenate([np.full(50, 25e3), np.full(50, 31e3)]))
        findings = det.scan(tr, subject="rack0")
        assert any(f.severity == "critical" for f in findings)

    def test_sustained_near_limit_warning(self):
        det = HazardDetector(limit_w=30e3)
        tr = trace_of(np.full(600, 28e3))  # 93% of the limit for 6 s
        findings = det.scan(tr)
        assert [f.severity for f in findings] == ["warning"]
        # Under the 5 s dwell, the same level is not flagged.
        assert det.scan(trace_of(np.full(400, 28e3))) == []

    def test_comfortable_margin_silent(self):
        det = HazardDetector(limit_w=30e3)
        assert det.scan(trace_of(np.full(100, 20e3))) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            HazardDetector(limit_w=0.0)


class TestEfficiencyAuditor:
    def record(self, jid, app, per_node_w, nodes=2, duration=100.0):
        job = Job(job_id=jid, user="u", app=app, n_nodes=nodes, walltime_req_s=200.0,
                  submit_time_s=0.0, true_runtime_s=duration,
                  true_power_per_node_w=per_node_w)
        rec = JobRecord(job=job)
        rec.start_time_s, rec.end_time_s = 0.0, duration
        rec.nodes = tuple(range(nodes))
        rec.energy_j = per_node_w * nodes * duration
        return rec

    def test_underdrawing_job_flagged(self):
        records = [self.record(i, "qe", 1700.0) for i in range(5)]
        records.append(self.record(99, "qe", 600.0))  # GPUs clearly idle
        findings = EfficiencyAuditor().audit_jobs(records)
        assert len(findings) == 1
        assert findings[0].subject == "job 99"
        assert "idle components" in findings[0].message

    def test_homogeneous_class_clean(self):
        records = [self.record(i, "nemo", 1250.0 + i) for i in range(6)]
        assert EfficiencyAuditor().audit_jobs(records) == []

    def test_classes_audited_independently(self):
        # 600 W/node is fine for a hypothetical CPU app class but not QE.
        records = [self.record(i, "qe", 1700.0) for i in range(4)]
        records += [self.record(10 + i, "cpuapp", 600.0) for i in range(4)]
        assert EfficiencyAuditor().audit_jobs(records) == []

    def test_idle_capacity_with_queue(self):
        auditor = EfficiencyAuditor()
        [finding] = auditor.audit_idle_capacity(utilization=0.4, queue_length=12)
        assert finding.kind == "inefficiency"
        assert auditor.audit_idle_capacity(utilization=0.95, queue_length=12) == []
        assert auditor.audit_idle_capacity(utilization=0.4, queue_length=0) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            EfficiencyAuditor().audit_idle_capacity(utilization=1.5, queue_length=0)
        with pytest.raises(ValueError):
            EfficiencyAuditor().audit_idle_capacity(utilization=0.5, queue_length=-1)
