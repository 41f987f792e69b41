"""Data intelligence on the monitored streams (Section III-A1).

"such a monitoring runs data intelligence on the monitored data to
identify sources of not-optimality and hazards."

This module is that layer: analyzers that consume the gateway's power
streams (and the scheduler's job records) and flag

* **hazards** — power approaching the rack feed/PSU limits, sustained
  thermal-envelope pressure;
* **anomalies** — samples statistically inconsistent with the stream's
  recent behaviour (robust z-score on a sliding window);
* **sources of not-optimality** — jobs drawing far less power than their
  application class typically does (idle-GPU smell), and nodes left
  idling while work queues.

Detectors are deliberately simple, transparent statistics — the kind a
site actually deploys in a monitoring pipeline — with explicit
thresholds and deterministic behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..power.trace import PowerTrace
from ..scheduler.job import JobRecord

__all__ = ["Finding", "PowerAnomalyDetector", "HazardDetector", "EfficiencyAuditor"]

#: Trailing samples the anomaly detector takes its median and MAD over.
ANOMALY_WINDOW = 256
#: Samples after a spike that must return to the old level for it to
#: count as an isolated anomaly rather than a level shift.
ANOMALY_CONFIRM = 8
#: Fraction of the limit above which sustained power is a warning.
HAZARD_WARN_FRACTION = 0.9
#: How long, in s, power must sit near the limit before it is flagged.
HAZARD_DWELL_S = 5.0
#: A job drawing below this fraction of its app class's median per-node
#: power is flagged as leaving components idle.
UNDERDRAW_FRACTION = 0.6


@dataclass(frozen=True)
class Finding:
    """One issue the intelligence layer raised."""

    kind: str          # 'anomaly' | 'hazard' | 'inefficiency'
    subject: str       # what it concerns ('node3', 'job 17', ...)
    severity: str      # 'info' | 'warning' | 'critical'
    message: str
    time_s: float | None = None
    value: float | None = None


class PowerAnomalyDetector:
    """Robust sliding-window outlier detection on a power stream.

    A sample is anomalous when its deviation from the trailing window's
    median exceeds ``threshold`` times the window's MAD-derived sigma
    *and the deviation does not persist*: HPC power traces step between
    compute and idle plateaus as a matter of course, so a sustained
    excursion is a regime change, not a fault.  Only isolated spikes —
    where the following :data:`ANOMALY_CONFIRM` samples return to the
    old level — are flagged.
    """

    #: MAD -> sigma for a normal distribution.
    MAD_SIGMA = 1.4826

    def __init__(self, threshold: float = 6.0, min_sigma_w: float = 2.0):
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.threshold = float(threshold)
        self.min_sigma_w = float(min_sigma_w)

    def scan(self, trace: PowerTrace, subject: str = "node") -> list[Finding]:
        """Flag isolated anomalous samples in a trace."""
        window, confirm = ANOMALY_WINDOW, ANOMALY_CONFIRM
        if len(trace) < window + confirm + 1:
            return []
        p = trace.power_w
        t = trace.times_s
        findings: list[Finding] = []
        # Vectorised rolling median/MAD over full trailing windows.
        n = p.size - window - confirm
        idx = np.arange(window)[None, :] + np.arange(n)[:, None]
        windows = p[idx]
        med = np.median(windows, axis=1)
        mad = np.median(np.abs(windows - med[:, None]), axis=1)
        sigma = np.maximum(mad * self.MAD_SIGMA, self.min_sigma_w)
        candidates = p[window: window + n]
        scores = np.abs(candidates - med) / sigma
        for i in np.flatnonzero(scores > self.threshold):
            j = i + window
            # Persistence check: if the following samples stay deviated,
            # this is a level shift (normal phase behaviour), not a spike.
            follow = p[j + 1: j + 1 + confirm]
            follow_dev = abs(float(np.median(follow)) - med[i]) / sigma[i]
            if follow_dev > self.threshold / 2:
                continue
            findings.append(
                Finding(
                    kind="anomaly",
                    subject=subject,
                    severity="warning",
                    message=f"sample {candidates[i]:.0f} W deviates "
                            f"{scores[i]:.1f} sigma from the window median",
                    time_s=float(t[j]),
                    value=float(candidates[i]),
                )
            )
        return findings


class HazardDetector:
    """Envelope-pressure detection against the rack/PSU limits."""

    def __init__(self, limit_w: float):
        if limit_w <= 0:
            raise ValueError("limit must be positive")
        self.limit_w = float(limit_w)

    def scan(self, trace: PowerTrace, subject: str = "rack") -> list[Finding]:
        """Flag sustained operation near (warning) or over (critical) the limit."""
        if len(trace) < 2:
            return []
        t, p = trace.times_s, trace.power_w
        findings: list[Finding] = []
        dt = np.diff(t)
        over = p[:-1] > self.limit_w
        near = p[:-1] > self.limit_w * HAZARD_WARN_FRACTION
        over_s = float(dt[over].sum())
        near_s = float(dt[near & ~over].sum())
        if over_s > 0:
            findings.append(
                Finding(
                    kind="hazard", subject=subject, severity="critical",
                    message=f"power exceeded the {self.limit_w / 1e3:.1f} kW limit "
                            f"for {over_s:.1f} s",
                    value=float(p.max()),
                )
            )
        if near_s >= HAZARD_DWELL_S:
            findings.append(
                Finding(
                    kind="hazard", subject=subject, severity="warning",
                    message=f"power sat above {HAZARD_WARN_FRACTION * 100:.0f}% of the "
                            f"limit for {near_s:.1f} s",
                    value=float(p.max()),
                )
            )
        return findings


class EfficiencyAuditor:
    """Not-optimality detection over finished jobs and node usage."""

    def audit_jobs(self, records: list[JobRecord]) -> list[Finding]:
        """Flag jobs drawing far below their application class's typical power.

        A GPU job that draws 60 % less per node than its app-class median
        almost certainly left its accelerators idle — the 'unused
        components' the energy-proportionality API exists to power down.
        """
        by_app: dict[str, list[float]] = {}
        for r in records:
            by_app.setdefault(r.job.app, []).append(self._per_node_power(r))
        medians = {app: float(np.median(v)) for app, v in by_app.items()}
        findings = []
        for r in records:
            typical = medians[r.job.app]
            mine = self._per_node_power(r)
            if typical > 0 and mine < typical * UNDERDRAW_FRACTION:
                findings.append(
                    Finding(
                        kind="inefficiency",
                        subject=f"job {r.job.job_id}",
                        severity="info",
                        message=f"drew {mine:.0f} W/node vs the {typical:.0f} W/node "
                                f"typical for {r.job.app} — idle components suspected",
                        value=mine,
                    )
                )
        return findings

    @staticmethod
    def _per_node_power(record: JobRecord) -> float:
        duration = record.actual_runtime_s
        if duration <= 0 or not record.nodes:
            return 0.0
        return record.energy_j / duration / len(record.nodes)

    def audit_idle_capacity(self, utilization: float, queue_length: int) -> list[Finding]:
        """Flag nodes idling while jobs queue (scheduler not-optimality)."""
        if not 0 <= utilization <= 1:
            raise ValueError("utilization must lie in [0, 1]")
        if queue_length < 0:
            raise ValueError("queue length must be non-negative")
        if queue_length > 0 and utilization < 0.7:
            return [
                Finding(
                    kind="inefficiency",
                    subject="cluster",
                    severity="warning",
                    message=f"{(1 - utilization) * 100:.0f}% of nodes idle with "
                            f"{queue_length} jobs queued — check admission constraints",
                    value=utilization,
                )
            ]
        return []
