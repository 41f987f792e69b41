"""The resource manager's monitoring plugin (the Fig.-4 scheduler box).

"the job scheduler features a dedicated plugin to receive the monitoring
information and to correlate them with user requests and scheduling
decisions.  This correlation enables per user and per job
energy-accounting (EA) and profiling (Pr)."

:class:`SchedulerMonitorPlugin` is that plugin, implemented against the
MQTT broker:

* publishes **job lifecycle events** (`davide/jobs/<id>/start|end`) with
  the allocation, so external agents can correlate power with jobs;
* subscribes to the per-node power topics and maintains a **live view**
  of each node's latest power and of the system total — what the
  dispatcher consults before an admission decision;
* on job end, emits a **job energy summary** computed from the samples
  that arrived during the job's window (the EA hand-off).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..monitoring.mqtt import Message, MqttBroker, MqttClient
from .job import JobRecord

__all__ = ["SchedulerMonitorPlugin", "LiveNodePower"]


@dataclass
class LiveNodePower:
    """Most recent power view of one node."""

    node_id: int
    last_power_w: float = 0.0
    last_timestamp: float = 0.0
    samples_seen: int = 0


class SchedulerMonitorPlugin:
    """The scheduler-side bridge between job records and the telemetry bus."""

    def __init__(self, broker: MqttBroker, topic_prefix: str = "davide"):
        self.broker = broker
        self.prefix = topic_prefix
        self.client: MqttClient = broker.connect("scheduler-plugin")
        self.client.on_message = self._on_power
        self.client.subscribe(f"{topic_prefix}/+/power/node", qos=0)
        self.live: dict[int, LiveNodePower] = {}
        #: node_id -> list of (timestamp, power) retained for active jobs.
        self._windows: dict[int, list[tuple[float, float]]] = defaultdict(list)
        self._active_nodes: set[int] = set()

    # -- telemetry ingestion ----------------------------------------------------
    def _on_power(self, message: Message) -> None:
        payload = message.payload
        node_id = int(payload["node"])
        t = np.asarray(payload["t"], dtype=float)
        p = np.asarray(payload["p"], dtype=float)
        if t.size == 0:
            return
        view = self.live.setdefault(node_id, LiveNodePower(node_id=node_id))
        view.last_power_w = float(p[-1])
        view.last_timestamp = float(t[-1])
        view.samples_seen += t.size
        if node_id in self._active_nodes:
            self._windows[node_id].extend(zip(t.tolist(), p.tolist()))

    def node_power_w(self, node_id: int) -> float:
        """Latest reading for one node (0 before any sample arrives)."""
        view = self.live.get(node_id)
        return view.last_power_w if view is not None else 0.0

    # -- job lifecycle ------------------------------------------------------------
    def job_started(self, record: JobRecord) -> None:
        """Publish the start event and begin collecting the job's window."""
        if record.start_time_s is None:
            raise ValueError("record has no start time")
        for node_id in record.nodes:
            self._active_nodes.add(node_id)
        self.client.publish(
            f"{self.prefix}/jobs/{record.job.job_id}/start",
            {
                "job": record.job.job_id,
                "user": record.job.user,
                "app": record.job.app,
                "nodes": list(record.nodes),
                "t": record.start_time_s,
            },
            retain=True,
        )

    def job_ended(self, record: JobRecord) -> dict[str, Any]:
        """Publish the end event plus the measured energy summary.

        Integrates the power samples collected on the job's nodes during
        its window; returns (and publishes) the summary dict.
        """
        if record.start_time_s is None or record.end_time_s is None:
            raise ValueError("record has not finished")
        energy = 0.0
        samples = 0
        for node_id in record.nodes:
            window = [
                (t, p) for t, p in self._windows.get(node_id, [])
                if record.start_time_s <= t <= record.end_time_s
            ]
            if len(window) >= 2:
                arr = np.array(window)
                order = np.argsort(arr[:, 0])
                energy += float(np.trapezoid(arr[order, 1], arr[order, 0]))
                samples += len(window)
            self._active_nodes.discard(node_id)
            self._windows.pop(node_id, None)
        summary = {
            "job": record.job.job_id,
            "user": record.job.user,
            "app": record.job.app,
            "duration_s": record.end_time_s - record.start_time_s,
            "measured_energy_j": energy,
            "samples": samples,
        }
        self.client.publish(f"{self.prefix}/jobs/{record.job.job_id}/end", summary, retain=True)
        return summary
