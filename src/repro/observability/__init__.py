"""Self-observability for the management plane: metrics, traces, exporters.

D.A.V.I.D.E.'s monitoring stack watched the compute nodes; this package
watches the *watchers* — every stage of the Fig. 4 pipeline (gateway
sampling tick → batched MQTT publish → broker dispatch → TSDB write →
predictor update → scheduler decision → capping actuation) increments
labeled counters and opens sim-clock spans through one
:class:`Observability` handle.

Design contract, kept by every record site in the tree:

* **Deterministic** — values come from the sim clock and the scenario
  itself, never the wall clock, so seeded runs export byte-identical
  snapshots and the :class:`~repro.telemetry.TelemetryEventLog` digest
  is unchanged whether observability is on or off.
* **Cheap when off** — :meth:`Observability.disabled` hands out null
  instruments (shared no-op objects); components resolve handles once
  at construction, so the disabled hot-path cost is a no-op call.

Enable on a live cluster with one builder call::

    live = (ClusterBuilder(n_nodes=16).with_observability()
            .build_live())
    live.run(60.0)
    print(live.ops_report()["telemetry"]["samples_published"])
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .export import to_prometheus_text
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)
from .tracing import NullTracer, Span, Tracer

__all__ = [
    "Observability",
    "null_observability",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "NullTracer",
    "Span",
    "DEFAULT_BUCKETS",
    "to_prometheus_text",
]


_NULL_SINGLETON: Optional["Observability"] = None


def null_observability() -> "Observability":
    """The process-wide shared disabled facade.

    Components default to this when no ``obs`` is wired in, so the
    un-observed hot path costs one no-op call per record site and zero
    allocations per component.
    """
    global _NULL_SINGLETON
    if _NULL_SINGLETON is None:
        _NULL_SINGLETON = Observability.disabled()
    return _NULL_SINGLETON


def _hist_summary(hist: Optional[Histogram]) -> dict[str, float]:
    if hist is None or hist.count == 0:
        return {"count": 0, "mean_s": 0.0, "sum_s": 0.0}
    return {"count": hist.count, "mean_s": hist.mean, "sum_s": hist.sum}


class Observability:
    """One registry + one tracer, shared by every instrumented component.

    Construct enabled (real instruments) or via :meth:`disabled` (shared
    no-ops with an identical surface).  ``clock`` stamps the spans; pass
    the simulation clock (``lambda: env.now``).
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.enabled = True
        self.metrics: MetricsRegistry = MetricsRegistry()
        self.tracer: Tracer = Tracer(clock=clock)

    @classmethod
    def disabled(cls) -> "Observability":
        """The no-op variant: same surface, shared null instruments."""
        obs = cls.__new__(cls)
        obs.enabled = False
        obs.metrics = NullMetricsRegistry()
        obs.tracer = NullTracer()
        return obs

    # -- exports --------------------------------------------------------------
    def prometheus_text(self) -> str:
        """All metric series in the Prometheus text exposition format."""
        return to_prometheus_text(self.metrics)

    # -- summary --------------------------------------------------------------
    def ops_report(self) -> dict[str, Any]:
        """Operator's digest of the management plane, by pipeline stage.

        Reads the well-known series the instrumented components publish;
        a stage nobody instrumented reports zeros.  Counts here reconcile
        exactly with the :class:`~repro.telemetry.TelemetryEventLog`
        (publishes ↔ samples published, scheduler decisions ↔
        ``job_start`` events, actuations ↔ ``trim``/``cap_change``
        events) — that equality is asserted in the test suite.
        """
        m = self.metrics
        latency = None
        for inst in m.series():
            if inst.name == "telemetry_publish_latency_seconds" and isinstance(inst, Histogram):
                if latency is None:
                    latency = Histogram("agg", bounds=inst.bounds)
                if latency.bounds == inst.bounds:
                    latency.sum += inst.sum
                    latency.count += inst.count
        invariant_spans = self.tracer.named("invariant.check")
        inv_total_s = sum(s.duration_s for s in invariant_spans)
        return {
            "telemetry": {
                "samples_published": m.total("telemetry_samples_total"),
                "samples_dropped": m.total("telemetry_dropped_total"),
                "publish_failures": m.total("telemetry_publish_failures_total"),
                "backlog_peak": m.total("telemetry_backlog_peak_samples"),
                "publish_latency": _hist_summary(latency),
            },
            "broker": {
                "published": m.total("mqtt_messages_published_total"),
                "delivered": m.total("mqtt_messages_delivered_total"),
                "rejected": m.total("mqtt_messages_rejected_total"),
            },
            "tsdb": {
                "samples_written": m.total("tsdb_samples_written_total"),
            },
            "predictor": {
                "updates": m.total("predictor_updates_total"),
            },
            "scheduler": {
                "decisions": m.total("scheduler_decisions_total"),
                "jobs_started": m.total("scheduler_jobs_started_total"),
                "jobs_completed": m.total("scheduler_jobs_completed_total"),
                "jobs_requeued": m.total("scheduler_jobs_requeued_total"),
                "backfills": m.total("scheduler_backfills_total"),
            },
            "capping": {
                "actuations": m.total("cap_actuations_total"),
                "failsafe_engagements": m.total("cap_failsafe_engagements_total"),
                "violation_seconds": m.total("cap_violation_seconds_total"),
            },
            "campaign": {
                "jobs_submitted": m.total("campaign_jobs_submitted_total"),
                "jobs_completed": m.total("campaign_jobs_completed_total"),
                "jobs_failed": m.total("campaign_jobs_failed_total"),
                "cells_completed": m.total("campaign_cells_completed_total"),
                "cells_simulated": m.total("campaign_cells_simulated_total"),
                "cells_replayed": m.total("campaign_cells_replayed_total"),
            },
            "exploration": {
                "points": m.total("explore_points_total"),
                "simulations": m.total("explore_simulations_total"),
                "cache_hits": m.total("explore_cache_hits_total"),
                "batches": m.total("explore_batches_total"),
                "best_updates": m.total("explore_best_updates_total"),
            },
            "invariants": {
                "checks": len(invariant_spans),
                "violations": m.total("invariant_violations_total"),
                "check_time_s": inv_total_s,
            },
            "tracing": {
                "spans_started": self.tracer.started,
                "spans_retained": len(self.tracer),
                "spans_dropped": self.tracer.dropped,
            },
        }
