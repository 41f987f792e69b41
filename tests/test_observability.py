"""The observability layer: metrics, tracing, exporters, and wiring.

Three contracts under test:

1. **Instrument semantics** — counters/gauges/histograms with labeled
   series, span trees on the sim clock, canonical exporters.
2. **Determinism** — observability is a side store.  At equal seeds the
   drill's telemetry log digest is *byte-identical* with instrumentation
   on or off; two identically-driven registries export identical text.
3. **Reconciliation** — :meth:`Observability.ops_report` counts agree
   exactly with the event log (publishes, scheduler decisions, cap
   actuations, requeues) — the metrics never drift from the truth.
"""

import contextlib
import io
import textwrap

import pytest

from repro.cluster import ClusterBuilder
from repro.faults import DrillConfig, FaultDrill, FaultKind, FaultSpec
from repro.observability import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NullMetricsRegistry,
    NullTracer,
    Observability,
    Tracer,
    null_observability,
    to_prometheus_text,
)

CAMPAIGN = [
    FaultSpec(FaultKind.NODE_CRASH, at_s=20.0, duration_s=30.0, target=2),
    FaultSpec(FaultKind.BROKER_OUTAGE, at_s=45.0, duration_s=12.0),
    FaultSpec(FaultKind.SENSOR_SPIKE, at_s=70.0, duration_s=8.0, target=4, magnitude=2000.0),
]


def _drill_config(observability, n_nodes=8, **over):
    fields = dict(
        seed=42, n_nodes=n_nodes, n_jobs=10, power_budget_w=1000.0 * n_nodes,
        batched_telemetry=True, observability=observability,
    )
    fields.update(over)
    return DrillConfig(**fields)


# --------------------------------------------------------------------- metrics
class TestMetrics:
    def test_counter_inc_and_reject_negative(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labeled_series_are_distinct_and_get_or_create(self):
        reg = MetricsRegistry()
        a = reg.counter("drops_total", reason="sensor")
        b = reg.counter("drops_total", reason="buffer")
        assert a is not b
        a.inc(3)
        assert reg.counter("drops_total", reason="sensor") is a
        assert reg.value("drops_total", reason="sensor") == 3
        assert reg.total("drops_total") == 3
        b.inc(2)
        assert reg.total("drops_total") == 5

    def test_gauge_set_and_inc(self):
        reg = MetricsRegistry()
        g = reg.gauge("backlog")
        g.set(7.0)
        g.set(5.0)
        assert g.value == 5.0

    def test_histogram_buckets_and_mean(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", bounds=(0.1, 1.0))
        for x in (0.05, 0.5, 0.5, 5.0):
            h.observe(x)
        assert h.count == 4
        assert h.sum == pytest.approx(6.05)
        assert h.mean == pytest.approx(6.05 / 4)
        # Per-bucket counts: <=0.1, <=1.0, then the implicit +Inf bucket.
        assert h.bucket_counts == [1, 2, 1]

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(TypeError):
            reg.gauge("x_total")

    def test_snapshot_is_sorted_and_stable(self):
        reg = MetricsRegistry()
        reg.counter("b_total", zone="2").inc()
        reg.counter("b_total", zone="1").inc()
        reg.gauge("a").set(1.0)
        keys = [(inst.name, inst.labels) for inst in reg.series()]
        assert keys == sorted(keys)
        assert keys == [(inst.name, inst.labels) for inst in reg.series()]

    def test_null_registry_is_inert(self):
        reg = NullMetricsRegistry()
        assert not reg.enabled
        c = reg.counter("anything")
        c.inc(100)
        assert len(reg) == 0
        assert list(reg.series()) == []
        # Shared instruments: no per-call allocation.
        assert reg.counter("a") is reg.counter("b")


# --------------------------------------------------------------------- tracing
class TestTracer:
    def test_span_nesting_sets_parents(self):
        t = 0.0
        tracer = Tracer(clock=lambda: t)
        with tracer.span("outer") as outer:
            t = 1.0
            with tracer.span("inner") as inner:
                t = 2.0
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.t_start_s == 0.0 and outer.t_end_s == 2.0
        assert inner.duration_s == 1.0

    def test_record_appends_finished_span_without_stack(self):
        t = 5.0
        tracer = Tracer(clock=lambda: t)
        with tracer.span("tick"):
            tracer.record("async.work", 1.0)
        (work,) = tracer.named("async.work")
        assert work.t_start_s == 1.0 and work.t_end_s == 5.0
        # record() never parents to the open tick.
        assert work.parent_id is None

    def test_bounded_retention_counts_drops(self):
        tracer = Tracer(clock=lambda: 0.0)
        for i in range(65_536 + 6):
            tracer.record(f"s{i}", 0.0)
        assert len(tracer) == 65_536
        assert tracer.dropped == 6
        assert tracer.started == 65_536 + 6
        assert tracer.spans[0].name == "s6"

    def test_null_tracer_is_inert(self):
        tracer = NullTracer()
        with tracer.span("x"):
            pass
        tracer.record("y", 0.0)
        assert not tracer.enabled
        assert len(tracer) == 0


# ------------------------------------------------------------------- exporters
class TestExporters:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total", user="alice").inc(3)
        reg.gauge("depth").set(2.5)
        h = reg.histogram("lat_seconds", bounds=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        return reg

    def test_prometheus_text_shape(self):
        text = to_prometheus_text(self._populated())
        assert '# TYPE jobs_total counter' in text
        assert 'jobs_total{user="alice"} 3' in text
        assert '# TYPE lat_seconds histogram' in text
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert 'lat_seconds_count 2' in text
        assert 'depth 2.5' in text

    def test_identical_inputs_export_identically(self):
        assert to_prometheus_text(self._populated()) == to_prometheus_text(self._populated())


# ------------------------------------------------------------------ facade
class TestObservabilityFacade:
    def test_disabled_singleton_is_shared_and_inert(self):
        a = null_observability()
        b = null_observability()
        assert a is b
        assert not a.enabled
        assert a.ops_report()["tracing"]["spans_started"] == 0

    def test_default_buckets_exported(self):
        assert DEFAULT_BUCKETS[0] < DEFAULT_BUCKETS[-1]

    def test_ops_report_sections(self):
        report = Observability().ops_report()
        for section in ("telemetry", "broker", "tsdb", "predictor",
                        "scheduler", "capping", "invariants", "tracing"):
            assert section in report

    def test_module_docstring_example_runs(self):
        """The package docstring's builder example runs as written and
        prints the published sample count of a 16-node, 60 s live run."""
        import repro.observability as observability

        block = observability.__doc__.split("::\n\n", 1)[1]
        lines = []
        for line in block.splitlines():
            if line and not line.startswith("    "):
                break
            lines.append(line)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            exec(textwrap.dedent("\n".join(lines)), {"ClusterBuilder": ClusterBuilder})
        assert float(printed.getvalue()) == 16 * 600


# ---------------------------------------------------------------- determinism
class TestDrillDigestUnchanged:
    def test_small_drill_byte_identical_with_and_without(self):
        runs = {}
        for flag in (False, True):
            drill = FaultDrill(_drill_config(observability=flag))
            runs[flag] = drill.run(CAMPAIGN, extra_random_faults=3)
        assert runs[True].log.to_jsonl() == runs[False].log.to_jsonl()
        assert runs[True].log.digest() == runs[False].log.digest()
        assert runs[True].summary == runs[False].summary

    def test_256_node_drill_byte_identical(self):
        digests = {}
        for flag in (False, True):
            drill = FaultDrill(_drill_config(observability=flag, n_nodes=256, n_jobs=24))
            digests[flag] = drill.run(CAMPAIGN, extra_random_faults=2).log.digest()
        assert digests[True] == digests[False]

    def test_unbatched_daemons_byte_identical(self):
        digests = {}
        for flag in (False, True):
            drill = FaultDrill(_drill_config(observability=flag, batched_telemetry=False))
            digests[flag] = drill.run(CAMPAIGN).log.digest()
        assert digests[True] == digests[False]


# -------------------------------------------------------------- reconciliation
class TestOpsReportReconciliation:
    @pytest.fixture(scope="class")
    def drill_and_report(self):
        drill = FaultDrill(_drill_config(observability=True, n_nodes=16, n_jobs=16))
        report = drill.run(CAMPAIGN, extra_random_faults=3)
        return drill, report

    def test_scheduler_counts_match_event_log(self, drill_and_report):
        drill, report = drill_and_report
        counts = report.log.counts()
        ops = drill.ops_report()
        assert ops["scheduler"]["jobs_started"] == counts.get("job_start", 0)
        assert ops["scheduler"]["decisions"] == counts.get("job_start", 0)
        assert ops["scheduler"]["jobs_completed"] == counts.get("job_end", 0)
        assert ops["scheduler"]["jobs_requeued"] == counts.get("job_requeued", 0)

    def test_cap_actuations_match_event_log(self, drill_and_report):
        drill, report = drill_and_report
        counts = report.log.counts()
        ops = drill.ops_report()
        assert ops["capping"]["actuations"] == (
            counts.get("trim", 0) + counts.get("cap_change", 0)
        )
        assert ops["capping"]["failsafe_engagements"] == counts.get("failsafe_on", 0)

    def test_broker_counts_match_broker_truth(self, drill_and_report):
        drill, _ = drill_and_report
        ops = drill.ops_report()
        assert ops["broker"]["published"] == drill.broker.published_count
        assert ops["broker"]["delivered"] == drill.broker.delivered_count
        assert ops["broker"]["rejected"] == drill.broker.rejected_count

    def test_invariant_checks_traced(self, drill_and_report):
        drill, _ = drill_and_report
        ops = drill.ops_report()
        assert ops["invariants"]["checks"] == len(drill.obs.tracer.named("invariant.check"))
        assert ops["invariants"]["checks"] > 0
        assert ops["invariants"]["violations"] == 0

    def test_kernel_section_present(self, drill_and_report):
        drill, _ = drill_and_report
        ops = drill.ops_report()
        assert ops["kernel"]["events_dispatched"] > 0
        assert ops["kernel"]["sim_time_s"] > 0

    def test_exports_nonempty(self, drill_and_report):
        drill, _ = drill_and_report
        assert "telemetry_samples_total" in drill.obs.prometheus_text()
        assert drill.obs.tracer.named("gateway.tick")


# --------------------------------------------------------------------- builder
class TestBuilderWiring:
    def test_live_cluster_exposes_metrics_and_trace(self):
        live = (ClusterBuilder(n_nodes=4, seed=7)
                .with_gateways(period_s=0.1, batched=True)
                .with_capping(cap_w=1500.0)
                .with_observability()
                .build_live())
        live.run(until=2.0)
        assert live.obs.enabled
        assert live.obs.metrics.total("telemetry_samples_total") > 0
        assert len(live.obs.tracer) > 0
        ops = live.ops_report()
        assert ops["broker"]["published"] == live.broker.published_count
        assert ops["kernel"]["sim_time_s"] == pytest.approx(2.0)

    def test_disabled_by_default(self):
        live = (ClusterBuilder(n_nodes=2, seed=7)
                .with_gateways(period_s=0.1)
                .build_live())
        live.run(until=1.0)
        assert not live.obs.enabled
        assert len(live.obs.metrics) == 0
        assert len(live.obs.tracer) == 0

    def test_drill_flag_maps_through(self):
        assert ClusterBuilder(n_nodes=4).with_observability().build_drill().obs.enabled
        assert not ClusterBuilder(n_nodes=4).build_drill().obs.enabled

    def test_live_results_identical_with_and_without(self):
        def final_power(enabled):
            b = (ClusterBuilder(n_nodes=4, seed=3)
                 .with_gateways(period_s=0.1, batched=True)
                 .with_capping(cap_w=1200.0))
            if enabled:
                b = b.with_observability()
            live = b.build_live()
            live.run(until=3.0)
            return live.total_power_w, live.broker.published_count

        assert final_power(True) == final_power(False)
