"""Layer tracing from outside the program.

The traced run wraps public functions and methods of the repro package
(nothing under ``src/`` changes) and records one span per call: its
name, layer, start, end and parent span.  A layer's self time is the
time of its spans minus the time of their child spans, so the self
times of all spans partition the traced wall time and
``unattributed_s`` (run time minus every self time) shows what no probe
covers.

Probes wrap module functions wherever a module holds a reference to
them (``from x import f`` copies the name), and methods on the class
that defines them, so every instance a run builds is covered.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

Counter = Callable[[tuple, Any], tuple]


class Span:
    """One traced call."""

    __slots__ = ("name", "layer", "start", "end", "parent", "child_s", "counts")

    def __init__(self, name: str, layer: str, parent: Optional["Span"]):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0
        self.counts: tuple = ()

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    @property
    def top(self) -> bool:
        """Outermost span of its layer (a re-entrant call is not)."""
        return self.parent is None or self.parent.layer != self.layer


class Tracer:
    """Records spans in memory; ``clock`` is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def wrap(self, fn: Callable, name: str, layer: str,
             counter: Optional[Counter] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, layer, parent)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return traced


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

def _n_result(args, result) -> tuple:
    return (len(result),)


def _n_jobs_arg(args, result) -> tuple:
    return (len(args[1]),)


def _store_get(args, result) -> tuple:
    hit = result is not None
    return (int(hit), int(hit and result.result is not None))


def _evaluated(args, result) -> tuple:
    return (len(result), sum(1 for s in result if not s.cache_hit))


@dataclass(frozen=True)
class Probe:
    layer: str
    module: str
    qualname: str
    counter: Optional[Counter] = None


_POLICIES = "repro.scheduler.policies"
_TSDB = "repro.telemetry.tsdb"
_MODELS = "repro.prediction.models"

PROBES: tuple[Probe, ...] = (
    Probe("scheduler.workload", "repro.scheduler.workload",
          "WorkloadGenerator.generate", _n_result),
    Probe("scheduler.core", "repro.scheduler.simulate", "ClusterSimulator.run", _n_jobs_arg),
    Probe("scheduler.policies", _POLICIES, "FifoScheduler.select", _n_result),
    Probe("scheduler.policies", _POLICIES, "FifoScheduler.select_batch", _n_result),
    Probe("scheduler.policies", _POLICIES, "EasyBackfillScheduler.select", _n_result),
    Probe("scheduler.policies", _POLICIES, "EasyBackfillScheduler.select_batch", _n_result),
    Probe("scheduler.policies", "repro.scheduler.power_aware",
          "PowerAwareScheduler.select", _n_result),
    Probe("scheduler.policies", "repro.scheduler.power_aware",
          "PowerAwareScheduler.select_batch", _n_result),
    Probe("scheduler.policies", "repro.scheduler.fairshare",
          "PriorityScheduler.select", _n_result),
    Probe("scheduler.policies", "repro.scheduler.fairshare",
          "EnergyFairShareScheduler.select", _n_result),
    Probe("scheduler.campaign", "repro.scheduler.campaign", "run_campaign"),
    Probe("scheduler.campaign", "repro.scheduler.campaign", "run_scenario"),
    Probe("scheduler.digest", "repro.scheduler.campaign", "result_digest"),
    Probe("scheduler.cache", "repro.scheduler.cache", "scenario_key"),
    Probe("scheduler.cache", "repro.scheduler.cache", "ResultStore.get", _store_get),
    Probe("scheduler.cache", "repro.scheduler.cache", "ResultStore.put"),
    Probe("explore", "repro.explore.run", "explore"),
    Probe("explore", "repro.explore.env", "ExplorationEnv.evaluate", _evaluated),
    Probe("power", "repro.monitoring.gateway", "EnergyGateway.acquire_and_publish"),
    Probe("monitoring.mqtt", "repro.monitoring.mqtt", "MqttBroker.publish"),
    Probe("telemetry.tsdb", _TSDB, "TimeSeriesDB.insert"),
    Probe("telemetry.tsdb", _TSDB, "TimeSeriesDB.insert_many"),
    Probe("telemetry.tsdb", _TSDB, "TimeSeriesDB.insert_trace"),
    Probe("telemetry.tsdb", _TSDB, "TimeSeriesDB.query"),
    Probe("telemetry.tsdb", _TSDB, "TimeSeriesDB.query_trace"),
    Probe("telemetry.tsdb", _TSDB, "TimeSeriesDB.downsample"),
    Probe("telemetry.accounting", "repro.telemetry.accounting", "EnergyAccountant.bill"),
    Probe("telemetry.accounting", "repro.telemetry.accounting",
          "EnergyAccountant.statements"),
    Probe("prediction", _MODELS, "JobPowerModel.fit_ridge"),
    Probe("prediction", _MODELS, "JobPowerModel.fit_knn"),
    Probe("prediction", _MODELS, "JobPowerModel.fit_per_key"),
    Probe("prediction", _MODELS, "JobPowerModel.predict_per_node"),
    Probe("prediction", _MODELS, "JobPowerModel.predict_batch"),
    Probe("prediction", _MODELS, "JobPowerModel.__call__"),
    Probe("prediction", "repro.prediction.evaluate", "evaluate_model"),
    Probe("sim.engine", "repro.sim.engine", "Environment.run"),
    Probe("faults", "repro.faults.invariants", "InvariantChecker.check"),
)

_TSDB_INSERTS = ("TimeSeriesDB.insert", "TimeSeriesDB.insert_many",
                 "TimeSeriesDB.insert_trace")
_TSDB_QUERIES = ("TimeSeriesDB.query", "TimeSeriesDB.query_trace",
                 "TimeSeriesDB.downsample")


class Installation:
    """Probes wrapped into live modules and classes; ``restore`` undoes it."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any, original: Any) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer, probes: tuple[Probe, ...] = PROBES) -> Installation:
    """Wrap every probe; returns the handle that restores the originals."""
    inst = Installation()
    try:
        for probe in probes:
            _install_one(inst, tracer, probe)
    except BaseException:
        inst.restore()
        raise
    return inst


def _install_one(inst: Installation, tracer: Tracer, probe: Probe) -> None:
    module = importlib.import_module(probe.module)
    owner_name, _, attr = probe.qualname.rpartition(".")
    if owner_name:
        cls = getattr(module, owner_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(tracer.wrap(raw.__func__, probe.qualname,
                                            probe.layer, probe.counter))
        else:
            wrapped = tracer.wrap(raw, probe.qualname, probe.layer, probe.counter)
        inst._set(cls, attr, wrapped, raw)
        return
    fn = getattr(module, attr)
    wrapped = tracer.wrap(fn, probe.qualname, probe.layer, probe.counter)
    for mod in list(sys.modules.values()):
        names = getattr(mod, "__dict__", None)
        if not isinstance(names, dict):
            continue
        for key, value in list(names.items()):
            if value is fn:
                inst._set(mod, key, wrapped, fn)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

@dataclass
class NameStats:
    layer: str
    calls: int = 0
    top_calls: int = 0
    self_s: float = 0.0
    counts: list[float] = field(default_factory=list)
    top_counts: list[float] = field(default_factory=list)


def _add(into: list[float], counts: tuple) -> None:
    while len(into) < len(counts):
        into.append(0.0)
    for i, c in enumerate(counts):
        into[i] += c


def aggregate(spans: list[Span]) -> dict[str, NameStats]:
    """Per span name: calls, outermost calls, self time and counter sums."""
    out: dict[str, NameStats] = {}
    for s in spans:
        st = out.get(s.name)
        if st is None:
            st = out[s.name] = NameStats(layer=s.layer)
        st.calls += 1
        st.self_s += s.self_s
        _add(st.counts, s.counts)
        if s.top:
            st.top_calls += 1
            _add(st.top_counts, s.counts)
    return out


def layer_self_s(agg: dict[str, NameStats]) -> dict[str, float]:
    out: dict[str, float] = {}
    for st in agg.values():
        out[st.layer] = out.get(st.layer, 0.0) + st.self_s
    return out


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


def layer_metrics(agg: dict[str, NameStats], run_s: float,
                  counts: dict[str, float]) -> dict[str, float]:
    """One traced run's per-layer metrics (``setup.*`` and ``tracing.*``
    come from elsewhere).  ``counts`` holds counters read off the run's
    artifacts: broker, TSDB, kernel and store figures."""
    empty = NameStats(layer="")

    def st(name: str) -> NameStats:
        return agg.get(name, empty)

    def count(name: str, i: int, top: bool = False) -> float:
        values = st(name).top_counts if top else st(name).counts
        return values[i] if len(values) > i else 0.0

    def top_calls(layer: str) -> int:
        return sum(s.top_calls for s in agg.values() if s.layer == layer)

    self_s = layer_self_s(agg)
    workload_jobs = count("WorkloadGenerator.generate", 0)
    core_jobs = count("ClusterSimulator.run", 0)
    policy_calls = top_calls("scheduler.policies")
    policy_starts = sum(s.top_counts[0] for s in agg.values()
                        if s.layer == "scheduler.policies" and s.top_counts)
    get = st("ResultStore.get")
    hits = count("ResultStore.get", 0)
    events = counts.get("engine_events", 0)
    published = counts.get("mqtt_published", 0)
    m = {
        "scheduler.workload.calls": top_calls("scheduler.workload"),
        "scheduler.workload.self_s": self_s.get("scheduler.workload", 0.0),
        "scheduler.workload.us_per_job": _ratio(
            self_s.get("scheduler.workload", 0.0), workload_jobs, 1e6),
        "scheduler.core.calls": top_calls("scheduler.core"),
        "scheduler.core.self_s": self_s.get("scheduler.core", 0.0),
        "scheduler.core.us_per_job": _ratio(
            self_s.get("scheduler.core", 0.0), core_jobs, 1e6),
        "scheduler.policies.calls": policy_calls,
        "scheduler.policies.self_s": self_s.get("scheduler.policies", 0.0),
        "scheduler.policies.starts_per_call": _ratio(policy_starts, policy_calls),
        "scheduler.campaign.self_s": self_s.get("scheduler.campaign", 0.0),
        "scheduler.digest.calls": top_calls("scheduler.digest"),
        "scheduler.digest.self_s": self_s.get("scheduler.digest", 0.0),
        "scheduler.cache.key_calls": st("scenario_key").calls,
        "scheduler.cache.key_s": st("scenario_key").self_s,
        "scheduler.cache.get_calls": get.calls,
        "scheduler.cache.get_s": get.self_s,
        "scheduler.cache.put_calls": st("ResultStore.put").calls,
        "scheduler.cache.put_s": st("ResultStore.put").self_s,
        "scheduler.cache.hits": hits,
        "scheduler.cache.misses": get.calls - hits,
        "scheduler.cache.hit_ratio": _ratio(hits, get.calls),
        "scheduler.cache.payload_reads": count("ResultStore.get", 1),
        "scheduler.cache.bytes_written": counts.get("store_bytes_written", 0),
        "explore.evals": count("ExplorationEnv.evaluate", 0),
        "explore.simulated": count("ExplorationEnv.evaluate", 1),
        "explore.self_s": self_s.get("explore", 0.0),
        "power.calls": top_calls("power"),
        "power.self_s": self_s.get("power", 0.0),
        "monitoring.mqtt.publishes": st("MqttBroker.publish").calls,
        "monitoring.mqtt.self_s": self_s.get("monitoring.mqtt", 0.0),
        "monitoring.mqtt.delivered_ratio": _ratio(
            counts.get("mqtt_delivered", 0), published),
        "telemetry.tsdb.inserts": sum(st(n).top_calls for n in _TSDB_INSERTS),
        "telemetry.tsdb.queries": sum(st(n).top_calls for n in _TSDB_QUERIES),
        "telemetry.tsdb.self_s": self_s.get("telemetry.tsdb", 0.0),
        "telemetry.tsdb.samples": counts.get("tsdb_samples", 0),
        "telemetry.accounting.bills": st("EnergyAccountant.bill").calls,
        "telemetry.accounting.self_s": self_s.get("telemetry.accounting", 0.0),
        "prediction.calls": top_calls("prediction"),
        "prediction.self_s": self_s.get("prediction", 0.0),
        "sim.engine.events": events,
        "sim.engine.self_s": self_s.get("sim.engine", 0.0),
        "sim.engine.us_per_event": _ratio(self_s.get("sim.engine", 0.0), events, 1e6),
        "faults.checks": st("InvariantChecker.check").calls,
        "faults.self_s": self_s.get("faults", 0.0),
        "faults.violations": counts.get("violations", 0),
        "unattributed_s": run_s - sum(self_s.values()),
    }
    return {k: float(v) for k, v in m.items()}
