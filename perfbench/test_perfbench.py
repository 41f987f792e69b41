"""Self-tests for the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import importlib
import statistics
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def test_self_time_nested_and_reentrant_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def select(queue):
        clock.advance(1.0)
        return queue[:1]

    select = tracer.wrap(select, "Policy.select", "scheduler.policies", tracing._n_result)

    def select_batch(queue):  # re-entrant: the batch entry calls select
        clock.advance(0.5)
        return select(queue)

    select_batch = tracer.wrap(select_batch, "Policy.select_batch",
                               "scheduler.policies", tracing._n_result)

    def simulate(jobs):
        clock.advance(2.0)
        select_batch(jobs)
        select_batch(jobs)
        return jobs

    simulate = tracer.wrap(simulate, "ClusterSimulator.run", "scheduler.core")

    def run_scenario(jobs):
        clock.advance(0.25)
        return simulate(jobs)

    run_scenario = tracer.wrap(run_scenario, "run_scenario", "scheduler.campaign")

    def run_campaign(cells):
        clock.advance(0.125)
        return [run_scenario(c) for c in cells]

    run_campaign = tracer.wrap(run_campaign, "run_campaign", "scheduler.campaign")

    run_campaign([[1, 2], [3]])
    agg = tracing.aggregate(tracer.spans)
    self_s = tracing.layer_self_s(agg)
    # run_campaign 0.125 + two run_scenario 0.25 each
    assert self_s["scheduler.campaign"] == pytest.approx(0.625)
    assert self_s["scheduler.core"] == pytest.approx(4.0)
    # four select_batch (0.5) and four nested select (1.0)
    assert self_s["scheduler.policies"] == pytest.approx(6.0)
    # the self times partition the outermost span
    assert sum(self_s.values()) == pytest.approx(clock.now)
    # re-entrant calls are not counted twice
    assert agg["Policy.select"].calls == 4
    assert agg["Policy.select"].top_calls == 0
    assert agg["Policy.select_batch"].top_calls == 4
    assert agg["run_scenario"].top_calls == 0
    assert agg["run_campaign"].top_calls == 1

    m = tracing.layer_metrics(agg, run_s=clock.now + 0.375, counts={})
    assert m["scheduler.policies.calls"] == 4
    assert m["scheduler.policies.starts_per_call"] == 1.0
    assert m["scheduler.campaign.self_s"] == pytest.approx(0.625)
    assert m["unattributed_s"] == pytest.approx(0.375)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("broker offline")

    boom = tracer.wrap(boom, "MqttBroker.publish", "monitoring.mqtt")

    def outer():
        clock.advance(1.0)
        with pytest.raises(ValueError):
            boom()

    tracer.wrap(outer, "Environment.run", "sim.engine")()
    self_s = tracing.layer_self_s(tracing.aggregate(tracer.spans))
    assert self_s == {"sim.engine": pytest.approx(1.0),
                      "monitoring.mqtt": pytest.approx(1.0)}


def test_install_wraps_every_reference_and_restores(monkeypatch):
    home = types.ModuleType("perfbench_fake_home")

    def f(x):
        return x + 1

    class C:
        def m(self):
            return "m"

        @classmethod
        def k(cls):
            return cls.__name__

    f.__module__ = C.__module__ = home.__name__
    home.f, home.C = f, C
    user = types.ModuleType("perfbench_fake_user")
    user.f = f  # what "from home import f" leaves behind
    monkeypatch.setitem(sys.modules, home.__name__, home)
    monkeypatch.setitem(sys.modules, user.__name__, user)

    raw_m, raw_k = C.__dict__["m"], C.__dict__["k"]
    tracer = tracing.Tracer()
    probes = (tracing.Probe("a", home.__name__, "f"),
              tracing.Probe("b", home.__name__, "C.m"),
              tracing.Probe("b", home.__name__, "C.k"))
    inst = tracing.install(tracer, probes)
    try:
        assert home.f is not f and user.f is home.f
        assert user.f(1) == 2 and C().m() == "m" and C.k() == "C"
        assert [s.name for s in tracer.spans] == ["f", "C.m", "C.k"]
    finally:
        inst.restore()
    assert home.f is f and user.f is f
    assert C.__dict__["m"] is raw_m and C.__dict__["k"] is raw_k
    assert len(tracer.spans) == 3


def test_every_probe_resolves_in_the_package():
    originals = {}
    for probe in tracing.PROBES:
        module = importlib.import_module(probe.module)
        owner, _, attr = probe.qualname.rpartition(".")
        holder = getattr(module, owner) if owner else module
        originals[probe.qualname] = holder.__dict__[attr] if owner else getattr(holder, attr)
    inst = tracing.install(tracing.Tracer())
    inst.restore()
    for probe in tracing.PROBES:
        module = sys.modules[probe.module]
        owner, _, attr = probe.qualname.rpartition(".")
        now = (getattr(module, owner).__dict__[attr] if owner
               else getattr(module, attr))
        assert now is originals[probe.qualname]


def test_tracing_does_not_perturb_results():
    from repro.scheduler import (CampaignConfig, MemoryResultStore, Scenario,
                                 campaign_digest)
    from repro.scheduler import campaign  # looked up at call time, like callers do

    config = CampaignConfig(n_nodes=16, n_jobs=60, root_seed=3)
    grid = [Scenario(policy="easy", cap_w=14e3), Scenario(policy="power-aware", cap_w=14e3),
            Scenario(policy="fifo")]
    plain = campaign_digest(campaign.run_campaign(config, grid, processes=1,
                                                  cache=MemoryResultStore()))
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        traced = campaign_digest(campaign.run_campaign(config, grid, processes=1,
                                                       cache=MemoryResultStore()))
    finally:
        inst.restore()
    assert traced == plain
    agg = tracing.aggregate(tracer.spans)
    assert agg["ClusterSimulator.run"].calls == 3
    assert agg["run_campaign"].top_calls == 1


# ---------------------------------------------------------------------------
# statistics and operation accounting
# ---------------------------------------------------------------------------

def test_median_and_spread():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / 3.0)
    assert stats.spread([2.0, 2.0, 2.0, 2.0]) == 0.0
    assert stats.spread([7.0]) == 0.0


def test_host_scaled_cancels_host_speed():
    # The same section on a host running at full speed, then at half
    # speed, reads the same in reference seconds.
    times = [0.4, 0.8]
    loops = [([0.01, 0.01, 0.012], [0.01, 0.011, 0.01]),
             ([0.02, 0.02, 0.02], [0.021, 0.02, 0.02])]
    assert stats.host_scaled(times, loops, ref_s=0.01) == pytest.approx(0.4)
    # Odd counts: the median section wins, and a disturbed section that
    # its loops did not see only moves the median as one value.
    times = [0.4, 0.4, 1.2]
    loops = [([0.01] * 3, [0.01] * 3)] * 3
    assert stats.host_scaled(times, loops, ref_s=0.0125) == pytest.approx(0.5)


def test_forced_digest_mismatch_shows_in_failed_frac():
    from workloads.base import Op

    ops = [Op("cell:a", True, ("campaign", "cell:a")),
           Op("cell:b", True, ("campaign", "cell:b")),
           Op("telemetry", True)]
    digests = {"campaign": "c0", "cell:a": "a0", "cell:b": "b0"}

    clean = stats.Tally()
    stats.score_ops(ops, stats.digest_mismatches(digests, dict(digests), digests), clean)
    assert (clean.attempted, clean.failed, clean.failed_frac) == (3, 0, 0.0)

    pinned = dict(digests, **{"cell:b": "not-b0"})
    forced = stats.Tally()
    stats.score_ops(ops, stats.digest_mismatches(digests, pinned, digests), forced)
    assert (forced.attempted, forced.failed) == (3, 1)
    assert forced.failed_frac == pytest.approx(1 / 3)

    # a digest the pin names but the run did not produce is a mismatch
    missing = stats.digest_mismatches({"campaign": "c0"}, None, digests)
    assert missing == {"cell:a", "cell:b"}

    # an operation's own failed check counts even with clean digests
    own = stats.Tally()
    stats.score_ops([Op("accounting", False)], set(), own)
    assert own.failed_frac == 1.0


# ---------------------------------------------------------------------------
# the recorded sizes
# ---------------------------------------------------------------------------

def test_manifest_sizes_match_the_configs():
    import workloads

    manifest = run.load_manifest()
    for name in workloads.NAMES:
        wl = workloads.get(name)
        assert manifest["workloads"][name]["sizes"] == wl.sizes(wl.load(0)), name
