"""The invariant-checking harness, unit-level and under full fault drills.

Two layers: the :class:`InvariantChecker` machinery and the built-in
invariant factories are tested against synthetic states with known-good
and known-bad ledgers; then whole :class:`FaultDrill` scenarios assert
that the cluster-wide properties actually survive each fault class
end to end.
"""

from types import SimpleNamespace

import pytest

from repro.faults import (
    DrillConfig,
    FaultDrill,
    FaultKind,
    FaultSpec,
    InvariantChecker,
    InvariantViolation,
    all_jobs_completed,
    cap_respected,
    energy_ledger_balances,
    monotonic_time_hooks,
    node_timestamps_monotonic,
    requeued_jobs_completed,
)
from repro.faults import drill as drill_module
from repro.scheduler import JobState
from repro.sim import Environment


class TestInvariantChecker:
    def test_register_and_names(self):
        checker = InvariantChecker()
        checker.register("a", lambda s: None)
        checker.register("b", lambda s: "broken")
        assert checker.names == ["a", "b"]

    def test_duplicate_name_rejected(self):
        checker = InvariantChecker()
        checker.register("a", lambda s: None)
        with pytest.raises(ValueError, match="already registered"):
            checker.register("a", lambda s: None)

    def test_check_collects_violations(self):
        checker = InvariantChecker()
        checker.register("ok", lambda s: None)
        checker.register("bad", lambda s: f"state was {s}")
        found = checker.check("x", now_s=3.0)
        assert len(found) == 1
        assert found[0].name == "bad"
        assert found[0].time_s == 3.0
        assert "state was x" in found[0].detail
        assert checker.checks_run == 1
        assert checker.violations == found

    def test_fail_fast_raises_immediately(self):
        checker = InvariantChecker(fail_fast=True)
        checker.register("bad", lambda s: "boom")
        with pytest.raises(InvariantViolation, match="bad: boom"):
            checker.check(None, now_s=1.0)

    def test_assert_clean(self):
        checker = InvariantChecker()
        checker.register("ok", lambda s: None)
        checker.check(None, 0.0)
        assert checker.violations == []
        checker.register("bad", lambda s: "no")
        checker.check(None, 1.0)
        [violation] = checker.violations
        assert (violation.name, violation.detail) == ("bad", "no")


class TestMonotonicTimeHooks:
    def test_normal_run_is_clean(self):
        checker = InvariantChecker()
        env = Environment(hooks=monotonic_time_hooks(checker))

        def proc():
            yield env.timeout(1.0)
            yield env.timeout(2.0)

        env.process(proc())
        env.run()
        assert checker.violations == []

    def test_regression_is_caught(self):
        checker = InvariantChecker()
        hooks = monotonic_time_hooks(checker)
        hooks.on_dispatch(None, 5.0)
        with pytest.raises(InvariantViolation, match="time-monotonic"):
            hooks.on_dispatch(None, 4.0)
        assert len(checker.violations) == 1


def _rec(energy=0.0, state=JobState.COMPLETED, end=1.0, requeues=0):
    return SimpleNamespace(energy_j=energy, state=state, end_time_s=end, requeues=requeues)


class TestBuiltinInvariants:
    def test_energy_ledger_balances(self):
        fn = energy_ledger_balances()
        good = SimpleNamespace(records={0: _rec(100.0), 1: _rec(50.0)},
                               idle_energy_j=25.0, total_energy_j=175.0)
        assert fn(good) is None
        bad = SimpleNamespace(records={0: _rec(100.0)},
                              idle_energy_j=25.0, total_energy_j=175.0)
        assert "ledger" in fn(bad)

    def test_energy_ledger_relative_tolerance(self):
        fn = energy_ledger_balances()
        nearly = SimpleNamespace(records={0: _rec(1e9)},
                                 idle_energy_j=0.0, total_energy_j=1e9 + 100.0)
        assert fn(nearly) is None  # 1e-7 relative: inside tolerance

    def test_cap_respected_within_settling(self):
        fn = cap_respected(settling_s=5.0)
        state = SimpleNamespace(
            power_steps=[(0.0, 90.0), (10.0, 120.0), (13.0, 80.0), (20.0, 80.0)],
            cap_steps=[(0.0, 100.0)],
        )
        assert fn(state) is None  # 3 s overage < 5 s settling window

    def test_cap_violated_beyond_settling(self):
        fn = cap_respected(settling_s=5.0)
        state = SimpleNamespace(
            power_steps=[(0.0, 90.0), (10.0, 120.0), (17.0, 80.0), (20.0, 80.0)],
            cap_steps=[(0.0, 100.0)],
        )
        assert "over cap" in fn(state)

    def test_cap_overage_intervals_merge(self):
        # Two adjacent over-cap steps form one 6 s overage interval.
        fn = cap_respected(settling_s=5.0)
        state = SimpleNamespace(
            power_steps=[(0.0, 90.0), (10.0, 120.0), (13.0, 110.0), (16.0, 80.0), (20.0, 80.0)],
            cap_steps=[(0.0, 100.0)],
        )
        assert "over cap" in fn(state)

    def test_cap_steps_tracked(self):
        # The cap itself changes mid-run; overage judged against the
        # active cap at each instant.
        fn = cap_respected(settling_s=2.0)
        state = SimpleNamespace(
            power_steps=[(0.0, 120.0), (30.0, 120.0)],
            cap_steps=[(0.0, 150.0), (10.0, 100.0)],  # cap drops under power
        )
        assert "over cap" in fn(state)

    def test_all_jobs_completed(self):
        fn = all_jobs_completed()
        assert fn(SimpleNamespace(records={0: _rec()})) is None
        stuck = SimpleNamespace(records={0: _rec(), 3: _rec(state=JobState.PENDING)})
        assert "3" in fn(stuck)
        no_end = SimpleNamespace(records={1: _rec(end=None)})
        assert "without end time" in fn(no_end)

    def test_requeued_jobs_completed(self):
        fn = requeued_jobs_completed()
        ok = SimpleNamespace(records={0: _rec(requeues=2)})
        assert fn(ok) is None
        stuck = SimpleNamespace(records={0: _rec(requeues=1, state=JobState.RUNNING)})
        assert "stuck" in fn(stuck)

    def test_node_timestamps_monotonic(self):
        fn = node_timestamps_monotonic()
        assert fn(SimpleNamespace(sample_times={0: [0.0, 1.0, 1.0, 2.0]})) is None
        assert "node 1" in fn(SimpleNamespace(sample_times={1: [0.0, 2.0, 1.5]}))


@pytest.fixture
def small_drill(monkeypatch):
    """Config factory for a short drill: 10 jobs of 10-30 s arriving over
    the first 60 s on 8 nodes (the job shape is a module constant)."""
    monkeypatch.setattr(drill_module, "JOB_RUNTIME_S", (10.0, 30.0))
    monkeypatch.setattr(drill_module, "SUBMIT_HORIZON_S", 60.0)

    def config(**kw):
        kw.setdefault("n_nodes", 8)
        kw.setdefault("n_jobs", 10)
        kw.setdefault("power_budget_w", 8000.0)
        return DrillConfig(**kw)

    return config


class TestDrillUnderFaults:
    def test_node_crash_requeues_and_everything_completes(self, small_drill):
        drill = FaultDrill(small_drill(seed=3))
        report = drill.run([
            FaultSpec(FaultKind.NODE_CRASH, at_s=12.0, duration_s=20.0, target=0),
            FaultSpec(FaultKind.NODE_CRASH, at_s=18.0, duration_s=20.0, target=5),
        ])
        assert report.ok, [str(v) for v in report.checker.violations]
        assert report.summary["jobs_completed"] == report.summary["jobs_submitted"]
        # The crashes hit running nodes at t=12/18 on an 8-node cluster.
        assert report.summary["total_requeues"] >= 1

    def test_broker_outage_is_buffered_not_lost(self, small_drill):
        drill = FaultDrill(small_drill(seed=4))
        report = drill.run([
            FaultSpec(FaultKind.BROKER_OUTAGE, at_s=10.0, duration_s=20.0),
        ])
        assert report.ok, [str(v) for v in report.checker.violations]
        assert report.summary["gateway_reconnects"] == drill.config.n_nodes
        assert report.summary["gateway_republished"] > 0
        # 20 s of silence > the 10 s fail-safe horizon: the controller
        # flew blind and engaged the protective trim, then recovered.
        assert report.summary["failsafe_engagements"] == 1
        assert not drill.failsafe_active

    def test_psu_failure_retargets_cap(self, small_drill, monkeypatch):
        monkeypatch.setattr(drill_module, "SHELF_PSUS", 3)
        cfg = small_drill(seed=5, shelf_psu_rating_w=3000.0)
        drill = FaultDrill(cfg)
        report = drill.run([
            FaultSpec(FaultKind.PSU_FAILURE, at_s=15.0, duration_s=30.0),
        ])
        assert report.ok, [str(v) for v in report.checker.violations]
        caps = [c for _, c in drill.cap_steps]
        assert min(caps) == pytest.approx(6000.0)   # 2 live PSUs
        assert drill.cap_steps[-1][1] == pytest.approx(8000.0)  # restored
        assert drill.policy.cap_w == pytest.approx(8000.0)

    def test_sensor_faults_never_break_invariants(self, small_drill):
        drill = FaultDrill(small_drill(seed=6))
        report = drill.run([
            FaultSpec(FaultKind.SENSOR_DROPOUT, at_s=8.0, duration_s=15.0, target=2),
            FaultSpec(FaultKind.SENSOR_SPIKE, at_s=20.0, duration_s=10.0, target=3,
                      magnitude=5000.0),
            FaultSpec(FaultKind.CLOCK_DRIFT, at_s=5.0, duration_s=25.0, target=1,
                      magnitude=0.1),
        ])
        assert report.ok, [str(v) for v in report.checker.violations]
        # Drifted stamps stretched but never rewound (checked per node).
        assert report.summary["violations"] == 0

    def test_combined_campaign_all_fault_kinds(self):
        drill = FaultDrill(DrillConfig(seed=7))
        report = drill.run([
            FaultSpec(FaultKind.NODE_CRASH, at_s=25.0, duration_s=40.0, target=3),
            FaultSpec(FaultKind.BROKER_OUTAGE, at_s=50.0, duration_s=15.0),
            FaultSpec(FaultKind.PSU_FAILURE, at_s=70.0, duration_s=60.0),
            FaultSpec(FaultKind.SENSOR_DROPOUT, at_s=40.0, duration_s=10.0, target=9),
            FaultSpec(FaultKind.SENSOR_SPIKE, at_s=90.0, duration_s=10.0, target=5,
                      magnitude=3000.0),
            FaultSpec(FaultKind.CLOCK_DRIFT, at_s=30.0, duration_s=30.0, target=8,
                      magnitude=0.05),
        ])
        assert report.ok, [str(v) for v in report.checker.violations]
        assert len(report.summary["faults_by_kind"]) == 6
        assert report.summary["faults_injected"] == 6
        assert report.summary["faults_recovered"] == 6
        assert report.summary["jobs_completed"] == drill.config.n_jobs
        assert report.summary["invariant_checks"] > 10

    def test_fault_free_run_is_clean(self, small_drill):
        report = FaultDrill(small_drill(seed=8)).run([])
        assert report.ok
        assert report.summary["faults_injected"] == 0
        assert report.summary["total_requeues"] == 0
        assert report.summary["failsafe_engagements"] == 0

    def test_tampered_ledger_is_detected(self, small_drill):
        drill = FaultDrill(small_drill(seed=9))
        report = drill.run([])
        assert report.ok
        # Lose some joules behind the accountant's back: caught.
        next(iter(drill.records.values())).energy_j -= 1000.0
        found = drill.checker.check(drill, drill.env.now)
        assert [v.name for v in found] == ["energy-ledger"]

    def test_fail_fast_drill_raises_on_violation(self, small_drill):
        drill = FaultDrill(small_drill(seed=10), fail_fast=True)
        report = drill.run([])  # healthy run: no raise
        assert report.ok
        drill.total_energy_j += 5000.0
        with pytest.raises(InvariantViolation, match="energy-ledger"):
            drill.checker.check(drill, drill.env.now)

    def test_overlapping_same_target_fault_skipped(self, small_drill):
        drill = FaultDrill(small_drill(seed=11))
        report = drill.run([
            FaultSpec(FaultKind.SENSOR_DROPOUT, at_s=5.0, duration_s=20.0, target=0),
            FaultSpec(FaultKind.SENSOR_DROPOUT, at_s=10.0, duration_s=20.0, target=0),
        ])
        assert report.ok
        assert report.summary["faults_injected"] == 1
        assert len(list(report.log.of_kind("fault_skipped"))) == 1
