"""Failure-injection tests: the stack's behaviour when parts misbehave.

The paper's system must keep operating through monitoring outages, lost
telemetry consumers, sync loss and overload — these tests pin down the
designed degradation mode of each.
"""

import numpy as np
import pytest

from repro.hardware import ComputeNode
from repro.monitoring import CappingAgent, EnergyGateway, GatewayDaemon, MqttBroker
from repro.power import PowerTrace
from repro.scheduler import (
    ClusterSimulator,
    EasyBackfillScheduler,
    Job,
    JobRecord,
    PowerAwareScheduler,
    SchedulerMonitorPlugin,
)
from repro.sim import Environment
from repro.telemetry import EnergyAccountant, TimeSeriesDB
from repro.timesync import HW_TIMESTAMPING, XO_CHEAP, LocalClock, PtpSlave


class TestMonitoringOutage:
    def test_accounting_falls_back_to_scheduler_energy(self):
        """No samples in the DB (gateway down) -> bill from the RM's books."""
        acct = EnergyAccountant(TimeSeriesDB())
        job = Job(job_id=1, user="u", app="qe", n_nodes=2, walltime_req_s=10.0,
                  submit_time_s=0.0, true_runtime_s=10.0, true_power_per_node_w=1000.0)
        rec = JobRecord(job=job)
        rec.start_time_s, rec.end_time_s, rec.nodes = 0.0, 10.0, (0, 1)
        rec.energy_j = 20000.0
        assert acct.bill(rec).energy_j == 20000.0

    def test_partial_outage_uses_surviving_nodes(self):
        """One node's gateway down: bill from the nodes that reported."""
        db = TimeSeriesDB()
        acct = EnergyAccountant(db)
        db.insert_many(acct.node_key(0), np.linspace(0, 10, 11), np.full(11, 1000.0))
        # node 1's series is absent entirely.
        job = Job(job_id=1, user="u", app="qe", n_nodes=2, walltime_req_s=10.0,
                  submit_time_s=0.0, true_runtime_s=10.0, true_power_per_node_w=1000.0)
        rec = JobRecord(job=job)
        rec.start_time_s, rec.end_time_s, rec.nodes = 0.0, 10.0, (0, 1)
        rec.energy_j = 20000.0
        # The surviving node's 10 kJ is measured; the dark node falls
        # back to its equal share of the simulator-accounted energy
        # (10 kJ) instead of being silently billed as zero.
        bill = acct.bill(rec)
        assert bill.measured_fraction == pytest.approx(0.5)
        assert bill.energy_j == pytest.approx(20000.0)


class TestTelemetryConsumerFailures:
    def test_qos1_redelivery_recovers_unacked_batches(self):
        broker = MqttBroker()
        collector = broker.connect("collector")
        collector.subscribe("davide/node0/power/node", qos=1)
        eg = EnergyGateway(0, broker)
        trace = PowerTrace(np.linspace(0, 0.01, 1200), np.full(1200, 1000.0))
        eg.publish_trace(trace)
        first_batch = collector.poll()  # consumer crashes after one message
        lost = collector.drain()        # queue wiped by the crash
        assert len(lost) >= 1
        # On reconnect, the broker's in-flight set redelivers everything
        # unacknowledged (with DUP set).
        dups = collector.redeliver_inflight()
        rebuilt = EnergyGateway.reassemble([first_batch] + dups)
        assert len(rebuilt) == len(trace)

    def test_plugin_ignores_empty_payloads(self):
        broker = MqttBroker()
        plugin = SchedulerMonitorPlugin(broker)
        broker.publish("davide/node0/power/node",
                       {"node": 0, "t": np.array([]), "p": np.array([])})
        assert sum(v.last_power_w for v in plugin.live.values()) == 0.0


class TestSyncLoss:
    def test_clock_error_grows_after_sync_stops(self):
        local = LocalClock(XO_CHEAP, rng=np.random.default_rng(3))
        slave = PtpSlave(local, HW_TIMESTAMPING, rng=np.random.default_rng(4))
        slave.synchronize(60.0)
        err_synced = abs(slave.clock.error_s(60.0))
        # Grandmaster unreachable for ten minutes: drift accumulates.
        err_holdover = abs(slave.clock.error_s(660.0))
        assert err_holdover > err_synced * 5

    def test_resync_recovers(self):
        local = LocalClock(XO_CHEAP, rng=np.random.default_rng(5))
        slave = PtpSlave(local, HW_TIMESTAMPING, rng=np.random.default_rng(6))
        slave.synchronize(60.0)
        _ = slave.clock.error_s(660.0)  # holdover gap
        for t in range(660, 690):  # the grandmaster is back: one round a second
            slave.step(float(t))
        assert abs(slave.clock.error_s(690.0)) < 50e-6


class TestCoolingFailures:
    def test_pump_failure_halves_flow_and_violates_constraints(self, monkeypatch):
        """One of the redundant pumps fails: flow halves, the loop runs
        hotter; at the hot end of the envelope, constraints trip."""
        import dataclasses

        from repro.cooling import HeatExchanger, LiquidLoop, liquid
        from repro.hardware.specs import DAVIDE_RACK

        loop = LiquidLoop(HeatExchanger(4000.0))
        op_ok = loop.operating_point(heat_w=22e3, facility_inlet_c=35.0)
        monkeypatch.setattr(liquid, "DAVIDE_RACK",
                            dataclasses.replace(DAVIDE_RACK, coolant_flow_lpm=15.0))
        op_bad = loop.operating_point(heat_w=22e3, facility_inlet_c=35.0)
        # Degraded flow runs the return visibly hotter.
        assert op_bad["secondary_return_c"] > op_ok["secondary_return_c"] + 5.0
        # At a 44 degC facility inlet the degraded loop busts the supply cap.
        hot_bad = loop.operating_point(heat_w=30e3, facility_inlet_c=44.0)
        assert loop.check_constraints(hot_bad) != []

    def test_fan_wall_failure_forces_throttling(self):
        """Losing the fan wall (air path) on an air-cooled part drives the
        die into the governor's throttle band."""
        from repro.cooling import ThermalChain, ThermalStage, ThrottleGovernor

        # Heatsink with stagnant air: the sink-to-air resistance triples.
        broken = ThermalChain(
            [ThermalStage("die", 0.05, 30.0), ThermalStage("heatsink", 0.45, 900.0)],
            boundary_temp_c=28.0,
        )
        gov = ThrottleGovernor()
        result = gov.run(broken, demand_power_w=300.0, duration_s=2400.0)
        assert result.throttled_fraction > 0.5
        assert result.mean_performance_fraction < 0.8


class TestOverloadBehaviour:
    def test_capping_agent_survives_daemon_silence(self):
        """If the gateway daemon never publishes, the agent just idles."""
        env = Environment()
        broker = MqttBroker()
        node = ComputeNode()
        node.set_utilization(cpu=1.0, gpu=1.0, memory_intensity=1.0)
        agent = CappingAgent(env, node, broker, cap_w=1000.0)
        env.run(until=5.0)  # no daemon attached
        assert agent.actuations == 0

    def test_scheduler_with_impossible_power_budget_still_drains_queue(self):
        """Budget below a single job's draw: the escape hatch serialises."""
        jobs = [
            Job(job_id=i, user="u", app="qe", n_nodes=4, walltime_req_s=100.0,
                submit_time_s=0.0, true_runtime_s=50.0, true_power_per_node_w=1900.0)
            for i in range(3)
        ]
        policy = PowerAwareScheduler(5000.0, predictor=lambda j: j.true_power_w)
        result = ClusterSimulator(8, policy).run(jobs)
        assert all(r.end_time_s is not None for r in result.records)
        # They ran one at a time (the envelope can't fit two).
        starts = sorted(r.start_time_s for r in result.records)
        assert starts[1] >= starts[0] + 50.0 - 1e-6

    def test_simulator_rejects_policy_overcommitting_nodes(self):
        class RoguePolicy:
            name = "rogue"

            def select(self, queue, ctx):
                return list(queue)  # start everything regardless of nodes

        jobs = [
            Job(job_id=i, user="u", app="qe", n_nodes=3, walltime_req_s=10.0,
                submit_time_s=0.0, true_runtime_s=5.0, true_power_per_node_w=1000.0)
            for i in range(2)
        ]
        with pytest.raises(RuntimeError, match="without enough free nodes"):
            ClusterSimulator(4, RoguePolicy()).run(jobs)
