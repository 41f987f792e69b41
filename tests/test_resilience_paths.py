"""Unit tests for the per-subsystem recovery paths under injected faults.

Each class pins down one designed degradation/recovery behaviour: the
gateway's store-and-forward buffering through broker outages, the
scheduler's crash/requeue semantics, the sensor watchdog's hold-last
and fail-safe thresholds on sensor silence, and the power shelf's
capacity derating.
"""

import pytest

from repro.capping import SensorWatchdog
from repro.hardware import ComputeNode, PsuModel, RackLevelSupply
from repro.monitoring import BrokerUnavailableError, GatewayDaemon, MqttBroker
from repro.monitoring import daemon as gateway_daemon
from repro.scheduler import ClusterSimulator, FifoScheduler, Job, NodeOutage
from repro.sim import Environment


def _job(jid, nodes=1, submit=0.0, runtime=10.0, power=1000.0):
    return Job(job_id=jid, user="u", app="qe", n_nodes=nodes, walltime_req_s=runtime * 2,
               submit_time_s=submit, true_runtime_s=runtime, true_power_per_node_w=power)


class TestBrokerOutage:
    def test_offline_broker_rejects_publishes(self):
        broker = MqttBroker()
        broker.set_online(False)
        with pytest.raises(BrokerUnavailableError, match="broker offline"):
            broker.publish("davide/node0/power/node", {"p": 1.0})
        assert broker.rejected_count == 1

    def test_state_survives_outage(self):
        broker = MqttBroker()
        client = broker.connect("c")
        client.subscribe("davide/#")
        broker.publish("davide/a", 1, retain=True)
        client.drain()
        broker.set_online(False)
        broker.set_online(True)
        # Subscriptions and retained messages are intact after the bounce.
        broker.publish("davide/a", 2)
        assert [m.payload for m in client.drain()] == [2]
        late = broker.connect("late")
        late.subscribe("davide/a")
        assert [m.payload for m in late.drain()] == [1]


class TestGatewayStoreAndForward:
    """Backoff, ring size and probe cadence are module constants of
    :mod:`repro.monitoring.daemon`; tests that need another cadence
    patch them."""

    def _daemon(self, env, broker, period_s=0.5):
        return GatewayDaemon(env, ComputeNode(), broker, period_s=period_s)

    def test_buffers_during_outage_and_flushes_in_order(self, monkeypatch):
        monkeypatch.setattr(gateway_daemon, "RETRY_BACKOFF_S", 0.25)
        monkeypatch.setattr(gateway_daemon, "MAX_BACKOFF_S", 1.0)
        env = Environment()
        broker = MqttBroker(clock=lambda: env.now)
        collector = broker.connect("collector")
        collector.subscribe("davide/#")
        daemon = self._daemon(env, broker)
        env.run(until=2.1)
        n_before = daemon.samples_published
        assert n_before > 0
        broker.set_online(False)
        env.run(until=6.1)
        assert daemon.backlog > 0
        assert daemon.samples_published == n_before  # nothing leaked out
        broker.set_online(True)
        env.run(until=8.1)
        assert daemon.backlog == 0
        assert daemon.reconnects == 1
        assert daemon.republished_count > 0
        # Every delivered sample is in non-decreasing timestamp order.
        stamps = [m.payload["t"] for m in collector.drain()]
        assert stamps == sorted(stamps)

    def test_no_samples_lost_across_outage(self, monkeypatch):
        for name in ("RETRY_BACKOFF_S", "BACKOFF_FACTOR", "MAX_BACKOFF_S"):
            monkeypatch.setattr(gateway_daemon, name, 1.0)
        env = Environment()
        broker = MqttBroker()
        collector = broker.connect("collector")
        collector.subscribe("davide/#")
        daemon = self._daemon(env, broker, period_s=1.0)
        broker.set_online(False)
        env.run(until=10.5)
        broker.set_online(True)
        env.run(until=20.5)
        # ~1 sample/s the whole time; the outage cost latency, not data.
        assert daemon.samples_published >= 19
        assert daemon.buffer_dropped_count == 0
        assert len(collector.drain()) == daemon.samples_published

    def test_backoff_probes_thin_out(self):
        env = Environment()
        broker = MqttBroker()
        daemon = self._daemon(env, broker, period_s=1.0)
        broker.set_online(False)
        env.run(until=60.0)
        # The failed tick at 0 s, then probes 0.5 s later, doubling to
        # the 8 s ceiling: 0.5, 1.5, 3.5, 7.5, 15.5, 23.5, ..., 55.5 s.
        # (probe samples land in the buffer.)
        assert daemon.buffered_count == 1 + 10
        assert daemon.reconnects == 0

    def test_bounded_buffer_drops_oldest(self):
        env = Environment()
        broker = MqttBroker(clock=lambda: env.now)
        collector = broker.connect("collector")
        collector.subscribe("davide/#")
        daemon = self._daemon(env, broker, period_s=1.0)
        broker.set_online(False)
        # Past the 4,096-sample ring: one probe sample every 8 s.
        env.run(until=33_000.0)
        assert daemon.backlog == 4096
        assert daemon.buffer_dropped_count == daemon.buffered_count - 4096 > 0
        broker.set_online(True)
        env.run(until=33_010.0)
        # The 4,096 newest buffered stamps were delivered, none older.
        stamps = [m.payload["t"] for m in collector.drain()]
        assert stamps == sorted(stamps)
        assert daemon.republished_count == 4096


class TestSchedulerCrashRequeue:
    def test_victim_requeued_and_completes(self):
        requeued = []
        sim = ClusterSimulator(
            2, FifoScheduler(),
            node_outages=[NodeOutage(at_s=5.0, node_id=0, duration_s=3.0)],
            on_job_requeue=requeued.append,
        )
        result = sim.run([_job(0, nodes=2, runtime=10.0)])
        assert result.n_requeues == 1
        assert [r.job.job_id for r in requeued] == [0]
        rec = result.records[0]
        assert rec.requeues == 1
        assert rec.end_time_s is not None
        # Killed at t=5, node back at t=8, restart from scratch: ends t=18.
        assert rec.end_time_s == pytest.approx(18.0)

    def test_burnt_joules_stay_on_the_record(self):
        sim = ClusterSimulator(
            2, FifoScheduler(), idle_node_power_w=0.0,
            node_outages=[NodeOutage(at_s=5.0, node_id=0, duration_s=3.0)],
        )
        result = sim.run([_job(0, nodes=2, runtime=10.0, power=1000.0)])
        rec = result.records[0]
        # 5 s burnt + 10 s full rerun at 2 kW.
        assert rec.energy_j == pytest.approx(15.0 * 2000.0)
        assert result.total_energy_j == pytest.approx(rec.energy_j)

    def test_crashed_node_excluded_until_repair(self):
        sim = ClusterSimulator(
            2, FifoScheduler(),
            node_outages=[NodeOutage(at_s=1.0, node_id=1, duration_s=100.0)],
        )
        jobs = [_job(0, runtime=4.0), _job(1, submit=2.0, runtime=4.0)]
        result = sim.run(jobs)
        # Node 1 died idle at t=1; job 1 must wait for node 0 (t=4), not
        # start on the fenced node at its submit time.
        rec1 = result.records[1]
        assert rec1.start_time_s == pytest.approx(4.0)
        assert rec1.nodes == (0,)

    def test_crash_on_idle_node_is_harmless(self):
        sim = ClusterSimulator(
            4, FifoScheduler(),
            node_outages=[NodeOutage(at_s=2.0, node_id=3, duration_s=5.0)],
        )
        result = sim.run([_job(0, runtime=10.0)])
        assert result.n_requeues == 0
        assert result.records[0].end_time_s == pytest.approx(10.0)

    def test_overlapping_outages_extend_recovery(self):
        sim = ClusterSimulator(
            1, FifoScheduler(),
            node_outages=[
                NodeOutage(at_s=1.0, node_id=0, duration_s=4.0),   # back at 5
                NodeOutage(at_s=3.0, node_id=0, duration_s=10.0),  # back at 13
            ],
        )
        result = sim.run([_job(0, runtime=2.0)])
        rec = result.records[0]
        assert rec.requeues == 1
        assert rec.end_time_s == pytest.approx(15.0)

    def test_outage_validation(self):
        with pytest.raises(ValueError, match="targets node"):
            ClusterSimulator(2, FifoScheduler(),
                             node_outages=[NodeOutage(at_s=0.0, node_id=7, duration_s=1.0)])
        with pytest.raises(ValueError):
            NodeOutage(at_s=-1.0, node_id=0, duration_s=1.0)
        with pytest.raises(ValueError):
            NodeOutage(at_s=0.0, node_id=0, duration_s=0.0)


class TestSensorWatchdog:
    def test_hold_last_and_staleness(self):
        wd = SensorWatchdog(failsafe_after_s=6.0)
        wd.update("n0", 0.0, 100.0)
        wd.update("n1", 0.0, 50.0)
        assert wd.total_w() == pytest.approx(150.0)
        wd.update("n1", 4.0, 60.0)
        # n0 has been silent for 4 s but is held: the sum uses its last value.
        assert wd.total_w() == pytest.approx(160.0)
        assert not wd.all_silent(4.0)

    def test_all_silent_thresholds(self):
        wd = SensorWatchdog(failsafe_after_s=3.0)
        assert wd.all_silent(0.0)  # nothing ever reported
        wd.update("n0", 0.0, 10.0)
        assert not wd.all_silent(2.0)
        assert not wd.all_silent(3.0)  # silent for exactly the horizon
        assert wd.all_silent(3.5)
        wd.update("n0", 4.0, 10.0)
        assert not wd.all_silent(5.0)

    def test_validation(self):
        for failsafe_after_s in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="failsafe_after_s"):
                SensorWatchdog(failsafe_after_s=failsafe_after_s)


class TestPsuShelfFailure:
    def test_capacity_derates_and_restores(self):
        shelf = RackLevelSupply(PsuModel(rating_w=3000.0), n_psus=6, min_active=2)
        full = shelf.capacity_w
        assert shelf.fail_psu() == 5
        assert shelf.capacity_w == pytest.approx(full * 5 / 6)
        assert shelf.fail_psu() == 4
        assert shelf.capacity_w == pytest.approx(full * 4 / 6)
        assert shelf.restore_psu() == 5
        assert shelf.restore_psu() == 6
        assert shelf.capacity_w == pytest.approx(full)

    def test_cannot_kill_last_psu(self):
        shelf = RackLevelSupply(PsuModel(rating_w=3000.0), n_psus=2, min_active=1)
        shelf.fail_psu()
        with pytest.raises(ValueError, match="last"):
            shelf.fail_psu()

    def test_restore_requires_a_failure(self):
        shelf = RackLevelSupply(PsuModel(rating_w=3000.0), n_psus=2, min_active=1)
        with pytest.raises(ValueError):
            shelf.restore_psu()

    def test_active_psus_clamp_to_available(self):
        shelf = RackLevelSupply(PsuModel(rating_w=3000.0), n_psus=4, min_active=3)
        for _ in range(2):
            shelf.fail_psu()
        # min_active=3 but only 2 survive: the shelf runs what it has.
        assert shelf.active_psus(1000.0) == 2
