"""Tests for the scheduler monitoring plugin and the sim-kernel daemons."""

import numpy as np
import pytest

from repro.hardware import ComputeNode
from repro.monitoring import CappingAgent, GatewayArray, GatewayDaemon, MqttBroker
from repro.monitoring import daemon as gateway_daemon
from repro.scheduler import Job, JobRecord, SchedulerMonitorPlugin
from repro.sim import Environment


def make_record(job_id=1, nodes=(0,), start=0.0, end=10.0, power=1500.0):
    job = Job(job_id=job_id, user="alice", app="qe", n_nodes=len(nodes),
              walltime_req_s=20.0, submit_time_s=0.0,
              true_runtime_s=end - start, true_power_per_node_w=power)
    rec = JobRecord(job=job)
    rec.start_time_s = start
    rec.end_time_s = end
    rec.nodes = tuple(nodes)
    return rec


def publish_samples(broker, node_id, times, powers):
    broker.publish(
        f"davide/node{node_id}/power/node",
        {"node": node_id, "t": np.asarray(times, float), "p": np.asarray(powers, float)},
    )


class TestSchedulerMonitorPlugin:
    def test_live_view_tracks_latest_sample(self):
        broker = MqttBroker()
        plugin = SchedulerMonitorPlugin(broker)
        publish_samples(broker, 0, [0.0, 1.0], [500.0, 800.0])
        publish_samples(broker, 1, [0.5], [1200.0])
        assert plugin.node_power_w(0) == 800.0
        assert plugin.node_power_w(1) == 1200.0
        assert sum(v.last_power_w for v in plugin.live.values()) == 2000.0
        assert plugin.node_power_w(99) == 0.0

    def test_job_start_event_published_and_retained(self):
        broker = MqttBroker()
        plugin = SchedulerMonitorPlugin(broker)
        plugin.job_started(make_record(nodes=(0, 1)))
        agent = broker.connect("ea-agent")
        agent.subscribe("davide/jobs/+/start")
        msg = agent.poll()
        assert msg.payload["nodes"] == [0, 1]
        assert msg.payload["user"] == "alice"

    def test_job_energy_summary_from_window_samples(self):
        broker = MqttBroker()
        plugin = SchedulerMonitorPlugin(broker)
        rec = make_record(nodes=(0,), start=0.0, end=10.0)
        plugin.job_started(rec)
        # Node 0 reports a flat 1500 W during the job.
        publish_samples(broker, 0, np.linspace(0, 10, 11), np.full(11, 1500.0))
        summary = plugin.job_ended(rec)
        assert summary["measured_energy_j"] == pytest.approx(15000.0)
        assert summary["samples"] == 11

    def test_samples_outside_window_excluded(self):
        broker = MqttBroker()
        plugin = SchedulerMonitorPlugin(broker)
        rec = make_record(nodes=(0,), start=5.0, end=10.0)
        plugin.job_started(rec)
        publish_samples(broker, 0, np.linspace(0, 15, 16), np.full(16, 1000.0))
        summary = plugin.job_ended(rec)
        assert summary["measured_energy_j"] == pytest.approx(5000.0)

    def test_samples_before_start_not_collected(self):
        broker = MqttBroker()
        plugin = SchedulerMonitorPlugin(broker)
        publish_samples(broker, 0, [0.0, 1.0], [999.0, 999.0])  # before job start
        rec = make_record(nodes=(0,), start=2.0, end=4.0)
        plugin.job_started(rec)
        summary = plugin.job_ended(rec)
        assert summary["measured_energy_j"] == 0.0

    def test_end_event_published(self):
        broker = MqttBroker()
        plugin = SchedulerMonitorPlugin(broker)
        rec = make_record()
        plugin.job_started(rec)
        agent = broker.connect("agent")
        agent.subscribe("davide/jobs/+/end")
        plugin.job_ended(rec)
        assert agent.poll().payload["job"] == rec.job.job_id

    def test_unstarted_record_rejected(self):
        plugin = SchedulerMonitorPlugin(MqttBroker())
        rec = JobRecord(job=make_record().job)
        with pytest.raises(ValueError):
            plugin.job_started(rec)
        with pytest.raises(ValueError):
            plugin.job_ended(rec)


class TestGatewayDaemon:
    def test_periodic_publication(self):
        env = Environment()
        broker = MqttBroker(clock=lambda: env.now)
        node = ComputeNode()
        daemon = GatewayDaemon(env, node, broker, period_s=0.1)
        sub = broker.connect("sub")
        sub.subscribe("davide/node0/power/node")
        env.run(until=1.05)
        assert daemon.samples_published == 11  # t = 0.0 .. 1.0
        msgs = sub.drain()
        assert len(msgs) == 11
        assert msgs[-1].payload["t"] == pytest.approx(1.0)

    def test_samples_track_node_state(self):
        env = Environment()
        broker = MqttBroker()
        node = ComputeNode()
        GatewayDaemon(env, node, broker, period_s=0.1)
        sub = broker.connect("sub")
        sub.subscribe("davide/node0/power/node")
        env.run(until=0.25)
        idle_readings = [m.payload["p"] for m in sub.drain()]
        node.set_utilization(cpu=1.0, gpu=1.0, memory_intensity=1.0)
        env.run(until=0.55)
        busy_readings = [m.payload["p"] for m in sub.drain()]
        assert max(idle_readings) < min(busy_readings)

    def test_validation(self):
        with pytest.raises(ValueError):
            GatewayDaemon(Environment(), ComputeNode(), MqttBroker(), period_s=0.0)

    def test_noise_equals_scalar_draws_across_refills(self):
        """Block-drawn noise equals one scalar ``normal`` draw per sample
        from ``default_rng(node_id)``, across several block refills."""
        env = Environment()
        broker = MqttBroker(clock=lambda: env.now)
        node = ComputeNode(node_id=5)
        daemon = GatewayDaemon(env, node, broker, period_s=1.0)
        sub = broker.connect("sub")
        sub.subscribe(daemon.topic)
        env.run(until=300.5)
        published = [m.payload["p"] for m in sub.drain()]
        assert len(published) == 301
        rng = np.random.default_rng(5)
        expected = [max(node.power_w() + float(rng.normal(0.0, 2.0)), 0.0)
                    for _ in published]
        assert published == expected

    def test_sensor_fault_exception_leaves_run_with_its_type(self):
        class AdcFault(RuntimeError):
            pass

        def fault(now, measured):
            if now >= 3.0:
                raise AdcFault("ADC read failed")
            return measured

        env = Environment()
        broker = MqttBroker()
        daemon = GatewayDaemon(env, ComputeNode(), broker, period_s=1.0)
        daemon.sensor_fault = fault
        with pytest.raises(AdcFault, match="ADC read failed"):
            env.run(until=10.0)
        assert env.now == 3.0
        assert daemon.samples_published == 3


class TestCappingAgent:
    def test_caps_on_overload_and_releases_on_idle(self):
        env = Environment()
        broker = MqttBroker()
        node = ComputeNode()
        node.set_utilization(cpu=1.0, gpu=1.0, memory_intensity=1.0)
        GatewayDaemon(env, node, broker, period_s=0.05)
        agent = CappingAgent(env, node, broker, cap_w=1500.0)
        env.run(until=1.0)
        assert agent.capped
        assert node.power_w() <= 1500.0 * 1.1
        # Load drops: the agent must release the cap.
        node.set_utilization(cpu=0.1, gpu=0.1, memory_intensity=0.1)
        env.run(until=2.0)
        assert not agent.capped
        assert node.peak_flops > 0.9 * node.nameplate_flops

    def test_releases_only_25_w_below_the_cap(self):
        env, broker, node = Environment(), MqttBroker(), ComputeNode()
        agent = CappingAgent(env, node, broker, cap_w=1500.0)
        for reading, capped in ((1500.5, True), (1476.0, True), (1500.0, True),
                                (1475.5, True), (1474.5, False)):
            agent._observe(reading)
            env.run(until=env.now + 0.1)
            assert agent.capped is capped, reading

    def test_no_actuation_below_setpoint(self):
        env = Environment()
        broker = MqttBroker()
        node = ComputeNode()  # idle: well below the setpoint
        GatewayDaemon(env, node, broker, period_s=0.05)
        agent = CappingAgent(env, node, broker, cap_w=1800.0)
        env.run(until=1.0)
        assert agent.actuations == 0
        assert not agent.capped

    def test_actuation_delay_observed(self):
        env = Environment()
        broker = MqttBroker()
        node = ComputeNode()
        node.set_utilization(cpu=1.0, gpu=1.0, memory_intensity=1.0)
        GatewayDaemon(env, node, broker, period_s=0.05)
        CappingAgent(env, node, broker, cap_w=1500.0, actuation_delay_s=0.3)
        env.run(until=0.2)
        assert node._power_cap_w is None  # still inside the actuation delay
        env.run(until=0.5)
        assert node._power_cap_w is not None

    def test_batch_agents_read_their_own_node_through_a_dropout(self, monkeypatch):
        """A sensor dropout takes node 0 out of the GatewayArray batch for
        three ticks: every agent must keep acting on its own node's
        reading, never on the neighbour that moved into its index."""
        monkeypatch.setattr(gateway_daemon, "SENSOR_NOISE_W", 0.0)
        env = Environment()
        broker = MqttBroker(clock=lambda: env.now)
        nodes = [ComputeNode(node_id=i) for i in range(4)]
        powers = np.array([1000.0, 1100.0, 1200.0, 1300.0])
        array = GatewayArray(env, nodes, broker, period_s=0.1, powers_fn=lambda: powers)
        array.batch_fault = lambda now, measured: (
            np.array([not 0.25 <= now < 0.55, True, True, True]), measured)
        agents = [CappingAgent(env, node, broker, cap_w=1250.0,
                               batch_topic=array.topic) for node in nodes]
        readings = [[] for _ in nodes]
        for agent, got in zip(agents, readings):
            agent._observe = lambda p, got=got, real=agent._observe: (
                got.append(p), real(p))
        env.run(until=0.95)
        assert array.samples_dropped_by_sensor == 3
        assert [len(got) for got in readings] == [7, 10, 10, 10]
        assert [set(got) for got in readings] == [{p} for p in powers]
        assert [agent.capped for agent in agents] == [False, False, False, True]

    def test_validation(self):
        env, broker, node = Environment(), MqttBroker(), ComputeNode()
        with pytest.raises(ValueError):
            CappingAgent(env, node, broker, cap_w=0.0)
        with pytest.raises(ValueError):
            CappingAgent(env, node, broker, cap_w=100.0, actuation_delay_s=-1.0)
