"""The ``repro.cluster`` facade: one builder, every artifact shape."""

import numpy as np
import pytest

from repro.cluster import ClusterBuilder, LiveCluster, TelemetryPlane
from repro.hardware.specs import DAVIDE_SYSTEM
from repro.monitoring import GatewayArray, GatewayDaemon, MqttBroker
from repro.scheduler import EasyBackfillScheduler
from repro.sim import Environment


class TestTopLevelApi:
    def test_headline_imports(self):
        """The README's one-liner must work verbatim."""
        from repro import ClusterBuilder, FaultInjector, PowerTrace  # noqa: F401

    def test_top_level_reexports(self):
        import repro

        for name in ("ClusterBuilder", "LiveCluster", "TelemetryPlane",
                     "FaultDrill", "FaultInjector", "PowerTrace", "Environment"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_every_package_curates_all(self):
        import repro

        for pkg_name in ("analysis", "apps", "capping", "cluster", "cooling",
                         "core", "energyapi", "faults", "hardware", "monitoring",
                         "network", "power", "prediction", "scheduler", "sim",
                         "telemetry", "timesync"):
            pkg = getattr(repro, pkg_name)
            assert hasattr(pkg, "__all__"), f"repro.{pkg_name} has no __all__"
            for name in pkg.__all__:
                assert hasattr(pkg, name), f"repro.{pkg_name}.__all__ lists missing {name}"


class TestBuilderTerminals:
    def test_build_nodes(self):
        nodes = ClusterBuilder(n_nodes=5).build_nodes()
        assert [n.node_id for n in nodes] == [0, 1, 2, 3, 4]

    def test_build_rack_and_hardware(self):
        rack = ClusterBuilder().build_rack()
        assert len(rack.nodes) == DAVIDE_SYSTEM.rack.nodes_per_rack
        cluster = ClusterBuilder().build_hardware()
        assert cluster.n_nodes == DAVIDE_SYSTEM.n_nodes

    def test_build_simulator_maps_cap(self):
        sim = (ClusterBuilder(n_nodes=8)
               .with_scheduler(EasyBackfillScheduler(), cap_w=9_000.0)
               .build_simulator())
        assert sim.n_nodes == 8
        assert sim.cap_w == 9_000.0

    def test_build_system_uses_seed_and_spec(self):
        system = ClusterBuilder(seed=3).build_system()
        assert system.cluster.n_nodes == DAVIDE_SYSTEM.n_nodes

    def test_build_gateway(self):
        broker = MqttBroker()
        gw = ClusterBuilder(seed=1).build_gateway(broker=broker)
        assert gw.node_id == 0 and gw.broker is broker

    def test_build_drill_maps_builder_knobs(self):
        drill = (ClusterBuilder(n_nodes=12, seed=11)
                 .with_gateways(period_s=0.5, batched=True)
                 .with_scheduler(cap_w=10_500.0)
                 .with_faults(n_jobs=6)
                 .build_drill())
        cfg = drill.config
        assert cfg.n_nodes == 12 and cfg.seed == 11
        assert cfg.gateway_period_s == 0.5
        assert cfg.batched_telemetry is True
        assert cfg.power_budget_w == 10_500.0
        assert cfg.n_jobs == 6

    def test_with_faults_overrides_win(self):
        drill = (ClusterBuilder(n_nodes=4)
                 .with_scheduler(cap_w=5_000.0)
                 .with_faults(power_budget_w=3_000.0)
                 .build_drill())
        assert drill.config.power_budget_w == 3_000.0

    def test_terminals_do_not_mutate_builder(self):
        builder = ClusterBuilder(n_nodes=4).with_capping(cap_w=1_200.0)
        live_a = builder.build_live()
        live_b = builder.build_live()
        assert live_a.env is not live_b.env
        assert live_a.broker is not live_b.broker
        assert len(live_a.agents) == len(live_b.agents) == 4


class TestLiveCluster:
    def _run_live(self, batched: bool) -> LiveCluster:
        live = (ClusterBuilder(n_nodes=4, seed=5)
                .with_gateways(period_s=0.1, batched=batched)
                .with_capping(cap_w=1_500.0, actuation_delay_s=0.05)
                .build_live())
        for n in live.nodes:
            n.set_utilization(cpu=1.0, gpu=1.0, memory_intensity=1.0)
        live.run(until=3.0)
        return live

    def test_caps_engage_per_sample(self):
        live = self._run_live(batched=False)
        assert live.capped_nodes == 4
        assert live.telemetry.samples_published > 0
        assert isinstance(live.telemetry.gateways[0], GatewayDaemon)

    def test_batched_matches_per_sample_outcome(self):
        """Same seed, same caps, same sample count on both hot paths."""
        per = self._run_live(batched=False)
        bat = self._run_live(batched=True)
        assert isinstance(bat.telemetry.array, GatewayArray)
        assert bat.capped_nodes == per.capped_nodes
        assert bat.telemetry.samples_published == per.telemetry.samples_published
        assert bat.total_power_w == pytest.approx(per.total_power_w)

    def test_connect_joins_the_bus(self):
        live = (ClusterBuilder(n_nodes=2)
                .with_gateways(period_s=0.1)
                .build_live())
        logbook = live.connect("logbook")
        logbook.subscribe(live.telemetry.topic_filter)
        live.run(until=1.0)
        assert len(logbook.inbox) == live.telemetry.samples_published


class TestTelemetryPlane:
    def _plane(self, batched: bool) -> tuple[Environment, MqttBroker, TelemetryPlane]:
        env = Environment()
        broker = MqttBroker(clock=lambda: env.now)
        nodes = ClusterBuilder(n_nodes=3).build_nodes()
        plane = TelemetryPlane(env, nodes, broker, period_s=0.1, batched=batched)
        return env, broker, plane

    def test_topic_filter_matches_mode(self):
        _, _, per = self._plane(batched=False)
        assert per.topic_filter == "davide/+/power/node"
        _, _, bat = self._plane(batched=True)
        assert bat.topic_filter == bat.array.topic == "davide/power/nodes"

    def test_attach_collector_requires_matching_handler(self):
        env, broker, plane = self._plane(batched=True)
        with pytest.raises(ValueError, match="on_batch"):
            plane.attach_collector(broker.connect("c"), on_sample=lambda m: None)
        env, broker, plane = self._plane(batched=False)
        with pytest.raises(ValueError, match="on_sample"):
            plane.attach_collector(broker.connect("c"), on_batch=lambda m: None)

    def test_aggregate_counters(self):
        env, _, plane = self._plane(batched=False)
        env.run(until=1.0)
        assert plane.samples_published == 3 * 11
        assert plane.reconnects == 0 and plane.republished_count == 0
        assert sum(gw.backlog for gw in plane.gateways) == 0

    def test_clocks_length_validated(self):
        env = Environment()
        broker = MqttBroker(clock=lambda: env.now)
        nodes = ClusterBuilder(n_nodes=3).build_nodes()
        with pytest.raises(ValueError, match="one clock per node"):
            TelemetryPlane(env, nodes, broker, clocks=[lambda t: t])

    def test_set_sensor_faults_per_node(self):
        env, _, plane = self._plane(batched=False)
        plane.set_sensor_faults(per_node=[lambda t, w: None, None, None])
        env.run(until=1.0)
        assert [gw.samples_dropped_by_sensor for gw in plane.gateways] == [11, 0, 0]
        assert plane.samples_published == 2 * 11

    def test_set_sensor_faults_batch(self):
        env, _, plane = self._plane(batched=True)
        drop_node0 = lambda now, measured: (np.array([False, True, True]), measured)
        plane.set_sensor_faults(batch=drop_node0)
        env.run(until=1.0)
        assert plane.array.samples_dropped_by_sensor == 11
        assert plane.samples_published == 2 * 11
