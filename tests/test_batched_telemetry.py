"""The vectorized telemetry hot path: GatewayArray units, per-sample vs
batched digest equivalence, the per-sample stream pin, invariants at
scale, backlog ordering."""

import hashlib
import struct

import numpy as np
import pytest

from repro.cluster import ClusterBuilder
from repro.faults import DrillConfig, FaultDrill, FaultKind, FaultSpec
from repro.hardware import ComputeNode
from repro.monitoring import GatewayArray, GatewayDaemon, MqttBroker
from repro.monitoring import daemon as gateway_daemon
from repro.sim import Environment

#: One of every fault kind, with the sensor dropout kept clear of the
#: broker outage (the documented exception to batched equivalence:
#: heterogeneous per-daemon backoff schedules cannot be mimicked by one
#: shared prober).
EQUIVALENCE_CAMPAIGN = [
    FaultSpec(FaultKind.NODE_CRASH, at_s=25.0, duration_s=30.0, target=3),
    FaultSpec(FaultKind.BROKER_OUTAGE, at_s=40.0, duration_s=14.0),
    FaultSpec(FaultKind.SENSOR_SPIKE, at_s=60.0, duration_s=8.0, target=5, magnitude=900.0),
    FaultSpec(FaultKind.PSU_FAILURE, at_s=70.0, duration_s=40.0),
    FaultSpec(FaultKind.CLOCK_DRIFT, at_s=80.0, duration_s=25.0, target=7, magnitude=2e-4),
    FaultSpec(FaultKind.SENSOR_DROPOUT, at_s=100.0, duration_s=8.0, target=9),
]

#: The same campaign with the sensor dropout moved inside the broker
#: outage, so daemons enter backoff at different ticks.
OVERLAP_CAMPAIGN = EQUIVALENCE_CAMPAIGN[:-1] + [
    FaultSpec(FaultKind.SENSOR_DROPOUT, at_s=42.0, duration_s=8.0, target=9),
]


def run_drill(n_nodes: int, batched: bool, seed: int = 2026):
    budget_w = 875.0 * n_nodes
    drill = (
        ClusterBuilder(n_nodes=n_nodes, seed=seed)
        .with_gateways(period_s=1.0, batched=batched)
        .with_scheduler(cap_w=budget_w)
        # Shelf scaled with the budget (the drill's default 18/14 ratio)
        # so the feasible cap is not pinned below the idle floor.
        .with_faults(shelf_psu_rating_w=budget_w * 3.0 / 14.0)
        .build_drill()
    )
    return drill.run(faults=EQUIVALENCE_CAMPAIGN)


class TestGatewayArrayUnit:
    def _array(self, n=3):
        env = Environment()
        broker = MqttBroker(clock=lambda: env.now)
        nodes = [ComputeNode(node_id=i) for i in range(n)]
        array = GatewayArray(env, nodes, broker, period_s=0.5)
        return env, broker, nodes, array

    def test_publishes_one_batch_per_tick(self):
        env, broker, _, array = self._array()
        collector = broker.connect("c")
        collector.subscribe(array.topic)
        env.run(until=1.0)
        batches = collector.drain()
        assert len(batches) == 3  # t = 0.0, 0.5, 1.0
        payload = batches[0].payload
        assert payload["nodes"] == (0, 1, 2)
        assert payload["t"].shape == payload["p"].shape == (3,)
        assert array.samples_published == 9

    def test_batch_topic_does_not_leak_into_per_node_filter(self):
        env, broker, _, array = self._array()
        per_node = broker.connect("per-node")
        per_node.subscribe("davide/+/power/node")
        env.run(until=1.0)
        assert per_node.drain() == []

    def test_noise_streams_match_per_node_daemons(self):
        """Block-prefetched per-node generators draw the exact values
        N individual daemons would have drawn."""
        env, broker, nodes, array = self._array()
        collector = broker.connect("c")
        collector.subscribe(array.topic)
        env.run(until=2.0)
        batch_p = np.stack([m.payload["p"] for m in collector.drain()])

        env2 = Environment()
        broker2 = MqttBroker(clock=lambda: env2.now)
        nodes2 = [ComputeNode(node_id=i) for i in range(3)]
        daemons = [GatewayDaemon(env2, n, broker2, period_s=0.5) for n in nodes2]
        per = {i: [] for i in range(3)}
        coll2 = broker2.connect("c2")
        coll2.on_message = lambda m: per[m.payload["node"]].append(m.payload["p"])
        coll2.subscribe("davide/+/power/node")
        env2.run(until=2.0)
        per_p = np.stack([per[i] for i in range(3)], axis=1)
        np.testing.assert_array_equal(batch_p, per_p)

    def test_store_and_forward_through_outage(self):
        env, broker, _, array = self._array()
        delivered = []
        collector = broker.connect("c")
        collector.on_message = lambda m: delivered.append(m.payload)
        collector.subscribe(array.topic)
        env.process(_outage(env, broker, start=0.75, end=2.25), name="outage")
        env.run(until=4.0)
        assert array.reconnects == 1
        assert array.buffered_count > 0
        assert array.republished_count == array.buffered_count
        # Every stamp grid point up to t=4.0 accounted for, in order.
        stamps = [p["t"][0] for p in delivered]
        assert stamps == sorted(stamps)

    def test_buffer_limit_drops_oldest_ticks(self):
        env, broker, _, array = self._array()
        # Past the 4,096-tick ring: one probe tick every 8 s.
        env.process(_outage(env, broker, start=0.1, end=33_000.0), name="outage")
        env.run(until=32_999.0)
        assert len(array._buffer) == 4096
        assert array.buffer_dropped_count > 0
        env.run(until=33_010.0)
        assert array.backlog == 0  # drained after recovery


def _outage(env, broker, start, end):
    yield env.timeout(start)
    broker.set_online(False)
    yield env.timeout(end - start)
    broker.set_online(True)


class TestDigestEquivalence:
    def test_same_seed_same_digest_16_nodes(self):
        per = run_drill(16, batched=False)
        bat = run_drill(16, batched=True)
        assert per.summary["log_digest"] == bat.summary["log_digest"]
        assert per.summary["violations"] == bat.summary["violations"] == 0

    def test_same_seed_same_digest_64_nodes(self):
        per = run_drill(64, batched=False)
        bat = run_drill(64, batched=True)
        assert per.summary["log_digest"] == bat.summary["log_digest"]
        assert per.summary["violations"] == bat.summary["violations"] == 0

    def test_different_seed_different_digest(self):
        a = run_drill(16, batched=True, seed=1)
        b = run_drill(16, batched=True, seed=2)
        assert a.summary["log_digest"] != b.summary["log_digest"]

    def test_batched_rerun_is_deterministic(self):
        a = run_drill(16, batched=True)
        b = run_drill(16, batched=True)
        assert a.summary == b.summary


class TestPerSampleStream:
    def test_per_sample_stream_is_pinned(self):
        """Every message the collector receives, not just the log.

        The log digest cannot see a changed sample: with the dropout
        overlapping the outage, per-sample and batched logs still agree.
        So this hashes each message's node, stamp, power, broker
        timestamp and message id, and pins the daemons' resilience
        counters with it."""
        drill = (
            ClusterBuilder(n_nodes=16, seed=2026)
            .with_gateways(period_s=1.0, batched=False)
            .with_scheduler(cap_w=14000)
            .with_faults(shelf_psu_rating_w=3000)
            .build_drill()
        )
        digest = hashlib.sha256()
        count = 0
        collect = drill._collector.on_message

        def tap(msg):
            nonlocal count
            p = msg.payload
            digest.update(struct.pack("<idddi", p["node"], p["t"], p["p"],
                                      msg.timestamp, msg.message_id))
            count += 1
            collect(msg)

        drill._collector.on_message = tap
        drill.run(faults=OVERLAP_CAMPAIGN)
        gateways = drill.gateways
        assert count == 4910
        assert digest.hexdigest() == (
            "da4318acc42aa1da7b17d442f12df015627e46cd872555e575d82f6f2f868f7a")
        assert sum(gw.buffered_count for gw in gateways) == 94
        assert sum(gw.republished_count for gw in gateways) == 94
        assert sum(gw.reconnects for gw in gateways) == 16
        assert sum(gw.samples_dropped_by_sensor for gw in gateways) == 2
        assert drill.broker.rejected_count == 80


class TestInvariantsAtScale:
    def test_invariants_green_at_256_nodes_batched(self):
        report = run_drill(256, batched=True)
        assert report.ok, [str(v) for v in report.checker.violations[:5]]
        assert report.summary["jobs_completed"] == report.summary["jobs_submitted"]


class TestBacklogOrdering:
    def test_reconnect_coinciding_with_tick_keeps_stamp_order(self, monkeypatch):
        """Regression: when the recovery probe lands on the same instant
        as a sampling tick, the backlog must drain strictly before the
        live sample is published — subscribers see stamps in order."""
        env = Environment()
        broker = MqttBroker(clock=lambda: env.now)
        node = ComputeNode(node_id=0)
        # backoff == period: the successful probe is simultaneous with
        # the next scheduled tick.
        monkeypatch.setattr(gateway_daemon, "RETRY_BACKOFF_S", 1.0)
        monkeypatch.setattr(gateway_daemon, "BACKOFF_FACTOR", 1.0)
        daemon = GatewayDaemon(env, node, broker, period_s=1.0)
        stamps = []
        collector = broker.connect("c")
        collector.on_message = lambda m: stamps.append(m.payload["t"])
        collector.subscribe(daemon.topic)
        env.process(_outage(env, broker, start=1.5, end=3.75), name="outage")
        env.run(until=8.0)
        assert daemon.reconnects == 1
        assert daemon.republished_count > 0
        assert stamps == sorted(stamps)
        # No telemetry interval unaccounted: one stamp per grid second.
        assert len(stamps) == len(set(stamps)) == 9
