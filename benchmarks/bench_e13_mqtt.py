"""E13 — MQTT telemetry distribution (Section III-A1).

Claims regenerated: the topic/subscriber pattern delivers the same power
stream to multiple agents in real time; wildcard routing scales with the
45-gateway fleet; QoS-1 delivery survives a slow/naughty consumer
without losing samples.
"""

import numpy as np
import pytest

from repro.monitoring import EnergyGateway, GatewayConfig, MqttBroker
from repro.power import trace_from_function


def _fanout(n_nodes=45, samples_per_node=2000):
    broker = MqttBroker()
    # Three agent classes of Fig. 4: accounting (everything), a profiler
    # (one node's rails), the capper (every node's total).
    accounting = broker.connect("accounting")
    accounting.subscribe("davide/+/power/#", qos=1)
    profiler = broker.connect("profiler")
    profiler.subscribe("davide/node7/power/+")
    capper = broker.connect("capper")
    capper.subscribe("davide/+/power/node")
    cfg = GatewayConfig(adc_rate_hz=160e3, publish_batch=250)
    duration = samples_per_node / cfg.output_rate_hz
    for node_id in range(n_nodes):
        eg = EnergyGateway(node_id, broker, config=cfg,
                           rng=np.random.default_rng(node_id))
        truth = trace_from_function(
            lambda t: np.full_like(t, 1500.0), duration, cfg.adc_rate_hz * 4
        )
        eg.acquire_and_publish(truth)
    return broker, accounting, profiler, capper


def test_e13_mqtt_fanout(benchmark, table):
    broker, accounting, profiler, capper = benchmark(_fanout)
    acc_msgs = accounting.drain()
    prof_msgs = profiler.drain()
    cap_msgs = capper.drain()
    table(
        "E13: telemetry fan-out (45 gateways, 3 agent classes)",
        ["agent", "subscription", "messages received"],
        [
            ["accounting", "davide/+/power/#", len(acc_msgs)],
            ["profiler", "davide/node7/power/+", len(prof_msgs)],
            ["capper", "davide/+/power/node", len(cap_msgs)],
        ],
    )
    print(f"broker: {broker.published_count} published, {broker.delivered_count} delivered")
    # Every publish reached every matching subscriber.
    assert len(acc_msgs) == broker.published_count
    assert len(cap_msgs) == broker.published_count  # one 'node' rail per gateway
    assert len(prof_msgs) == broker.published_count // 45
    # Samples reassemble losslessly per topic.
    node7 = [m for m in cap_msgs if m.topic == "davide/node7/power/node"]
    trace = EnergyGateway.reassemble(node7)
    assert len(trace) == pytest.approx(2000, abs=16)
    assert trace.mean_power_w() == pytest.approx(1500.0, rel=0.01)


def _slow_consumer():
    broker = MqttBroker()
    fast = broker.connect("fast")
    fast.subscribe("t/#")
    slow = broker.connect("slow", inbox_limit=10)
    slow.subscribe("t/#")
    for i in range(1000):
        broker.publish("t/x", i)
    return fast, slow


def test_e13a_slow_consumer_isolation(benchmark, table):
    """A slow consumer drops (bounded inbox) without stalling the fleet."""
    fast, slow = benchmark(_slow_consumer)
    table(
        "E13a: slow-consumer isolation",
        ["agent", "received", "dropped"],
        [["fast", len(fast.inbox), fast.dropped_count],
         ["slow (inbox=10)", len(slow.inbox), slow.dropped_count]],
    )
    assert len(fast.inbox) == 1000 and fast.dropped_count == 0
    assert len(slow.inbox) == 10 and slow.dropped_count == 990
