"""The energy and power gateway (EG): the BeagleBone on every node.

Paper Section III-A1.  The EG is the paper's central monitoring
contribution: an embedded SoC, out-of-band from the computing resources,
that

* samples the node's power rails at **800 kS/s** through the built-in
  12-bit SAR ADC,
* **averages in hardware to 50 kS/s** (boxcar x16),
* timestamps samples with a **PTP-disciplined clock**, and
* publishes them over **MQTT** so multiple agents (accounting, profiling,
  capping) consume the same stream.

The gateway composes the pieces built elsewhere: sensor models and the
ADC from :mod:`repro.power`, the broker from
:mod:`repro.monitoring.mqtt`, and any clock model from
:mod:`repro.timesync` (anything with a ``read(true_time)`` method, or a
plain callable).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..power.adc import AM335X_ADC, SarAdc
from ..power.decimation import boxcar_decimate
from ..power.sensors import SHUNT_SENSOR, PowerSensor
from ..power.trace import PowerTrace
from .mqtt import MqttBroker, MqttClient

__all__ = ["GatewayConfig", "EnergyGateway"]

ClockFn = Callable[[float], float]

#: The boxcar average the gateway applies in hardware: 800 kS/s -> 50 kS/s.
DECIMATION = 16
#: MQTT QoS of published telemetry: at least once, never silently lost.
QOS = 1
#: The rail a gateway measures and publishes: the node's 12 V input.
RAIL = "node"


@dataclass(frozen=True)
class GatewayConfig:
    """Acquisition parameters of the energy gateway."""

    adc_rate_hz: float = 800e3       # paper: 800 kS/s
    publish_batch: int = 500         # samples per MQTT message
    topic_prefix: str = "davide"

    def __post_init__(self) -> None:
        if self.adc_rate_hz <= 0 or self.publish_batch < 1:
            raise ValueError("invalid gateway configuration")

    @property
    def output_rate_hz(self) -> float:
        """Published sample rate (paper: 50 kS/s)."""
        return self.adc_rate_hz / DECIMATION


class EnergyGateway:
    """One node's out-of-band monitoring SoC."""

    def __init__(
        self,
        node_id: int,
        broker: MqttBroker,
        config: GatewayConfig = GatewayConfig(),
        clock: Optional[ClockFn] = None,
        rng: np.random.Generator | None = None,
    ):
        self.node_id = node_id
        self.config = config
        self.broker = broker
        self.client: MqttClient = broker.connect(f"eg-node{node_id}")
        self.adc = SarAdc(AM335X_ADC, rng=rng if rng is not None else np.random.default_rng(node_id))
        # The sensor's noise stream is derived from the node and the rail
        # (crc32, not hash(): string hashes are salted per process).
        seed = np.random.SeedSequence([node_id, zlib.crc32(RAIL.encode())])
        self._sensor = PowerSensor(SHUNT_SENSOR, rng=np.random.default_rng(seed))
        self._rng = rng if rng is not None else np.random.default_rng(node_id + 1)
        #: Maps true time -> gateway timestamp (PTP-disciplined in the
        #: full system); ``None`` keeps the true block-centre times.
        self.clock: Optional[ClockFn] = clock
        self.samples_published = 0

    # -- acquisition -------------------------------------------------------------
    def acquire(self, true_power: PowerTrace) -> PowerTrace:
        """Digitize the node rail's ground-truth power through the full chain.

        Chain: sensor transfer -> 800 kS/s ADC sampling (multiplexer
        channel 0) -> x16 hardware average -> timestamps rewritten
        through the gateway clock, if one was given.
        """
        raw = self.adc.acquire_power(true_power, self._sensor, self.config.adc_rate_hz)
        decimated = boxcar_decimate(raw, DECIMATION)
        if self.clock is None:
            return decimated
        stamped_times = np.array([self.clock(t) for t in decimated.times_s])
        return PowerTrace(stamped_times, decimated.power_w)

    # -- publication ----------------------------------------------------------------
    def topic(self, rail: str) -> str:
        """The MQTT topic carrying a rail's samples."""
        return f"{self.config.topic_prefix}/node{self.node_id}/power/{rail}"

    def publish_trace(self, trace: PowerTrace) -> int:
        """Publish a measured trace in batches; returns messages sent.

        Each payload is ``{"t": array, "p": array, "node": id, "rail":
        "node"}`` — the flexible M2M integration of Section III-A1.  The
        last batch is retained so late subscribers see the freshest data.
        """
        n = len(trace)
        if n == 0:
            return 0
        sent = 0
        batch = self.config.publish_batch
        for start in range(0, n, batch):
            end = min(start + batch, n)
            last = end == n
            self.client.publish(
                self.topic(RAIL),
                {
                    "t": trace.times_s[start:end].copy(),
                    "p": trace.power_w[start:end].copy(),
                    "node": self.node_id,
                    "rail": RAIL,
                },
                qos=QOS,
                retain=last,
            )
            sent += 1
        self.samples_published += n
        return sent

    def acquire_and_publish(self, true_power: PowerTrace) -> PowerTrace:
        """Convenience: full chain acquisition followed by publication."""
        measured = self.acquire(true_power)
        self.publish_trace(measured)
        return measured

    @staticmethod
    def reassemble(messages: list) -> PowerTrace:
        """Rebuild a PowerTrace from drained MQTT messages (one rail).

        Drops duplicate (QoS-1 redelivered) batches by message id.
        """
        seen: set[int] = set()
        times, powers = [], []
        for msg in messages:
            if msg.message_id in seen:
                continue
            seen.add(msg.message_id)
            times.append(msg.payload["t"])
            powers.append(msg.payload["p"])
        if not times:
            return PowerTrace(np.array([]), np.array([]))
        t = np.concatenate(times)
        p = np.concatenate(powers)
        order = np.argsort(t)
        return PowerTrace(t[order], p[order])
