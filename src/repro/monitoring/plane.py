"""The cluster's telemetry sampling plane as one composable unit.

Every scenario that runs gateways on the simulation kernel — the live
agents, the fault drill, the scale benchmarks — needs the same wiring:
one sampler per node (or one vectorized :class:`GatewayArray` for all of
them), a shared MQTT broker, and a collector subscription matched to the
publishing topic shape.  :class:`TelemetryPlane` owns that wiring so the
call sites stop copy-pasting it, and so switching between the per-sample
and the batched hot path is a single flag.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..observability import Observability
from ..sim.engine import Environment
from .daemon import BatchSensorFault, GatewayArray, GatewayDaemon, SensorFault
from .mqtt import Message, MqttBroker, MqttClient

__all__ = ["TelemetryPlane"]


class TelemetryPlane:
    """N node samplers, one broker, one collector hookup.

    ``batched=False`` builds one :class:`GatewayDaemon` per node, each
    sampling on its own kernel :class:`~repro.sim.engine.PeriodicTask`
    (the production-faithful shape); ``batched=True`` builds a single
    :class:`GatewayArray` that samples every node per kernel event (the
    scale shape).  Both publish under ``topic_prefix`` and both keep the
    same per-node noise streams (``rngs``, one generator per node, or
    ``default_rng(node_id)``), so the choice does not change what
    subscribers observe — only how fast the simulation runs.
    """

    def __init__(
        self,
        env: Environment,
        nodes: Sequence,
        broker: MqttBroker,
        *,
        period_s: float = 0.1,
        topic_prefix: str = "davide",
        batched: bool = False,
        rngs: Optional[Sequence[np.random.Generator]] = None,
        clocks: Optional[Sequence[Callable[[float], float]]] = None,
        clock_fn: Optional[Callable[[float], np.ndarray]] = None,
        powers_fn: Optional[Callable[[], np.ndarray]] = None,
        obs: Optional[Observability] = None,
    ):
        self.env = env
        self.broker = broker
        self.nodes = list(nodes)
        self.topic_prefix = topic_prefix
        self.batched = bool(batched)
        self.obs = obs
        if self.batched:
            self.gateways: list[GatewayDaemon] = []
            self.array: Optional[GatewayArray] = GatewayArray(
                env,
                self.nodes,
                broker,
                period_s=period_s,
                topic_prefix=topic_prefix,
                rngs=rngs,
                powers_fn=powers_fn,
                clock_fn=clock_fn,
                obs=obs,
            )
            self.topic_filter = self.array.topic
        else:
            if clocks is not None and len(clocks) != len(self.nodes):
                raise ValueError("need one clock per node")
            self.array = None
            self.gateways = [
                GatewayDaemon(
                    env,
                    node,
                    broker,
                    period_s=period_s,
                    topic_prefix=topic_prefix,
                    rng=None if rngs is None else rngs[i],
                    clock=None if clocks is None else clocks[i],
                    obs=obs,
                )
                for i, node in enumerate(self.nodes)
            ]
            self.topic_filter = f"{topic_prefix}/+/power/node"

    # --------------------------------------------------------------- wiring
    def attach_collector(
        self,
        client: MqttClient,
        on_sample: Optional[Callable[[Message], None]] = None,
        on_batch: Optional[Callable[[Message], None]] = None,
    ) -> MqttClient:
        """Subscribe ``client`` to the plane's stream with the handler
        matching its topic shape (``on_sample`` per-node messages,
        ``on_batch`` array blocks)."""
        handler = on_batch if self.batched else on_sample
        if handler is None:
            mode = "on_batch" if self.batched else "on_sample"
            raise ValueError(f"this plane publishes {'batches' if self.batched else 'samples'}; pass {mode}=")
        client.on_message = handler
        client.subscribe(self.topic_filter)
        return client

    def set_sensor_faults(
        self,
        per_node: Optional[Sequence[Optional[SensorFault]]] = None,
        batch: Optional[BatchSensorFault] = None,
    ) -> None:
        """Install fault-injection hooks on whichever sampler shape is live."""
        if self.batched:
            self.array.batch_fault = batch
        elif per_node is not None:
            for gw, fault in zip(self.gateways, per_node):
                gw.sensor_fault = fault

    # ------------------------------------------------------------- counters
    def _total(self, attr: str) -> int:
        if self.array is not None:
            return getattr(self.array, attr)
        return sum(getattr(gw, attr) for gw in self.gateways)

    @property
    def samples_published(self) -> int:
        return self._total("samples_published")

    @property
    def republished_count(self) -> int:
        return self._total("republished_count")

    @property
    def reconnects(self) -> int:
        return self._total("reconnects")
