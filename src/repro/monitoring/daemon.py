"""Simulation-kernel integration: the gateway and capper as live agents.

The rest of :mod:`repro.monitoring` exposes batch APIs (measure a trace,
publish it).  This module runs the same components as live agents on the
discrete-event kernel of :mod:`repro.sim`, reproducing the runtime
behaviour of the deployed system:

* :class:`GatewayDaemon` — samples its node every period, publishes the
  reading over MQTT (the BBB's firmware loop), on one
  :class:`~repro.sim.engine.PeriodicTask` per node;
* :class:`GatewayArray` — the scale-out variant: one kernel event
  samples N nodes with NumPy and publishes a single batched message,
  preserving the daemon's store-and-forward semantics;
* :class:`CappingAgent` — subscribes to the node's power stream and
  actuates the node power cap whenever the measured power exceeds the
  cap, the "local feedback controller" of §III-A2, running
  asynchronously off the telemetry bus rather than in lockstep.

The agents never call each other — they interact only through the
broker, exactly like the real components.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Sequence

import numpy as np

from ..hardware.node import ComputeNode
from ..observability import Observability, null_observability
from ..sim.engine import Environment, PeriodicTask
from .mqtt import BrokerUnavailableError, Message, MqttBroker, MqttClient

__all__ = ["GatewayDaemon", "GatewayArray", "CappingAgent"]

#: Maps (now_s, measured_w) -> perturbed reading, or None to drop the
#: sample entirely (sensor dropout).  Installed by the fault injector.
SensorFault = Callable[[float, float], Optional[float]]

#: Vectorized fault hook for :class:`GatewayArray`:
#: (now_s, measured_w[n]) -> (keep_mask[n] or None, perturbed_w[n]).
BatchSensorFault = Callable[[float, np.ndarray], "tuple[Optional[np.ndarray], np.ndarray]"]

#: Sensor-noise draws a :class:`GatewayDaemon` takes from its generator
#: at once.  A block costs one NumPy call instead of one per sample and
#: yields the same values as that many scalar draws.
NOISE_BLOCK = 64

#: Ticks of noise a :class:`GatewayArray` draws per node at once: one
#: refill costs a NumPy call per node, so a wide block keeps the
#: steady-state tick a single array gather.
ARRAY_NOISE_BLOCK = 256

#: Standard deviation of a gateway's Gaussian sensor noise, in W.
SENSOR_NOISE_W = 2.0

#: Store-and-forward ring: samples (ticks, for a :class:`GatewayArray`)
#: a gateway holds while the broker is down; the oldest drop first.
BUFFER_LIMIT = 4096
#: The first reconnect probe's delay after a failed publish, in s; each
#: failed probe multiplies it by :data:`BACKOFF_FACTOR`, up to
#: :data:`MAX_BACKOFF_S`.
RETRY_BACKOFF_S = 0.5
BACKOFF_FACTOR = 2.0
MAX_BACKOFF_S = 8.0

#: A capped node is released once its reading falls this far below the
#: cap, in W, so a reading at the cap does not toggle the cap every tick.
HYSTERESIS_W = 25.0


class GatewayDaemon:
    """Periodic out-of-band sampling of one node, published over MQTT.

    The daemon is the store-and-forward end of the telemetry pipeline:
    when the broker is unreachable it buffers samples in a bounded local
    queue (dropping the *oldest* first, like the BBB firmware's ring
    buffer) and probes for reconnection with exponential backoff.  On
    reconnect the backlog is re-published in order before live sampling
    resumes, so a broker outage costs latency, not joules.

    The live cadence is one :class:`~repro.sim.engine.PeriodicTask`
    (``self.task``); a failed publish suspends it and chains the backoff
    probes as kernel timeouts until a probe drains the backlog.  The
    noise generator belongs to the daemon: it is drawn in blocks of
    :data:`NOISE_BLOCK`, so one generator shared by several daemons
    would hand each a different slice than per-sample draws would.
    """

    def __init__(
        self,
        env: Environment,
        node: ComputeNode,
        broker: MqttBroker,
        period_s: float = 0.1,
        topic_prefix: str = "davide",
        rng: np.random.Generator | None = None,
        clock: Optional[Callable[[float], float]] = None,
        obs: Optional[Observability] = None,
    ):
        """``clock`` maps true simulated time to the gateway's stamped
        time (the PTP-disciplined clock; identity by default).  ``rng``
        is the sensor-noise stream; default ``default_rng(node_id)``.
        ``obs`` wires the daemon into a shared
        :class:`~repro.observability.Observability`; omitted, the
        instrumentation is no-op."""
        if not period_s > 0:
            # ``not >`` so a NaN period is rejected too (NaN compares false).
            raise ValueError(f"period_s must be positive, got {period_s!r}")
        self.env = env
        self.node = node
        self.period_s = float(period_s)
        if rng is None:
            rng = np.random.default_rng(node.node_id)
        self.rng = rng
        # Drawn lazily, so ``rng`` is untouched until the first sample.
        self._noise: list[float] = []
        self._noise_i = 0
        self.client: MqttClient = broker.connect(f"eg-daemon-{node.node_id}")
        self.topic = f"{topic_prefix}/node{node.node_id}/power/node"
        self.samples_published = 0
        # -- resilience state --------------------------------------------------
        self._buffer: Deque[dict] = deque()
        self._backoff_s = RETRY_BACKOFF_S
        self._outage_t0 = 0.0
        self.buffered_count = 0
        self.buffer_dropped_count = 0
        self.republished_count = 0
        self.reconnects = 0
        self.samples_dropped_by_sensor = 0
        self.clock: Callable[[float], float] = clock if clock is not None else (lambda t: t)
        #: Fault-injection hook; None = healthy sensor.
        self.sensor_fault: Optional[SensorFault] = None
        # -- observability (handles resolved once; no-op when disabled) --------
        self.obs = obs if obs is not None else null_observability()
        # The per-sample instrument calls are skipped outright when off.
        self._observed = self.obs.enabled
        m = self.obs.metrics
        self._tracer = self.obs.tracer
        self._m_published = m.counter("telemetry_samples_total", mode="daemon")
        self._m_latency = m.histogram("telemetry_publish_latency_seconds", mode="daemon")
        self._m_dropped_sensor = m.counter("telemetry_dropped_total", reason="sensor")
        self._m_dropped_buffer = m.counter("telemetry_dropped_total", reason="buffer")
        self._m_failures = m.counter("telemetry_publish_failures_total", mode="daemon")
        self._m_backlog_peak = m.gauge("telemetry_backlog_peak_samples")
        self.task: PeriodicTask = env.periodic(self.period_s, self._tick, name=f"gateway-{node.node_id}")

    @property
    def backlog(self) -> int:
        """Samples waiting locally for the broker to come back."""
        return len(self._buffer)

    def _sample(self, now_s: float) -> Optional[dict]:
        noise = self._noise
        i = self._noise_i
        if i == len(noise):
            noise = self._noise = self.rng.normal(0.0, SENSOR_NOISE_W, NOISE_BLOCK).tolist()
            i = 0
        self._noise_i = i + 1
        measured = self.node.power_w() + noise[i]
        if self.sensor_fault is not None:
            faulted = self.sensor_fault(now_s, measured)
            if faulted is None:
                self.samples_dropped_by_sensor += 1
                self._m_dropped_sensor.inc()
                return None
            measured = faulted
        return {"node": self.node.node_id, "t": self.clock(now_s), "p": max(measured, 0.0)}

    def _buffer_sample(self, payload: dict) -> None:
        if len(self._buffer) >= BUFFER_LIMIT:
            self._buffer.popleft()
            self.buffer_dropped_count += 1
            self._m_dropped_buffer.inc()
        self._buffer.append(payload)
        self.buffered_count += 1
        if len(self._buffer) > self._m_backlog_peak.value:
            self._m_backlog_peak.set(len(self._buffer))

    def _flush_buffer(self) -> None:
        """Re-publish the backlog in order; raises if the broker drops again."""
        while self._buffer:
            payload = self._buffer[0]
            self.client.publish(self.topic, payload, retain=True)
            self._buffer.popleft()
            self.republished_count += 1
            self.samples_published += 1
            if self._observed:
                self._m_published.inc()
                self._m_latency.observe(max(0.0, self.env.now - payload["t"]))

    def _drain_then_publish(self, payload: dict) -> None:
        """Deliver any backlog strictly before the live sample.

        Both deliveries live in one code path so that a reconnect landing
        on the same timestamp as a sampling tick cannot interleave the
        fresh reading ahead of older buffered ones — subscribers always
        see each node's stream in stamp order.
        """
        if self._buffer:
            self._flush_buffer()
            self.reconnects += 1
        self.client.publish(self.topic, payload, retain=True)
        self.samples_published += 1
        if self._observed:
            self._m_published.inc()
            self._m_latency.observe(max(0.0, self.env.now - payload["t"]))

    def _tick(self, now_s: float) -> None:
        payload = self._sample(now_s)
        if payload is None:
            return
        try:
            self._drain_then_publish(payload)
        except BrokerUnavailableError:
            self._m_failures.inc()
            self._buffer_sample(payload)
            # Off the live cadence until a probe drains the backlog.  The
            # first probe is armed here, inside the failing tick: that
            # fixes its place among equal-time events (an env.process
            # bootstrap would push it behind them).
            self.task.suspend()
            self._outage_t0 = now_s
            self._backoff_s = RETRY_BACKOFF_S
            self._arm_probe()

    def _arm_probe(self) -> None:
        self.env.timeout(min(self._backoff_s, MAX_BACKOFF_S)).callbacks.append(self._probe)

    def _probe(self, _event) -> None:
        """One backoff probe while the broker is down: sample into the
        buffer (so no telemetry interval is unaccounted), try to drain
        it, then arm the next, longer probe or resume the live cadence."""
        probe = self._sample(self.env.now)
        if probe is not None:
            self._buffer_sample(probe)
        try:
            self._flush_buffer()
        except BrokerUnavailableError:
            self._m_failures.inc()
            self._backoff_s = min(self._backoff_s * BACKOFF_FACTOR, MAX_BACKOFF_S)
            self._arm_probe()
            return
        self.reconnects += 1
        self._tracer.record("gateway.recover", self._outage_t0)
        # Live cadence resumes one full period after the reconnect probe.
        self.task.resume(delay_s=self.period_s)


class GatewayArray:
    """All of a cluster's energy gateways sampled by one kernel event.

    Semantically this is N :class:`GatewayDaemon` instances on a shared
    sampling grid; mechanically it is a single coalesced
    :class:`~repro.sim.engine.PeriodicTask` that reads every node's
    power with NumPy and publishes **one** batched message per tick
    (payload ``{"nodes": ids, "t": stamps[n], "p": watts[n]}``) instead
    of N messages.  Store-and-forward survives: on a broker failure the
    whole batch is buffered (bounded ring, oldest tick dropped first)
    and a backoff prober keeps sampling until the backlog can drain —
    always strictly before live publishing resumes.

    Determinism contract: each node draws its sensor noise from its own
    generator, ``default_rng(node_id)`` unless ``rngs`` supplies one per
    node — the same per-node streams as individual daemons — pre-drawn
    :data:`ARRAY_NOISE_BLOCK` ticks at a time so steady-state sampling
    stays vectorized.  A run with a ``GatewayArray`` therefore feeds
    subscribers byte-identical per-node sample sequences to the
    per-daemon path at equal seeds.
    """

    def __init__(
        self,
        env: Environment,
        nodes: Sequence[ComputeNode],
        broker: MqttBroker,
        period_s: float = 0.1,
        topic_prefix: str = "davide",
        rngs: Optional[Sequence[np.random.Generator]] = None,
        powers_fn: Optional[Callable[[], np.ndarray]] = None,
        clock_fn: Optional[Callable[[float], np.ndarray]] = None,
        obs: Optional[Observability] = None,
    ):
        """``powers_fn`` (optional) returns all true node powers as one
        array — supply a vectorized implementation to avoid N Python
        calls per tick; the default calls each node's ``power_w()``.
        ``clock_fn`` maps true time to the n stamped times (PTP clocks);
        identity by default."""
        if not period_s > 0:
            raise ValueError(f"period_s must be positive, got {period_s!r}")
        if not nodes:
            raise ValueError("need at least one node")
        self.env = env
        self.nodes = list(nodes)
        self.n = len(self.nodes)
        self.node_ids: tuple[int, ...] = tuple(
            int(getattr(node, "node_id", i)) for i, node in enumerate(self.nodes)
        )
        self.period_s = float(period_s)
        self.topic = f"{topic_prefix}/power/nodes"
        self.client: MqttClient = broker.connect("eg-array")
        self.powers_fn = powers_fn
        self.clock_fn = clock_fn
        #: Vectorized fault-injection hook; None = healthy sensors.
        self.batch_fault: Optional[BatchSensorFault] = None
        # -- noise streams -----------------------------------------------------
        # Per-node streams matching GatewayDaemon's defaults, drawn in
        # blocks: column k of the block holds every node's k-th draw, so
        # one tick costs a single array gather.  Chunked draws from a
        # Generator yield the same sequence as repeated scalar draws,
        # which keeps the per-daemon digest contract.
        if rngs is None:
            rngs = [np.random.default_rng(nid) for nid in self.node_ids]
        elif len(rngs) != self.n:
            raise ValueError("need one rng per node")
        self._rngs = list(rngs)
        self._noise_buf = np.empty((self.n, ARRAY_NOISE_BLOCK))
        self._noise_col = ARRAY_NOISE_BLOCK  # force a refill on first use
        # -- counters ----------------------------------------------------------
        self.samples_published = 0
        self.samples_dropped_by_sensor = 0
        self.buffered_count = 0
        self.buffer_dropped_count = 0
        self.republished_count = 0
        self.reconnects = 0
        # -- resilience state --------------------------------------------------
        self._buffer: Deque[dict] = deque()
        # -- observability (handles resolved once; no-op when disabled) --------
        self.obs = obs if obs is not None else null_observability()
        m = self.obs.metrics
        self._tracer = self.obs.tracer
        self._m_published = m.counter("telemetry_samples_total", mode="array")
        self._m_latency = m.histogram("telemetry_publish_latency_seconds", mode="array")
        self._m_dropped_sensor = m.counter("telemetry_dropped_total", reason="sensor")
        self._m_dropped_buffer = m.counter("telemetry_dropped_total", reason="buffer")
        self._m_failures = m.counter("telemetry_publish_failures_total", mode="array")
        self._m_backlog_peak = m.gauge("telemetry_backlog_peak_samples")
        self.task: PeriodicTask = env.periodic(self.period_s, self._tick, name="gateway-array")

    @property
    def backlog(self) -> int:
        """Samples (across all gateways) waiting for the broker."""
        return sum(len(batch["nodes"]) for batch in self._buffer)

    # ------------------------------------------------------------- sampling
    def _next_noise(self) -> np.ndarray:
        col = self._noise_col
        if col == ARRAY_NOISE_BLOCK:
            buf = self._noise_buf
            for i, rng in enumerate(self._rngs):
                buf[i] = rng.normal(0.0, SENSOR_NOISE_W, ARRAY_NOISE_BLOCK)
            col = 0
        self._noise_col = col + 1
        return self._noise_buf[:, col]

    def _powers(self) -> np.ndarray:
        if self.powers_fn is not None:
            return self.powers_fn()
        return np.array([node.power_w() for node in self.nodes])

    def _sample_batch(self) -> Optional[dict]:
        now = self.env.now
        measured = self._powers() + self._next_noise()
        keep: Optional[np.ndarray] = None
        if self.batch_fault is not None:
            keep, measured = self.batch_fault(now, measured)
        stamps = np.full(self.n, now) if self.clock_fn is None else self.clock_fn(now)
        power = np.maximum(measured, 0.0)
        if keep is None:
            return {"nodes": self.node_ids, "t": stamps, "p": power}
        dropped = self.n - int(keep.sum())
        if dropped:
            self.samples_dropped_by_sensor += dropped
            self._m_dropped_sensor.inc(dropped)
            if dropped == self.n:
                return None
            ids = tuple(nid for nid, k in zip(self.node_ids, keep) if k)
            return {"nodes": ids, "t": stamps[keep], "p": power[keep]}
        return {"nodes": self.node_ids, "t": stamps, "p": power}

    # ----------------------------------------------------------- resilience
    def _buffer_batch(self, batch: dict) -> None:
        # Bounded per-gateway ring buffer: all gateways share the tick
        # grid, so dropping the oldest *tick* drops each gateway's
        # oldest sample — the same policy N daemons apply independently.
        if len(self._buffer) >= BUFFER_LIMIT:
            oldest = self._buffer.popleft()
            n_lost = len(oldest["nodes"])
            self.buffer_dropped_count += n_lost
            self._m_dropped_buffer.inc(n_lost)
        self._buffer.append(batch)
        self.buffered_count += len(batch["nodes"])
        backlog = self.backlog
        if backlog > self._m_backlog_peak.value:
            self._m_backlog_peak.set(backlog)

    def _flush_backlog(self) -> None:
        while self._buffer:
            batch = self._buffer[0]
            self.client.publish(self.topic, batch, retain=True)
            self._buffer.popleft()
            n = len(batch["nodes"])
            self.republished_count += n
            self.samples_published += n
            self._m_published.inc(n)
            self._m_latency.observe(max(0.0, self.env.now - float(batch["t"][0])))

    def _drain_then_publish(self, batch: dict) -> None:
        """Backlog strictly before the live batch (see GatewayDaemon)."""
        if self._buffer:
            self._flush_backlog()
            self.reconnects += 1
        with self._tracer.span("mqtt.publish"):
            self.client.publish(self.topic, batch, retain=True)
        n = len(batch["nodes"])
        self.samples_published += n
        self._m_published.inc(n)
        self._m_latency.observe(max(0.0, self.env.now - float(batch["t"][0])))

    def _recover(self):
        t0 = self.env.now
        backoff = RETRY_BACKOFF_S
        while True:
            yield self.env.timeout(min(backoff, MAX_BACKOFF_S))
            probe = self._sample_batch()
            if probe is not None:
                self._buffer_batch(probe)
            try:
                self._flush_backlog()
            except BrokerUnavailableError:
                self._m_failures.inc()
                backoff = min(backoff * BACKOFF_FACTOR, MAX_BACKOFF_S)
                continue
            self.reconnects += 1
            self._tracer.record("gateway.recover", t0)
            # Live cadence resumes one full period after the reconnect
            # probe — exactly where a daemon's sampling loop lands.
            self.task.resume(delay_s=self.period_s)
            return

    def _tick(self, now_s: float) -> None:
        batch = self._sample_batch()
        if batch is None:
            return
        span = self._tracer.start("gateway.tick")
        try:
            self._drain_then_publish(batch)
        except BrokerUnavailableError:
            self._m_failures.inc()
            self._buffer_batch(batch)
            self.task.suspend()
            self.env.process(self._recover(), name="gateway-array-recover")
        finally:
            self._tracer.finish(span)


class CappingAgent:
    """Asynchronous node capper driven purely by the telemetry stream.

    Subscribes either to its node's own power topic or — when
    ``batch_topic`` is given — to a :class:`GatewayArray` batch stream,
    picking its node's reading out of each block.
    """

    def __init__(
        self,
        env: Environment,
        node: ComputeNode,
        broker: MqttBroker,
        cap_w: float,
        actuation_delay_s: float = 0.01,
        topic_prefix: str = "davide",
        batch_topic: Optional[str] = None,
        obs: Optional[Observability] = None,
    ):
        if not cap_w > 0:
            raise ValueError(f"cap_w must be positive, got {cap_w!r}")
        if actuation_delay_s < 0:
            raise ValueError("invalid capping agent parameters")
        self.env = env
        self.node = node
        self.cap_w = float(cap_w)
        self.actuation_delay_s = float(actuation_delay_s)
        self.client: MqttClient = broker.connect(f"capper-{node.node_id}")
        self.client.on_message = self._on_sample
        if batch_topic is not None:
            self.client.subscribe(batch_topic)
        else:
            self.client.subscribe(f"{topic_prefix}/node{node.node_id}/power/node")
        self.actuations = 0
        self.capped = False
        self._pending = False
        # The last batch's node tuple and this node's index in it: a
        # GatewayArray publishes the same tuple every tick without a
        # dropout, so the lookup is an identity check, not a scan.
        self._batch_nodes: Optional[Sequence[int]] = None
        self._batch_index: Optional[int] = None
        self.obs = obs if obs is not None else null_observability()
        self._tracer = self.obs.tracer
        self._m_actuations = self.obs.metrics.counter("cap_actuations_total")

    def _on_sample(self, message: Message) -> None:
        payload = message.payload
        nodes = payload.get("nodes")
        if nodes is not None:
            if nodes is not self._batch_nodes:
                self._batch_nodes = nodes
                node_id = self.node.node_id
                self._batch_index = nodes.index(node_id) if node_id in nodes else None
            if self._batch_index is not None:
                self._observe(float(payload["p"][self._batch_index]))
        else:
            self._observe(float(payload["p"]))

    def _observe(self, power: float) -> None:
        over = power > self.cap_w
        under = power < self.cap_w - HYSTERESIS_W
        if over and not self.capped and not self._pending:
            self._pending = True
            self.env.process(self._actuate(self.cap_w), name="cap-on")
        elif under and self.capped and not self._pending:
            self._pending = True
            self.env.process(self._actuate(None), name="cap-off")

    def _actuate(self, cap_w: float | None):
        # Firmware/actuation latency before the new limits take effect.
        t0 = self.env.now
        yield self.env.timeout(self.actuation_delay_s)
        self.node.apply_power_cap(cap_w)
        self.capped = cap_w is not None
        self.actuations += 1
        self._pending = False
        self._m_actuations.inc()
        self._tracer.record("cap.actuate", t0)
