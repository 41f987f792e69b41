"""An in-process MQTT-semantics message broker.

Paper Section III-A1: the energy gateway publishes power samples over the
MQTT machine-to-machine protocol, "which organizes the data-exchange in a
topic/subscriber approach", so that measured values are "available in
real-time to multiple agents with a low-latency and a synchronized
timestamp".

This module implements the MQTT semantics the system relies on, from
scratch:

* hierarchical topics with ``/`` levels;
* subscription filters with single-level (``+``) and multi-level (``#``)
  wildcards, validated per the MQTT 3.1.1 rules;
* retained messages (a late subscriber immediately receives the last
  retained sample per matching topic);
* QoS 0 (fire and forget) and QoS 1 (at-least-once: redelivery until the
  subscriber acknowledges — with the duplicate-delivery behaviour QoS 1
  implies);
* per-subscriber FIFO queues with overflow accounting (a slow profiling
  agent must not stall the gateway's publish path).

The broker is synchronous and deterministic; the optional
:class:`repro.sim.Environment` integration timestamps messages with
simulated time and models delivery latency.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, NamedTuple, Optional

__all__ = [
    "BrokerUnavailableError",
    "Message",
    "Subscription",
    "MqttBroker",
    "MqttClient",
    "topic_matches",
    "validate_topic",
    "validate_filter",
]


class BrokerUnavailableError(ConnectionError):
    """Raised on publish while the broker is offline (outage injection).

    Resilient publishers (the energy gateway daemon) catch this, buffer
    locally, and re-publish after the broker comes back.
    """


def validate_topic(topic: str) -> None:
    """Reject invalid *publish* topics (no wildcards, no empty string)."""
    if not topic:
        raise ValueError("topic must be non-empty")
    if "+" in topic or "#" in topic:
        raise ValueError(f"publish topic may not contain wildcards: {topic!r}")
    if "\x00" in topic:
        raise ValueError("topic may not contain NUL")


def validate_filter(topic_filter: str) -> None:
    """Reject invalid subscription filters per MQTT 3.1.1 rules."""
    if not topic_filter:
        raise ValueError("filter must be non-empty")
    levels = topic_filter.split("/")
    for i, level in enumerate(levels):
        if level == "#":
            if i != len(levels) - 1:
                raise ValueError(f"'#' must be the last level: {topic_filter!r}")
        elif "#" in level:
            raise ValueError(f"'#' must occupy a whole level: {topic_filter!r}")
        elif level != "+" and "+" in level:
            raise ValueError(f"'+' must occupy a whole level: {topic_filter!r}")


def topic_matches(topic_filter: str, topic: str) -> bool:
    """Whether ``topic`` matches the subscription ``topic_filter``."""
    f_levels = topic_filter.split("/")
    t_levels = topic.split("/")
    for i, f in enumerate(f_levels):
        if f == "#":
            return True
        if i >= len(t_levels):
            return False
        if f != "+" and f != t_levels[i]:
            return False
    return len(f_levels) == len(t_levels)


class Message(NamedTuple):
    """A published sample/event.

    Immutable, because :meth:`MqttBroker.publish` hands one object to
    every subscriber.  A ``NamedTuple`` rather than a frozen dataclass:
    the frozen ``__init__`` assigns each field through
    ``object.__setattr__`` (1.3 us per message against 0.34 us here,
    Python 3.11, 2-vCPU x86-64 VM), and the gateways publish every
    sample.
    """

    topic: str
    payload: Any
    qos: int = 0
    retain: bool = False
    timestamp: float = 0.0
    message_id: int = 0
    duplicate: bool = False


@dataclass
class Subscription:
    """One client's interest in a topic filter."""

    client: "MqttClient"
    topic_filter: str
    qos: int = 0


class _TopicTrie:
    """Trie over topic levels for O(levels) filter matching.

    Each node stores the subscriptions anchored there; lookup walks the
    published topic's levels following exact, ``+`` and ``#`` branches.
    """

    __slots__ = ("children", "subscriptions")

    def __init__(self) -> None:
        self.children: dict[str, _TopicTrie] = {}
        self.subscriptions: list[Subscription] = []

    def insert(self, levels: list[str], sub: Subscription) -> None:
        node = self
        for level in levels:
            node = node.children.setdefault(level, _TopicTrie())
        node.subscriptions.append(sub)

    def collect(self, levels: list[str]) -> list[Subscription]:
        out: list[Subscription] = []
        self._collect(levels, 0, out)
        return out

    def _collect(self, levels: list[str], depth: int, out: list[Subscription]) -> None:
        if "#" in self.children:
            out.extend(self.children["#"].subscriptions)
        if depth == len(levels):
            out.extend(self.subscriptions)
            return
        level = levels[depth]
        if level in self.children:
            self.children[level]._collect(levels, depth + 1, out)
        if "+" in self.children:
            self.children["+"]._collect(levels, depth + 1, out)


class MqttClient:
    """A connected agent: subscriber queue + publish handle.

    Delivery model: the broker appends to the client's inbox (bounded
    FIFO).  The owner drains with :meth:`poll` / :meth:`drain`, or
    registers a synchronous ``on_message`` callback for push delivery.
    QoS 1 messages stay in the in-flight set until :meth:`acknowledge`.
    """

    def __init__(self, client_id: str, broker: "MqttBroker", inbox_limit: int = 100_000):
        if inbox_limit < 1:
            raise ValueError("inbox limit must be >= 1")
        self.client_id = client_id
        self.broker = broker
        self.inbox: Deque[Message] = deque()
        self.inbox_limit = inbox_limit
        self.dropped_count = 0
        self.on_message: Optional[Callable[[Message], None]] = None
        self._inflight: dict[int, Message] = {}
        self._seen_qos1: set[int] = set()

    # -- client-side API -----------------------------------------------------
    def subscribe(self, topic_filter: str, qos: int = 0) -> None:
        """Register interest; retained messages arrive immediately."""
        self.broker.subscribe(self, topic_filter, qos=qos)

    def publish(self, topic: str, payload: Any, qos: int = 0, retain: bool = False) -> Message:
        """Publish through the broker."""
        return self.broker.publish(topic, payload, qos=qos, retain=retain, sender=self)

    def poll(self) -> Optional[Message]:
        """Pop the oldest inbox message, or None."""
        return self.inbox.popleft() if self.inbox else None

    def drain(self) -> list[Message]:
        """Pop everything currently queued."""
        out = list(self.inbox)
        self.inbox.clear()
        return out

    def acknowledge(self, message: Message) -> None:
        """Complete QoS-1 delivery for ``message``."""
        self._inflight.pop(message.message_id, None)

    @property
    def inflight_count(self) -> int:
        """QoS-1 messages delivered but not yet acknowledged."""
        return len(self._inflight)

    # -- broker-side delivery ---------------------------------------------------
    def _deliver(self, message: Message, sub_qos: int) -> None:
        # Both QoS values are 0 or 1 (validated), so ``and`` is their min.
        if message.qos and sub_qos:
            if message.message_id in self._seen_qos1 and not message.duplicate:
                return
            self._inflight[message.message_id] = message
            self._seen_qos1.add(message.message_id)
        if self.on_message is not None:
            self.on_message(message)
            return
        self._enqueue(message)

    def _enqueue(self, message: Message) -> None:
        """Append to the bounded inbox, dropping (and counting) the oldest."""
        if len(self.inbox) >= self.inbox_limit:
            self.inbox.popleft()
            self.dropped_count += 1
        self.inbox.append(message)

    def redeliver_inflight(self) -> list[Message]:
        """QoS-1 retransmission pass: re-queue unacknowledged messages.

        Returns the duplicates delivered (each flagged ``duplicate=True``,
        as the real protocol's DUP flag does).  Duplicates enter the inbox
        under the same drop-oldest bound as first deliveries.
        """
        dups = []
        for msg in list(self._inflight.values()):
            dup = msg._replace(duplicate=True)
            self._inflight[msg.message_id] = dup
            if self.on_message is not None:
                self.on_message(dup)
            else:
                self._enqueue(dup)
            dups.append(dup)
        return dups


class MqttBroker:
    """Topic-trie broker with retained messages and delivery stats."""

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._trie = _TopicTrie()
        self._retained: dict[str, Message] = {}
        self._clients: dict[str, MqttClient] = {}
        self._msg_ids = itertools.count(1)
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.published_count = 0
        self.delivered_count = 0
        self._online = True
        self.rejected_count = 0
        # Optional metric handles (see bind_observability); None keeps the
        # publish hot path free of even a no-op call.
        self._m_published = None
        self._m_delivered = None
        self._m_rejected = None
        # Publish-path fast cache: topic -> matching subscriptions.  The
        # telemetry plane publishes to the same small topic set millions
        # of times per run; the trie walk is only paid on the first
        # publish after any subscription change.
        self._match_cache: dict[str, list[Subscription]] = {}

    def bind_observability(self, obs) -> None:
        """Mirror broker counters into an observability registry.

        ``obs`` is a :class:`repro.observability.Observability`; binding a
        disabled one (or never binding) leaves the publish path untouched.
        """
        if not obs.enabled:
            return
        m = obs.metrics
        self._m_published = m.counter("mqtt_messages_published_total")
        self._m_delivered = m.counter("mqtt_messages_delivered_total")
        self._m_rejected = m.counter("mqtt_messages_rejected_total")
        self._m_published.inc(self.published_count)
        self._m_delivered.inc(self.delivered_count)
        self._m_rejected.inc(self.rejected_count)

    # -- availability (fault injection) ---------------------------------------
    def set_online(self, online: bool) -> None:
        """Take the broker down / bring it back (state is preserved).

        An offline broker rejects publishes with
        :class:`BrokerUnavailableError`; subscriptions, retained messages
        and client inboxes survive the outage, matching a broker restart
        with persistent sessions.
        """
        self._online = bool(online)

    # -- connection management ----------------------------------------------
    def connect(self, client_id: str, inbox_limit: int = 100_000) -> MqttClient:
        """Create (or return the existing) client for ``client_id``."""
        if client_id in self._clients:
            return self._clients[client_id]
        client = MqttClient(client_id, self, inbox_limit=inbox_limit)
        self._clients[client_id] = client
        return client

    # -- subscribe / publish -------------------------------------------------
    def subscribe(self, client: MqttClient, topic_filter: str, qos: int = 0) -> None:
        """Add a subscription and replay matching retained messages."""
        validate_filter(topic_filter)
        if qos not in (0, 1):
            raise ValueError("supported QoS levels are 0 and 1")
        sub = Subscription(client=client, topic_filter=topic_filter, qos=qos)
        self._trie.insert(topic_filter.split("/"), sub)
        self._match_cache.clear()
        for topic, msg in self._retained.items():
            if topic_matches(topic_filter, topic):
                client._deliver(msg, qos)
                self.delivered_count += 1

    def publish(
        self,
        topic: str,
        payload: Any,
        qos: int = 0,
        retain: bool = False,
        sender: Optional[MqttClient] = None,
    ) -> Message:
        """Route a message to every matching subscriber.

        A retained publish with ``payload is None`` clears the retained
        message for the topic (the MQTT zero-length-payload rule).
        """
        if not self._online:
            self.rejected_count += 1
            if self._m_rejected is not None:
                self._m_rejected.inc()
            raise BrokerUnavailableError(f"broker offline: cannot publish to {topic!r}")
        subs = self._match_cache.get(topic)
        if subs is None:
            validate_topic(topic)
            subs = self._trie.collect(topic.split("/"))
            self._match_cache[topic] = subs
        if qos not in (0, 1):
            raise ValueError("supported QoS levels are 0 and 1")
        # Positional: keywords cost ~0.3 us more per message (Python 3.11,
        # 2-vCPU x86-64 VM), and the gateways publish every sample.
        msg = Message(topic, payload, qos, retain, self._clock(), next(self._msg_ids))
        replaced = None
        if retain:
            replaced = self._retained.get(topic)
            if payload is None:
                self._retained.pop(topic, None)
            else:
                self._retained[topic] = msg
        self.published_count += 1
        self.delivered_count += len(subs)
        if self._m_published is not None:
            self._m_published.inc()
            self._m_delivered.inc(len(subs))
        for sub in subs:
            sub.client._deliver(msg, sub.qos)
        # A QoS-1 id is kept only while its message can still reach a
        # client again un-flagged: through another overlapping
        # subscription during this fan-out, or as a retained message
        # replayed by a later subscribe.
        if qos and (not retain or payload is None):
            for sub in subs:
                sub.client._seen_qos1.discard(msg.message_id)
        if replaced is not None and replaced.qos:
            for client in self._clients.values():
                client._seen_qos1.discard(replaced.message_id)
        return msg
