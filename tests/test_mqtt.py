"""Tests for the MQTT-semantics broker."""

import pytest
from hypothesis import given, strategies as st

from repro.monitoring import (
    Message,
    MqttBroker,
    topic_matches,
    validate_filter,
    validate_topic,
)


class TestTopicValidation:
    def test_publish_topic_rejects_wildcards(self):
        with pytest.raises(ValueError):
            validate_topic("a/+/b")
        with pytest.raises(ValueError):
            validate_topic("a/#")
        with pytest.raises(ValueError):
            validate_topic("")

    def test_filter_hash_must_be_last(self):
        validate_filter("a/b/#")
        with pytest.raises(ValueError):
            validate_filter("a/#/b")

    def test_filter_wildcards_must_fill_level(self):
        with pytest.raises(ValueError):
            validate_filter("a/b#")
        with pytest.raises(ValueError):
            validate_filter("a/b+/c")
        validate_filter("+/+/+")


class TestTopicMatching:
    @pytest.mark.parametrize(
        "filt,topic,expected",
        [
            ("a/b/c", "a/b/c", True),
            ("a/b/c", "a/b/d", False),
            ("a/+/c", "a/b/c", True),
            ("a/+/c", "a/b/d", False),
            ("a/#", "a/b/c/d", True),
            # Per MQTT 3.1.1, "sport/#" also matches "sport" itself.
            ("a/#", "a", True),
            ("b/#", "a", False),
            ("#", "anything/at/all", True),
            ("+", "one", True),
            ("+", "one/two", False),
            ("davide/+/power/+", "davide/node3/power/gpu0", True),
            ("davide/+/power/#", "davide/node3/power/gpu0", True),
            ("a/b", "a/b/c", False),
            ("a/b/c", "a/b", False),
        ],
    )
    def test_matching_table(self, filt, topic, expected):
        assert topic_matches(filt, topic) is expected


class TestBrokerRouting:
    def test_exact_topic_delivery(self):
        broker = MqttBroker()
        sub = broker.connect("sub")
        sub.subscribe("davide/node0/power/node")
        broker.publish("davide/node0/power/node", {"w": 1500})
        msg = sub.poll()
        assert msg.payload == {"w": 1500}
        assert sub.poll() is None

    def test_wildcard_fanout(self):
        broker = MqttBroker()
        agents = [broker.connect(f"agent{i}") for i in range(3)]
        agents[0].subscribe("davide/+/power/node")  # per-node aggregator
        agents[1].subscribe("davide/node1/#")       # node-1 profiler
        agents[2].subscribe("davide/node2/power/gpu0")  # specific rail
        broker.publish("davide/node1/power/node", 1)
        broker.publish("davide/node2/power/node", 2)
        broker.publish("davide/node2/power/gpu0", 3)
        assert len(agents[0].drain()) == 2
        assert len(agents[1].drain()) == 1
        assert len(agents[2].drain()) == 1

    def test_no_delivery_without_match(self):
        broker = MqttBroker()
        sub = broker.connect("sub")
        sub.subscribe("davide/node0/temp")
        broker.publish("davide/node0/power/node", 1)
        assert sub.poll() is None

    def test_multiple_subscriptions_same_client_duplicate_delivery(self):
        # MQTT delivers once per matching subscription for QoS 0 brokers
        # that don't de-duplicate overlapping filters; we document ours
        # delivers per-subscription.
        broker = MqttBroker()
        sub = broker.connect("sub")
        sub.subscribe("a/#")
        sub.subscribe("a/b")
        broker.publish("a/b", 1)
        assert len(sub.drain()) == 2

    def test_connect_same_id_returns_same_client(self):
        broker = MqttBroker()
        assert broker.connect("x") is broker.connect("x")

    def test_counters(self):
        broker = MqttBroker()
        a = broker.connect("a")
        b = broker.connect("b")
        a.subscribe("t")
        b.subscribe("t")
        broker.publish("t", 1)
        assert broker.published_count == 1
        assert broker.delivered_count == 2


class TestMessageRecord:
    """What ``Message`` promises: an immutable record with seven fields
    in a fixed order, one object per publish shared by every
    subscriber."""

    FIELDS = ("topic", "payload", "qos", "retain", "timestamp", "message_id",
              "duplicate")

    def test_every_field_is_read_only(self):
        msg = Message("t", {"p": 1.0}, 1, True, 2.5, 7, False)
        for name in self.FIELDS + ("extra",):
            with pytest.raises(AttributeError):
                setattr(msg, name, None)
        assert msg == Message("t", {"p": 1.0}, 1, True, 2.5, 7, False)

    def test_positional_and_keyword_construction_agree(self):
        values = ("a/b", [1, 2], 1, True, 3.5, 42, True)
        positional = Message(*values)
        assert positional == Message(**dict(zip(self.FIELDS, values)))
        assert [getattr(positional, name) for name in self.FIELDS] == list(values)

    def test_defaults(self):
        msg = Message("t", None)
        assert msg == Message(topic="t", payload=None, qos=0, retain=False,
                              timestamp=0.0, message_id=0, duplicate=False)
        defaults = [getattr(msg, name) for name in self.FIELDS[2:]]
        assert [type(v) for v in defaults] == [int, bool, float, int, bool]

    def test_every_subscriber_receives_the_published_object(self):
        broker = MqttBroker()
        got = []
        pushed = [broker.connect(f"cb{i}") for i in range(2)]
        for client in pushed:
            client.on_message = got.append
            client.subscribe("davide/+/power/node")
        queued = broker.connect("queued")
        queued.subscribe("davide/#", qos=1)
        msg = broker.publish("davide/node0/power/node", {"p": 1500.0}, qos=1)
        assert len(got) == 2
        assert all(m is msg for m in got + [queued.poll()])

    def test_redelivered_duplicate_keeps_id_and_stamp(self):
        now = {"t": 5.0}
        broker = MqttBroker(clock=lambda: now["t"])
        sub = broker.connect("s")
        sub.subscribe("t", qos=1)
        first = broker.publish("t", {"p": 1.0}, qos=1, retain=True)
        now["t"] = 9.0
        (dup,) = sub.redeliver_inflight()
        assert dup is not first and not first.duplicate
        assert dup.duplicate
        assert (dup.message_id, dup.timestamp) == (first.message_id, 5.0)
        assert dup == first._replace(duplicate=True)


class TestRetainedMessages:
    def test_late_subscriber_gets_retained(self):
        broker = MqttBroker()
        broker.publish("davide/node0/power/node", 1500, retain=True)
        late = broker.connect("late")
        late.subscribe("davide/+/power/node")
        msg = late.poll()
        assert msg.payload == 1500
        assert msg.retain

    def test_retained_replaced_by_newer(self):
        broker = MqttBroker()
        broker.publish("t", 1, retain=True)
        broker.publish("t", 2, retain=True)
        sub = broker.connect("s")
        sub.subscribe("t")
        assert sub.poll().payload == 2

    def test_retained_cleared_by_none_payload(self):
        broker = MqttBroker()
        broker.publish("t", 1, retain=True)
        broker.publish("t", None, retain=True)
        sub = broker.connect("s")
        sub.subscribe("t")
        assert sub.poll() is None


class TestQos:
    def test_invalid_qos_rejected(self):
        broker = MqttBroker()
        sub = broker.connect("s")
        with pytest.raises(ValueError):
            sub.subscribe("t", qos=2)
        with pytest.raises(ValueError):
            broker.publish("t", 1, qos=2)

    def test_qos1_tracked_until_ack(self):
        broker = MqttBroker()
        sub = broker.connect("s")
        sub.subscribe("t", qos=1)
        broker.publish("t", 1, qos=1)
        msg = sub.poll()
        assert sub.inflight_count == 1
        sub.acknowledge(msg)
        assert sub.inflight_count == 0

    def test_qos_downgraded_to_subscription_qos(self):
        broker = MqttBroker()
        sub = broker.connect("s")
        sub.subscribe("t", qos=0)
        broker.publish("t", 1, qos=1)
        sub.poll()
        assert sub.inflight_count == 0  # effective QoS 0

    def test_redelivery_sets_duplicate_flag(self):
        broker = MqttBroker()
        sub = broker.connect("s")
        sub.subscribe("t", qos=1)
        broker.publish("t", 1, qos=1)
        first = sub.poll()
        assert not first.duplicate
        dups = sub.redeliver_inflight()
        assert len(dups) == 1
        redelivered = sub.poll()
        assert redelivered.duplicate
        assert redelivered.message_id == first.message_id

    def test_ack_stops_redelivery(self):
        broker = MqttBroker()
        sub = broker.connect("s")
        sub.subscribe("t", qos=1)
        broker.publish("t", 1, qos=1)
        sub.acknowledge(sub.poll())
        assert sub.redeliver_inflight() == []

    def test_overlapping_subscriptions_acking_in_the_callback_get_one_copy(self):
        """The ack lands inside the fan-out, before the second matching
        subscription is served: that one must still see the id."""
        broker = MqttBroker()
        sub = broker.connect("s")
        got = []
        sub.on_message = lambda m: (got.append(m), sub.acknowledge(m))
        sub.subscribe("a/#", qos=1)
        sub.subscribe("a/b", qos=1)
        broker.publish("a/b", 1, qos=1)
        assert [m.payload for m in got] == [1]
        assert sub.inflight_count == 0

    def test_delivered_retained_message_is_not_replayed_to_the_same_client(self):
        broker = MqttBroker()
        sub = broker.connect("s")
        sub.subscribe("a/#", qos=1)
        broker.publish("a/b", 1, qos=1, retain=True)
        sub.acknowledge(sub.poll())
        sub.subscribe("a/b", qos=1)
        assert sub.poll() is None
        # The newer retained message replaces the old one, and is not
        # replayed either.
        broker.publish("a/b", 2, qos=1, retain=True)
        assert [m.payload for m in sub.drain()] == [2]
        sub.subscribe("+/b", qos=1)
        assert sub.poll() is None
        # A new client still gets the retained message.
        late = broker.connect("late")
        late.subscribe("a/b", qos=1)
        assert late.poll().payload == 2

    def test_dedupe_ids_stay_bounded_over_a_long_run(self):
        """The Fig.-4 collector subscribes at QoS 1 and acks inside
        ``on_message``.  Once a publish's fan-out returns, the client
        keeps only ids still in flight or of retained messages."""
        broker = MqttBroker()
        sub = broker.connect("collector")
        sub.on_message = sub.acknowledge
        sub.subscribe("davide/+/power/#", qos=1)
        for i in range(100_000):
            broker.publish(f"davide/node{i % 4}/power/node", i, qos=1,
                           retain=i % 5 == 4)
        retained = {m.message_id for m in broker._retained.values()}
        assert sub.inflight_count == 0
        assert sub._seen_qos1 <= set(sub._inflight) | retained
        assert len(sub._seen_qos1) <= len(retained) == 4


class TestInboxOverflow:
    def test_oldest_dropped_and_counted(self):
        broker = MqttBroker()
        sub = broker.connect("slow", inbox_limit=3)
        sub.subscribe("t")
        for i in range(5):
            broker.publish("t", i)
        assert sub.dropped_count == 2
        assert [m.payload for m in sub.drain()] == [2, 3, 4]

    def test_callback_bypasses_inbox(self):
        broker = MqttBroker()
        got = []
        sub = broker.connect("cb")
        sub.on_message = got.append
        sub.subscribe("t")
        broker.publish("t", 42)
        assert len(got) == 1 and got[0].payload == 42
        assert sub.poll() is None

    def test_qos1_redelivery_respects_inbox_limit(self):
        """Redelivered duplicates go through the same drop-oldest bound
        as first deliveries, and every eviction is counted."""
        broker = MqttBroker()
        sub = broker.connect("c", inbox_limit=2)
        sub.subscribe("t", qos=1)
        broker.publish("t", 0, qos=1)
        broker.publish("t", 1, qos=1)
        assert len(sub.redeliver_inflight()) == 2
        assert len(sub.redeliver_inflight()) == 2
        assert len(sub.inbox) <= 2
        assert sub.dropped_count == 4
        kept = sub.drain()
        assert [m.payload for m in kept] == [0, 1]
        assert all(m.duplicate for m in kept)


class TestClockIntegration:
    def test_timestamps_use_broker_clock(self):
        now = {"t": 100.0}
        broker = MqttBroker(clock=lambda: now["t"])
        sub = broker.connect("s")
        sub.subscribe("t")
        broker.publish("t", 1)
        assert sub.poll().timestamp == 100.0
        now["t"] = 200.0
        broker.publish("t", 2)
        assert sub.poll().timestamp == 200.0


topic_level = st.text(alphabet="abcxyz0123456789", min_size=1, max_size=4)


@given(st.lists(topic_level, min_size=1, max_size=5))
def test_filter_identical_to_topic_always_matches(levels):
    topic = "/".join(levels)
    assert topic_matches(topic, topic)


@given(st.lists(topic_level, min_size=1, max_size=5), st.integers(min_value=0, max_value=4))
def test_plus_wildcard_matches_any_single_level(levels, idx):
    topic = "/".join(levels)
    filt_levels = list(levels)
    filt_levels[min(idx, len(levels) - 1)] = "+"
    assert topic_matches("/".join(filt_levels), topic)


@given(st.lists(topic_level, min_size=2, max_size=6))
def test_hash_matches_any_suffix(levels):
    topic = "/".join(levels)
    assert topic_matches(levels[0] + "/#", topic)
