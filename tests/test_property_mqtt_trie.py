"""Property-based tests: the broker's topic trie vs the reference matcher.

The trie is an optimisation; `topic_matches` is the specification.  For
random topic/filter populations, a publish must reach exactly the
subscriptions whose filter matches per the reference predicate.

Two flavours live here: hypothesis-driven strategies, and pure-stdlib
seeded trials (``random.Random``) that need no third-party shrinker and
replay byte-for-byte from their seeds — the same reproducibility
contract as the fault-injection subsystem.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.monitoring import MqttBroker, topic_matches
from repro.power import (
    PowerTrace,
    boxcar_decimate,
    effective_bits_gain,
    naive_decimate,
)

level = st.sampled_from(["a", "b", "c", "node1", "power", "x9"])
wild_level = st.one_of(level, st.just("+"))

topics = st.lists(level, min_size=1, max_size=5).map("/".join)


@st.composite
def filters(draw):
    levels = draw(st.lists(wild_level, min_size=1, max_size=5))
    if draw(st.booleans()):
        levels.append("#")
    return "/".join(levels)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(filters(), min_size=1, max_size=8),
    st.lists(topics, min_size=1, max_size=8),
)
def test_trie_delivery_matches_reference(filter_list, topic_list):
    broker = MqttBroker()
    clients = []
    for i, filt in enumerate(filter_list):
        c = broker.connect(f"c{i}")
        c.subscribe(filt)
        clients.append((c, filt))
    for topic in topic_list:
        broker.publish(topic, topic)
    for client, filt in clients:
        received = [m.payload for m in client.drain()]
        expected = [t for t in topic_list if topic_matches(filt, t)]
        assert received == expected, f"filter {filt!r}"


@settings(max_examples=100, deadline=None)
@given(filters(), topics)
def test_hash_filter_superset_of_exact(filt, topic):
    # Replacing the last level of a filter with '#' can only widen it.
    widened = "/".join(filt.split("/")[:-1] + ["#"]) if "/" in filt else "#"
    if topic_matches(filt, topic):
        assert topic_matches(widened, topic)


@settings(max_examples=100, deadline=None)
@given(topics)
def test_every_topic_matched_by_root_hash(topic):
    assert topic_matches("#", topic)


# -- pure-stdlib seeded trials -------------------------------------------------

LEVELS = ["a", "b", "c", "node1", "node12", "power", "cpu", "x9"]


def _random_topic(rng: random.Random) -> str:
    return "/".join(rng.choice(LEVELS) for _ in range(rng.randint(1, 5)))


def _random_filter(rng: random.Random) -> str:
    parts = [rng.choice(LEVELS + ["+"]) for _ in range(rng.randint(1, 5))]
    if rng.random() < 0.4:
        parts.append("#")
    return "/".join(parts)


class TestTrieStdlibTrials:
    def test_trie_vs_reference_seeded_trials(self):
        rng = random.Random(0xDA71DE)
        for _ in range(60):
            filters_ = [_random_filter(rng) for _ in range(rng.randint(1, 10))]
            topics_ = [_random_topic(rng) for _ in range(rng.randint(1, 10))]
            broker = MqttBroker()
            clients = []
            for i, filt in enumerate(filters_):
                c = broker.connect(f"c{i}")
                c.subscribe(filt)
                clients.append((c, filt))
            for topic in topics_:
                broker.publish(topic, topic)
            for client, filt in clients:
                received = [m.payload for m in client.drain()]
                expected = [t for t in topics_ if topic_matches(filt, t)]
                assert received == expected, f"filter {filt!r} topics {topics_!r}"

    def test_plus_is_exactly_one_level(self):
        rng = random.Random(7)
        for _ in range(200):
            topic = _random_topic(rng)
            n = len(topic.split("/"))
            # A filter of n '+' levels matches; n-1 or n+1 must not.
            assert topic_matches("/".join(["+"] * n), topic)
            assert not topic_matches("/".join(["+"] * (n + 1)), topic)
            if n > 1:
                assert not topic_matches("/".join(["+"] * (n - 1)), topic)

    def test_adversarial_filters_never_crash_matching(self):
        # Deep wildcard stacks and repeated levels: the trie must stay
        # consistent with the reference on pathological shapes.
        broker = MqttBroker()
        weird = ["+/+/+/+/+/#", "a/a/a/a/a", "+/a/+/a/#", "#"]
        clients = []
        for i, filt in enumerate(weird):
            c = broker.connect(f"w{i}")
            c.subscribe(filt)
            clients.append((c, filt))
        topic = "a/a/a/a/a"
        broker.publish(topic, 1)
        for client, filt in clients:
            got = len(client.drain())
            assert got == (1 if topic_matches(filt, topic) else 0), filt


def _random_trace(rng: random.Random, n: int) -> PowerTrace:
    times = np.arange(n, dtype=float) * 1e-3
    power = np.array([rng.uniform(0.0, 2000.0) for _ in range(n)])
    return PowerTrace(times, power)


class TestDecimationChainTrials:
    def test_cascade_equals_single_boxcar(self):
        # x4 then x4 in the gateway firmware == one x16 block average.
        rng = random.Random(1234)
        for _ in range(40):
            f1, f2 = rng.randint(2, 5), rng.randint(2, 5)
            n = f1 * f2 * rng.randint(1, 6) + rng.randint(0, f1 * f2 - 1)
            if n < f1 * f2:
                n = f1 * f2
            trace = _random_trace(rng, n)
            staged = boxcar_decimate(boxcar_decimate(trace, f1), f2)
            single = boxcar_decimate(trace, f1 * f2)
            np.testing.assert_allclose(staged.power_w, single.power_w, rtol=1e-12)
            np.testing.assert_allclose(staged.times_s, single.times_s, rtol=1e-12)

    def test_boxcar_preserves_block_means(self):
        rng = random.Random(99)
        for _ in range(40):
            factor = rng.randint(2, 8)
            n = factor * rng.randint(2, 20)
            trace = _random_trace(rng, n)
            out = boxcar_decimate(trace, factor)
            assert len(out) == n // factor
            # Total mean is exactly preserved when blocks tile the trace.
            assert float(np.mean(out.power_w)) == pytest.approx(
                float(np.mean(trace.power_w)), rel=1e-12)

    def test_boxcar_output_within_input_range(self):
        rng = random.Random(5)
        for _ in range(40):
            trace = _random_trace(rng, rng.randint(8, 200))
            out = boxcar_decimate(trace, rng.randint(2, 6))
            assert out.power_w.min() >= trace.power_w.min() - 1e-9
            assert out.power_w.max() <= trace.power_w.max() + 1e-9

    def test_naive_keeps_exact_samples_boxcar_smooths(self):
        rng = random.Random(17)
        for _ in range(20):
            factor = rng.randint(2, 6)
            n = factor * rng.randint(3, 15)
            trace = _random_trace(rng, n)
            naive = naive_decimate(trace, factor)
            np.testing.assert_array_equal(naive.power_w, trace.power_w[::factor])
            # On a constant trace the two agree exactly.
            flat = PowerTrace(trace.times_s, np.full(n, 123.0))
            np.testing.assert_allclose(boxcar_decimate(flat, factor).power_w,
                                       naive_decimate(flat, factor).power_w)

    def test_noise_reduction_matches_effective_bits(self):
        # Averaging N white-noise samples shrinks sigma by sqrt(N): the
        # "2 extra bits at x16" claim, checked statistically.
        rng = np.random.default_rng(12)
        n, factor = 16000, 16
        noise = rng.normal(0.0, 10.0, n)
        trace = PowerTrace(np.arange(n) * 1e-3, 1000.0 + noise)
        out = boxcar_decimate(trace, factor)
        ratio = np.std(trace.power_w) / np.std(out.power_w)
        assert ratio == pytest.approx(np.sqrt(factor), rel=0.15)
        assert effective_bits_gain(factor) == pytest.approx(2.0)

