"""Seeded-RNG determinism: same seed, byte-identical telemetry.

The whole point of the fault subsystem is *reproducible* chaos — a
failure found in CI must replay exactly from its seed.  These tests pin
byte-level identity of the canonical event log across runs, and that
different seeds actually produce different campaigns.
"""

import numpy as np

from repro.faults import DrillConfig, FaultDrill, FaultInjector, FaultKind, FaultSpec
from repro.sim import Environment
from repro.telemetry import TelemetryEventLog

CAMPAIGN = [
    FaultSpec(FaultKind.NODE_CRASH, at_s=20.0, duration_s=30.0, target=2),
    FaultSpec(FaultKind.BROKER_OUTAGE, at_s=45.0, duration_s=12.0),
    FaultSpec(FaultKind.SENSOR_SPIKE, at_s=70.0, duration_s=8.0, target=4, magnitude=2000.0),
]


def _run(seed, extra=3):
    drill = FaultDrill(DrillConfig(seed=seed, n_nodes=8, n_jobs=10,
                                   power_budget_w=8000.0))
    return drill.run(CAMPAIGN, extra_random_faults=extra)


class TestDrillDeterminism:
    def test_same_seed_byte_identical_event_log(self):
        a, b = _run(seed=42), _run(seed=42)
        assert a.log.to_jsonl() == b.log.to_jsonl()
        assert a.log.digest() == b.log.digest()

    def test_same_seed_identical_summary(self):
        a, b = _run(seed=42), _run(seed=42)
        assert a.summary == b.summary

    def test_different_seed_differs(self):
        a, c = _run(seed=42), _run(seed=43)
        assert a.log.digest() != c.log.digest()
        assert a.summary != c.summary

    def test_scripted_campaign_only_is_also_deterministic(self):
        a, b = _run(seed=1, extra=0), _run(seed=1, extra=0)
        assert a.log.to_jsonl() == b.log.to_jsonl()


class TestInjectorDeterminism:
    def test_random_specs_pure_function_of_seed(self):
        def draw(seed):
            inj = FaultInjector(Environment(), seed=seed)
            return inj.random_specs(
                10, horizon_s=100.0,
                kinds=[FaultKind.SENSOR_SPIKE, FaultKind.NODE_CRASH],
                targets=range(8), magnitude_range=(10.0, 500.0),
            )
        assert draw(5) == draw(5)
        assert draw(5) != draw(6)

    def test_specs_sorted_by_time(self):
        inj = FaultInjector(Environment(), seed=3)
        specs = inj.random_specs(20, horizon_s=50.0, kinds=[FaultKind.SENSOR_DROPOUT],
                                 targets=range(4))
        assert [s.at_s for s in specs] == sorted(s.at_s for s in specs)


class TestEventLogCanonicalForm:
    def test_field_order_insensitive(self):
        a, b = TelemetryEventLog(), TelemetryEventLog()
        a.append(1.0, "x", alpha=1, beta=2)
        b.append(1.0, "x", beta=2, alpha=1)
        assert a.to_jsonl() == b.to_jsonl()
        assert a.digest() == b.digest()

    def test_numpy_scalars_coerced(self):
        a, b = TelemetryEventLog(), TelemetryEventLog()
        a.append(np.float64(2.0), "x", v=np.int64(3))
        b.append(2.0, "x", v=3)
        assert a.to_jsonl() == b.to_jsonl()

    def test_digest_sensitive_to_content(self):
        a, b = TelemetryEventLog(), TelemetryEventLog()
        a.append(1.0, "x", v=1)
        b.append(1.0, "x", v=2)
        assert a.digest() != b.digest()
