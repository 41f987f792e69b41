"""Tests for the rack management controller and the burn-in suite."""

import pytest

from repro.hardware import (
    BurnInSuite,
    ComputeNode,
    Rack,
    RackManagementController,
)


class TestAssetManagement:
    def test_inventory_complete(self):
        rmc = RackManagementController(Rack(rack_id=1))
        kinds = [a.kind for a in rmc._assets.values()]
        assert (kinds.count("node"), kinds.count("psu"), kinds.count("fan"),
                kinds.count("controller")) == (15, 6, 3, 1)
        assert len(kinds) == 25

    def test_asset_tags_encode_rack_and_node(self):
        rmc = RackManagementController(Rack(rack_id=2))
        asset = rmc._assets["R2-N30"]  # rack 2's first node (global id 30)
        assert asset.kind == "node"
        assert "R9-N1" not in rmc._assets

    def test_health_summary_fields(self):
        rmc = RackManagementController(Rack())
        summary = rmc.health_summary()
        assert summary["assets"] == 25
        assert summary["within_feed"]


class TestFanOptimization:
    def test_optimizer_meets_exhaust_target(self):
        rack = Rack()
        for n in rack.nodes:
            n.set_utilization(cpu=1.0, gpu=1.0, memory_intensity=1.0)
        rmc = RackManagementController(rack)
        fraction = rmc.optimize_fans()
        assert (rmc.INLET_TEMP_C, rmc.TARGET_EXHAUST_C) == (25.0, 45.0)
        assert rmc.exhaust_temp_c() <= 45.0 + 0.5
        # And not wastefully fast: a notch slower would miss the target.
        assert 0.11 < fraction < 1.0
        rack.set_fan_fraction(fraction * 0.9)
        assert rmc.exhaust_temp_c() > 45.0

    def test_idle_rack_runs_fans_slow(self):
        rack = Rack()
        rmc = RackManagementController(rack)
        busy_fraction_ref = 0.8
        idle_fraction = rmc.optimize_fans()
        assert idle_fraction < busy_fraction_ref

    def test_fan_speed_scales_with_load(self):
        rack = Rack()
        rmc = RackManagementController(rack)
        idle = rmc.optimize_fans()
        for n in rack.nodes:
            n.set_utilization(cpu=1.0, gpu=1.0, memory_intensity=1.0)
        busy = rmc.optimize_fans()
        assert busy > idle
        assert "fans=" in rmc.audit_log[0]


class TestBurnInSuite:
    def test_healthy_node_ships(self):
        report = BurnInSuite().run(ComputeNode())
        assert report.passed, [f.detail for f in report.failures()]
        # All patterns ran: 3 power/thermal + 6 component + 2 sensor.
        assert len(report.checks) == 11

    def test_underpowered_node_fails_power_band(self):
        # A node with a dead GPU rail draws too little under the virus.
        node = ComputeNode()
        node.gpus[2].sleep()  # stands in for a dead card
        report = BurnInSuite().run(node)
        assert not report.passed
        assert any("power band" in f.name or "responds" in f.name for f in report.failures())

    def test_missing_sensor_rail_detected(self):
        node = ComputeNode()
        node.set_utilization(cpu=0.5, gpu=0.5, memory_intensity=0.5)
        readings = node.power_breakdown().as_dict()
        readings.pop("gpu1")
        report = BurnInSuite().run(ComputeNode(), sensor_readings=readings)
        assert not report.passed
        assert any("instrumented" in f.name for f in report.failures())

    def test_miscalibrated_sensors_detected(self):
        node = ComputeNode()
        node.set_utilization(cpu=0.5, gpu=0.5, memory_intensity=0.5)
        readings = {k: v * 1.10 for k, v in node.power_breakdown().as_dict().items()}
        report = BurnInSuite().run(ComputeNode(), sensor_readings=readings)
        assert not report.passed
        assert any("rail sum" in f.name for f in report.failures())

    def test_hot_coolant_fails_thermal_soak(self, monkeypatch):
        # Burn-in on 60 degC coolant (mis-plumbed bench) must fail thermal.
        from repro.hardware import burnin

        monkeypatch.setattr(burnin, "COOLANT_TEMP_C", 60.0)
        report = BurnInSuite().run(ComputeNode())
        assert not report.passed
        assert any("thermal soak" in f.name for f in report.failures())

    def test_soak_holds_below_the_throttle_limit(self):
        from repro.cooling.throttling import DIE_LIMIT_C

        soaks = [c for c in BurnInSuite().run(ComputeNode()).checks
                 if c.name.startswith("thermal soak")]
        assert len(soaks) == 2
        assert all(c.passed and c.value < DIE_LIMIT_C == 83.0 for c in soaks)
        assert all("(limit 83)" in c.detail for c in soaks)
