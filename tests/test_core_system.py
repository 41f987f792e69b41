"""Integration tests for the end-to-end Fig.-4 pipeline."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core import DavideConfig, DavideSystem
from repro.scheduler import WorkloadConfig, WorkloadGenerator


def small_config():
    # A trimmed system keeps integration tests fast: 1 rack of 8 nodes.
    from repro.hardware.specs import DAVIDE_RACK, DAVIDE_SYSTEM, GARRISON_NODE, SystemSpec, RackSpec
    import dataclasses

    rack = dataclasses.replace(DAVIDE_RACK, nodes_per_rack=8)
    system = dataclasses.replace(DAVIDE_SYSTEM, compute_racks=1, rack=rack)
    return DavideConfig(system=system)


def workload(n=40, seed=0, nodes=8):
    return WorkloadGenerator(
        WorkloadConfig(n_jobs=n, cluster_nodes=nodes, load_factor=1.0),
        rng=np.random.default_rng(seed),
    ).generate()


class TestDavideSystemConstruction:
    def test_gateways_per_node(self):
        system = DavideSystem(small_config())
        assert len(system.gateways) == 8


class TestCampaign:
    def test_full_pipeline_runs(self):
        system = DavideSystem(small_config(), seed=1)
        report = system.run_campaign(workload(40, seed=1), power_budget_w=12e3)
        # Every phase produced output.
        assert len(report.history_result.records) + len(report.production_result.records) == 40
        assert report.mqtt_published > 0
        assert report.mqtt_delivered > 0
        # Job lifecycle events rode the bus too (2 per history job), and
        # are retained for late accounting agents.
        late = system.broker.connect("ea-latecomer")
        late.subscribe("davide/jobs/+/end")
        assert len(late.drain()) == len(report.history_result.records)
        assert report.tsdb_samples > 0
        assert len(report.bills) == len(report.history_result.records)
        assert report.total_billed_energy_j > 0

    def test_measured_energy_close_to_ground_truth(self):
        system = DavideSystem(small_config(), seed=2)
        report = system.run_campaign(workload(40, seed=2), power_budget_w=None)
        truth = sum(r.energy_j for r in report.history_result.records)
        # The monitored chain (sensor + ADC errors) lands within 2%.
        assert report.total_billed_energy_j == pytest.approx(truth, rel=0.02)

    def test_predictor_beats_nameplate_assumption(self):
        system = DavideSystem(small_config(), seed=3)
        report = system.run_campaign(workload(60, seed=3), power_budget_w=12e3)
        # Nameplate MAPE would be (2000 - ~1550)/1550 ~ 29%; trained model
        # must do far better.
        assert report.predictor_score.mape < 0.15

    def test_budget_respected_in_production(self):
        system = DavideSystem(small_config(), seed=4)
        budget = 11e3
        report = system.run_campaign(workload(60, seed=4), power_budget_w=budget)
        qos = report.qos_summary()
        assert qos["peak_power_w"] <= budget * 1.02
        assert qos["cap_violation_fraction"] < 0.05

    def test_no_budget_means_no_stretch(self):
        system = DavideSystem(small_config(), seed=5)
        report = system.run_campaign(workload(40, seed=5), power_budget_w=None)
        assert report.production_result.mean_stretch() == pytest.approx(1.0)
        assert report.power_budget_w is None

    def test_statements_cover_history_users(self):
        system = DavideSystem(small_config(), seed=6)
        report = system.run_campaign(workload(40, seed=6))
        users = {r.job.user for r in report.history_result.records}
        assert set(report.statements) == users

    def test_each_history_job_billed_once(self, monkeypatch):
        from repro.telemetry import EnergyAccountant

        billed, real = [], EnergyAccountant.bill
        monkeypatch.setattr(EnergyAccountant, "bill",
                            lambda self, r: billed.append(r.job.job_id) or real(self, r))
        report = DavideSystem(small_config(), seed=6).run_campaign(workload(40, seed=6))
        history = report.history_result.records
        assert sorted(billed) == sorted(r.job.job_id for r in history)
        for user, statement in report.statements.items():
            own = [b for b in report.bills if b.user == user]
            assert statement.n_jobs == len(own)
            assert statement.total_energy_j == sum(b.energy_j for b in own)
            assert statement.total_cost == sum(b.cost for b in own)

    def test_predictor_kinds(self):
        for kind in ("ridge", "knn", "per-key"):
            system = DavideSystem(small_config(), seed=7)
            report = system.run_campaign(workload(30, seed=7), predictor_kind=kind)
            assert report.predictor_score.name == kind
        with pytest.raises(ValueError):
            DavideSystem(small_config()).run_campaign(workload(30), predictor_kind="magic")

    def test_too_few_jobs_rejected(self):
        system = DavideSystem(small_config())
        with pytest.raises(ValueError):
            system.run_campaign(workload(4))

    def test_retained_telemetry_visible_to_late_agent(self):
        system = DavideSystem(small_config(), seed=8)
        system.run_campaign(workload(30, seed=8))
        late = system.broker.connect("late-profiler")
        late.subscribe("davide/+/power/node")
        assert late.poll() is not None  # retained last batches replayed


class TestHashSeedIndependence:
    def test_billed_energy_same_under_any_pythonhashseed(self):
        """Gateway sensor noise is seeded without ``hash()``, whose string
        salt changes per process: two interpreters with different
        ``PYTHONHASHSEED`` bill the same joules."""
        code = textwrap.dedent("""
            import dataclasses
            import numpy as np
            from repro.core import DavideConfig, DavideSystem
            from repro.hardware.specs import DAVIDE_RACK, DAVIDE_SYSTEM
            from repro.scheduler import WorkloadConfig, WorkloadGenerator
            rack = dataclasses.replace(DAVIDE_RACK, nodes_per_rack=4)
            spec = dataclasses.replace(DAVIDE_SYSTEM, compute_racks=1, rack=rack)
            jobs = WorkloadGenerator(
                WorkloadConfig(n_jobs=12, cluster_nodes=4, load_factor=1.0),
                rng=np.random.default_rng(0)).generate()
            report = DavideSystem(DavideConfig(system=spec), seed=0).run_campaign(
                jobs, power_budget_w=None)
            print(repr(report.total_billed_energy_j))
        """)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        billed = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, check=True)
            billed.append(out.stdout.strip())
        assert billed[0] == billed[1]
