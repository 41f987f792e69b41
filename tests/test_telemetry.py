"""Tests for the TSDB, energy accounting and the phase profiler."""

import numpy as np
import pytest

from repro.power import PowerTrace
from repro.scheduler import Job, JobRecord
from repro.telemetry import (
    EnergyAccountant,
    PhaseMarker,
    PowerProfiler,
    SeriesKey,
    TimeSeriesDB,
)


def uniform_trace(values, rate=10.0, t0=0.0):
    values = np.asarray(values, dtype=float)
    return PowerTrace(t0 + np.arange(values.size) / rate, values)


class TestSeriesKey:
    def test_of_sorts_tags(self):
        a = SeriesKey.of("m", b="2", a="1")
        b = SeriesKey.of("m", a="1", b="2")
        assert a == b

    def test_empty_metric_rejected(self):
        with pytest.raises(ValueError):
            SeriesKey.of("")


class TestTimeSeriesDB:
    def test_insert_and_query(self):
        db = TimeSeriesDB()
        key = SeriesKey.of("p", node="0")
        for t in range(10):
            db.insert(key, float(t), float(t) * 2)
        t, v = db.query(key, 2.0, 5.0)
        assert list(t) == [2.0, 3.0, 4.0, 5.0]
        assert list(v) == [4.0, 6.0, 8.0, 10.0]

    def test_query_unknown_key_raises(self):
        with pytest.raises(KeyError):
            TimeSeriesDB().query(SeriesKey.of("x"))

    def test_out_of_order_inserts_sorted(self):
        db = TimeSeriesDB()
        key = SeriesKey.of("p")
        for t in [5.0, 1.0, 3.0, 2.0, 4.0]:
            db.insert(key, t, t)
        t, v = db.query(key)
        assert list(t) == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_bulk_insert_and_trace_roundtrip(self):
        db = TimeSeriesDB()
        key = SeriesKey.of("p", node="1")
        trace = uniform_trace(np.arange(100.0))
        assert db.insert_trace(key, trace) == 100
        out = db.query_trace(key)
        assert np.allclose(out.power_w, trace.power_w)

    def test_growth_beyond_initial_chunk(self):
        db = TimeSeriesDB()
        key = SeriesKey.of("p")
        n = 5000
        db.insert_many(key, np.arange(n, dtype=float), np.ones(n))
        assert db.sample_count() == n
        assert db.query(key)[0].size == n

    def test_downsample_mean(self):
        db = TimeSeriesDB()
        key = SeriesKey.of("p")
        db.insert_many(key, np.arange(10, dtype=float), np.arange(10, dtype=float))
        t, v = db.downsample(key, bucket_s=5.0, agg="mean")
        assert list(v) == [2.0, 7.0]

    def test_downsample_aggregations(self):
        db = TimeSeriesDB()
        key = SeriesKey.of("p")
        db.insert_many(key, [0.0, 1.0, 2.0], [1.0, 5.0, 3.0])
        _, vmax = db.downsample(key, 10.0, "max")
        _, vcount = db.downsample(key, 10.0, "count")
        assert vmax[0] == 5.0 and vcount[0] == 3.0
        with pytest.raises(ValueError):
            db.downsample(key, 10.0, "median")
        with pytest.raises(ValueError):
            db.downsample(key, 0.0)

    def test_misaligned_bulk_rejected(self):
        db = TimeSeriesDB()
        with pytest.raises(ValueError):
            db.insert_many(SeriesKey.of("p"), [1.0, 2.0], [1.0])


class TestEnergyAccountant:
    def make_record(self, node_ids=(0,), start=0.0, end=100.0, power=1500.0):
        job = Job(job_id=1, user="alice", app="qe", n_nodes=len(node_ids),
                  walltime_req_s=200.0, submit_time_s=0.0,
                  true_runtime_s=end - start, true_power_per_node_w=power)
        rec = JobRecord(job=job)
        rec.start_time_s = start
        rec.end_time_s = end
        rec.nodes = tuple(node_ids)
        rec.energy_j = power * len(node_ids) * (end - start)
        return rec

    def test_energy_from_measured_series(self):
        db = TimeSeriesDB()
        acct = EnergyAccountant(db)
        # Node 0 measured at a flat 1480 W over the job window.
        db.insert_many(acct.node_key(0), np.linspace(0, 100, 101), np.full(101, 1480.0))
        rec = self.make_record()
        assert acct.bill(rec).energy_j == pytest.approx(148e3)

    def test_fallback_to_simulated_energy(self):
        acct = EnergyAccountant(TimeSeriesDB())
        rec = self.make_record()
        assert acct.bill(rec).energy_j == pytest.approx(150e3)

    def test_multi_node_sum(self):
        db = TimeSeriesDB()
        acct = EnergyAccountant(db)
        for node in (0, 1):
            db.insert_many(acct.node_key(node), np.linspace(0, 100, 11), np.full(11, 1000.0))
        rec = self.make_record(node_ids=(0, 1))
        assert acct.bill(rec).energy_j == pytest.approx(200e3)

    def test_billing_price(self):
        acct = EnergyAccountant(TimeSeriesDB())
        bill = acct.bill(self.make_record())
        assert bill.energy_j == pytest.approx(150e3)
        assert bill.cost == pytest.approx(150e3 / 3.6e6 * 0.25)
        assert bill.mean_power_w == pytest.approx(1500.0)

    def test_unfinished_job_rejected(self):
        acct = EnergyAccountant(TimeSeriesDB())
        rec = self.make_record()
        rec.end_time_s = None
        with pytest.raises(ValueError):
            acct.bill(rec)

    def test_statements_roll_up_per_user(self):
        acct = EnergyAccountant(TimeSeriesDB())
        bills = tuple(acct.bill(self.make_record()) for _ in range(2))
        statements = acct.statements(bills)
        assert statements["alice"].n_jobs == 2
        assert statements["alice"].total_energy_j == pytest.approx(300e3)
        assert statements["alice"].total_cost == pytest.approx(2 * bills[0].cost)


class TestPowerProfiler:
    def phase_trace(self):
        # 10 s trace: 1800 W in [2k, 2k+1), 600 W otherwise (1 kHz sampling).
        t = np.arange(0, 10, 0.001)
        p = np.where((t % 2) < 1.0, 1800.0, 600.0)
        return PowerTrace(t, p)

    def markers(self):
        out = []
        for k in range(5):
            out.append(PhaseMarker("compute", 2.0 * k, 2.0 * k + 1.0))
            out.append(PhaseMarker("mpi-wait", 2.0 * k + 1.0, 2.0 * k + 2.0))
        return out

    def test_region_attribution(self):
        profiler = PowerProfiler(self.phase_trace())
        profiles = profiler.profile(self.markers())
        assert profiles["compute"].mean_power_w == pytest.approx(1800.0, rel=0.01)
        assert profiles["mpi-wait"].mean_power_w == pytest.approx(600.0, rel=0.01)
        assert profiles["compute"].n_instances == 5

    def test_clock_skew_collapses_separation(self):
        # Half a phase of clock error smears each region evenly over hot
        # and cold power: the contrast collapses toward zero.
        profiler = PowerProfiler(self.phase_trace())
        skewed_markers = [PhaseMarker(m.region, m.t_enter_s + 0.5, m.t_exit_s + 0.5)
                          for m in self.markers()]
        sep_aligned = profiler.region_power_separation(self.markers(), "compute", "mpi-wait")
        sep_skewed = profiler.region_power_separation(skewed_markers, "compute", "mpi-wait")
        assert sep_aligned > 1100.0
        assert abs(sep_skewed) < sep_aligned * 0.2

    def test_marker_validation(self):
        with pytest.raises(ValueError):
            PhaseMarker("x", 2.0, 1.0)

    def test_profiler_validation(self):
        with pytest.raises(ValueError):
            PowerProfiler(PowerTrace(np.array([0.0]), np.array([1.0])))
        profiler = PowerProfiler(self.phase_trace())
        with pytest.raises(ValueError):
            profiler.profile([])
        with pytest.raises(KeyError):
            profiler.region_power_separation(self.markers(), "compute", "nonexistent")

    def test_short_region_uses_point_estimate(self):
        profiler = PowerProfiler(self.phase_trace())
        # A 0.1 ms region between samples still gets an energy estimate.
        profiles = profiler.profile([PhaseMarker("tiny", 0.50001, 0.50011)])
        assert profiles["tiny"].total_energy_j > 0
