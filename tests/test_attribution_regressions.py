"""Regression tests for the EA/Pr energy mis-attribution bugs.

Two silent undercounts hid in the Fig.-4 accounting path:

1. :meth:`EnergyAccountant.bill` billed a job as if its
   *unmeasured* nodes drew nothing whenever at least one node had
   coverage — a partial monitoring outage shrank the bill.  The fix
   falls back per node to an equal share of the simulator-accounted
   energy and reports the measurement coverage on the bill.
2. :meth:`PowerProfiler.profile` sliced the trace to on-grid samples,
   losing up to one sample period of energy at each side of every
   region marker.  The fix splices interpolated boundary samples into
   the integral.

Plus equivalence tests for the TSDB bulk-insert fast path and the
vectorised downsampler, which must match the per-sample slow path
bit-for-bit on any input ordering.
"""

import numpy as np
import pytest

from repro.observability import Observability
from repro.power.trace import PowerTrace
from repro.scheduler.job import Job, JobRecord
from repro.telemetry.accounting import EnergyAccountant
from repro.telemetry.profiler import PhaseMarker, PowerProfiler
from repro.telemetry.tsdb import SeriesKey, TimeSeriesDB


def _record(n_nodes, energy_j, t0=0.0, t1=10.0):
    job = Job(job_id=1, user="u", app="qe", n_nodes=n_nodes,
              walltime_req_s=t1 - t0, submit_time_s=0.0)
    rec = JobRecord(job=job)
    rec.nodes = tuple(range(n_nodes))
    rec.start_time_s, rec.end_time_s = t0, t1
    rec.energy_j = energy_j
    return rec


class TestPartialOutageBilling:
    def _db_with_nodes(self, node_ids, watts=1000.0):
        db = TimeSeriesDB()
        acct = EnergyAccountant(db)
        for node_id in node_ids:
            db.insert_many(acct.node_key(node_id), np.linspace(0, 10, 11),
                           np.full(11, watts))
        return db, acct

    def test_partial_outage_bills_within_one_percent_of_accounted(self):
        # 4-node job, simulator accounted 40 kJ; only 3 nodes measured.
        _, acct = self._db_with_nodes([0, 1, 2])
        rec = _record(4, energy_j=40_000.0)
        bill = acct.bill(rec)
        assert bill.energy_j == pytest.approx(rec.energy_j, rel=0.01)
        assert bill.measured_fraction == pytest.approx(0.75)

    def test_uncovered_nodes_no_longer_billed_as_zero(self):
        _, acct = self._db_with_nodes([0])
        rec = _record(2, energy_j=20_000.0)
        # Old behaviour: 10 kJ (surviving node only).  Fixed: the dark
        # node contributes its accounted share.
        assert acct.bill(rec).energy_j == pytest.approx(20_000.0)

    def test_full_coverage_is_pure_measurement(self):
        _, acct = self._db_with_nodes([0, 1])
        rec = _record(2, energy_j=123.0)  # accounted value is irrelevant
        bill = acct.bill(rec)
        assert bill.energy_j == pytest.approx(20_000.0)
        assert bill.measured_fraction == 1.0

    def test_total_outage_falls_back_to_accounted_energy(self):
        db = TimeSeriesDB()
        acct = EnergyAccountant(db)
        rec = _record(2, energy_j=31_415.0)
        bill = acct.bill(rec)
        assert bill.energy_j == pytest.approx(31_415.0)
        assert bill.measured_fraction == 0.0

    def test_sparse_series_counts_as_uncovered(self):
        # One lone sample cannot be integrated: that node must fall back.
        db = TimeSeriesDB()
        acct = EnergyAccountant(db)
        db.insert_many(acct.node_key(0), np.linspace(0, 10, 11), np.full(11, 1000.0))
        db.insert(acct.node_key(1), 5.0, 1000.0)
        rec = _record(2, energy_j=20_000.0)
        bill = acct.bill(rec)
        assert bill.energy_j == pytest.approx(20_000.0)
        assert bill.measured_fraction == pytest.approx(0.5)


class TestProfilerBoundaryEnergy:
    def test_off_grid_markers_attribute_exact_energy(self):
        # Constant 200 W sampled every 0.5 s; markers deliberately off-grid.
        trace = PowerTrace(np.arange(0.0, 10.0, 0.5), np.full(20, 200.0))
        prof = PowerProfiler(trace)
        marker = PhaseMarker("phase", 1.23, 4.56)
        profile = prof.profile([marker])["phase"]
        assert profile.total_energy_j == pytest.approx(200.0 * marker.duration_s)
        assert profile.mean_power_w == pytest.approx(200.0)

    def test_adjacent_regions_conserve_total_energy(self):
        # A ramp trace: splitting [0, 8] into off-grid pieces must not
        # create or destroy energy at the internal boundaries.
        t = np.linspace(0.0, 8.0, 17)
        trace = PowerTrace(t, 100.0 + 25.0 * t)
        prof = PowerProfiler(trace)
        cuts = [0.0, 1.7, 3.1, 5.9, 8.0]
        markers = [PhaseMarker(f"r{i}", cuts[i], cuts[i + 1]) for i in range(4)]
        pieces = prof.profile(markers)
        total = sum(p.total_energy_j for p in pieces.values())
        assert total == pytest.approx(trace.energy_j())

    def test_sub_sample_marker_between_grid_points(self):
        trace = PowerTrace(np.arange(0.0, 10.0, 1.0), np.full(10, 500.0))
        prof = PowerProfiler(trace)
        profile = prof.profile([PhaseMarker("tiny", 3.2, 3.7)])["tiny"]
        assert profile.total_energy_j == pytest.approx(500.0 * 0.5)

    def test_zero_duration_marker_is_zero_energy(self):
        trace = PowerTrace(np.arange(0.0, 5.0, 0.5), np.full(10, 300.0))
        prof = PowerProfiler(trace)
        assert prof.profile([PhaseMarker("p", 2.0, 2.0)])["p"].total_energy_j == 0.0


class TestTsdbBulkEquivalence:
    KEY = SeriesKey.of("node_power", node="0")

    def _pair(self, chunks):
        bulk, slow = TimeSeriesDB(), TimeSeriesDB()
        for t, v in chunks:
            bulk.insert_many(self.KEY, t, v)
            for ti, vi in zip(t, v):
                slow.insert(self.KEY, ti, vi)
        return bulk, slow

    def _chunks(self, seed, n_chunks=8, chunk=64, shuffle_every=2):
        rng = np.random.default_rng(seed)
        t0 = 0.0
        out = []
        for i in range(n_chunks):
            t = t0 + np.sort(rng.uniform(0.0, 10.0, chunk))
            v = rng.normal(1500.0, 200.0, chunk)
            if i % shuffle_every == 0:
                order = rng.permutation(chunk)
                t, v = t[order], v[order]
            # Overlap chunks half the time to force the slow path.
            t0 += 10.0 if i % 2 else 5.0
            out.append((t, v))
        return out

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_query_identical_on_mixed_order_input(self, seed):
        bulk, slow = self._pair(self._chunks(seed))
        tb, vb = bulk.query(self.KEY)
        ts, vs = slow.query(self.KEY)
        assert np.array_equal(tb, ts)
        assert np.array_equal(vb, vs)
        assert np.all(np.diff(tb) >= 0)

    @pytest.mark.parametrize("agg", ["mean", "max", "min", "sum", "count"])
    def test_downsample_matches_slow_path(self, agg):
        bulk, slow = self._pair(self._chunks(7))
        tb, vb = bulk.downsample(self.KEY, 3.0, agg)
        ts, vs = slow.downsample(self.KEY, 3.0, agg)
        assert np.allclose(tb, ts)
        assert np.allclose(vb, vs)

    def test_downsample_reference_values(self):
        db = TimeSeriesDB()
        db.insert_many(self.KEY, [0.0, 1.0, 2.5, 3.0, 9.0], [1.0, 3.0, 10.0, 4.0, 7.0])
        t, v = db.downsample(self.KEY, 2.0, "mean")
        assert np.allclose(t, [1.0, 3.0, 9.0])
        assert np.allclose(v, [2.0, 7.0, 7.0])
        _, counts = db.downsample(self.KEY, 2.0, "count")
        assert np.allclose(counts, [2.0, 2.0, 1.0])

    def test_sorted_batches_take_fast_path_and_count_writes(self):
        db = TimeSeriesDB()
        obs = Observability()
        db.bind_observability(obs)
        t = np.arange(100.0)
        db.insert_many(self.KEY, t, t * 2.0)
        db.insert(self.KEY, 100.0, 0.0)
        assert db.sample_count() == 101
        assert obs.metrics.total("tsdb_samples_written_total") == 101

    def test_late_binding_seeds_existing_samples(self):
        db = TimeSeriesDB()
        db.insert_many(self.KEY, np.arange(10.0), np.zeros(10))
        obs = Observability()
        db.bind_observability(obs)
        assert obs.metrics.total("tsdb_samples_written_total") == 10
