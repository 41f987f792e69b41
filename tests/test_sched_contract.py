"""Property tests for the shared arithmetic contract, in isolation.

``repro.scheduler.contract`` is the float kernel both simulator cores
share; the differential harness pins whole simulations, while
these tests pin the helpers themselves: ``_PowerLedger`` bookkeeping,
``_set_speed``/``_settle`` segment and ETA arithmetic, the
accumulated-stretch ledger, and ``_resolve_ledger``'s trim algebra.
Seeded ``random.Random`` streams generate the call sequences, so every
failure is reproducible from the parametrized seed.
"""

import random

import numpy as np
import pytest

from repro.scheduler.contract import (
    _ETA_EPS,
    _PowerLedger,
    _Running,
    _resolve_ledger,
    _set_speed,
    _settle,
)
from repro.scheduler.job import Job, JobRecord

IDLE_W = 300.0


def _job(rng, jid):
    n_nodes = rng.randrange(1, 9)
    return Job(
        job_id=jid,
        user=f"u{jid % 3}",
        app="qe",
        n_nodes=n_nodes,
        walltime_req_s=rng.uniform(100.0, 5000.0),
        submit_time_s=rng.uniform(0.0, 1000.0),
        true_runtime_s=rng.uniform(50.0, 3000.0),
        # Straddle the idle floor: some jobs have zero dynamic share.
        true_power_per_node_w=rng.uniform(0.5 * IDLE_W, 6 * IDLE_W),
    )


class TestPowerLedger:
    @pytest.mark.parametrize("seed", range(20))
    def test_incremental_matches_replay(self, seed):
        """The ledger is pure state: replaying the identical add/remove
        sequence on a fresh ledger lands on bit-identical floats — the
        exact property the cross-core contract relies on."""
        rng = random.Random(seed)
        ops = []
        active = []
        for jid in range(60):
            if active and rng.random() < 0.4:
                ops.append(("remove", active.pop(rng.randrange(len(active)))))
            else:
                job = _job(rng, jid)
                active.append(job)
                ops.append(("add", job))
        a, b = _PowerLedger(IDLE_W), _PowerLedger(IDLE_W)
        for name, job in ops:
            getattr(a, name)(job)
            getattr(b, name)(job)
            assert a.busy_nodes == b.busy_nodes
            assert a.running_power_w == b.running_power_w
            assert a.running_dynamic_w == b.running_dynamic_w

    @pytest.mark.parametrize("seed", range(20))
    def test_incremental_tracks_recompute(self, seed):
        """Against a from-scratch recompute: node counts are integer
        arithmetic (exact), power sums are float-close (the incremental
        order differs from the fresh-sum order, so only ULP drift)."""
        rng = random.Random(100 + seed)
        ledger = _PowerLedger(IDLE_W)
        active: list[Job] = []
        for jid in range(80):
            if active and rng.random() < 0.45:
                job = active.pop(rng.randrange(len(active)))
                ledger.remove(job)
            else:
                job = _job(rng, jid)
                active.append(job)
                ledger.add(job)
            assert ledger.busy_nodes == sum(j.n_nodes for j in active)
            assert ledger.running_power_w == pytest.approx(
                sum(j.true_power_w for j in active), abs=1e-6)
            assert ledger.running_dynamic_w == pytest.approx(
                sum(max(j.true_power_w - j.n_nodes * IDLE_W, 0.0) for j in active),
                abs=1e-6)
        for job in active:
            ledger.remove(job)
        assert ledger.busy_nodes == 0
        assert ledger.running_power_w == pytest.approx(0.0, abs=1e-6)
        assert ledger.running_dynamic_w == pytest.approx(0.0, abs=1e-6)

    def test_sub_floor_job_never_contributes_dynamic(self):
        ledger = _PowerLedger(IDLE_W)
        cold = Job(job_id=0, user="u", app="io", n_nodes=2, walltime_req_s=100.0,
                   submit_time_s=0.0, true_runtime_s=50.0,
                   true_power_per_node_w=0.5 * IDLE_W)
        ledger.add(cold)
        assert ledger.running_dynamic_w == 0.0
        ledger.remove(cold)
        assert ledger.running_dynamic_w == 0.0


def _fresh_running(job, now=0.0):
    rec = JobRecord(job=job)
    rec.start_time_s = now
    return _Running(rec, job.true_runtime_s, now)


class TestSegmentArithmetic:
    @pytest.mark.parametrize("seed", range(20))
    def test_eta_is_stored_not_recomputed(self, seed):
        """After every _set_speed the stored ETA equals
        ``now + remaining/speed`` with the floats of *that* moment;
        settling exactly at the ETA leaves only rounding-level work."""
        rng = random.Random(seed)
        job = _job(rng, 0)
        r = _fresh_running(job)
        now = 0.0
        assert _set_speed(r, 1.0, 1.0, IDLE_W, now)
        assert r.eta_s == now + r.remaining_work_s / r.speed
        for _ in range(10):
            # Advance toward — never past — the ETA: a real core would
            # complete the job there.
            now += rng.uniform(0.0, 0.4) * (r.eta_s - now)
            rho = rng.choice((1.0, rng.uniform(0.3, 0.999)))
            speed = rho**0.75
            prev_eta = r.eta_s
            if _set_speed(r, rho, speed, IDLE_W, now):
                # Settled to `now`: the stored ETA is exactly the floats
                # of this moment.
                assert r.eta_s == now + r.remaining_work_s / r.speed
            else:
                # No-op trim: the segment stays open, the ETA untouched.
                assert r.eta_s == prev_eta
        _settle(r, r.eta_s)
        assert r.remaining_work_s == pytest.approx(0.0, abs=_ETA_EPS)

    def test_full_speed_grant_and_eta_are_exact(self):
        """rho >= 1: granted power is the job's true power *exactly* and
        the ETA is ``now + remaining`` exactly — the identities the array
        core's flat FIFO loop leans on."""
        job = Job(job_id=0, user="u", app="qe", n_nodes=3, walltime_req_s=900.0,
                  submit_time_s=0.0, true_runtime_s=617.3, true_power_per_node_w=1837.1)
        r = _fresh_running(job, now=123.456)
        changed = _set_speed(r, 1.0, 1.0, IDLE_W, 123.456)
        assert changed
        assert r.granted_power_w == job.true_power_w
        assert r.eta_s == 123.456 + 617.3

    def test_noop_set_speed_keeps_segment_open(self):
        rng = random.Random(3)
        r = _fresh_running(_job(rng, 0))
        _set_speed(r, 1.0, 1.0, IDLE_W, 0.0)
        eta, seg_start = r.eta_s, r.seg_start_s
        assert not _set_speed(r, 1.0, 1.0, IDLE_W, 50.0)
        assert r.eta_s == eta and r.seg_start_s == seg_start
        assert r.record.energy_j == 0.0  # nothing settled

    def test_settle_zero_dt_is_noop(self):
        rng = random.Random(4)
        r = _fresh_running(_job(rng, 0))
        _set_speed(r, 0.7, 0.7**0.75, IDLE_W, 0.0)
        before = (r.remaining_work_s, r.record.energy_j, r.record.stretch)
        _settle(r, 0.0)
        assert (r.remaining_work_s, r.record.energy_j, r.record.stretch) == before

    @pytest.mark.parametrize("seed", range(20))
    def test_accumulated_stretch_closed_form(self, seed):
        """Across a random trim/restore history: elapsed is the ordered
        sum of segment dts, work the ordered sum of dt*speed, energy the
        ordered sum of granted*dt — and stretch is exactly their stored
        quotient (never the max-instantaneous 1/speed)."""
        rng = random.Random(200 + seed)
        job = _job(rng, 0)
        r = _fresh_running(job)
        rec = r.record

        def grant(rho):
            if rho >= 1.0:
                return job.true_power_w
            jf = job.n_nodes * IDLE_W
            jd = job.true_power_w - jf
            return jf + (jd if jd > 0.0 else 0.0) * rho

        now = 0.0
        events = [(0.0, 1.0, 1.0)]
        for _ in range(12):
            now += rng.uniform(1.0, 300.0)
            rho = rng.choice((1.0, rng.uniform(0.3, 0.999)))
            events.append((now, rho, rho**0.75))
        end = now + 10.0

        # Shadow ledger: same branch, same float ops, same order as
        # _set_speed/_settle — a no-op trim leaves the segment open.
        elapsed = work = energy = 0.0
        seg_start, cur_speed, cur_granted = 0.0, 0.0, -1.0
        for t, rho, speed in events:
            g = grant(rho)
            if speed != cur_speed or g != cur_granted:
                dt = t - seg_start
                if dt > 0.0:
                    elapsed += dt
                    work += dt * cur_speed
                    energy += cur_granted * dt
                seg_start, cur_speed, cur_granted = t, speed, g
            _set_speed(r, rho, speed, IDLE_W, t)
        dt = end - seg_start
        elapsed += dt
        work += dt * cur_speed
        energy += cur_granted * dt
        _settle(r, end)

        assert rec.elapsed_running_s == elapsed
        assert rec.work_progressed_s == work
        assert rec.energy_j == energy
        # The stored stretch is the exact quotient of the stored ledgers.
        assert rec.stretch == rec.elapsed_running_s / rec.work_progressed_s
        assert rec.stretch >= 1.0 - 1e-12

    def test_untrimmed_identities_hold(self):
        """The flat-loop flush identities: for a job that runs one
        full-speed segment, energy == power*dt, elapsed == work == dt
        and stretch == 1.0 — bit-for-bit, not approximately."""
        job = Job(job_id=0, user="u", app="qe", n_nodes=2, walltime_req_s=500.0,
                  submit_time_s=0.0, true_runtime_s=431.7, true_power_per_node_w=1729.3)
        r = _fresh_running(job)
        _set_speed(r, 1.0, 1.0, IDLE_W, 0.0)
        dt = 431.7
        _settle(r, dt)
        rec = r.record
        assert rec.energy_j == job.true_power_w * dt
        assert rec.elapsed_running_s == dt
        assert rec.work_progressed_s == dt
        assert rec.stretch == 1.0


class TestResolveLedger:
    def _ledger(self, rng, n_jobs):
        ledger = _PowerLedger(IDLE_W)
        jobs = [_job(rng, j) for j in range(n_jobs)]
        for job in jobs:
            ledger.add(job)
        return ledger, jobs

    def test_uncapped_short_circuits(self):
        rng = random.Random(0)
        ledger, _ = self._ledger(rng, 10)
        system, demand, rho, speed = _resolve_ledger(ledger, 64, None, 0.3, 0.75)
        assert rho == 1.0 and speed == 1.0 and system == demand
        assert demand == (64 - ledger.busy_nodes) * IDLE_W + ledger.running_power_w

    @pytest.mark.parametrize("seed", range(20))
    def test_trim_algebra(self, seed):
        rng = random.Random(300 + seed)
        ledger, jobs = self._ledger(rng, rng.randrange(1, 12))
        n_alive = ledger.busy_nodes + rng.randrange(0, 20)
        rho_min, exponent = 0.3, 0.75
        uncapped_demand = _resolve_ledger(ledger, n_alive, None, rho_min, exponent)[1]
        cap = rng.uniform(0.4, 1.2) * uncapped_demand
        system, demand, rho, speed = _resolve_ledger(
            ledger, n_alive, cap, rho_min, exponent)
        assert demand == uncapped_demand
        assert rho_min <= rho <= 1.0 or rho == 1.0
        assert speed == rho**exponent  # exact: same expression, same floats
        assert system <= demand * (1 + 1e-12)
        if rho < 1.0:
            floor = n_alive * IDLE_W
            assert system == floor + ledger.running_dynamic_w * rho
            if rho > rho_min:
                # Not clipped: with every job above the idle floor the
                # trim lands exactly on the cap; sub-floor jobs push the
                # rho denominator below running_dynamic_w, so the system
                # settles at-or-above it (still the closest feasible).
                if all(j.true_power_w > j.n_nodes * IDLE_W for j in jobs):
                    assert system == pytest.approx(cap, rel=1e-9)
                else:
                    assert system >= cap - 1e-6
        else:
            assert system == demand

    def test_cap_below_floor_clips_at_speed_floor(self):
        rng = random.Random(1)
        ledger, _ = self._ledger(rng, 8)
        system, demand, rho, speed = _resolve_ledger(
            ledger, ledger.busy_nodes, 1.0, 0.3, 0.75)
        assert rho == 0.3 and speed == 0.3**0.75
        assert system > 1.0  # demand stays above the impossible cap

    def test_no_dynamic_power_means_no_trim(self):
        ledger = _PowerLedger(IDLE_W)
        cold = Job(job_id=0, user="u", app="io", n_nodes=4, walltime_req_s=100.0,
                   submit_time_s=0.0, true_runtime_s=50.0,
                   true_power_per_node_w=0.8 * IDLE_W)
        ledger.add(cold)
        system, demand, rho, speed = _resolve_ledger(ledger, 4, 100.0, 0.3, 0.75)
        assert rho == 1.0 and speed == 1.0 and system == demand

    @pytest.mark.parametrize("seed", range(10))
    def test_rho_monotone_in_cap(self, seed):
        rng = random.Random(400 + seed)
        ledger, _ = self._ledger(rng, 6)
        n_alive = ledger.busy_nodes + 4
        demand = _resolve_ledger(ledger, n_alive, None, 0.3, 0.75)[1]
        caps = sorted(rng.uniform(0.2, 1.1) * demand for _ in range(6))
        rhos = [_resolve_ledger(ledger, n_alive, c, 0.3, 0.75)[2] for c in caps]
        assert rhos == sorted(rhos)


class TestNumpyScalarParity:
    """The array core evaluates contract expressions elementwise on
    float64 lanes; IEEE-754 says each lane matches the CPython-float
    evaluation bit for bit.  Pin that for the expressions it vectorizes."""

    @pytest.mark.parametrize("seed", range(10))
    def test_eta_and_grant_lanes_match_scalars(self, seed):
        rng = random.Random(500 + seed)
        jobs = [_job(rng, j) for j in range(64)]
        now = rng.uniform(0.0, 1e4)
        rho = rng.uniform(0.3, 0.999)
        speed = rho**0.75
        remaining = np.array([j.true_runtime_s for j in jobs])
        power = np.array([j.true_power_w for j in jobs])
        floor = np.array([j.n_nodes * IDLE_W for j in jobs])
        dynamic = power - floor
        granted = floor + np.maximum(dynamic, 0.0) * rho
        eta = now + remaining / speed
        for i, job in enumerate(jobs):
            jf = job.n_nodes * IDLE_W
            jd = job.true_power_w - jf
            assert granted[i] == jf + (jd if jd > 0.0 else 0.0) * rho
            assert eta[i] == now + job.true_runtime_s / speed

    @pytest.mark.parametrize("seed", range(10))
    def test_settle_lanes_match_scalars(self, seed):
        rng = random.Random(600 + seed)
        n = 48
        dt = rng.uniform(1.0, 500.0)
        speed = np.array([rng.choice((1.0, rng.uniform(0.3, 1.0))) for _ in range(n)])
        granted = np.array([rng.uniform(300.0, 9000.0) for _ in range(n)])
        energy0 = np.array([rng.uniform(0.0, 1e6) for _ in range(n)])
        work_v = dt * speed
        energy_v = energy0 + granted * dt
        for i in range(n):
            assert work_v[i] == dt * float(speed[i])
            assert energy_v[i] == float(energy0[i]) + float(granted[i]) * dt
