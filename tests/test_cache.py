"""Property tests for the content-addressed campaign cache.

DESIGN.md §11: ``scenario_key`` is a *semantic* digest — equal exactly
when two (config, scenario) specs would run the identical simulation.
Three families of properties pin it:

1. **Stability** — invariant under dataclass field reordering,
   default-equivalent spellings, cosmetic fields, and the interpreter
   (no ``repr``/``id()``/hash-seed leakage across processes).
2. **Distinctness** — every semantic knob moves the key, and a
   randomized 200-cell grid yields 200 distinct keys.
3. **Stores** — both backends round-trip ``ScenarioResult``\\ s exactly
   (the on-disk backend field-by-field through JSON+NPZ), account
   hits/misses, refuse corruption (a tampered, truncated, missing or
   damaged payload, and a damaged marker or one whose checksum does not
   match, name the entry), never downgrade a payload-carrying entry,
   and serve only misses or complete cells while four processes write
   the same keys.
"""

import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from repro.scheduler import (
    CampaignConfig,
    DirectoryResultStore,
    JobState,
    MemoryResultStore,
    NodeOutage,
    Scenario,
    campaign_digest,
    config_key,
    result_digest,
    run_campaign,
    run_scenario,
    scenario_key,
)
from repro.scheduler.cache import _scenario_from_dict, _scenario_to_dict

CONFIG = CampaignConfig(n_nodes=8, n_jobs=20, root_seed=11, load_factor=1.1)
CAP = 9e3


@dataclass(frozen=True)
class ReorderedScenario:
    """Field-for-field clone of Scenario declared in a different order.

    ``scenario_key`` reads attributes by name, never positionally — a
    reordered (or duck-typed) spec must produce the identical key.
    """

    label: str = ""
    fairshare_decay: Optional[float] = None
    backfill_depth: Optional[int] = None
    node_outages: tuple = ()
    train_fraction: float = 0.0
    predictor: str = "oracle"
    budget_w: Optional[float] = None
    seed_index: int = 0
    cap_w: Optional[float] = None
    policy: str = "fifo"


#: The simulator annotations a stored spec written before cells lost
#: their ``core`` field carries: ``core`` (``None`` when unset) and, in
#: entries older still, a ``reference`` flag beside it (``flag=None``
#: leaves that key out).
OLD_CORE_ANNOTATIONS = pytest.mark.parametrize("flag, core", [
    (None, None), (None, "array"), (None, "reference"),
    (True, None), (False, "reference"),
])


def _annotated(spec: dict, flag, core) -> dict:
    spec = {**spec, "core": core}
    if flag is not None:
        spec["reference"] = flag
    return spec


class TestKeyStability:
    def test_stable_across_field_reordering(self):
        real = Scenario(policy="power-aware", cap_w=CAP, seed_index=2,
                        predictor="nameplate:1500", train_fraction=0.2)
        clone = ReorderedScenario(policy="power-aware", cap_w=CAP, seed_index=2,
                                  predictor="nameplate:1500", train_fraction=0.2)
        assert scenario_key(CONFIG, real) == scenario_key(CONFIG, clone)

    def test_budget_default_equivalent_to_cap(self):
        implicit = Scenario(policy="power-aware", cap_w=CAP)
        explicit = Scenario(policy="power-aware", cap_w=CAP, budget_w=CAP)
        assert scenario_key(CONFIG, implicit) == scenario_key(CONFIG, explicit)

    def test_predictor_spec_spellings_collapse(self):
        keys = {
            scenario_key(CONFIG, Scenario(policy="power-aware", cap_w=CAP,
                                          predictor=spec))
            for spec in ("nameplate", "nameplate:2000", "nameplate:2000.0")
        }
        assert len(keys) == 1

    def test_ridge_lambda_spellings_collapse(self):
        a = Scenario(policy="power-aware", cap_w=CAP,
                     predictor="ridge", train_fraction=0.4)
        b = Scenario(policy="power-aware", cap_w=CAP,
                     predictor="ridge:1.0", train_fraction=0.4)
        assert scenario_key(CONFIG, a) == scenario_key(CONFIG, b)

    @OLD_CORE_ANNOTATIONS
    def test_core_spellings_collapse(self, flag, core):
        """Every cell runs the array core, and the cores are
        digest-identical, so a stored spec that names one reads back as
        the plain cell under the plain cell's key."""
        plain = Scenario(policy="fifo")
        stored = _scenario_from_dict(
            _annotated(_scenario_to_dict(plain), flag, core))
        assert stored == plain
        assert scenario_key(CONFIG, stored) == scenario_key(CONFIG, plain)

    def test_label_is_cosmetic(self):
        a = Scenario(policy="easy", cap_w=CAP, label="")
        b = Scenario(policy="easy", cap_w=CAP, label="the same cell")
        assert scenario_key(CONFIG, a) == scenario_key(CONFIG, b)

    def test_unused_knobs_normalized_away_for_non_power_aware(self):
        """FIFO/EASY never read budget_w or predictor: stray spellings
        must not split the cache."""
        plain = Scenario(policy="easy", cap_w=CAP)
        noisy = Scenario(policy="easy", cap_w=CAP, budget_w=123.0,
                         predictor="nameplate:999")
        assert scenario_key(CONFIG, plain) == scenario_key(CONFIG, noisy)

    def test_inactive_exploration_knobs_normalize_away(self):
        """The PR-8 knob fields must not move pre-existing keys: a knob
        left at its default (or dead for the chosen policy) is absent
        from the canonical form, so stores written before the fields
        existed still hit."""
        plain = Scenario(policy="fifo")
        assert scenario_key(CONFIG, plain) == scenario_key(
            CONFIG, dataclasses.replace(plain, backfill_depth=4))

    def test_backfill_depth_respellings_collapse(self):
        """int-like spellings of one depth canonicalize identically."""
        a = Scenario(policy="easy", cap_w=CAP, backfill_depth=8)
        b = dataclasses.replace(a, backfill_depth=np.int64(8))
        assert scenario_key(CONFIG, a) == scenario_key(CONFIG, b)

    def test_outage_order_is_cosmetic(self):
        """Permuted outage tuples are one cell: the simulator sorts its
        outages before running (``ClusterSimulator.__init__``), so two
        listings of the same set must share ``scenario_key`` — a
        reordered twin used to miss a warm store."""
        o1 = NodeOutage(at_s=10.0, node_id=0, duration_s=60.0)
        o2 = NodeOutage(at_s=20.0, node_id=1, duration_s=60.0)
        o3 = NodeOutage(at_s=20.0, node_id=3, duration_s=90.0)
        a = Scenario(policy="fifo", node_outages=(o1, o2, o3))
        b = Scenario(policy="fifo", node_outages=(o3, o1, o2))
        assert scenario_key(CONFIG, a) == scenario_key(CONFIG, b)

    def test_sorted_outages_keep_their_key(self):
        """The canonical form of an already-sorted spec is the spec
        itself — the sort is a pure refinement (KEY_VERSION stays 1),
        so entries stored before the fix still hit."""
        import json as _json
        from repro.scheduler.cache import _canonical_scenario

        o1 = NodeOutage(at_s=10.0, node_id=0, duration_s=60.0)
        o2 = NodeOutage(at_s=20.0, node_id=1, duration_s=60.0)
        entry = _canonical_scenario(
            Scenario(policy="fifo", node_outages=(o1, o2)))
        assert entry["outages"] == [[10.0, 0, 60.0], [20.0, 1, 60.0]]
        # The pre-fix derivation listed outages in spec order; for a
        # sorted spec both derivations serialize identically.
        assert _json.dumps(entry["outages"]) == _json.dumps(
            [[float(o.at_s), int(o.node_id), float(o.duration_s)]
             for o in (o1, o2)])

    def test_stable_across_runs_in_this_process(self):
        s = Scenario(policy="power-aware", cap_w=CAP,
                     node_outages=(NodeOutage(at_s=50.0, node_id=1,
                                              duration_s=100.0),))
        assert scenario_key(CONFIG, s) == scenario_key(
            CONFIG, dataclasses.replace(s))

    @pytest.mark.parametrize("hash_seed", ["0", "12345"])
    def test_invariant_across_processes_and_hash_seeds(self, hash_seed):
        """No id()/hash-seed leakage: a fresh interpreter with a
        different PYTHONHASHSEED derives the identical key."""
        code = (
            "from repro.scheduler import CampaignConfig, Scenario, NodeOutage, "
            "scenario_key\n"
            "cfg = CampaignConfig(n_nodes=8, n_jobs=20, root_seed=11, "
            "load_factor=1.1)\n"
            "s = Scenario(policy='power-aware', cap_w=9e3, seed_index=3, "
            "predictor='nameplate:1500', train_fraction=0.25, "
            "node_outages=(NodeOutage(at_s=50.0, node_id=1, duration_s=100.0),))\n"
            "print(scenario_key(cfg, s))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        here = scenario_key(CONFIG, Scenario(
            policy="power-aware", cap_w=CAP, seed_index=3,
            predictor="nameplate:1500", train_fraction=0.25,
            node_outages=(NodeOutage(at_s=50.0, node_id=1, duration_s=100.0),)))
        assert out.stdout.strip() == here


class TestPinnedKeys:
    """Literal keys: warmed stores stay valid only while the canonical
    form of an unchanged spec does not move."""

    @pytest.mark.parametrize("scenario, key", [
        (Scenario(policy="fifo"),
         "6fb0615545e66efc1644895fa9435d74407a5ebe9035585cf8e5bf1857752745"),
        (Scenario(policy="easy", cap_w=CAP, node_outages=(
            NodeOutage(at_s=50.0, node_id=3, duration_s=200.0),)),
         "fb17140e822788d6a157dd61122978c6c8499ebcea989b1bf7e45f043e160afe"),
        (Scenario(policy="power-aware", cap_w=CAP, predictor="nameplate:1500"),
         "2e6a0ab482b030dd84eada5400b64a3259363cf13da0c1229e3004c238ba276f"),
    ], ids=["fifo", "easy-outage",
            "power-aware-nameplate"])
    def test_key_is_pinned(self, scenario, key):
        assert scenario_key(CONFIG, scenario) == key


class TestKeyDistinctness:
    @pytest.mark.parametrize("mutate", [
        dict(policy="easy"),
        dict(cap_w=CAP * 0.99),
        dict(cap_w=None, budget_w=CAP),
        dict(seed_index=1),
        dict(budget_w=CAP * 0.5),
        dict(predictor="nameplate"),
        dict(predictor="ridge", train_fraction=0.4),
        dict(train_fraction=0.1),
        dict(predictor="nameplate:1500"),
        dict(node_outages=(NodeOutage(at_s=10.0, node_id=0, duration_s=60.0),)),
        dict(backfill_depth=4),
        dict(backfill_depth=5),
        dict(backfill_depth=0),
        dict(fairshare_decay=86400.0),
        dict(fairshare_decay=7 * 86400.0),
    ])
    def test_every_semantic_knob_moves_the_key(self, mutate):
        base = Scenario(policy="power-aware", cap_w=CAP)
        assert scenario_key(CONFIG, base) != scenario_key(
            CONFIG, dataclasses.replace(base, **mutate))

    @pytest.mark.parametrize("mutate", [
        dict(n_nodes=9), dict(n_jobs=21), dict(root_seed=12),
        dict(load_factor=1.2), dict(idle_node_power_w=250.0),
        dict(speed_exponent=0.8), dict(min_speed=0.4),
    ])
    def test_every_config_knob_moves_the_key(self, mutate):
        s = Scenario(policy="fifo")
        assert scenario_key(CONFIG, s) != scenario_key(
            dataclasses.replace(CONFIG, **mutate), s)
        assert config_key(CONFIG) != config_key(
            dataclasses.replace(CONFIG, **mutate))

    def test_randomized_200_grid_all_distinct(self):
        """Every pair of cells in a randomized 200-cell sweep keys
        distinctly (seed_index spreads the grid; random knobs ride
        along and must never collide two different indices)."""
        import random

        rng = random.Random(77)
        keys = set()
        for idx in range(200):
            s = Scenario(
                policy=rng.choice(("fifo", "easy", "power-aware")),
                cap_w=rng.choice((CAP, 0.8 * CAP)),
                seed_index=idx,
                train_fraction=rng.choice((0.0, 0.2)),
            )
            keys.add(scenario_key(CONFIG, s))
        assert len(keys) == 200

    def test_outage_sets_are_semantic(self):
        """Different outage *sets* still key apart — only the listing
        order is cosmetic, never the outages themselves."""
        o1 = NodeOutage(at_s=10.0, node_id=0, duration_s=60.0)
        o2 = NodeOutage(at_s=20.0, node_id=1, duration_s=60.0)
        a = Scenario(policy="fifo", node_outages=(o1, o2))
        b = Scenario(policy="fifo", node_outages=(o1,))
        c = Scenario(policy="fifo", node_outages=(
            o1, NodeOutage(at_s=20.0, node_id=1, duration_s=61.0)))
        assert scenario_key(CONFIG, a) != scenario_key(CONFIG, b)
        assert scenario_key(CONFIG, a) != scenario_key(CONFIG, c)


JOB_FIELD_TYPES = {
    "job_id": int, "user": str, "app": str, "n_nodes": int,
    "walltime_req_s": float, "submit_time_s": float, "threads_per_rank": int,
    "uses_gpus": bool, "true_runtime_s": float, "true_power_per_node_w": float,
}
#: ``None`` is also allowed: ``start_time_s``, ``end_time_s`` and
#: ``predicted_power_w`` are optional.
RECORD_FIELD_TYPES = {
    "state": JobState, "start_time_s": float, "end_time_s": float,
    "nodes": tuple, "energy_j": float, "predicted_power_w": float,
    "stretch": float, "requeues": int, "elapsed_running_s": float,
    "work_progressed_s": float,
}


#: The two cells every writer of the cross-process hammer stores.
HAMMER_CELLS = (Scenario(policy="fifo"), Scenario(policy="easy", cap_w=CAP))


def _hammer_writer(root: str) -> None:
    """One writer process: put both cells 40 times, every third put
    without its payload."""
    store = DirectoryResultStore(root)
    cells = [run_scenario(CONFIG, s, keep_result=True) for s in HAMMER_CELLS]
    for i in range(40):
        for cell in cells:
            if i % 3 == 2:
                cell = dataclasses.replace(cell, result=None)
            store.put(scenario_key(CONFIG, cell.scenario), cell)


def _set_zip_fields(raw: bytes, offsets: dict, value: int) -> bytes:
    """Write ``value`` into the 2-byte field at ``offsets[signature]``
    after every zip header that starts with ``signature``."""
    out = bytearray(raw)
    for signature, offset in offsets.items():
        at = raw.find(signature)
        while at != -1:
            out[at + offset:at + offset + 2] = value.to_bytes(2, "little")
            at = raw.find(signature, at + 1)
    return bytes(out)


@pytest.fixture(params=["memory", "disk"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryResultStore()
    return DirectoryResultStore(tmp_path / "store")


class TestResultStores:
    def _cell(self, keep=True, scenario=None):
        scenario = scenario or Scenario(policy="easy", cap_w=CAP, seed_index=1,
                                        label="stored")
        return run_scenario(CONFIG, scenario, keep_result=keep)

    def test_miss_then_hit_accounting(self, store):
        cell = self._cell()
        key = scenario_key(CONFIG, cell.scenario)
        assert store.get(key) is None
        store.put(key, cell)
        assert store.get(key) is not None
        assert (store.hits, store.misses) == (1, 1)
        assert len(store) == 1
        assert list(store.keys()) == [key]

    def test_round_trip_metrics_only(self, store):
        cell = self._cell(keep=False)
        key = scenario_key(CONFIG, cell.scenario)
        store.put(key, cell)
        loaded = store.get(key)
        assert loaded.digest == cell.digest
        assert loaded.qos == cell.qos
        assert loaded.scenario == cell.scenario
        assert loaded.result is None

    def test_round_trip_full_payload_field_by_field(self, store):
        cell = self._cell(keep=True)
        key = scenario_key(CONFIG, cell.scenario)
        store.put(key, cell)
        loaded = store.get(key)
        a, b = cell.result, loaded.result
        assert result_digest(b) == cell.digest
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert ra.job == rb.job
            for field in ("state", "start_time_s", "end_time_s", "nodes",
                          "energy_j", "predicted_power_w", "stretch",
                          "requeues", "elapsed_running_s", "work_progressed_s"):
                assert getattr(ra, field) == getattr(rb, field), field
            # Loaded fields are plain Python values, never NumPy scalars.
            for field, kind in JOB_FIELD_TYPES.items():
                assert type(getattr(rb.job, field)) is kind, field
            for field, kind in RECORD_FIELD_TYPES.items():
                value = getattr(rb, field)
                assert type(value) is kind or value is None, field
            assert all(type(n) is int for n in rb.nodes)
        assert np.array_equal(a.power_trace.times_s, b.power_trace.times_s)
        assert np.array_equal(a.power_trace.power_w, b.power_trace.power_w)
        for field in ("makespan_s", "total_energy_j", "cap_w",
                      "overdemand_s", "utilization", "n_requeues"):
            assert getattr(a, field) == getattr(b, field), field
        # Rebuilt results compute QoS from their own records.
        assert b.mean_wait_s() == a.mean_wait_s()

    def test_payload_round_trips_outages_and_uncapped(self, store):
        scenario = Scenario(
            policy="fifo",
            node_outages=(NodeOutage(at_s=500.0, node_id=2, duration_s=900.0),))
        cell = self._cell(keep=True, scenario=scenario)
        key = scenario_key(CONFIG, scenario)
        store.put(key, cell)
        loaded = store.get(key)
        assert loaded.result.cap_w is None
        assert result_digest(loaded.result) == cell.digest
        assert loaded.scenario.node_outages == scenario.node_outages

    def test_metrics_only_put_never_downgrades_payload(self, store):
        cell = self._cell(keep=True)
        key = scenario_key(CONFIG, cell.scenario)
        store.put(key, cell)
        store.put(key, dataclasses.replace(cell, result=None))
        assert store.get(key).result is not None

    def test_metrics_only_put_with_conflicting_digest_raises(self, store):
        cell = self._cell(keep=True)
        key = scenario_key(CONFIG, cell.scenario)
        store.put(key, cell)
        bad = dataclasses.replace(cell, result=None, digest="0" * 64)
        with pytest.raises(ValueError, match="conflicting digests"):
            store.put(key, bad)


class TestDirectoryStore:
    def test_load_reads_each_payload_member_once(self, tmp_path, monkeypatch):
        """Indexing an ``NpzFile`` re-reads and re-inflates the member
        from the zip, so a load must pull each member out exactly once,
        not once per record and field."""
        config = CampaignConfig(n_nodes=8, n_jobs=24, root_seed=3, load_factor=1.1)
        scenario = Scenario(policy="easy", cap_w=CAP)
        store = DirectoryResultStore(tmp_path / "store")
        key = scenario_key(config, scenario)
        store.put(key, run_scenario(config, scenario, keep_result=True))

        loads, reads = [], {}
        real_load, real_getitem = np.load, np.lib.npyio.NpzFile.__getitem__

        def counting_load(*args, **kwargs):
            loads.append(args)
            return real_load(*args, **kwargs)

        def counting_getitem(self, name):
            reads[name] = reads.get(name, 0) + 1
            return real_getitem(self, name)

        monkeypatch.setattr(np, "load", counting_load)
        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", counting_getitem)
        loaded = store.get(key)
        assert loaded.result is not None and len(loaded.result.records) == 24
        assert len(loads) == 1 and reads
        assert max(reads.values()) == 1, reads

    def test_verify_refuses_tampered_payload(self, tmp_path):
        store = DirectoryResultStore(tmp_path / "store")
        cell = run_scenario(CONFIG, Scenario(policy="fifo"), keep_result=True)
        key = scenario_key(CONFIG, cell.scenario)
        store.put(key, cell)
        # Swap in a payload from a different run, keeping the JSON.
        other = run_scenario(CONFIG, Scenario(policy="easy", cap_w=CAP),
                             keep_result=True)
        donor = DirectoryResultStore(tmp_path / "donor")
        donor.put("k", other)
        (tmp_path / "store" / f"{key}.npz").write_bytes(
            (tmp_path / "donor" / "k.npz").read_bytes())
        with pytest.raises(ValueError, match="corrupt store entry"):
            store.get(key)

    @staticmethod
    def _stored_fifo(tmp_path):
        """A store holding the FIFO cell with its payload, and its key."""
        store = DirectoryResultStore(tmp_path / "store")
        cell = run_scenario(CONFIG, Scenario(policy="fifo"), keep_result=True)
        key = scenario_key(CONFIG, cell.scenario)
        store.put(key, cell)
        return store, key

    @pytest.mark.parametrize("cut", [0, 10, "half", -5, "delete"])
    def test_missing_or_truncated_payload_is_a_named_corrupt_entry(
            self, tmp_path, cut):
        """The JSON marker is intact but its NPZ sidecar is gone or cut
        short: the load names the entry and the sidecar's path instead
        of leaking ``EOFError``, ``BadZipFile`` or ``FileNotFoundError``."""
        store, key = self._stored_fifo(tmp_path)
        npz = tmp_path / "store" / f"{key}.npz"
        if cut == "delete":
            npz.unlink()
        else:
            data = npz.read_bytes()
            npz.write_bytes(data[:len(data) // 2 if cut == "half" else cut])
        with pytest.raises(ValueError,
                           match=rf"corrupt store entry {key[:16]}.*{npz.name}"):
            store.get(key)

    @pytest.mark.parametrize("damage", [
        lambda raw: raw.replace(b"rec_nodes_flat.npy", b"rec_nodes_flaX.npy"),
        lambda raw: _set_zip_fields(raw, {b"PK\x01\x02": 6}, 255),
        lambda raw: _set_zip_fields(raw, {b"PK\x03\x04": 8, b"PK\x01\x02": 10}, 99),
    ], ids=["renamed-member", "version-needed", "compression-method"])
    def test_damaged_payload_headers_are_a_named_corrupt_entry(
            self, tmp_path, damage):
        """Zip headers the member CRCs do not cover: a renamed member
        (``KeyError``), a "version needed" of 25.5 or an unknown
        compression method (``NotImplementedError``) name the entry and
        the sidecar's path."""
        store, key = self._stored_fifo(tmp_path)
        npz = tmp_path / "store" / f"{key}.npz"
        raw = npz.read_bytes()
        npz.write_bytes(damage(raw))
        assert npz.read_bytes() != raw
        with pytest.raises(ValueError,
                           match=rf"corrupt store entry {key[:16]}.*{npz.name}"):
            store.get(key)

    @pytest.mark.parametrize("damage", [
        lambda meta: meta.pop("digest"),
        lambda meta: meta["scenario"].update(policx=meta["scenario"].pop("policy")),
        lambda meta: meta["scenario"].update(policy="dasy"),
    ], ids=["no-digest", "renamed-policy", "unknown-policy"])
    def test_damaged_marker_is_a_named_corrupt_entry(self, tmp_path, damage):
        """A marker that parses but lacks a field, or holds a spec
        ``Scenario`` refuses, names the entry and the marker's path
        instead of leaking ``KeyError``, ``TypeError`` or a bare
        ``ValueError``."""
        store, key = self._stored_fifo(tmp_path)
        path = tmp_path / "store" / f"{key}.json"
        meta = json.loads(path.read_text())
        damage(meta)
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError,
                           match=rf"corrupt store entry {key[:16]}.*{path.name}"):
            store.get(key)

    @pytest.mark.parametrize("marker", ["[1]", "7", '"x"', "null"],
                             ids=["list", "number", "string", "null"])
    def test_marker_that_is_not_an_object_is_a_named_corrupt_entry(
            self, tmp_path, marker):
        """A marker that parses to a JSON value other than an object
        names the entry and the marker's path instead of leaking an
        ``AttributeError``."""
        store, key = self._stored_fifo(tmp_path)
        path = tmp_path / "store" / f"{key}.json"
        path.write_text(marker)
        with pytest.raises(ValueError,
                           match=rf"corrupt store entry {key[:16]}.*{path.name}"):
            store.get(key)

    @pytest.mark.parametrize("keep", [True, False], ids=["payload", "metrics-only"])
    def test_flipped_marker_bit_is_a_miss_a_named_error_or_the_cell(
            self, tmp_path, keep):
        """Flip bit 0 of each byte of a marker, one flip per load: the
        load is a miss, the named corrupt-entry error or the stored cell,
        never a changed QoS value, QoS name, digest or spec."""
        store = DirectoryResultStore(tmp_path / "store")
        scenario = Scenario(policy="easy", cap_w=CAP)
        cell = run_scenario(CONFIG, scenario, keep_result=keep)
        key = scenario_key(CONFIG, scenario)
        store.put(key, cell)
        path = tmp_path / "store" / f"{key}.json"
        raw = path.read_bytes()
        outcomes = {"miss": 0, "named": 0, "cell": 0}
        for i in range(len(raw)):
            flipped = bytearray(raw)
            flipped[i] ^= 1
            path.write_bytes(bytes(flipped))
            try:
                got = store.get(key)
            except ValueError as exc:
                assert f"corrupt store entry {key[:16]}" in str(exc), i
                outcomes["named"] += 1
                continue
            if got is None:
                outcomes["miss"] += 1
                continue
            assert (got.scenario, got.qos, got.digest) == (
                cell.scenario, cell.qos, cell.digest), i
            assert (got.result is None) == (cell.result is None), i
            outcomes["cell"] += 1
        assert outcomes["named"] > outcomes["cell"] > 0 and outcomes["miss"] > 0

    def test_marker_without_check_loads_and_hits(self, tmp_path):
        """Markers written before the checksum existed have no
        ``check``: they load unchecked and a re-run replays them."""
        scenario = Scenario(policy="easy", cap_w=CAP)
        cold = run_campaign(CONFIG, [scenario], processes=1, keep_results=True,
                            cache=DirectoryResultStore(tmp_path / "store"))
        key = scenario_key(CONFIG, scenario)
        path = tmp_path / "store" / f"{key}.json"
        meta = json.loads(path.read_text())
        assert len(meta.pop("check")) == 64
        path.write_text(json.dumps(meta, sort_keys=True, separators=(",", ":")))
        store = DirectoryResultStore(tmp_path / "store")
        warm = run_campaign(CONFIG, [scenario], processes=1, keep_results=True,
                            cache=store)
        assert (store.hits, store.misses) == (1, 0)
        assert campaign_digest(warm) == campaign_digest(cold)
        assert result_digest(warm[0].result) == cold[0].digest

    def test_unreadable_json_is_a_miss(self, tmp_path):
        store = DirectoryResultStore(tmp_path / "store")
        (tmp_path / "store" / "deadbeef.json").write_text("{not json")
        assert store.get("deadbeef") is None

    @OLD_CORE_ANNOTATIONS
    def test_entry_with_reference_flag_loads_and_hits(self, tmp_path, flag, core):
        """Entries written while a cell could name its simulator core
        carry ``"core"`` (and, older still, ``"reference"``) in their
        JSON, and no ``check``.  They load as the plain cell and a re-run
        replays them."""
        scenario = Scenario(policy="easy", cap_w=CAP)
        cold = run_campaign(CONFIG, [scenario], processes=1,
                            cache=DirectoryResultStore(tmp_path / "store"))
        key = scenario_key(CONFIG, scenario)
        path = tmp_path / "store" / f"{key}.json"
        meta = json.loads(path.read_text())
        del meta["check"]  # those markers predate the checksum
        meta["scenario"] = _annotated(meta["scenario"], flag, core)
        path.write_text(json.dumps(meta, sort_keys=True, separators=(",", ":")))

        store = DirectoryResultStore(tmp_path / "store")
        assert store.get(key).scenario == scenario
        warm = run_campaign(CONFIG, [scenario], processes=1, cache=store)
        assert (store.hits, store.misses) == (2, 0)
        assert campaign_digest(warm) == campaign_digest(cold)

    def test_entry_with_a_null_dvfs_floor_loads_and_hits(self, tmp_path):
        """Entries written while a cell could set its own DVFS floor
        carry ``"dvfs_floor": null`` in their scenario, under a valid
        ``check``.  They load as the plain cell and a re-run replays
        them."""
        from repro.scheduler.cache import _marker_check

        scenario = Scenario(policy="power-aware", cap_w=CAP)
        cold = run_campaign(CONFIG, [scenario], processes=1,
                            cache=DirectoryResultStore(tmp_path / "store"))
        key = scenario_key(CONFIG, scenario)
        path = tmp_path / "store" / f"{key}.json"
        meta = json.loads(path.read_text())
        meta["scenario"]["dvfs_floor"] = None
        meta["check"] = _marker_check(meta)
        path.write_text(json.dumps(meta, sort_keys=True, separators=(",", ":")))

        store = DirectoryResultStore(tmp_path / "store")
        assert store.get(key).scenario == scenario
        warm = run_campaign(CONFIG, [scenario], processes=1, cache=store)
        assert (store.hits, store.misses) == (2, 0)
        assert campaign_digest(warm) == campaign_digest(cold)

    def test_same_key_writers_in_four_processes(self, tmp_path):
        """Four processes put the same two keys while this one keeps
        reading them.  Every read is a miss or the cold run's cell,
        every writer exits 0, and no temp file is left in the root."""
        cold = {scenario_key(CONFIG, s): run_scenario(CONFIG, s).digest
                for s in HAMMER_CELLS}
        root = tmp_path / "store"
        reader = DirectoryResultStore(root)
        ctx = multiprocessing.get_context("spawn")
        writers = [ctx.Process(target=_hammer_writer, args=(str(root),))
                   for _ in range(4)]
        reads = []
        try:
            for writer in writers:
                writer.start()
            deadline = time.monotonic() + 120.0
            while (any(w.is_alive() for w in writers)
                   and time.monotonic() < deadline):
                reads += [(key, reader.get(key)) for key in cold]
            for writer in writers:
                writer.join(timeout=10.0)
        finally:
            for writer in writers:
                if writer.is_alive():
                    writer.terminate()
        assert [w.exitcode for w in writers] == [0] * 4
        reads += [(key, reader.get(key)) for key in cold]
        for key, cell in reads:
            assert cell is None or cell.digest == cold[key]
            if cell is not None and cell.result is not None:
                assert result_digest(cell.result) == cold[key]
        assert all(cell is not None for _, cell in reads[-len(cold):])
        assert not [p.name for p in root.iterdir() if p.name.startswith(".")]

    def test_persists_across_instances(self, tmp_path):
        cell = run_scenario(CONFIG, Scenario(policy="fifo"), keep_result=False)
        key = scenario_key(CONFIG, cell.scenario)
        DirectoryResultStore(tmp_path / "store").put(key, cell)
        again = DirectoryResultStore(tmp_path / "store")
        assert again.get(key).digest == cell.digest
