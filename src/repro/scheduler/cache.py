"""Content-addressed result cache for campaign grids.

The campaign runner already certifies every cell with a SHA-256
``result_digest``; this module turns those digests into a service-grade
memo table.  Two pieces:

* :func:`scenario_key` — a canonical digest of *what a cell computes*
  (machine shape, workload stream, policy/predictor spec, cap,
  outages).  Two specs that would run the identical simulation map to
  the identical key even when they are spelled differently —
  ``budget_w=None`` with a cap vs the budget written out,
  ``"nameplate"`` vs ``"nameplate:2000.0"`` — and cosmetic fields
  (``label``) are excluded.
  The derivation is pure data (sorted-key canonical JSON → SHA-256):
  no ``repr``, no ``id()``, no interpreter hash seed, so keys are
  stable across field reordering, processes, and runs.

* :class:`ResultStore` — a content-addressed map from scenario key to
  :class:`~repro.scheduler.campaign.ScenarioResult`, with an in-memory
  backend (:class:`MemoryResultStore`) and an on-disk one
  (:class:`DirectoryResultStore`: canonical JSON for the spec/QoS/digest,
  checksummed, plus an NPZ sidecar that round-trips the full
  :class:`~repro.scheduler.simulate.SimulationResult` field-by-field).
  ``run_campaign(..., cache=store)`` simulates only novel cells and
  replays hits byte-identical to a cold run — pinned by the cache mode
  of ``tests/diff_harness.py``.  It stores each novel cell before
  ``on_result`` fires, and the on-disk backend writes it crash-atomically
  (payload first, then the JSON marker), so a campaign killed at any
  instant and run again over the same directory replays what it
  completed and reaches the uninterrupted ``campaign_digest``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import zipfile
import zlib
from pathlib import Path
from typing import Any, Iterator, Optional, TYPE_CHECKING

import numpy as np

from ..power.trace import PowerTrace
from .job import Job, JobRecord, JobState
from .simulate import NodeOutage, SimulationResult, resolve_core

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .campaign import CampaignConfig, Scenario, ScenarioResult

__all__ = [
    "KEY_VERSION",
    "scenario_key",
    "config_key",
    "ResultStore",
    "MemoryResultStore",
    "DirectoryResultStore",
]

#: Bump when the key derivation changes — old store entries then miss
#: instead of silently serving results computed under different rules.
KEY_VERSION = 1

#: Default arguments the spec grammar fills in when the ``:<arg>`` part
#: is omitted (must match ``campaign._build_predictor``).
_PREDICTOR_DEFAULTS = {"nameplate": 2000.0, "ridge": 1.0}


# --------------------------------------------------------------------------
# key derivation
# --------------------------------------------------------------------------

def _canonical_predictor(spec: str) -> dict[str, Any]:
    """Parse a predictor spec to (kind, effective argument).

    Default-equivalent spellings collapse: ``"nameplate"``,
    ``"nameplate:2000"`` and ``"nameplate:2000.0"`` all mean the 2 kW
    nameplate predictor and must share a key.
    """
    kind, _, arg = str(spec).partition(":")
    if kind == "oracle":
        return {"kind": "oracle"}
    return {"kind": kind, "arg": float(arg) if arg else _PREDICTOR_DEFAULTS[kind]}


def _canonical_scenario(
    scenario: "Scenario", config: "CampaignConfig"
) -> dict[str, Any]:
    """The semantic content of one cell, independent of its spelling.

    Reads attributes by name (never ``dataclasses.fields`` order), so
    the digest is invariant under field reordering; normalizes every
    default-equivalent spelling to one form; and drops fields that do
    not change the simulation (``label``; ``budget_w``/``predictor``
    for policies that never read them).

    The explorer knob fields follow one extension rule — **inactive
    knobs normalize away** (the entry is simply absent), so a scenario
    that never sets them keeps its pre-knob key and old store entries
    stay valid without a ``KEY_VERSION`` bump:

    * ``backfill_depth`` is dropped for FIFO (no backfill phase reads
      it);
    * ``dvfs_floor`` is dropped when uncapped (the trim never runs, so
      the floor is dead), and when it equals ``config.min_speed``
      (writing the default out explicitly is the same simulation);
    * ``fairshare_decay`` is dropped when ``None`` (no priority
      wrapper).

    Outage tuples sort canonically by ``(at_s, node_id, duration_s)``
    under the same extension rule: the simulator sorts them itself
    before running (``ClusterSimulator.__init__``), so listing order is
    spelling, not semantics — two cells whose outages are permutations
    of each other must share a key.  Already-sorted specs (and every
    spec with at most one outage) keep their pre-fix keys, so
    ``KEY_VERSION`` stays 1 and warmed stores keep hitting.
    """
    policy = str(scenario.policy)
    cap = scenario.cap_w
    entry: dict[str, Any] = {
        "policy": policy,
        "seed_index": int(scenario.seed_index),
        "cap_w": None if cap is None else float(cap),
        "train_fraction": float(scenario.train_fraction),
        # Every cell runs the array core; the entry stays so that no
        # stored key or exploration trace digest moves.
        "core": "array",
        "outages": sorted(
            [float(o.at_s), int(o.node_id), float(o.duration_s)]
            for o in scenario.node_outages
        ),
    }
    if policy == "power-aware":
        budget = scenario.budget_w if scenario.budget_w is not None else cap
        entry["budget_w"] = None if budget is None else float(budget)
        entry["predictor"] = _canonical_predictor(scenario.predictor)
    else:
        # FIFO/EASY never read the budget or the predictor: normalize
        # them away so stray spellings cannot split the cache.
        entry["budget_w"] = None
        entry["predictor"] = None
    depth = scenario.backfill_depth
    if depth is not None and policy != "fifo":
        entry["backfill_depth"] = int(depth)
    floor = scenario.dvfs_floor
    if floor is not None and cap is not None:
        if float(floor) != float(config.min_speed):
            entry["dvfs_floor"] = float(floor)
    if scenario.fairshare_decay is not None:
        entry["fairshare_decay"] = float(scenario.fairshare_decay)
    return entry


def _canonical_config(config: "CampaignConfig") -> dict[str, Any]:
    return {
        "n_nodes": int(config.n_nodes),
        "n_jobs": int(config.n_jobs),
        "root_seed": int(config.root_seed),
        "load_factor": float(config.load_factor),
        "idle_node_power_w": float(config.idle_node_power_w),
        "speed_exponent": float(config.speed_exponent),
        "min_speed": float(config.min_speed),
    }


def _digest_of(payload: dict[str, Any]) -> str:
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def config_key(config: "CampaignConfig") -> str:
    """Canonical digest of the campaign-wide machine/workload shape."""
    return _digest_of({"v": KEY_VERSION, "config": _canonical_config(config)})


def scenario_key(config: "CampaignConfig", scenario: "Scenario") -> str:
    """The content address of one campaign cell.

    Covers everything that determines the cell's
    :class:`SimulationResult` — the full :class:`CampaignConfig`
    (machine shape, workload stream, root seed) and the canonicalized
    scenario (policy, cap, budget, predictor, train split, outages,
    seed index) — and nothing that does not (labels).  Equal keys
    ⇒ byte-identical results; the converse direction (distinct specs ⇒
    distinct keys) is property-tested in ``tests/test_cache.py``.
    """
    return _digest_of({
        "v": KEY_VERSION,
        "config": _canonical_config(config),
        "scenario": _canonical_scenario(scenario, config),
    })


# --------------------------------------------------------------------------
# result (de)serialization for the on-disk backend
# --------------------------------------------------------------------------

def _scenario_to_dict(scenario: "Scenario") -> dict[str, Any]:
    """The literal (non-canonicalized) spec, for faithful reconstruction."""
    return {
        "policy": scenario.policy,
        "cap_w": scenario.cap_w,
        "seed_index": scenario.seed_index,
        "budget_w": scenario.budget_w,
        "predictor": scenario.predictor,
        "train_fraction": scenario.train_fraction,
        "node_outages": [
            [o.at_s, o.node_id, o.duration_s] for o in scenario.node_outages
        ],
        "backfill_depth": scenario.backfill_depth,
        "dvfs_floor": scenario.dvfs_floor,
        "fairshare_decay": scenario.fairshare_decay,
        "label": scenario.label,
    }


def _scenario_from_dict(data: dict[str, Any]) -> "Scenario":
    from .campaign import Scenario

    fields = dict(data)
    # Entries written while a cell could pick its simulator carry a
    # ``core`` name (older ones a ``reference`` flag).  The cores are
    # digest-identical, so any valid name loads as the plain cell.
    fields.pop("reference", None)
    resolve_core(fields.pop("core", None))
    fields["node_outages"] = tuple(
        NodeOutage(at_s=o[0], node_id=o[1], duration_s=o[2])
        for o in fields.get("node_outages", [])
    )
    return Scenario(**fields)


def _str_array(values: list[str]) -> np.ndarray:
    return np.array(values) if values else np.zeros(0, dtype="U1")


def _optional_array(values: list[Optional[float]]) -> tuple[np.ndarray, np.ndarray]:
    """(values-with-0.0-holes, presence mask) — None survives exactly."""
    mask = np.array([v is not None for v in values], dtype=bool)
    filled = np.array([0.0 if v is None else float(v) for v in values], dtype=float)
    return filled, mask


def _result_to_arrays(result: SimulationResult) -> dict[str, np.ndarray]:
    """Flatten a SimulationResult into named arrays (NPZ-safe dtypes).

    Every Job and JobRecord field is carried — including ones outside
    the digest, like ``predicted_power_w`` — so a disk round-trip is
    field-by-field identical, not merely digest-identical.
    """
    records = result.records
    jobs = [r.job for r in records]
    start, has_start = _optional_array([r.start_time_s for r in records])
    end, has_end = _optional_array([r.end_time_s for r in records])
    pred, has_pred = _optional_array([r.predicted_power_w for r in records])
    nodes_flat: list[int] = []
    nodes_off = [0]
    for r in records:
        nodes_flat.extend(r.nodes)
        nodes_off.append(len(nodes_flat))
    return {
        # -- job submission fields + hidden ground truth --
        "job_id": np.array([j.job_id for j in jobs], dtype=np.int64),
        "job_user": _str_array([j.user for j in jobs]),
        "job_app": _str_array([j.app for j in jobs]),
        "job_n_nodes": np.array([j.n_nodes for j in jobs], dtype=np.int64),
        "job_walltime_req_s": np.array([j.walltime_req_s for j in jobs], dtype=float),
        "job_submit_time_s": np.array([j.submit_time_s for j in jobs], dtype=float),
        "job_threads": np.array([j.threads_per_rank for j in jobs], dtype=np.int64),
        "job_uses_gpus": np.array([j.uses_gpus for j in jobs], dtype=bool),
        "job_true_runtime_s": np.array([j.true_runtime_s for j in jobs], dtype=float),
        "job_true_power_per_node_w": np.array(
            [j.true_power_per_node_w for j in jobs], dtype=float),
        # -- execution record fields --
        "rec_state": _str_array([r.state.value for r in records]),
        "rec_start_s": start, "rec_has_start": has_start,
        "rec_end_s": end, "rec_has_end": has_end,
        "rec_predicted_w": pred, "rec_has_predicted": has_pred,
        "rec_energy_j": np.array([r.energy_j for r in records], dtype=float),
        "rec_stretch": np.array([r.stretch for r in records], dtype=float),
        "rec_requeues": np.array([r.requeues for r in records], dtype=np.int64),
        "rec_elapsed_running_s": np.array(
            [r.elapsed_running_s for r in records], dtype=float),
        "rec_work_progressed_s": np.array(
            [r.work_progressed_s for r in records], dtype=float),
        "rec_nodes_flat": np.array(nodes_flat, dtype=np.int64),
        "rec_nodes_offsets": np.array(nodes_off, dtype=np.int64),
        # -- trace + result scalars --
        "trace_times_s": np.ascontiguousarray(result.power_trace.times_s),
        "trace_power_w": np.ascontiguousarray(result.power_trace.power_w),
        "makespan_s": np.float64(result.makespan_s),
        "total_energy_j": np.float64(result.total_energy_j),
        "cap_w": np.float64(0.0 if result.cap_w is None else result.cap_w),
        "has_cap": np.bool_(result.cap_w is not None),
        "overdemand_s": np.float64(result.overdemand_s),
        "utilization": np.float64(result.utilization),
        "n_requeues": np.int64(result.n_requeues),
    }


def _result_from_arrays(data: dict[str, np.ndarray]) -> SimulationResult:
    """Rebuild a SimulationResult from :func:`_result_to_arrays` output.

    ``data`` maps names to arrays already read, never a lazy ``NpzFile``,
    where each lookup re-reads and re-inflates the member from the zip.
    The records are built from ``.tolist()`` columns, so every field is
    a plain Python ``int``/``float``/``str``/``bool``, never a NumPy
    scalar.
    """
    col = {name: column.tolist() for name, column in data.items()
           if name.startswith(("job_", "rec_"))}
    nodes_flat, off = col["rec_nodes_flat"], col["rec_nodes_offsets"]
    records = []
    for i in range(len(col["job_id"])):
        job = Job(
            job_id=col["job_id"][i],
            user=col["job_user"][i],
            app=col["job_app"][i],
            n_nodes=col["job_n_nodes"][i],
            walltime_req_s=col["job_walltime_req_s"][i],
            submit_time_s=col["job_submit_time_s"][i],
            threads_per_rank=col["job_threads"][i],
            uses_gpus=col["job_uses_gpus"][i],
            true_runtime_s=col["job_true_runtime_s"][i],
            true_power_per_node_w=col["job_true_power_per_node_w"][i],
        )
        records.append(JobRecord(
            job=job,
            state=JobState(col["rec_state"][i]),
            start_time_s=col["rec_start_s"][i] if col["rec_has_start"][i] else None,
            end_time_s=col["rec_end_s"][i] if col["rec_has_end"][i] else None,
            nodes=tuple(nodes_flat[off[i]:off[i + 1]]),
            energy_j=col["rec_energy_j"][i],
            predicted_power_w=(
                col["rec_predicted_w"][i] if col["rec_has_predicted"][i] else None),
            stretch=col["rec_stretch"][i],
            requeues=col["rec_requeues"][i],
            elapsed_running_s=col["rec_elapsed_running_s"][i],
            work_progressed_s=col["rec_work_progressed_s"][i],
        ))
    return SimulationResult(
        records=tuple(records),
        power_trace=PowerTrace(
            np.asarray(data["trace_times_s"], dtype=float),
            np.asarray(data["trace_power_w"], dtype=float),
        ),
        makespan_s=float(data["makespan_s"]),
        total_energy_j=float(data["total_energy_j"]),
        cap_w=float(data["cap_w"]) if data["has_cap"] else None,
        overdemand_s=float(data["overdemand_s"]),
        utilization=float(data["utilization"]),
        n_requeues=int(data["n_requeues"]),
    )


# --------------------------------------------------------------------------
# stores
# --------------------------------------------------------------------------

def _marker_json(meta: dict[str, Any]) -> str:
    return json.dumps(meta, sort_keys=True, separators=(",", ":"))


def _marker_check(meta: dict[str, Any]) -> str:
    """SHA-256 of a store marker's fields other than ``check``."""
    fields = {name: value for name, value in meta.items() if name != "check"}
    return hashlib.sha256(_marker_json(fields).encode("utf-8")).hexdigest()


class ResultStore:
    """Content-addressed map: scenario key → :class:`ScenarioResult`.

    Subclasses implement ``_load``/``_store``/``keys``; the base class
    keeps hit/miss accounting.  ``get`` returns ``None`` on a miss —
    callers decide whether a payload-less hit satisfies them (see
    ``run_campaign(keep_results=True)``).
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    # -- backend hooks ------------------------------------------------------
    def _load(self, key: str) -> Optional["ScenarioResult"]:
        raise NotImplementedError

    def _store(self, key: str, cell: "ScenarioResult") -> None:
        raise NotImplementedError

    def keys(self) -> Iterator[str]:
        raise NotImplementedError

    # -- public surface -----------------------------------------------------
    def get(self, key: str) -> Optional["ScenarioResult"]:
        cell = self._load(key)
        if cell is None:
            self.misses += 1
        else:
            self.hits += 1
        return cell

    def put(self, key: str, cell: "ScenarioResult") -> None:
        """Store ``cell`` under ``key`` (idempotent, upgrade-friendly).

        A payload-less cell never clobbers a stored payload-carrying one
        for the same key — merging a metrics-only pass over a warmed
        store must not lose data.
        """
        if cell.result is None:
            existing = self._load(key)
            if existing is not None and existing.result is not None:
                if existing.digest != cell.digest:
                    raise ValueError(
                        f"conflicting digests for key {key[:16]}…: "
                        f"{existing.digest[:16]}… vs {cell.digest[:16]}…"
                    )
                return
        self._store(key, cell)

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())


class MemoryResultStore(ResultStore):
    """Process-local dict backend — the zero-cost default for services."""

    def __init__(self) -> None:
        super().__init__()
        self._cells: dict[str, "ScenarioResult"] = {}

    def _load(self, key: str) -> Optional["ScenarioResult"]:
        return self._cells.get(key)

    def _store(self, key: str, cell: "ScenarioResult") -> None:
        self._cells[key] = cell

    def keys(self) -> Iterator[str]:
        return iter(list(self._cells))


class DirectoryResultStore(ResultStore):
    """On-disk backend: ``<key>.json`` (spec/QoS/digest) + ``<key>.npz``.

    Writes are crash-safe by ordering: the NPZ payload lands first, the
    JSON marker last, each via write-to-temp + :func:`os.replace` — an
    entry whose JSON exists is complete.  The marker's ``check`` field
    is the SHA-256 of its other fields in the canonical JSON it is
    written in, and every load recomputes it and the payload digest.  A
    marker whose ``check`` does not match, a payload that is missing,
    unreadable or does not match its digest, and a marker that parses
    but is not a JSON object, lacks a field or holds a spec
    :class:`Scenario` refuses, raise a ``ValueError`` naming the entry
    and the damaged file; a marker that does not parse is a miss.  A
    marker without ``check`` (written before the field existed) loads
    unchecked.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        super().__init__()
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _json_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _npz_path(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    @staticmethod
    def _atomic_write(path: Path, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _store(self, key: str, cell: "ScenarioResult") -> None:
        has_payload = cell.result is not None
        if has_payload:
            buf = io.BytesIO()
            np.savez_compressed(buf, **_result_to_arrays(cell.result))
            self._atomic_write(self._npz_path(key), buf.getvalue())
        meta = {
            "v": KEY_VERSION,
            "scenario": _scenario_to_dict(cell.scenario),
            "qos": cell.qos,
            "digest": cell.digest,
            "payload": has_payload,
        }
        meta["check"] = _marker_check(meta)
        self._atomic_write(self._json_path(key), _marker_json(meta).encode("utf-8"))

    def _load(self, key: str) -> Optional["ScenarioResult"]:
        from .campaign import ScenarioResult, result_digest

        path = self._json_path(key)
        try:
            meta = json.loads(path.read_text("utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(meta, dict):
            raise ValueError(
                f"corrupt store entry {key[:16]}…: marker {path} holds a JSON "
                f"{type(meta).__name__}, not an object"
            )
        if meta.get("v") != KEY_VERSION:
            return None
        if "check" in meta and meta["check"] != _marker_check(meta):
            raise ValueError(
                f"corrupt store entry {key[:16]}…: marker checksum does not "
                f"match its fields ({path})"
            )
        try:
            scenario = _scenario_from_dict(meta["scenario"])
            qos, digest = dict(meta["qos"]), meta["digest"]
            has_payload = meta["payload"]
        except (LookupError, TypeError, ValueError) as exc:
            raise ValueError(
                f"corrupt store entry {key[:16]}…: unusable marker {path} ({exc!r})"
            ) from exc
        result = None
        if has_payload:
            npz_path = self._npz_path(key)
            try:
                with np.load(npz_path) as npz:
                    data = {name: npz[name] for name in npz.files}
                result = _result_from_arrays(data)
            except (OSError, EOFError, KeyError, ValueError, NotImplementedError,
                    zipfile.BadZipFile, zlib.error) as exc:
                raise ValueError(
                    f"corrupt store entry {key[:16]}…: cannot read its payload "
                    f"{npz_path} ({exc!r})"
                ) from exc
            if result_digest(result) != digest:
                raise ValueError(
                    f"corrupt store entry {key[:16]}…: payload digest does not "
                    f"match its recorded digest ({path})"
                )
        return ScenarioResult(scenario=scenario, qos=qos, digest=digest, result=result)

    def keys(self) -> Iterator[str]:
        for path in sorted(self.root.glob("*.json")):
            yield path.stem
