"""Typed sections of a runtime config file.

A config file is a tree of tables (TOML) or objects (JSON); every table
maps onto one frozen dataclass here, parsed by its ``from_dict``
classmethod.  Parsing is strict on *names* — an unknown key or section
raises through :func:`reject_unknown_kwargs`, so the error lists every
misspelling at once *and* the known fields — and
strict on *types* (TOML already distinguishes ints, floats, booleans
and strings; JSON configs are held to the same rules).

Component names are validated against the construction registries
(:data:`~repro.scheduler.registries.POLICY_REGISTRY`,
:data:`~repro.scheduler.registries.WORKLOAD_REGISTRY`,
:data:`~repro.scheduler.registries.SEARCHER_REGISTRY`), so a policy or
searcher registered by third-party code is immediately addressable from
a config file, and a typo'd name fails naming everything registered.

``to_dict`` is the inverse: the *canonical* plain-data form, with
``None``-valued knobs and empty collections omitted (TOML has no null)
and default-equal optional sections dropped.  ``from_dict ∘ to_dict``
is the identity on parsed configs — the fixed point
``tests/test_runtime.py`` pins.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from ..scheduler.campaign import QOS_METRICS, Scenario
from ..scheduler.registries import (
    POLICY_REGISTRY,
    SEARCHER_REGISTRY,
    WORKLOAD_REGISTRY,
)
from ..scheduler.simulate import NodeOutage, resolve_core

__all__ = [
    "KINDS",
    "ConfigError",
    "RuntimeSection",
    "MachineSection",
    "WorkloadSection",
    "PolicySection",
    "CapSection",
    "OutageSpec",
    "ObservabilitySection",
    "LiveSection",
    "CellSpec",
    "CampaignSection",
    "KnobSpec",
    "ObjectiveSpec",
    "ExplorationSection",
    "RuntimeConfig",
]

#: What a config file may ask ``build()`` for.
KINDS = ("live", "campaign", "exploration")

#: Knob domain spellings understood by ``[exploration.space.<name>]``.
KNOB_TYPES = ("continuous", "integer", "categorical")

_SCENARIO_FIELDS = tuple(f.name for f in dataclasses.fields(Scenario))


class ConfigError(ValueError):
    """A config file failed validation (bad value, type, or shape)."""


# --------------------------------------------------------------------------
# parse helpers
# --------------------------------------------------------------------------

def reject_unknown_kwargs(
    owner: str, kwargs: dict[str, Any], known: Sequence[str] = ()
) -> None:
    """Raise the usual TypeError for unknown keyword names.

    Every unknown name is reported, in sorted order — a file with three
    typos gets all three back at once instead of one arbitrary pick per
    retry.  ``known`` optionally names the accepted spellings in the
    message.  The wording matches Python's own unexpected-keyword error,
    so CLI and Python callers read the same error shape.
    """
    if not kwargs:
        return
    names = ", ".join(repr(name) for name in sorted(kwargs))
    if len(kwargs) > 1:
        message = f"{owner}() got unexpected keyword arguments {names}"
    else:
        message = f"{owner}() got an unexpected keyword argument {names}"
    if known:
        message += f" (known: {', '.join(sorted(known))})"
    raise TypeError(message)


def _require_table(where: str, value: Any) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ConfigError(
            f"[{where}] must be a table, got {type(value).__name__}"
        )
    return value


def _check_keys(where: str, data: Mapping[str, Any], known: tuple) -> None:
    """Unknown keys raise a TypeError naming each one and the known keys."""
    unknown = {k: data[k] for k in data if k not in known}
    reject_unknown_kwargs(where, unknown, known=known)


def _bad(where: str, name: str, want: str, value: Any) -> ConfigError:
    return ConfigError(f"{where}.{name} must be {want}, got {value!r}")


def _as_str(where: str, name: str, value: Any) -> str:
    if not isinstance(value, str):
        raise _bad(where, name, "a string", value)
    return value


def _as_bool(where: str, name: str, value: Any) -> bool:
    if not isinstance(value, bool):
        raise _bad(where, name, "a boolean", value)
    return value


def _as_int(where: str, name: str, value: Any) -> int:
    # bool is an int subclass; a config saying ``n_nodes = true`` is a bug.
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(where, name, "an integer", value)
    return int(value)


def _as_float(where: str, name: str, value: Any) -> float:
    # TOML spells nan and inf; no knob means anything by them, and a NaN
    # slips past every ``<=`` range check downstream.
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise _bad(where, name, "a finite number", value)
    return float(value)


def _as_scalar(where: str, name: str, value: Any) -> Any:
    if isinstance(value, bool) or isinstance(value, (str, int, float)):
        return value
    raise _bad(where, name, "a scalar (string, number or boolean)", value)


def _require(where: str, data: Mapping[str, Any], name: str) -> Any:
    if name not in data:
        raise ConfigError(f"[{where}] needs a {name!r} key")
    return data[name]


def _check_policy_name(where: str, name: str) -> str:
    if name not in POLICY_REGISTRY:
        raise ConfigError(
            f"{where}: unknown policy {name!r}; "
            f"registered: {POLICY_REGISTRY.names()}"
        )
    return name


def _check_core(where: str, name: str) -> str:
    try:
        return resolve_core(name)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _clean(value: Any) -> Any:
    """Drop ``None`` / empty-string / empty-sequence values from tables.

    TOML cannot spell null, so the canonical form simply omits unset
    knobs; ``from_dict`` restores them as their defaults.  Empty tables
    inside arrays are kept — an all-defaults campaign cell is still a
    grid cell.
    """
    if isinstance(value, Mapping):
        out = {}
        for key, v in value.items():
            v = _clean(v)
            if v is None or (isinstance(v, (str, list, tuple, dict))
                             and not v):
                continue
            out[key] = v
        return out
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return value


# --------------------------------------------------------------------------
# sections
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RuntimeSection:
    """``[runtime]`` — what this file describes."""

    kind: str
    name: str = ""
    description: str = ""

    _KEYS = ("kind", "name", "description")

    @classmethod
    def from_dict(cls, data: Any, where: str = "runtime") -> "RuntimeSection":
        data = _require_table(where, data)
        _check_keys(where, data, cls._KEYS)
        kind = _as_str(where, "kind", _require(where, data, "kind"))
        if kind not in KINDS:
            raise ConfigError(
                f"{where}.kind must be one of {KINDS}, got {kind!r}"
            )
        return cls(
            kind=kind,
            name=_as_str(where, "name", data.get("name", "")),
            description=_as_str(where, "description",
                                data.get("description", "")),
        )

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "name": self.name,
                "description": self.description}


@dataclass(frozen=True)
class MachineSection:
    """``[machine]`` — the cluster shape and its power model knobs."""

    n_nodes: int
    idle_node_power_w: float = 300.0
    speed_exponent: float = 0.75
    min_speed: float = 0.3

    _KEYS = ("n_nodes", "idle_node_power_w", "speed_exponent", "min_speed")

    @classmethod
    def from_dict(cls, data: Any, where: str = "machine") -> "MachineSection":
        data = _require_table(where, data)
        _check_keys(where, data, cls._KEYS)
        n_nodes = _as_int(where, "n_nodes", _require(where, data, "n_nodes"))
        if n_nodes < 1:
            raise ConfigError(f"{where}.n_nodes must be positive")
        min_speed = _as_float(where, "min_speed", data.get("min_speed", 0.3))
        if not 0.0 < min_speed <= 1.0:
            raise ConfigError(f"{where}.min_speed must lie in (0, 1]")
        return cls(
            n_nodes=n_nodes,
            idle_node_power_w=_as_float(where, "idle_node_power_w",
                                        data.get("idle_node_power_w", 300.0)),
            speed_exponent=_as_float(where, "speed_exponent",
                                     data.get("speed_exponent", 0.75)),
            min_speed=min_speed,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_nodes": self.n_nodes,
            "idle_node_power_w": self.idle_node_power_w,
            "speed_exponent": self.speed_exponent,
            "min_speed": self.min_speed,
        }


@dataclass(frozen=True)
class WorkloadSection:
    """``[workload]`` — the job stream: generator name, size, seed."""

    generator: str = "davide"
    n_jobs: int = 100
    load_factor: float = 0.85
    seed: int = 0

    _KEYS = ("generator", "n_jobs", "load_factor", "seed")

    @classmethod
    def from_dict(cls, data: Any, where: str = "workload") -> "WorkloadSection":
        data = _require_table(where, data)
        _check_keys(where, data, cls._KEYS)
        generator = _as_str(where, "generator", data.get("generator", "davide"))
        if generator not in WORKLOAD_REGISTRY:
            raise ConfigError(
                f"{where}.generator: unknown workload {generator!r}; "
                f"registered: {WORKLOAD_REGISTRY.names()}"
            )
        n_jobs = _as_int(where, "n_jobs", data.get("n_jobs", 100))
        if n_jobs < 1:
            raise ConfigError(f"{where}.n_jobs must be positive")
        load_factor = _as_float(where, "load_factor",
                                data.get("load_factor", 0.85))
        if load_factor <= 0.0:
            raise ConfigError(f"{where}.load_factor must be positive")
        return cls(
            generator=generator,
            n_jobs=n_jobs,
            load_factor=load_factor,
            seed=_as_int(where, "seed", data.get("seed", 0)),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "generator": self.generator,
            "n_jobs": self.n_jobs,
            "load_factor": self.load_factor,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class PolicySection:
    """``[policy]`` — scheduling defaults every campaign cell inherits."""

    name: str = "fifo"
    predictor: str = "oracle"
    train_fraction: float = 0.0
    backfill_depth: Optional[int] = None
    dvfs_floor: Optional[float] = None
    fairshare_decay: Optional[float] = None

    _KEYS = ("name", "predictor", "train_fraction", "backfill_depth",
             "dvfs_floor", "fairshare_decay")

    @classmethod
    def from_dict(cls, data: Any, where: str = "policy") -> "PolicySection":
        data = _require_table(where, data)
        _check_keys(where, data, cls._KEYS)
        name = _check_policy_name(
            f"{where}.name", _as_str(where, "name", data.get("name", "fifo"))
        )
        depth = data.get("backfill_depth")
        floor = data.get("dvfs_floor")
        decay = data.get("fairshare_decay")
        return cls(
            name=name,
            predictor=_as_str(where, "predictor",
                              data.get("predictor", "oracle")),
            train_fraction=_as_float(where, "train_fraction",
                                     data.get("train_fraction", 0.0)),
            backfill_depth=(None if depth is None
                            else _as_int(where, "backfill_depth", depth)),
            dvfs_floor=(None if floor is None
                        else _as_float(where, "dvfs_floor", floor)),
            fairshare_decay=(None if decay is None
                             else _as_float(where, "fairshare_decay", decay)),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "predictor": self.predictor,
            "train_fraction": self.train_fraction,
            "backfill_depth": self.backfill_depth,
            "dvfs_floor": self.dvfs_floor,
            "fairshare_decay": self.fairshare_decay,
        }


@dataclass(frozen=True)
class CapSection:
    """``[cap]`` — the power envelope.

    ``cap_w``/``budget_w`` are the reactive/proactive ceilings campaign
    cells inherit; ``hysteresis_w``/``actuation_delay_s`` shape the
    per-node capping agents of a live cluster.
    """

    cap_w: Optional[float] = None
    budget_w: Optional[float] = None
    hysteresis_w: float = 25.0
    actuation_delay_s: float = 0.01

    _KEYS = ("cap_w", "budget_w", "hysteresis_w", "actuation_delay_s")

    @classmethod
    def from_dict(cls, data: Any, where: str = "cap") -> "CapSection":
        data = _require_table(where, data)
        _check_keys(where, data, cls._KEYS)
        cap = data.get("cap_w")
        budget = data.get("budget_w")
        return cls(
            cap_w=None if cap is None else _as_float(where, "cap_w", cap),
            budget_w=(None if budget is None
                      else _as_float(where, "budget_w", budget)),
            hysteresis_w=_as_float(where, "hysteresis_w",
                                   data.get("hysteresis_w", 25.0)),
            actuation_delay_s=_as_float(where, "actuation_delay_s",
                                        data.get("actuation_delay_s", 0.01)),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "cap_w": self.cap_w,
            "budget_w": self.budget_w,
            "hysteresis_w": self.hysteresis_w,
            "actuation_delay_s": self.actuation_delay_s,
        }


@dataclass(frozen=True)
class OutageSpec:
    """One ``[[outage]]`` entry: a node failure + repair window."""

    at_s: float
    node_id: int
    duration_s: float

    _KEYS = ("at_s", "node_id", "duration_s")

    @classmethod
    def from_dict(cls, data: Any, where: str = "outage") -> "OutageSpec":
        data = _require_table(where, data)
        _check_keys(where, data, cls._KEYS)
        spec = cls(
            at_s=_as_float(where, "at_s", _require(where, data, "at_s")),
            node_id=_as_int(where, "node_id", _require(where, data, "node_id")),
            duration_s=_as_float(where, "duration_s",
                                 _require(where, data, "duration_s")),
        )
        try:
            spec.to_outage()
        except ValueError as exc:
            raise ConfigError(f"[{where}]: {exc}") from None
        return spec

    def to_outage(self) -> NodeOutage:
        return NodeOutage(at_s=self.at_s, node_id=self.node_id,
                          duration_s=self.duration_s)

    def to_dict(self) -> dict[str, Any]:
        return {"at_s": self.at_s, "node_id": self.node_id,
                "duration_s": self.duration_s}


@dataclass(frozen=True)
class ObservabilitySection:
    """``[observability]`` — metrics + tracing for the built artifact."""

    enabled: bool = False
    max_spans: int = 65536

    _KEYS = ("enabled", "max_spans")

    @classmethod
    def from_dict(cls, data: Any,
                  where: str = "observability") -> "ObservabilitySection":
        data = _require_table(where, data)
        _check_keys(where, data, cls._KEYS)
        max_spans = _as_int(where, "max_spans", data.get("max_spans", 65536))
        if max_spans < 1:
            raise ConfigError(f"{where}.max_spans must be positive")
        return cls(
            enabled=_as_bool(where, "enabled", data.get("enabled", False)),
            max_spans=max_spans,
        )

    def to_dict(self) -> dict[str, Any]:
        return {"enabled": self.enabled, "max_spans": self.max_spans}


@dataclass(frozen=True)
class LiveSection:
    """``[live]`` — kernel run length and telemetry plane knobs."""

    until_s: float = 10.0
    period_s: float = 0.1
    sensor_noise_w: float = 2.0
    batched: bool = False
    seed: int = 0

    _KEYS = ("until_s", "period_s", "sensor_noise_w", "batched", "seed")

    @classmethod
    def from_dict(cls, data: Any, where: str = "live") -> "LiveSection":
        data = _require_table(where, data)
        _check_keys(where, data, cls._KEYS)
        until_s = _as_float(where, "until_s", data.get("until_s", 10.0))
        period_s = _as_float(where, "period_s", data.get("period_s", 0.1))
        if until_s <= 0.0 or period_s <= 0.0:
            raise ConfigError(f"{where}: until_s and period_s must be positive")
        return cls(
            until_s=until_s,
            period_s=period_s,
            sensor_noise_w=_as_float(where, "sensor_noise_w",
                                     data.get("sensor_noise_w", 2.0)),
            batched=_as_bool(where, "batched", data.get("batched", False)),
            seed=_as_int(where, "seed", data.get("seed", 0)),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "until_s": self.until_s,
            "period_s": self.period_s,
            "sensor_noise_w": self.sensor_noise_w,
            "batched": self.batched,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class CellSpec:
    """One ``[[campaign.cells]]`` entry — a partial scenario.

    Unset knobs (``None``) inherit from ``[policy]`` / ``[cap]`` /
    ``[[outage]]`` / ``campaign.core`` at build time; there is no
    per-cell spelling for "force the inherited knob back off", so leave
    the section default unset when some cells need the knob off.
    """

    label: str = ""
    policy: Optional[str] = None
    cap_w: Optional[float] = None
    budget_w: Optional[float] = None
    predictor: Optional[str] = None
    train_fraction: Optional[float] = None
    backfill_depth: Optional[int] = None
    dvfs_floor: Optional[float] = None
    fairshare_decay: Optional[float] = None
    core: Optional[str] = None
    outages: tuple[OutageSpec, ...] = ()

    _KEYS = ("label", "policy", "cap_w", "budget_w", "predictor",
             "train_fraction", "backfill_depth", "dvfs_floor",
             "fairshare_decay", "core", "outages")

    @classmethod
    def from_dict(cls, data: Any, where: str = "campaign.cells") -> "CellSpec":
        data = _require_table(where, data)
        _check_keys(where, data, cls._KEYS)

        def opt(name: str, conv) -> Any:
            value = data.get(name)
            return None if value is None else conv(where, name, value)

        policy = opt("policy", _as_str)
        if policy is not None:
            _check_policy_name(f"{where}.policy", policy)
        core = opt("core", _as_str)
        if core is not None:
            _check_core(f"{where}.core", core)
        raw_outages = data.get("outages", [])
        if not isinstance(raw_outages, (list, tuple)):
            raise _bad(where, "outages", "an array of tables", raw_outages)
        outages = tuple(
            OutageSpec.from_dict(o, where=f"{where}.outages[{i}]")
            for i, o in enumerate(raw_outages)
        )
        return cls(
            label=_as_str(where, "label", data.get("label", "")),
            policy=policy,
            cap_w=opt("cap_w", _as_float),
            budget_w=opt("budget_w", _as_float),
            predictor=opt("predictor", _as_str),
            train_fraction=opt("train_fraction", _as_float),
            backfill_depth=opt("backfill_depth", _as_int),
            dvfs_floor=opt("dvfs_floor", _as_float),
            fairshare_decay=opt("fairshare_decay", _as_float),
            core=core,
            outages=outages,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "policy": self.policy,
            "cap_w": self.cap_w,
            "budget_w": self.budget_w,
            "predictor": self.predictor,
            "train_fraction": self.train_fraction,
            "backfill_depth": self.backfill_depth,
            "dvfs_floor": self.dvfs_floor,
            "fairshare_decay": self.fairshare_decay,
            "core": self.core,
            "outages": [o.to_dict() for o in self.outages],
        }


@dataclass(frozen=True)
class CampaignSection:
    """``[campaign]`` — the seed list and the cell grid.

    ``build()`` enumerates the grid seed-outer / cell-inner (every cell
    at seed 0, then every cell at seed 1, ...) — the same order the
    bench ``campaign_grid()`` helpers use, so zoo configs digest
    identically to their hand-wired twins.
    """

    cells: tuple[CellSpec, ...]
    seeds: tuple[int, ...] = (0,)
    core: Optional[str] = None

    _KEYS = ("cells", "seeds", "core")

    @classmethod
    def from_dict(cls, data: Any, where: str = "campaign") -> "CampaignSection":
        data = _require_table(where, data)
        _check_keys(where, data, cls._KEYS)
        raw_cells = _require(where, data, "cells")
        if not isinstance(raw_cells, (list, tuple)) or not raw_cells:
            raise ConfigError(
                f"{where}.cells must be a non-empty array of tables "
                f"([[campaign.cells]])"
            )
        cells = tuple(
            CellSpec.from_dict(c, where=f"{where}.cells[{i}]")
            for i, c in enumerate(raw_cells)
        )
        raw_seeds = data.get("seeds", [0])
        if not isinstance(raw_seeds, (list, tuple)) or not raw_seeds:
            raise _bad(where, "seeds", "a non-empty array of integers",
                       raw_seeds)
        seeds = tuple(
            _as_int(where, f"seeds[{i}]", s) for i, s in enumerate(raw_seeds)
        )
        core = data.get("core")
        if core is not None:
            core = _check_core(f"{where}.core",
                               _as_str(where, "core", core))
        return cls(cells=cells, seeds=seeds, core=core)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seeds": list(self.seeds),
            "core": self.core,
            "cells": [c.to_dict() for c in self.cells],
        }


@dataclass(frozen=True)
class KnobSpec:
    """One ``[exploration.space.<name>]`` knob domain."""

    type: str
    lo: Optional[float] = None
    hi: Optional[float] = None
    choices: tuple[Any, ...] = ()

    _KEYS = ("type", "lo", "hi", "choices")

    @classmethod
    def from_dict(cls, data: Any, where: str = "exploration.space") -> "KnobSpec":
        data = _require_table(where, data)
        _check_keys(where, data, cls._KEYS)
        kind = _as_str(where, "type", _require(where, data, "type"))
        if kind not in KNOB_TYPES:
            raise ConfigError(
                f"{where}.type must be one of {KNOB_TYPES}, got {kind!r}"
            )
        if kind == "categorical":
            if "lo" in data or "hi" in data:
                raise ConfigError(
                    f"{where}: categorical knobs take 'choices', not lo/hi"
                )
            raw = _require(where, data, "choices")
            if not isinstance(raw, (list, tuple)) or not raw:
                raise _bad(where, "choices", "a non-empty array", raw)
            choices = tuple(
                _as_scalar(where, f"choices[{i}]", c)
                for i, c in enumerate(raw)
            )
            return cls(type=kind, choices=choices)
        if "choices" in data:
            raise ConfigError(
                f"{where}: {kind} knobs take lo/hi, not 'choices'"
            )
        number = _as_int if kind == "integer" else _as_float
        lo = number(where, "lo", _require(where, data, "lo"))
        hi = number(where, "hi", _require(where, data, "hi"))
        if (kind == "continuous" and not lo < hi) or (
                kind == "integer" and not lo <= hi):
            raise ConfigError(f"{where}: empty range [lo={lo}, hi={hi}]")
        return cls(type=kind, lo=lo, hi=hi)

    def to_dict(self) -> dict[str, Any]:
        return {"type": self.type, "lo": self.lo, "hi": self.hi,
                "choices": list(self.choices)}


@dataclass(frozen=True)
class ObjectiveSpec:
    """``[exploration.objective]`` — QoS metrics, weights, and sense."""

    metrics: tuple[str, ...]
    weights: tuple[float, ...] = ()
    sense: str = "min"
    name: str = ""

    _KEYS = ("metrics", "weights", "sense", "name")

    @classmethod
    def from_dict(cls, data: Any,
                  where: str = "exploration.objective") -> "ObjectiveSpec":
        data = _require_table(where, data)
        _check_keys(where, data, cls._KEYS)
        raw_metrics = _require(where, data, "metrics")
        if not isinstance(raw_metrics, (list, tuple)) or not raw_metrics:
            raise _bad(where, "metrics", "a non-empty array of metric names",
                       raw_metrics)
        metrics = tuple(
            _as_str(where, f"metrics[{i}]", m)
            for i, m in enumerate(raw_metrics)
        )
        unknown = [m for m in metrics if m not in QOS_METRICS]
        if unknown:
            raise ConfigError(
                f"{where}.metrics: unknown metric(s) {unknown}; "
                f"known: {QOS_METRICS}"
            )
        raw_weights = data.get("weights", [])
        if not isinstance(raw_weights, (list, tuple)):
            raise _bad(where, "weights", "an array of numbers", raw_weights)
        weights = tuple(
            _as_float(where, f"weights[{i}]", w)
            for i, w in enumerate(raw_weights)
        )
        if weights and len(weights) != len(metrics):
            raise ConfigError(
                f"{where}: need one weight per metric (or none at all)"
            )
        sense = _as_str(where, "sense", data.get("sense", "min"))
        if sense not in ("min", "max"):
            raise ConfigError(f"{where}.sense must be 'min' or 'max'")
        return cls(metrics=metrics, weights=weights, sense=sense,
                   name=_as_str(where, "name", data.get("name", "")))

    def to_dict(self) -> dict[str, Any]:
        return {
            "metrics": list(self.metrics),
            "weights": list(self.weights),
            "sense": self.sense,
            "name": self.name,
        }


@dataclass(frozen=True)
class ExplorationSection:
    """``[exploration]`` — searcher, budget, knob space, objective, base."""

    space: tuple[tuple[str, KnobSpec], ...]
    objective: ObjectiveSpec
    searcher: str = "random"
    budget: int = 16
    seed: int = 0
    #: Fixed scenario fields merged under every evaluated point,
    #: kept as ordered pairs (tables stay order-stable through dump).
    base: tuple[tuple[str, Any], ...] = ()

    _KEYS = ("space", "objective", "searcher", "budget", "seed", "base")

    @classmethod
    def from_dict(cls, data: Any,
                  where: str = "exploration") -> "ExplorationSection":
        data = _require_table(where, data)
        _check_keys(where, data, cls._KEYS)

        searcher = _as_str(where, "searcher", data.get("searcher", "random"))
        import repro.explore.searchers  # noqa: F401  (populates SEARCHER_REGISTRY)
        if searcher not in SEARCHER_REGISTRY:
            raise ConfigError(
                f"{where}.searcher: unknown searcher {searcher!r}; "
                f"registered: {SEARCHER_REGISTRY.names()}"
            )
        budget = _as_int(where, "budget", data.get("budget", 16))
        if budget < 1:
            raise ConfigError(f"{where}.budget must be positive")

        raw_space = _require_table(
            f"{where}.space", _require(where, data, "space"))
        if not raw_space:
            raise ConfigError(f"[{where}.space] needs at least one knob")
        space = tuple(
            (name, KnobSpec.from_dict(spec, where=f"{where}.space.{name}"))
            for name, spec in raw_space.items()
        )

        raw_base = data.get("base", {})
        raw_base = _require_table(f"{where}.base", raw_base)
        unknown = {k: v for k, v in raw_base.items()
                   if k not in _SCENARIO_FIELDS}
        reject_unknown_kwargs(f"{where}.base", unknown,
                              known=_SCENARIO_FIELDS)
        base = tuple(
            (name, _as_scalar(f"{where}.base", name, value))
            for name, value in raw_base.items()
        )

        knob_names = {name for name, _ in space}
        overlap = knob_names & {name for name, _ in base}
        if overlap:
            raise ConfigError(
                f"{where}: {sorted(overlap)} appear in both the space and "
                f"the base; pick one"
            )
        if "policy" not in knob_names and "policy" not in dict(base):
            raise ConfigError(
                f"{where}: scenarios need a policy — add a 'policy' knob to "
                f"the space or set base.policy"
            )

        return cls(
            space=space,
            objective=ObjectiveSpec.from_dict(
                _require(where, data, "objective"),
                where=f"{where}.objective"),
            searcher=searcher,
            budget=budget,
            seed=_as_int(where, "seed", data.get("seed", 0)),
            base=base,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "searcher": self.searcher,
            "budget": self.budget,
            "seed": self.seed,
            "space": {name: spec.to_dict() for name, spec in self.space},
            "objective": self.objective.to_dict(),
            "base": dict(self.base),
        }


# --------------------------------------------------------------------------
# the whole file
# --------------------------------------------------------------------------

#: Which sections may appear for each runtime kind (beyond the shared
#: machine/workload/policy/cap/outage/observability set).
_KIND_SECTIONS = {
    "live": ("live",),
    "campaign": ("campaign",),
    "exploration": ("exploration",),
}


@dataclass(frozen=True)
class RuntimeConfig:
    """A fully parsed config file — plain validated data, no wiring.

    ``build()`` (:mod:`repro.runtime.build`) compiles it into the
    artifact its ``runtime.kind`` names; ``dump()`` writes it back out
    in canonical form.
    """

    runtime: RuntimeSection
    machine: MachineSection
    workload: WorkloadSection = WorkloadSection()
    policy: PolicySection = PolicySection()
    cap: CapSection = CapSection()
    outages: tuple[OutageSpec, ...] = ()
    observability: ObservabilitySection = ObservabilitySection()
    campaign: Optional[CampaignSection] = None
    exploration: Optional[ExplorationSection] = None
    live: Optional[LiveSection] = None

    _SECTIONS = ("runtime", "machine", "workload", "policy", "cap", "outage",
                 "observability", "campaign", "exploration", "live")

    @classmethod
    def from_dict(cls, data: Any) -> "RuntimeConfig":
        data = _require_table("config", data)
        _check_keys("config", data, cls._SECTIONS)

        if "runtime" not in data:
            raise ConfigError(
                f"config needs a [runtime] section declaring its kind "
                f"({', '.join(KINDS)})"
            )
        runtime = RuntimeSection.from_dict(data["runtime"])
        if "machine" not in data:
            raise ConfigError("config needs a [machine] section")
        machine = MachineSection.from_dict(data["machine"])

        kind = runtime.kind
        for other_kind, sections in _KIND_SECTIONS.items():
            if other_kind == kind:
                continue
            for section in sections:
                if section in data:
                    raise ConfigError(
                        f"[{section}] is only valid for kind = "
                        f"{other_kind!r} (this config is {kind!r})"
                    )
        raw_outages = data.get("outage", [])
        if not isinstance(raw_outages, (list, tuple)):
            raise ConfigError(
                "[[outage]] must be an array of tables, got "
                f"{type(raw_outages).__name__}"
            )
        outages = tuple(
            OutageSpec.from_dict(o, where=f"outage[{i}]")
            for i, o in enumerate(raw_outages)
        )

        campaign = exploration = live = None
        if kind == "campaign":
            if "campaign" not in data:
                raise ConfigError(
                    "kind = 'campaign' needs a [campaign] section"
                )
            campaign = CampaignSection.from_dict(data["campaign"])
        elif kind == "exploration":
            if "exploration" not in data:
                raise ConfigError(
                    "kind = 'exploration' needs an [exploration] section"
                )
            exploration = ExplorationSection.from_dict(data["exploration"])
        else:
            live = LiveSection.from_dict(data.get("live", {}))

        return cls(
            runtime=runtime,
            machine=machine,
            workload=WorkloadSection.from_dict(data.get("workload", {})),
            policy=PolicySection.from_dict(data.get("policy", {})),
            cap=CapSection.from_dict(data.get("cap", {})),
            outages=outages,
            observability=ObservabilitySection.from_dict(
                data.get("observability", {})),
            campaign=campaign,
            exploration=exploration,
            live=live,
        )

    def to_dict(self) -> dict[str, Any]:
        """The canonical plain-data form (``from_dict``'s fixed point).

        Optional sections equal to their all-defaults parse are omitted,
        as are ``None`` knobs and empty collections — TOML has no null,
        and ``from_dict`` restores every omission as its default.
        """
        sections: dict[str, Any] = {
            "runtime": self.runtime.to_dict(),
            "machine": self.machine.to_dict(),
            "workload": (None if self.workload == WorkloadSection()
                         else self.workload.to_dict()),
            "policy": (None if self.policy == PolicySection()
                       else self.policy.to_dict()),
            "cap": (None if self.cap == CapSection()
                    else self.cap.to_dict()),
            "outage": [o.to_dict() for o in self.outages],
            "observability": (
                None if self.observability == ObservabilitySection()
                else self.observability.to_dict()),
            "campaign": None if self.campaign is None else self.campaign.to_dict(),
            "exploration": (None if self.exploration is None
                            else self.exploration.to_dict()),
            "live": None if self.live is None else self.live.to_dict(),
        }
        out: dict[str, Any] = {}
        for name, value in sections.items():
            value = _clean(value)
            if value is None or value == []:
                continue
            out[name] = value
        return out
