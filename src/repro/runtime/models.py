"""Typed sections of a runtime config file.

A config file is a tree of tables (TOML) or objects (JSON); every table
maps onto one frozen dataclass here.  Each field is declared once, with
its default and one converter that parses and range-checks the value
(``n_nodes: int = _field(conv=_positive(_as_int))``).  The unknown-key
check, ``from_dict`` and ``to_dict`` are derived from the fields by
:class:`_Section`; only rules that span fields (a knob's lo/hi versus
its choices, one weight per metric, which sections a kind may carry)
are written out, in a class's ``_cross`` hook.

Parsing is strict on *names* — an unknown key or section raises through
:func:`reject_unknown_kwargs`, so the error lists every misspelling at
once *and* the known fields — on *types* (TOML already distinguishes
ints, floats, booleans and strings; JSON configs are held to the same
rules) and on *ranges*: a value the run would trip over later (a zero
speed exponent, a negative seed, an outage on a node the machine does
not have) fails at load with a :class:`ConfigError` naming
``section.field``.

Component names are checked against the lists their consumers own:
policies against :data:`~repro.scheduler.campaign.POLICIES` (what
``Scenario`` accepts) and searchers against
:data:`~repro.explore.searchers.SEARCHERS`.  A typo'd name fails naming
every accepted one.  Exploration values are checked
the same way: every value a search can compile must make a valid
``Scenario``.

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
from typing import Any, Callable, Mapping, Optional, Sequence

from ..explore.env import SCENARIO_KNOBS
from ..explore.searchers import SEARCHERS
from ..scheduler.campaign import POLICIES, QOS_METRICS, Scenario
from ..scheduler.policies import IDLE_NODE_POWER_W
from ..scheduler.simulate import NodeOutage

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

#: What a config file may ask ``build()`` for.  Each kind also names the
#: one section only that kind may carry (``[live]``, ``[campaign]``,
#: ``[exploration]``).
KINDS = ("live", "campaign", "exploration")

#: Knob domain spellings understood by ``[exploration.space.<name>]``.
KNOB_TYPES = ("continuous", "integer", "categorical")


class ConfigError(ValueError):
    """A config file failed validation (bad value, type, or shape)."""


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


# --------------------------------------------------------------------------
# converters: ``conv(at, value)`` parses the raw value found at the dotted
# path ``at`` (e.g. ``"campaign.cells[0].cap_w"``) or raises naming it
# --------------------------------------------------------------------------

Conv = Callable[[str, Any], Any]


def _require_table(at: str, value: Any) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ConfigError(
            f"[{at}] must be a table, got {type(value).__name__}"
        )
    return value


def _check_keys(owner: str, data: Mapping[str, Any],
                known: Sequence[str]) -> None:
    """Unknown keys raise a TypeError naming each one and the known keys."""
    unknown = {k: data[k] for k in data if k not in known}
    reject_unknown_kwargs(owner, unknown, known=known)


def _require(where: str, values: Mapping[str, Any], name: str) -> Any:
    if name not in values:
        raise ConfigError(f"[{where}] needs a {name!r} key")
    return values[name]


def _bad(at: str, want: str, value: Any) -> ConfigError:
    return ConfigError(f"{at} must be {want}, got {value!r}")


def _as_str(at: str, value: Any) -> str:
    if not isinstance(value, str):
        raise _bad(at, "a string", value)
    return value


def _as_bool(at: str, value: Any) -> bool:
    if not isinstance(value, bool):
        raise _bad(at, "a boolean", value)
    return value


def _as_int(at: str, value: Any) -> int:
    # bool is an int subclass; a config saying ``n_nodes = true`` is a bug.
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(at, "an integer", value)
    return value


def _as_number(at: str, value: Any) -> Any:
    # TOML spells nan and inf; no knob means anything by them, and a NaN
    # slips past every ``<=`` range check downstream.  Neither is an int
    # too large for a float.
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            if math.isfinite(value):
                return value
        except OverflowError:
            pass
    raise _bad(at, "a finite number", value)


def _as_float(at: str, value: Any) -> float:
    return float(_as_number(at, value))


def _as_scalar(at: str, value: Any) -> Any:
    # A Scenario field is never spelled "" (and the canonical form drops
    # empty strings from tables, so one would not survive a dump).
    if isinstance(value, bool) or (isinstance(value, str) and value):
        return value
    if isinstance(value, (int, float)):
        return _as_number(at, value)
    raise _bad(at, "a scalar (non-empty string, number or boolean)", value)


def _range(conv: Conv, ok: Callable[[Any], bool], want: str) -> Conv:
    def parse(at: str, value: Any) -> Any:
        value = conv(at, value)
        if not ok(value):
            raise _bad(at, want, value)
        return value
    return parse


def _positive(conv: Conv) -> Conv:
    return _range(conv, lambda v: v > 0, "positive")


def _non_negative(conv: Conv) -> Conv:
    return _range(conv, lambda v: v >= 0, "non-negative")


def _one_of(options: tuple[str, ...]) -> Conv:
    def parse(at: str, value: Any) -> str:
        if _as_str(at, value) not in options:
            raise ConfigError(f"{at}: {value!r} is not one of {options}")
        return value
    return parse


def _array(item: Conv, non_empty: bool = False) -> Conv:
    def parse(at: str, value: Any) -> tuple:
        if not isinstance(value, (list, tuple)) or (non_empty and not value):
            raise _bad(at, "a non-empty array" if non_empty else "an array",
                       value)
        return tuple(item(f"{at}[{i}]", v) for i, v in enumerate(value))
    return parse


def _knob_table(item: Conv, non_empty: bool = False) -> Conv:
    """A table keyed by the Scenario fields a search may set, kept as
    ordered ``(name, value)`` pairs (tables stay order-stable through
    dump)."""
    def parse(at: str, value: Any) -> tuple:
        table = _require_table(at, value)
        if non_empty and not table:
            raise ConfigError(f"[{at}] needs at least one knob")
        _check_keys(at, table, SCENARIO_KNOBS)
        return tuple((name, item(f"{at}.{name}", v))
                     for name, v in table.items())
    return parse


def _from_dict(where: str) -> Any:
    """A section's ``from_dict(data, where=...)``, defaulting to its path."""
    def from_dict(cls, data: Any, where: str = where) -> Any:
        return cls._parse(data, where)
    return classmethod(from_dict)


def _section(cls: type) -> Conv:
    return lambda at, value: cls.from_dict(value, where=at)


def _field(default: Any = dataclasses.MISSING, *, conv: Conv,
           key: Optional[str] = None,
           dump: Optional[Callable[[Any], Any]] = None) -> Any:
    """Declare a config field: its default and its converter.

    ``key`` is the file's spelling when it differs from the field name;
    ``dump`` turns the stored value back into plain data (``dict`` for
    tables kept as ``(name, value)`` pairs).
    """
    return dataclasses.field(
        default=default, metadata={"conv": conv, "key": key, "dump": dump})


def _key(f: dataclasses.Field) -> str:
    return f.metadata["key"] or f.name


def _plain(value: Any) -> Any:
    """Sections → tables and tuples → arrays, recursively."""
    if isinstance(value, _Section):
        return value.to_dict()
    if isinstance(value, Mapping):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


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


class _Section:
    """Parsing and dumping derived from the dataclass fields.

    ``_parse`` rejects unknown keys, runs each present value through its
    field's converter (JSON ``null`` leaves a ``None``-default field
    unset), requires the fields that have no default and leaves the rest
    to their defaults; ``_cross`` then applies the rules that span
    fields.  ``to_dict`` writes every field back as plain data.
    """

    @classmethod
    def _parse(cls, data: Any, where: str) -> Any:
        owner = where or "config"  # the root table has the empty path
        data = _require_table(owner, data)
        fields = dataclasses.fields(cls)
        _check_keys(owner, data, tuple(_key(f) for f in fields))
        values: dict[str, Any] = {}
        for f in fields:
            key = _key(f)
            if key in data:
                value = data[key]
                if value is not None or f.default is not None:
                    value = f.metadata["conv"](
                        f"{where}.{key}" if where else key, value)
                values[f.name] = value
            elif f.default is dataclasses.MISSING:
                raise ConfigError(f"[{owner}] needs a {key!r} key")
        return cls(**cls._cross(where, values))

    @classmethod
    def _cross(cls, where: str, values: dict[str, Any]) -> dict[str, Any]:
        """Rules that span fields; ``values`` holds the keys present."""
        return values

    def to_dict(self) -> dict[str, Any]:
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            dump = f.metadata["dump"]
            out[_key(f)] = _plain(dump(value) if dump else value)
        return out


# --------------------------------------------------------------------------
# sections
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RuntimeSection(_Section):
    """``[runtime]`` — what this file describes."""

    kind: str = _field(conv=_one_of(KINDS))
    name: str = _field("", conv=_as_str)
    description: str = _field("", conv=_as_str)

    from_dict = _from_dict("runtime")


@dataclass(frozen=True)
class MachineSection(_Section):
    """``[machine]`` — the cluster shape and its power model knobs."""

    n_nodes: int = _field(conv=_positive(_as_int))
    idle_node_power_w: float = _field(IDLE_NODE_POWER_W, conv=_non_negative(_as_float))
    #: Speed follows ``rho ** speed_exponent``; zero or less has no
    #: trim ratio that reaches ``min_speed``.
    speed_exponent: float = _field(0.75, conv=_positive(_as_float))
    min_speed: float = _field(0.3, conv=_range(
        _as_float, lambda v: 0.0 < v <= 1.0, "in (0, 1]"))

    from_dict = _from_dict("machine")

    @classmethod
    def _cross(cls, where: str, values: dict[str, Any]) -> dict[str, Any]:
        """The simulator's trim floor ``min_speed ** (1 / speed_exponent)``
        must not underflow to 0, or a cap below the idle floor stops
        every job dead."""
        exponent = values.get("speed_exponent", cls.speed_exponent)
        floor = values.get("min_speed", cls.min_speed)
        if not floor ** (1.0 / exponent) > 0:
            raise ConfigError(
                f"{where}.speed_exponent = {exponent!r} with {where}.min_speed = "
                f"{floor!r} puts the trim floor min_speed ** (1 / speed_exponent) at 0"
            )
        return values


@dataclass(frozen=True)
class WorkloadSection(_Section):
    """``[workload]`` — the job stream (the paper's four-application
    mix): size, load, seed."""

    n_jobs: int = _field(100, conv=_positive(_as_int))
    load_factor: float = _field(0.85, conv=_positive(_as_float))
    seed: int = _field(0, conv=_non_negative(_as_int))

    from_dict = _from_dict("workload")


@dataclass(frozen=True)
class PolicySection(_Section):
    """``[policy]`` — scheduling defaults every campaign cell inherits.

    The numeric knobs are range-checked where they meet the other
    sections: ``build()`` compiles each cell into a validated
    :class:`~repro.scheduler.campaign.Scenario`.
    """

    name: str = _field("fifo", conv=_one_of(POLICIES))
    predictor: str = _field("oracle", conv=_as_str)
    train_fraction: float = _field(0.0, conv=_as_float)
    backfill_depth: Optional[int] = _field(None, conv=_as_int)
    fairshare_decay: Optional[float] = _field(None, conv=_as_float)

    from_dict = _from_dict("policy")


@dataclass(frozen=True)
class CapSection(_Section):
    """``[cap]`` — the power envelope.

    ``cap_w``/``budget_w`` are the reactive/proactive ceilings campaign
    cells inherit; a live cluster puts a capping agent at ``cap_w`` on
    every node.
    """

    cap_w: Optional[float] = _field(None, conv=_positive(_as_float))
    budget_w: Optional[float] = _field(None, conv=_positive(_as_float))

    from_dict = _from_dict("cap")


@dataclass(frozen=True)
class OutageSpec(_Section):
    """One ``[[outage]]`` entry: a node failure + repair window."""

    at_s: float = _field(conv=_as_float)
    node_id: int = _field(conv=_as_int)
    duration_s: float = _field(conv=_as_float)

    from_dict = _from_dict("outage")

    @classmethod
    def _cross(cls, where: str, values: dict[str, Any]) -> dict[str, Any]:
        try:
            NodeOutage(**values)
        except ValueError as exc:
            raise ConfigError(f"[{where}]: {exc}") from None
        return values

    def to_outage(self) -> NodeOutage:
        return NodeOutage(at_s=self.at_s, node_id=self.node_id,
                          duration_s=self.duration_s)


@dataclass(frozen=True)
class ObservabilitySection(_Section):
    """``[observability]`` — metrics + tracing for the built artifact."""

    enabled: bool = _field(False, conv=_as_bool)

    from_dict = _from_dict("observability")


@dataclass(frozen=True)
class LiveSection(_Section):
    """``[live]`` — kernel run length and the gateways' noise seed."""

    until_s: float = _field(10.0, conv=_positive(_as_float))
    seed: int = _field(0, conv=_non_negative(_as_int))

    from_dict = _from_dict("live")


@dataclass(frozen=True)
class CellSpec(_Section):
    """One ``[[campaign.cells]]`` entry — a partial scenario.

    Unset knobs (``None``) inherit from ``[policy]`` / ``[cap]`` /
    ``[[outage]]`` at build time; there is no
    per-cell spelling for "force the inherited knob back off", so leave
    the section default unset when some cells need the knob off.
    """

    label: str = _field("", conv=_as_str)
    policy: Optional[str] = _field(None, conv=_one_of(POLICIES))
    cap_w: Optional[float] = _field(None, conv=_positive(_as_float))
    budget_w: Optional[float] = _field(None, conv=_positive(_as_float))
    predictor: Optional[str] = _field(None, conv=_as_str)
    train_fraction: Optional[float] = _field(None, conv=_as_float)
    backfill_depth: Optional[int] = _field(None, conv=_as_int)
    fairshare_decay: Optional[float] = _field(None, conv=_as_float)
    outages: tuple[OutageSpec, ...] = _field(
        (), conv=_array(_section(OutageSpec)))

    from_dict = _from_dict("campaign.cells")


@dataclass(frozen=True)
class CampaignSection(_Section):
    """``[campaign]`` — the seed list and the cell grid.

    ``build()`` enumerates the grid seed-outer / cell-inner (every cell
    at seed 0, then every cell at seed 1, ...) — the same order the
    bench ``campaign_grid()`` helpers use, so zoo configs digest
    identically to their hand-wired twins.
    """

    cells: tuple[CellSpec, ...] = _field(
        conv=_array(_section(CellSpec), non_empty=True))
    seeds: tuple[int, ...] = _field(
        (0,), conv=_array(_non_negative(_as_int), non_empty=True))

    from_dict = _from_dict("campaign")


@dataclass(frozen=True)
class KnobSpec(_Section):
    """One ``[exploration.space.<name>]`` knob domain."""

    type: str = _field(conv=_one_of(KNOB_TYPES))
    lo: Optional[float] = _field(None, conv=_as_number)
    hi: Optional[float] = _field(None, conv=_as_number)
    choices: tuple[Any, ...] = _field(
        (), conv=_array(_as_scalar, non_empty=True))

    from_dict = _from_dict("exploration.space")

    @classmethod
    def _cross(cls, where: str, values: dict[str, Any]) -> dict[str, Any]:
        kind = values["type"]
        if kind == "categorical":
            if "lo" in values or "hi" in values:
                raise ConfigError(
                    f"{where}: categorical knobs take 'choices', not lo/hi"
                )
            _require(where, values, "choices")
            return values
        if "choices" in values:
            raise ConfigError(
                f"{where}: {kind} knobs take lo/hi, not 'choices'"
            )
        number = _as_int if kind == "integer" else _as_float
        lo, hi = (number(f"{where}.{name}", _require(where, values, name))
                  for name in ("lo", "hi"))
        if (kind == "continuous" and not lo < hi) or (
                kind == "integer" and not lo <= hi):
            raise ConfigError(f"{where}: empty range [lo={lo}, hi={hi}]")
        return dict(values, lo=lo, hi=hi)


@dataclass(frozen=True)
class ObjectiveSpec(_Section):
    """``[exploration.objective]`` — QoS metrics, weights, and sense."""

    metrics: tuple[str, ...] = _field(
        conv=_array(_one_of(QOS_METRICS), non_empty=True))
    weights: tuple[float, ...] = _field((), conv=_array(_as_float))
    sense: str = _field("min", conv=_one_of(("min", "max")))
    name: str = _field("", conv=_as_str)

    from_dict = _from_dict("exploration.objective")

    @classmethod
    def _cross(cls, where: str, values: dict[str, Any]) -> dict[str, Any]:
        weights = values.get("weights", ())
        if weights and len(weights) != len(values["metrics"]):
            raise ConfigError(
                f"{where}: need one weight per metric (or none at all)"
            )
        return values


@dataclass(frozen=True)
class ExplorationSection(_Section):
    """``[exploration]`` — searcher, budget, knob space, objective, base.

    Space and base names must be Scenario fields a search may set
    (:data:`~repro.explore.env.SCENARIO_KNOBS`), and every value a
    search can compile must pass ``Scenario``'s own checks: each base
    entry, each knob's ``lo`` and ``hi`` and each choice.
    """

    space: tuple[tuple[str, KnobSpec], ...] = _field(
        conv=_knob_table(_section(KnobSpec), non_empty=True), dump=dict)
    objective: ObjectiveSpec = _field(conv=_section(ObjectiveSpec))
    searcher: str = _field("random", conv=_one_of(tuple(SEARCHERS)))
    budget: int = _field(16, conv=_positive(_as_int))
    seed: int = _field(0, conv=_non_negative(_as_int))
    #: Fixed scenario fields merged under every evaluated point.
    base: tuple[tuple[str, Any], ...] = _field(
        (), conv=_knob_table(_as_scalar), dump=dict)

    from_dict = _from_dict("exploration")

    @classmethod
    def _cross(cls, where: str, values: dict[str, Any]) -> dict[str, Any]:
        knobs = {name for name, _ in values["space"]}
        fixed = {name for name, _ in values.get("base", ())}
        if knobs & fixed:
            raise ConfigError(
                f"{where}: {sorted(knobs & fixed)} appear in both the space "
                f"and the base; pick one"
            )
        if "policy" not in knobs | fixed:
            raise ConfigError(
                f"{where}: scenarios need a policy — add a 'policy' knob to "
                f"the space or set base.policy"
            )
        _check_compiles(where, values["space"], values.get("base", ()))
        return values


def _refusal(point: Mapping[str, Any]) -> Optional[str]:
    """Why ``Scenario(**point)`` refuses the point, or None."""
    try:
        Scenario(**point)
    except (TypeError, ValueError, AttributeError) as exc:
        return str(exc)
    return None


def _check_compiles(where: str, space: tuple, base: tuple) -> None:
    """Every value a search can compile must make a valid ``Scenario``.

    The reference point takes each base entry and each knob's first
    value (``lo`` or the first choice); every other value (``hi``, each
    later choice) is then tried on it alone.  A refused reference point
    is blamed on the first entry whose removal, or whose other value,
    repairs it.
    """
    entries = [(f"{where}.base.{name}", name, (value,)) for name, value in base]
    entries += [(f"{where}.space.{name}", name, spec.choices or (spec.lo, spec.hi))
                for name, spec in space]
    ref = {name: options[0] for _, name, options in entries}
    error = _refusal(ref)
    if error is not None:
        for at, name, options in entries:
            if _refusal({k: v for k, v in ref.items() if k != name}) is None or any(
                    _refusal(dict(ref, **{name: v})) is None for v in options[1:]):
                raise ConfigError(f"{at} = {options[0]!r}: {error}")
        raise ConfigError(f"{where}: {error}")
    for at, name, options in entries:
        for value in options[1:]:
            error = _refusal(dict(ref, **{name: value}))
            if error is not None:
                raise ConfigError(f"{at} = {value!r}: {error}")


# --------------------------------------------------------------------------
# the whole file
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RuntimeConfig(_Section):
    """A fully parsed config file — plain validated data, no wiring.

    ``build()`` (:mod:`repro.runtime.build`) compiles it into the
    artifact its ``runtime.kind`` names; ``dump()`` writes it back out
    in canonical form.
    """

    runtime: RuntimeSection = _field(conv=_section(RuntimeSection))
    machine: MachineSection = _field(conv=_section(MachineSection))
    workload: WorkloadSection = _field(
        WorkloadSection(), conv=_section(WorkloadSection))
    policy: PolicySection = _field(
        PolicySection(), conv=_section(PolicySection))
    cap: CapSection = _field(CapSection(), conv=_section(CapSection))
    outages: tuple[OutageSpec, ...] = _field(
        (), conv=_array(_section(OutageSpec)), key="outage")
    observability: ObservabilitySection = _field(
        ObservabilitySection(), conv=_section(ObservabilitySection))
    campaign: Optional[CampaignSection] = _field(
        None, conv=_section(CampaignSection))
    exploration: Optional[ExplorationSection] = _field(
        None, conv=_section(ExplorationSection))
    live: Optional[LiveSection] = _field(None, conv=_section(LiveSection))

    @classmethod
    def from_dict(cls, data: Any) -> "RuntimeConfig":
        return cls._parse(data, "")

    @classmethod
    def _cross(cls, where: str, values: dict[str, Any]) -> dict[str, Any]:
        kind = values["runtime"].kind
        for other in KINDS:
            if other != kind and values.get(other) is not None:
                raise ConfigError(
                    f"[{other}] is only valid for kind = {other!r} "
                    f"(this config is {kind!r})"
                )
        if values.get(kind) is None:
            if kind != "live":
                raise ConfigError(f"kind = {kind!r} needs a [{kind}] section")
            values["live"] = LiveSection()
        n_nodes = values["machine"].n_nodes
        located = [(f"outage[{i}]", o)
                   for i, o in enumerate(values.get("outages", ()))]
        if kind == "campaign":
            located += [(f"campaign.cells[{c}].outages[{i}]", o)
                        for c, cell in enumerate(values["campaign"].cells)
                        for i, o in enumerate(cell.outages)]
        for at, outage in located:
            if outage.node_id >= n_nodes:
                raise ConfigError(
                    f"{at}.node_id must be below machine.n_nodes = "
                    f"{n_nodes}, got {outage.node_id}"
                )
        return values

    def to_dict(self) -> dict[str, Any]:
        """The canonical plain-data form (``from_dict``'s fixed point).

        Sections equal to their defaults are omitted, as are ``None``
        knobs and empty collections — TOML has no null, and
        ``from_dict`` restores every omission as its default.
        """
        return _clean({
            _key(f): _plain(getattr(self, f.name))
            for f in dataclasses.fields(self)
            if getattr(self, f.name) != f.default
        })
