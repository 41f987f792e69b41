"""Loader fuzz: a mutated config file is refused by name, or it builds.

Hypothesis starts from a small valid config of each kind, in the JSON
spelling so the fuzz also runs where stdlib ``tomllib`` does not exist,
and applies one to three mutations: replace any value with one of any
type (NaN, infinities, negative and huge numbers, strings, arrays,
tables), delete a key or array entry, or add a key the section may not
know.  The loader's contract:

* ``loads`` raises only :class:`ConfigError` or the unknown-key
  ``TypeError`` — the two errors the CLI reports by name, exiting 2;
* whatever ``loads`` accepts dumps back to itself;
* ``build()`` compiles it, or refuses it with a ``ConfigError`` under a
  rule that spans sections (a power-aware cell with no envelope
  anywhere);
* a built exploration plan constructs its :class:`ExplorationEnv`.
"""

import copy
import json

from hypothesis import given, settings, strategies as st

from repro.explore import ExplorationEnv
from repro.runtime import ConfigError, ExplorationPlan, build, dump, loads

#: A live build allocates every node, so a (valid) huge machine is
#: loaded and dumped but not built.
MAX_LIVE_NODES = 8

BASES = {
    "campaign": {
        "runtime": {"kind": "campaign", "name": "fuzz"},
        "machine": {"n_nodes": 4, "speed_exponent": 0.75, "min_speed": 0.3},
        "workload": {"n_jobs": 8, "load_factor": 1.0, "seed": 1},
        "policy": {"name": "easy", "backfill_depth": 2},
        "cap": {"cap_w": 4000.0},
        "outage": [{"at_s": 10.0, "node_id": 1, "duration_s": 5.0}],
        "campaign": {
            "seeds": [0, 1],
            "cells": [
                {"label": "a"},
                {"label": "b", "policy": "power-aware", "budget_w": 3000.0,
                 "outages": [{"at_s": 1.0, "node_id": 3, "duration_s": 2.0}]},
            ],
        },
    },
    "exploration": {
        "runtime": {"kind": "exploration"},
        "machine": {"n_nodes": 4},
        "workload": {"n_jobs": 8, "seed": 2},
        "exploration": {
            "searcher": "random",
            "budget": 4,
            "seed": 0,
            "space": {
                "cap_w": {"type": "continuous", "lo": 1e3, "hi": 2e3},
                "backfill_depth": {"type": "integer", "lo": 1, "hi": 4},
            },
            "objective": {"metrics": ["total_energy_j", "p95_wait_s"],
                          "weights": [1.0, 2.0], "sense": "min"},
            "base": {"policy": "easy", "predictor": "oracle"},
        },
    },
    "live": {
        "runtime": {"kind": "live"},
        "machine": {"n_nodes": 2},
        "cap": {"cap_w": 1500.0},
        "observability": {"enabled": True},
        "live": {"until_s": 1.0, "seed": 0},
    },
}

#: Values the mutations draw from besides random ones, so that they reach
#: past the type checks: edge numbers, accepted component names,
#: kinds, knob types, and keys that exist in some other section.
EDGE = (-1, 0, -0.5, 0.0, 1e300, 2**63, 10**400, -(10**400), float("nan"),
        float("inf"), float("-inf"), None, True, "", "x")
NAMES = ("easy", "fifo", "power-aware", "array", "calendar", "davide", "qe",
         "random", "evolutionary", "live", "campaign", "exploration",
         "continuous", "integer", "categorical", "min", "max",
         "total_energy_j", "nameplate", "ridge")
KEYS = ("label", "node_outages", "seed_index", "cap_ww", "n_node", "policy",
        "type", "lo", "hi", "choices", "outages", "seed", "core")

scalars = st.one_of(st.sampled_from(EDGE), st.sampled_from(NAMES),
                    st.integers(-3, 3), st.floats())
values = st.one_of(st.sampled_from(EDGE), scalars,
                   st.lists(scalars, max_size=3),
                   st.dictionaries(st.sampled_from(KEYS), scalars, max_size=2))
keys = st.one_of(st.sampled_from(KEYS), st.text(min_size=1, max_size=6))


def _addresses(node, prefix=()):
    """The path of every value below ``node`` (dict keys, list indices)."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _addresses(child, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_configs(draw):
    doc = copy.deepcopy(BASES[draw(st.sampled_from(sorted(BASES)))])
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_addresses(doc))
        op = draw(st.sampled_from(("replace", "replace", "delete", "add")))
        if op == "add":
            tables = [()] + [p for p in paths if isinstance(_at(doc, p), dict)]
            _at(doc, draw(st.sampled_from(tables)))[draw(keys)] = draw(values)
            continue
        path = draw(st.sampled_from(paths))
        parent = _at(doc, path[:-1])
        if op == "replace":
            parent[path[-1]] = draw(values)
        else:
            del parent[path[-1]]
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=mutated_configs())
def test_loader_refuses_by_name_or_the_config_builds(doc):
    try:
        cfg = loads(json.dumps(doc), "json")
    except ConfigError:
        return
    except TypeError as exc:
        assert "unexpected keyword argument" in str(exc)
        return
    assert loads(dump(cfg, "json"), "json") == cfg
    if cfg.runtime.kind == "live" and cfg.machine.n_nodes > MAX_LIVE_NODES:
        return
    try:
        plan = build(cfg)
    except ConfigError:
        return
    if isinstance(plan, ExplorationPlan):
        ExplorationEnv(plan.space, plan.objective, plan.config,
                       base=dict(plan.base))
