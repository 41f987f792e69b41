"""Config-driven runtime: files in, built artifacts out.

The pieces, in data-flow order:

* :mod:`~repro.runtime.models` — typed config sections
  (:class:`RuntimeConfig` and friends), strict about key names and
  the component names each consumer accepts.
* :mod:`~repro.runtime.loader` — :func:`load` / :func:`loads` for the
  TOML (stdlib ``tomllib``) and JSON spellings of the same tree.
* :mod:`~repro.runtime.build` — :func:`build` compiles a config into a
  :class:`CampaignPlan`, an :class:`ExplorationPlan`, or a built
  :class:`~repro.cluster.builder.LiveCluster`.
* :mod:`~repro.runtime.dump` — :func:`dump` writes the canonical form
  back out (``loads(dump(cfg)) == cfg``).
* :mod:`~repro.runtime.cli` — the ``python -m repro`` front-end.

A ten-line TOML file is a complete, content-addressed experiment::

    from repro.runtime import build
    plan = build("examples/scenarios/e07b.toml")
    results = plan.run()
"""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".build": ("CampaignPlan", "ExplorationPlan", "build"),
    ".cli": ("main",),
    ".dump": ("dump",),
    ".loader": ("load", "loads"),
    ".models": (
        "CampaignSection", "CapSection", "CellSpec", "ConfigError",
        "ExplorationSection", "KnobSpec", "LiveSection", "MachineSection",
        "ObjectiveSpec", "ObservabilitySection", "OutageSpec", "PolicySection",
        "RuntimeConfig", "RuntimeSection", "WorkloadSection",
    ),
})

# ``build`` and ``dump`` share their submodules' names, and importing a
# submodule rebinds the package attribute to it: bind the functions
# eagerly so they win in every import order.
from .build import build  # noqa: E402
from .dump import dump  # noqa: E402
