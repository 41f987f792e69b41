"""Design-space exploration over the deterministic campaign machinery.

The package turns "which scheduler configuration should D.A.V.I.D.E.
run?" into a seeded optimization loop:

* :class:`DesignSpace` — named, typed knobs (``cap_w``, ``policy``,
  ``backfill_depth``, ``fairshare_decay``, ...);
* :class:`Objective` — QoS metrics → scalar/vector fitness;
* :class:`ExplorationEnv` — ``compile()/evaluate()`` over
  content-addressed campaign cells with a shared result store;
* searchers (``random``, ``grid``, ``evolutionary``), named in
  :data:`~repro.explore.searchers.SEARCHERS`;
* :func:`explore` — the one-call driver returning an
  :class:`ExplorationTrace` whose digest is invariant to pool size and
  cache state.
"""

from .._lazy import lazy

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".env": ("ExplorationEnv",),
    ".objective": ("Objective",),
    ".run": ("BATCH_SIZE", "explore"),
    ".searchers": (
        "SEARCHERS", "EvolutionarySearcher", "GridSearcher", "RandomSearcher",
        "Searcher",
    ),
    ".space": ("Categorical", "Continuous", "DesignSpace", "Integer", "Knob"),
    ".trace": ("ExplorationStep", "ExplorationTrace"),
})
