"""The benchmark's four workloads over the repro package.

Each workload splits into the phases the benchmark times separately:

* ``load(seed)``  -- read the workload's config file and apply the seed
  (part of ``setup_s``);
* ``build(cfg)``  -- the ready-to-run artifact: a compiled runtime plan,
  a :class:`~repro.core.DavideSystem` or a :class:`~repro.faults.FaultDrill`
  (part of ``setup_s``);
* ``prepare_once`` / ``prepare`` -- harness preparation, never timed:
  seeding a result store, generating job streams, a fresh single-use
  artifact or an empty store for each repetition;
* ``run(state)``  -- the timed run, ending when its digests are computed;
* ``check(state, out)`` -- the workload's operations, each with its own
  correctness check and the digests it depends on;
* ``counts(state, out)`` -- layer counters read off the run's artifacts.

Each workload lives in its own module, which imports at module level
only the parts of the package that workload uses, so :func:`get` is the
import step of ``setup_s``: a package that imports its subpackages
lazily makes it cheaper for the workloads that need fewer of them.
"""

from __future__ import annotations

import importlib

from .base import Workload

NAMES = ("capped_campaign", "explore_search", "fig4_pipeline", "fault_drill")


def get(name: str) -> Workload:
    """Import the module of workload ``name`` and return its workload."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    return importlib.import_module(f"{__name__}.{name}").WORKLOAD
