"""Name-addressable construction registries: policies, workloads, searchers.

The config-driven runtime direction (ROADMAP item 3, ab-sim-style
factories): instead of hand-importing and wiring classes, callers ask a
registry for a component *by name* with keyword overrides::

    policy   = make_policy("easy", backfill_depth=8)
    policy   = make_policy("power-aware", cap_w=20e3)
    workload = make_workload("davide", n_jobs=500, cluster_nodes=64, seed=7)
    searcher = make_searcher("evolutionary", seed=11)

Three registries ship populated:

* :data:`POLICY_REGISTRY` — every scheduling policy (``fifo``, ``easy``,
  ``power-aware``, ``fairshare``); the campaign runner's
  ``_build_policy`` and therefore the design-space explorer compile
  scenario cells through it, so a registered third-party policy is
  immediately name-addressable from a knob vector.
* :data:`WORKLOAD_REGISTRY` — job-stream generators: the full
  ``davide`` four-application mix plus one single-application stream
  per ported code (``qe``/``nemo``/``specfem``/``bqcd``).
* :data:`SEARCHER_REGISTRY` — design-space searchers.  The registry
  object lives here (so ``repro.scheduler.registries`` is the one
  construction façade), and :mod:`repro.explore.searchers` populates it
  on import; :func:`make_searcher` imports that module lazily, so the
  entries exist by the time anyone asks.

Registries are extensible — ``POLICY_REGISTRY.register("my-policy")``
works as a decorator — and unknown names fail with the full list of
known ones.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

import numpy as np

from .fairshare import EnergyFairShareScheduler
from .policies import EasyBackfillScheduler, FifoScheduler
from .power_aware import PowerAwareScheduler
from .workload import DEFAULT_APP_MIX, WorkloadConfig, WorkloadGenerator

__all__ = [
    "Registry",
    "POLICY_REGISTRY",
    "WORKLOAD_REGISTRY",
    "SEARCHER_REGISTRY",
    "make_policy",
    "make_workload",
    "make_searcher",
]


class Registry:
    """A named factory table: ``name -> callable(**kwargs) -> object``."""

    def __init__(self, kind: str):
        self.kind = kind
        self._factories: dict[str, Callable[..., Any]] = {}

    def register(
        self, name: str, factory: Optional[Callable[..., Any]] = None
    ) -> Callable[..., Any]:
        """Register a factory under ``name`` (usable as a decorator).

        Re-registering a taken name raises — silently shadowing a
        builtin entry would change what existing scenario specs build.
        """
        def bind(fn: Callable[..., Any]) -> Callable[..., Any]:
            if name in self._factories:
                raise ValueError(
                    f"{self.kind} registry already has an entry named {name!r}"
                )
            self._factories[name] = fn
            return fn

        return bind(factory) if factory is not None else bind

    def make(self, name: str, **kwargs: Any) -> Any:
        """Build the named component, forwarding keyword overrides."""
        try:
            factory = self._factories[name]
        except KeyError:
            raise KeyError(
                f"unknown {self.kind} {name!r}; registered: {self.names()}"
            ) from None
        return factory(**kwargs)

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._factories))

    def __contains__(self, name: str) -> bool:
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._factories)


# --------------------------------------------------------------------------
# policies
# --------------------------------------------------------------------------

POLICY_REGISTRY = Registry("policy")

POLICY_REGISTRY.register("fifo", FifoScheduler)
POLICY_REGISTRY.register("easy", EasyBackfillScheduler)
POLICY_REGISTRY.register("power-aware", PowerAwareScheduler)


@POLICY_REGISTRY.register("fairshare")
def _fairshare_policy(
    inner: Any = "easy",
    half_life_s: float = 7 * 86400.0,
    total_nodes: int = 45,
    energy_weighted: bool = True,
    **inner_kwargs: Any,
) -> EnergyFairShareScheduler:
    """Energy-charged priority ordering around any inner policy.

    ``inner`` may be a policy instance or a registry name; extra
    keywords are forwarded to the inner policy's factory.
    """
    if isinstance(inner, str):
        inner = make_policy(inner, **inner_kwargs)
    elif inner_kwargs:
        raise TypeError(
            "inner policy kwargs need a registry name, not an instance"
        )
    return EnergyFairShareScheduler(
        inner,
        half_life_s=half_life_s,
        total_nodes=total_nodes,
        energy_weighted=energy_weighted,
    )


def make_policy(name: str, **kwargs: Any):
    """Build a scheduling policy by registry name.

    The factory forwards keywords verbatim to the registered constructor.
    """
    return POLICY_REGISTRY.make(name, **kwargs)


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

WORKLOAD_REGISTRY = Registry("workload")


def _generator(app_mix, seed, rng, config_kwargs) -> WorkloadGenerator:
    if rng is None:
        rng = np.random.default_rng(0 if seed is None else seed)
    elif seed is not None:
        raise TypeError("pass seed or rng, not both")
    return WorkloadGenerator(
        WorkloadConfig(**config_kwargs), app_mix=app_mix, rng=rng
    )


@WORKLOAD_REGISTRY.register("davide")
def _davide_workload(
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    **config_kwargs: Any,
) -> WorkloadGenerator:
    """The paper's four-application production mix (the default)."""
    return _generator(None, seed, rng, config_kwargs)


def _register_single_app(app_name: str) -> None:
    profile, _ = DEFAULT_APP_MIX[app_name]

    @WORKLOAD_REGISTRY.register(app_name)
    def _single_app_workload(
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        **config_kwargs: Any,
    ) -> WorkloadGenerator:
        return _generator({app_name: (profile, 1.0)}, seed, rng, config_kwargs)


for _app in DEFAULT_APP_MIX:
    _register_single_app(_app)


def make_workload(name: str = "davide", **kwargs: Any) -> WorkloadGenerator:
    """Build a seeded workload generator by registry name.

    Keyword overrides split naturally: ``seed``/``rng`` pick the stream,
    everything else configures :class:`WorkloadConfig` (``n_jobs``,
    ``cluster_nodes``, ``load_factor``, ...).
    """
    return WORKLOAD_REGISTRY.make(name, **kwargs)


# --------------------------------------------------------------------------
# searchers (populated by repro.explore.searchers on import)
# --------------------------------------------------------------------------

SEARCHER_REGISTRY = Registry("searcher")


def make_searcher(name: str, **kwargs: Any):
    """Build a design-space searcher by registry name.

    Imports :mod:`repro.explore.searchers` lazily so the scheduler
    package never depends on the explorer at import time while the
    registry still lists ``random``/``grid``/``evolutionary`` whenever
    anyone asks.
    """
    import repro.explore.searchers  # noqa: F401  (registers the searchers)

    return SEARCHER_REGISTRY.make(name, **kwargs)
