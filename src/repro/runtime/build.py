"""Compile a :class:`RuntimeConfig` into the artifact it describes.

One entry point, three artifact shapes, keyed by ``runtime.kind``:

* ``"campaign"`` — a :class:`CampaignPlan`: the
  :class:`~repro.scheduler.campaign.CampaignConfig` plus the fully
  enumerated :class:`~repro.scheduler.campaign.Scenario` grid
  (seed-outer / cell-inner, matching the bench ``campaign_grid()``
  helpers cell for cell), with ``run()`` forwarding to
  :func:`~repro.scheduler.campaign.run_campaign`.
* ``"exploration"`` — an :class:`ExplorationPlan`: the compiled
  :class:`~repro.explore.space.DesignSpace` and
  :class:`~repro.explore.objective.Objective`, with ``run()``
  forwarding to :func:`repro.explore.run.explore`.
* ``"live"`` — a built :class:`~repro.cluster.builder.LiveCluster`
  straight off :class:`~repro.cluster.builder.ClusterBuilder`.

Campaign cells inherit unset knobs from the shared ``[policy]`` /
``[cap]`` / ``[[outage]]`` sections; the compiled
:class:`~repro.scheduler.campaign.Scenario` cells run through the same
policy construction (``_build_policy`` inside the campaign runner) as
hand-wired grids, so digests cannot diverge by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Optional, Union

from ..observability import Observability
from ..scheduler.cache import ResultStore, config_key
from ..scheduler.campaign import (
    CampaignConfig,
    Scenario,
    ScenarioResult,
    run_campaign,
)
from .loader import load
from .models import (
    CellSpec,
    ConfigError,
    KnobSpec,
    LiveSection,
    RuntimeConfig,
)

if TYPE_CHECKING:
    from ..cluster.builder import LiveCluster

__all__ = ["CampaignPlan", "ExplorationPlan", "build"]


@dataclass(frozen=True)
class CampaignPlan:
    """A compiled campaign: machine/workload shape + enumerated grid."""

    spec: RuntimeConfig
    config: CampaignConfig
    grid: tuple[Scenario, ...]

    @property
    def kind(self) -> str:
        return "campaign"

    def config_key(self) -> str:
        """Content address of the shared (config) part of every cell."""
        return config_key(self.config)

    def run(
        self,
        processes: Optional[int] = None,
        keep_results: bool = False,
        cache: Optional[ResultStore] = None,
        on_result: Optional[Callable[[ScenarioResult, bool], None]] = None,
    ) -> list[ScenarioResult]:
        return run_campaign(
            self.config,
            list(self.grid),
            processes=processes,
            keep_results=keep_results,
            cache=cache,
            on_result=on_result,
        )


@dataclass(frozen=True)
class ExplorationPlan:
    """A compiled design-space search, ready to ``run()``."""

    spec: RuntimeConfig
    config: CampaignConfig
    space: Any  # DesignSpace (kept untyped: repro.explore imports lazily)
    objective: Any  # Objective
    searcher: str
    budget: int
    seed: int
    base: tuple[tuple[str, Any], ...]

    @property
    def kind(self) -> str:
        return "exploration"

    def run(
        self,
        cache: Optional[ResultStore] = None,
        processes: Optional[int] = None,
        obs: Optional[Observability] = None,
    ):
        from ..explore.run import explore

        if obs is None and self.spec.observability.enabled:
            obs = Observability()
        return explore(
            self.space,
            self.objective,
            searcher=self.searcher,
            budget=self.budget,
            seed=self.seed,
            config=self.config,
            base=dict(self.base) or None,
            cache=cache,
            processes=processes,
            obs=obs,
        )


# --------------------------------------------------------------------------
# compilation
# --------------------------------------------------------------------------

def _campaign_config(cfg: RuntimeConfig) -> CampaignConfig:
    """[machine] + [workload] → the shared per-cell CampaignConfig."""
    return CampaignConfig(
        n_nodes=cfg.machine.n_nodes,
        n_jobs=cfg.workload.n_jobs,
        root_seed=cfg.workload.seed,
        load_factor=cfg.workload.load_factor,
        idle_node_power_w=cfg.machine.idle_node_power_w,
        speed_exponent=cfg.machine.speed_exponent,
        min_speed=cfg.machine.min_speed,
    )


def _cell_scenario(cfg: RuntimeConfig, cell: CellSpec, index: int,
                   seed_index: int) -> Scenario:
    """Resolve one cell against the shared sections into a Scenario."""
    pol, cap = cfg.policy, cfg.cap

    def pick(cell_value: Any, default: Any) -> Any:
        return cell_value if cell_value is not None else default

    outage_specs = cell.outages if cell.outages else cfg.outages
    try:
        return Scenario(
            policy=pick(cell.policy, pol.name),
            cap_w=pick(cell.cap_w, cap.cap_w),
            seed_index=seed_index,
            budget_w=pick(cell.budget_w, cap.budget_w),
            predictor=pick(cell.predictor, pol.predictor),
            train_fraction=pick(cell.train_fraction, pol.train_fraction),
            node_outages=tuple(o.to_outage() for o in outage_specs),
            backfill_depth=pick(cell.backfill_depth, pol.backfill_depth),
            fairshare_decay=pick(cell.fairshare_decay, pol.fairshare_decay),
            label=cell.label,
        )
    except ValueError as exc:
        label = f" ({cell.label!r})" if cell.label else ""
        raise ConfigError(f"campaign.cells[{index}]{label}: {exc}") from None


def _build_campaign(cfg: RuntimeConfig) -> CampaignPlan:
    grid = tuple(
        _cell_scenario(cfg, cell, i, seed)
        for seed in cfg.campaign.seeds
        for i, cell in enumerate(cfg.campaign.cells)
    )
    return CampaignPlan(spec=cfg, config=_campaign_config(cfg), grid=grid)


def _knob(name: str, spec: KnobSpec):
    from ..explore.space import Categorical, Continuous, Integer

    try:
        if spec.type == "continuous":
            return Continuous(spec.lo, spec.hi)
        if spec.type == "integer":
            return Integer(int(spec.lo), int(spec.hi))
        return Categorical(tuple(spec.choices))
    except ValueError as exc:
        raise ConfigError(f"exploration.space.{name}: {exc}") from None


def _build_exploration(cfg: RuntimeConfig) -> ExplorationPlan:
    from ..explore.objective import Objective
    from ..explore.space import DesignSpace

    exp = cfg.exploration
    spec = exp.objective
    try:
        objective = Objective(metrics=spec.metrics, weights=spec.weights,
                              sense=spec.sense, name=spec.name)
    except ValueError as exc:
        raise ConfigError(f"exploration.objective: {exc}") from None
    return ExplorationPlan(
        spec=cfg,
        config=_campaign_config(cfg),
        space=DesignSpace({name: _knob(name, k) for name, k in exp.space}),
        objective=objective,
        searcher=exp.searcher,
        budget=exp.budget,
        seed=exp.seed,
        base=exp.base,
    )


def _build_live(cfg: RuntimeConfig) -> LiveCluster:
    from ..cluster.builder import ClusterBuilder

    live = cfg.live if cfg.live is not None else LiveSection()
    builder = ClusterBuilder(n_nodes=cfg.machine.n_nodes, seed=live.seed).with_gateways()
    if cfg.cap.cap_w is not None:
        builder.with_capping(cfg.cap.cap_w)
    if cfg.observability.enabled:
        builder.with_observability(True)
    return builder.build_live()


def build(
    source: Union[RuntimeConfig, str, Path],
) -> Union[CampaignPlan, ExplorationPlan, LiveCluster]:
    """Compile a config (or a path to one) into its runtime artifact."""
    cfg = source if isinstance(source, RuntimeConfig) else load(source)
    kind = cfg.runtime.kind
    if kind == "campaign":
        return _build_campaign(cfg)
    if kind == "exploration":
        return _build_exploration(cfg)
    return _build_live(cfg)
