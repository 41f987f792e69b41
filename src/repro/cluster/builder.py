"""One front door for assembling the cluster, at every fidelity level.

Every example and test used to hand-wire the same parts: construct an
:class:`~repro.sim.engine.Environment`, a broker clocked to it, N
compute nodes, one gateway per node, capping agents, maybe a scheduler
or a fault drill — each call site with its own slightly different
glue.  :class:`ClusterBuilder` centralizes that assembly: configure the
cluster once with the fluent ``with_*`` mutators, then ask for whichever
artifact the scenario needs with a ``build_*`` terminal:

======================  ====================================================
terminal                 what you get
======================  ====================================================
``build_nodes``          bare :class:`ComputeNode` list (power models only)
``build_rack``           one populated :class:`Rack`
``build_hardware``       the full static :class:`Cluster` envelope
``build_live``           a :class:`LiveCluster`: kernel + broker + telemetry
                         plane + capping agents, ready to ``run()``
``build_simulator``      a :class:`ClusterSimulator` for scheduling studies
``build_system``         the integrated Fig.-4 :class:`DavideSystem`
``build_drill``          a :class:`FaultDrill` wired from the same knobs
``build_gateway``        one full-chain :class:`EnergyGateway`
======================  ====================================================

The builder is cheap and reusable: terminals never mutate it, so one
configured builder can stamp out many independent artifacts (each
``build_live`` call gets its own kernel and broker).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..core.system import DavideSystem
from ..faults.drill import DrillConfig, FaultDrill
from ..hardware.cluster import Cluster
from ..hardware.node import ComputeNode
from ..hardware.rack import Rack
from ..hardware.specs import DAVIDE_SYSTEM
from ..monitoring.daemon import CappingAgent
from ..monitoring.gateway import EnergyGateway, GatewayConfig
from ..monitoring.mqtt import MqttBroker, MqttClient
from ..monitoring.plane import TelemetryPlane
from ..observability import Observability, null_observability
from ..scheduler.policies import FifoScheduler, SchedulingPolicy
from ..scheduler.simulate import ClusterSimulator
from ..sim.engine import Environment

__all__ = ["ClusterBuilder", "LiveCluster"]


class LiveCluster:
    """A running slice of the machine on the discrete-event kernel.

    Holds the kernel, the broker (clocked to simulated time), the
    compute nodes, the :class:`TelemetryPlane` sampling them, and — when
    capping was configured — one :class:`CappingAgent` per node.  All
    interaction between the pieces rides the MQTT bus, as deployed.
    """

    def __init__(
        self,
        env: Environment,
        broker: MqttBroker,
        nodes: list[ComputeNode],
        telemetry: TelemetryPlane,
        agents: list[CappingAgent],
        obs: Optional[Observability] = None,
    ):
        self.env = env
        self.broker = broker
        self.nodes = nodes
        self.telemetry = telemetry
        self.agents = agents
        self.obs = obs if obs is not None else null_observability()

    def run(self, until: float) -> None:
        """Advance the kernel to simulated time ``until`` (seconds)."""
        self.env.run(until=until)

    def ops_report(self) -> dict:
        """Operational summary of the running cluster.

        The :meth:`Observability.ops_report` sections plus a ``kernel``
        block (events dispatched, pending queue depth, simulated time).
        """
        report = self.obs.ops_report()
        report["kernel"] = {
            "events_dispatched": self.env.events_dispatched,
            "queue_depth": self.env.queue_depth,
            "sim_time_s": self.env.now,
        }
        return report

    def connect(self, client_id: str) -> MqttClient:
        """Attach an extra bus client (a logger, a collector...)."""
        return self.broker.connect(client_id)

    @property
    def total_power_w(self) -> float:
        """Instantaneous fleet draw straight off the node power models."""
        return float(sum(n.power_w() for n in self.nodes))

    @property
    def capped_nodes(self) -> int:
        """How many capping agents currently hold their node trimmed."""
        return sum(a.capped for a in self.agents)


class ClusterBuilder:
    """Fluent assembly of the reproduction's cluster artifacts.

    >>> live = (ClusterBuilder(n_nodes=6)
    ...         .with_gateways(period_s=0.1)
    ...         .with_capping(cap_w=1500.0)
    ...         .build_live())
    >>> live.run(until=5.0)

    Every ``with_*`` mutator returns the builder; every ``build_*``
    terminal leaves it untouched.
    """

    def __init__(
        self,
        n_nodes: Optional[int] = None,
        *,
        seed: int = 0,
        topic_prefix: str = "davide",
    ):
        self._n_nodes = n_nodes
        self.seed = int(seed)
        self.topic_prefix = topic_prefix
        # telemetry plane knobs (empty = not configured)
        self._gateway_kw: dict = {}
        self._batched = False
        # capping agents
        self._capping_kw: Optional[dict] = None
        # scheduler
        self._policy: Optional[SchedulingPolicy] = None
        self._sched_cap_w: Optional[float] = None
        self._sched_kw: dict = {}
        # fault drill overrides
        self._drill_kw: dict = {}
        # observability (metrics + tracing); off = no-op
        self._observed = False

    # ------------------------------------------------------------ mutators
    def with_gateways(self, period_s: float = 0.1, *, batched: bool = False) -> "ClusterBuilder":
        """Configure the telemetry sampling plane.

        ``batched=True`` selects the vectorized :class:`GatewayArray`
        hot path (one kernel event samples every node); the default
        builds one :class:`GatewayDaemon` per node, each on its own
        periodic kernel task.
        """
        self._gateway_kw = {"period_s": period_s}
        self._batched = bool(batched)
        return self

    def with_capping(self, cap_w: float, actuation_delay_s: float = 0.01) -> "ClusterBuilder":
        """Put one telemetry-driven capping agent on every node."""
        self._capping_kw = {
            "cap_w": float(cap_w),
            "actuation_delay_s": float(actuation_delay_s),
        }
        return self

    def with_scheduler(
        self,
        policy: Optional[SchedulingPolicy] = None,
        cap_w: Optional[float] = None,
        **simulator_kw,
    ) -> "ClusterBuilder":
        """Configure the scheduling layer (policy + reactive cap).

        ``cap_w`` doubles as the drill's cluster power budget so one
        number governs both artifact shapes.
        """
        self._policy = policy
        self._sched_cap_w = None if cap_w is None else float(cap_w)
        self._sched_kw = dict(simulator_kw)
        return self

    def with_faults(self, **drill_overrides) -> "ClusterBuilder":
        """Override :class:`DrillConfig` fields for :meth:`build_drill`."""
        self._drill_kw.update(drill_overrides)
        return self

    def with_observability(self, enabled: bool = True) -> "ClusterBuilder":
        """Turn on metrics + tracing for the built artifacts.

        When enabled, :meth:`build_live` wires one :class:`Observability`
        (clocked to the kernel) through the broker, the telemetry plane,
        and the capping agents; :meth:`build_drill` maps the flag onto
        :attr:`DrillConfig.observability`.  Instrumentation is a side
        store — event ordering, RNG draws, and logs are identical with it
        on or off.  Disabled (the default) costs one no-op call per site.
        """
        self._observed = bool(enabled)
        return self

    # ------------------------------------------------------------ internals
    @property
    def n_nodes(self) -> int:
        """Node count: explicit, else the full machine's."""
        return self._n_nodes if self._n_nodes is not None else DAVIDE_SYSTEM.n_nodes

    def _rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng(self.seed * 1000 + i)

    # ------------------------------------------------------------ terminals
    def build_nodes(self) -> list[ComputeNode]:
        """Bare compute nodes (power/thermal models, no plumbing)."""
        return [ComputeNode(node_id=i, spec=DAVIDE_SYSTEM.node) for i in range(self.n_nodes)]

    def build_rack(self) -> Rack:
        """Rack 0, populated from the D.A.V.I.D.E. specs."""
        return Rack(
            rack_id=0,
            spec=DAVIDE_SYSTEM.rack,
            node_spec=DAVIDE_SYSTEM.node,
            n_nodes=self._n_nodes,
        )

    def build_hardware(self) -> Cluster:
        """The full static hardware envelope (all racks, no kernel)."""
        return Cluster(DAVIDE_SYSTEM)

    def build_gateway(self, broker: Optional[MqttBroker] = None,
                      config: GatewayConfig = GatewayConfig()) -> EnergyGateway:
        """Node 0's full-chain (sensor/ADC/decimation) energy gateway."""
        return EnergyGateway(
            0,
            broker if broker is not None else MqttBroker(),
            config=config,
            rng=self._rng(0),
        )

    def build_live(
        self,
        powers_fn: Optional[Callable[[], np.ndarray]] = None,
        clocks: Optional[Sequence[Callable[[float], float]]] = None,
    ) -> LiveCluster:
        """Kernel + broker + nodes + telemetry plane (+ capping agents).

        The broker's clock is the kernel clock, so retained messages and
        logs carry simulated timestamps.  Per-node sampling noise is
        seeded from the builder seed (stream ``seed*1000 + node_id``),
        matching :class:`DavideSystem`'s convention.
        """
        env = Environment()
        obs = Observability(clock=lambda: env.now) if self._observed else null_observability()
        broker = MqttBroker(clock=lambda: env.now)
        broker.bind_observability(obs)
        nodes = self.build_nodes()
        telemetry = TelemetryPlane(
            env,
            nodes,
            broker,
            topic_prefix=self.topic_prefix,
            batched=self._batched,
            rngs=[self._rng(i) for i in range(self.n_nodes)],
            clocks=clocks,
            powers_fn=powers_fn,
            obs=obs,
            **self._gateway_kw,
        )
        agents: list[CappingAgent] = []
        if self._capping_kw is not None:
            batch_topic = telemetry.array.topic if telemetry.array is not None else None
            agents = [
                CappingAgent(
                    env, node, broker,
                    topic_prefix=self.topic_prefix,
                    batch_topic=batch_topic,
                    obs=obs,
                    **self._capping_kw,
                )
                for node in nodes
            ]
        return LiveCluster(env, broker, nodes, telemetry, agents, obs=obs)

    def build_simulator(self) -> ClusterSimulator:
        """A :class:`ClusterSimulator` for scheduling/energy studies."""
        policy = self._policy if self._policy is not None else FifoScheduler()
        kw = dict(self._sched_kw)
        if self._observed and "obs" not in kw:
            kw["obs"] = Observability()
        return ClusterSimulator(
            self.n_nodes,
            policy,
            cap_w=self._sched_cap_w,
            **kw,
        )

    def build_system(self) -> DavideSystem:
        """The integrated Fig.-4 measurement/accounting pipeline."""
        obs = Observability() if self._observed else None
        return DavideSystem(seed=self.seed, obs=obs)

    def build_drill(self, fail_fast: bool = False) -> FaultDrill:
        """A :class:`FaultDrill` sharing the builder's knobs.

        The gateway period configured via :meth:`with_gateways`, the
        ``batched`` flag, and the scheduler budget from
        :meth:`with_scheduler` all map onto the corresponding
        :class:`DrillConfig` fields; :meth:`with_faults` overrides win.
        """
        fields: dict = {"n_nodes": self.n_nodes, "seed": self.seed}
        if self._gateway_kw:
            fields["gateway_period_s"] = self._gateway_kw["period_s"]
        fields["batched_telemetry"] = self._batched
        if self._sched_cap_w is not None:
            fields["power_budget_w"] = self._sched_cap_w
        fields["observability"] = self._observed
        fields.update(self._drill_kw)
        return FaultDrill(DrillConfig(**fields), fail_fast=fail_fast)
