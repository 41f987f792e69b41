"""repro — a full-stack reproduction of the D.A.V.I.D.E. energy-aware
petaflops-class HPC cluster (Abu Ahmad et al., 2017).

The package implements, from scratch, every system the paper describes:
the hardware envelope (POWER8+/P100 Garrison nodes, OpenRack power
shelves, EDR fat-tree), the BeagleBone energy-gateway monitoring chain
(sensors, 12-bit SAR ADC, hardware decimation, MQTT, PTP), the
energy-aware software stack (per-job accounting, job-power predictors,
proactive + reactive power-capped scheduling, energy-proportionality
APIs), the cooling plant (direct liquid cooling, thermal throttling),
and phase models of the four ported applications.

Start with :class:`repro.cluster.ClusterBuilder` — one facade that
assembles every artifact shape (bare hardware, live agents on the
kernel, the scheduling simulator, the integrated system, the fault
drill) — or import the subsystem packages directly.  The most-used
entry points are re-exported here, so::

    from repro import ClusterBuilder, FaultInjector, PowerTrace

Re-exports are lazy (PEP 562): a subpackage is imported the first time
one of its names is looked up, so a process pays only for what it
uses.  A campaign never loads the hardware, monitoring or DSP stacks,
and no path loads SciPy or NetworkX: NumPy is the only runtime
dependency.
"""

from ._lazy import lazy

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy(__name__, {
    ".": (
        "analysis", "apps", "capping", "cluster", "cooling", "core", "energyapi",
        "faults", "hardware", "monitoring", "network", "observability", "power",
        "prediction", "runtime", "scheduler", "sim", "telemetry", "timesync",
    ),
    ".cluster": ("ClusterBuilder", "LiveCluster", "TelemetryPlane"),
    ".core": ("CampaignReport", "DavideConfig", "DavideSystem"),
    ".explore": (
        "Categorical", "Continuous", "DesignSpace", "ExplorationEnv",
        "ExplorationTrace", "Integer", "Objective", "explore",
    ),
    ".faults": ("DrillConfig", "FaultDrill", "FaultInjector", "FaultKind", "FaultSpec"),
    ".monitoring": ("MqttBroker",),
    ".observability": ("MetricsRegistry", "Observability", "Tracer"),
    ".power": ("PowerTrace",),
    ".sim": ("Environment",),
})
__all__.append("__version__")

# The search entry point deliberately shadows the ``repro.explore``
# subpackage attribute: ``from repro import explore`` hands you the
# callable, while ``import repro.explore`` / ``from repro.explore
# import ...`` keep resolving the package through ``sys.modules``.
# Importing a submodule rebinds its parent's attribute to it, so the
# callable is bound eagerly, after the subpackage has been imported.
from .explore.run import explore  # noqa: E402
