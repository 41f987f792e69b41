"""System-level configuration for the integrated D.A.V.I.D.E. reproduction."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..hardware.specs import DAVIDE_SYSTEM, SystemSpec
from ..monitoring.gateway import GatewayConfig

__all__ = ["DavideConfig"]


@dataclass(frozen=True)
class DavideConfig:
    """Knobs of the integrated system (Fig. 4 pipeline)."""

    system: SystemSpec = DAVIDE_SYSTEM
    #: Gateway acquisition used for per-job power measurement.  The
    #: pipeline samples a short representative window per job through the
    #: full sensor/ADC chain and scales by duration, so a lighter output
    #: rate than the production 50 kS/s keeps campaigns fast without
    #: changing the measurement physics.
    gateway: GatewayConfig = GatewayConfig(adc_rate_hz=160e3, decimation=16)
    #: Window length of the per-job gateway measurement.
    measurement_window_s: float = 0.02
    #: Idle draw of a node as the scheduler's power model sees it.
    idle_node_power_w: float = 300.0
    #: Electricity price used by the accounting layer.
    price_per_kwh: float = 0.25
    #: Fraction of the job stream used as predictor training history.
    train_fraction: float = 0.5
    #: Safety margin the proactive dispatcher holds back.
    headroom_margin: float = 0.03

    def __post_init__(self) -> None:
        if self.measurement_window_s <= 0:
            raise ValueError("measurement window must be positive")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train fraction must lie in (0, 1)")
        if not 0.0 < self.idle_node_power_w < math.inf:
            raise ValueError(f"idle_node_power_w must be positive and finite, "
                             f"got {self.idle_node_power_w!r}")
