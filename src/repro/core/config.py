"""System-level configuration for the integrated D.A.V.I.D.E. reproduction."""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.specs import DAVIDE_SYSTEM, SystemSpec
from ..monitoring.gateway import GatewayConfig

__all__ = ["DavideConfig"]

#: Gateway acquisition used for per-job power measurement.  The pipeline
#: samples a short representative window per job through the full
#: sensor/ADC chain and scales by duration, so a lighter output rate
#: than the production 50 kS/s keeps campaigns fast without changing
#: the measurement physics.
GATEWAY = GatewayConfig(adc_rate_hz=160e3)
#: Window length of the per-job gateway measurement, in s.
MEASUREMENT_WINDOW_S = 0.02
#: Fraction of the job stream used as predictor training history.
TRAIN_FRACTION = 0.5


@dataclass(frozen=True)
class DavideConfig:
    """Knobs of the integrated system (Fig. 4 pipeline)."""

    system: SystemSpec = DAVIDE_SYSTEM
