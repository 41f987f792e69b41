"""The TCO model.

The total cost of ownership split between capex and energy opex that
makes "power consumption ... responsible for a significant slice of
their TCO" (the paper's introduction).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..telemetry.accounting import PRICE_PER_KWH

__all__ = ["TcoModel"]

#: Facility PUE of the hot-water-cooled machine.
PUE = 1.1
#: Service life the capex is spread over.
LIFETIME_YEARS = 5.0
#: Fraction of the time the machine runs at its average draw.
UTILIZATION = 0.85
#: Yearly maintenance, as a fraction of capex.
MAINTENANCE_FRACTION_PER_YEAR = 0.05


@dataclass(frozen=True)
class TcoModel:
    """Total cost of ownership over the system's service life."""

    capex: float                      # purchase + installation
    it_power_w: float                 # average IT draw

    def __post_init__(self) -> None:
        if self.capex < 0 or self.it_power_w <= 0:
            raise ValueError("invalid capex or IT power")

    @property
    def annual_energy_kwh(self) -> float:
        """Facility energy per year."""
        hours = 8760.0 * UTILIZATION
        return self.it_power_w * PUE / 1000.0 * hours

    @property
    def annual_energy_cost(self) -> float:
        """Electricity bill per year."""
        return self.annual_energy_kwh * PRICE_PER_KWH

    @property
    def lifetime_energy_cost(self) -> float:
        """Electricity over the service life."""
        return self.annual_energy_cost * LIFETIME_YEARS

    @property
    def lifetime_maintenance_cost(self) -> float:
        """Maintenance over the service life."""
        return self.capex * MAINTENANCE_FRACTION_PER_YEAR * LIFETIME_YEARS

    @property
    def total(self) -> float:
        """Lifetime TCO."""
        return self.capex + self.lifetime_energy_cost + self.lifetime_maintenance_cost

    @property
    def energy_fraction(self) -> float:
        """Share of the TCO that is electricity — the paper's motivation."""
        return self.lifetime_energy_cost / self.total
