"""The TCO model.

The total cost of ownership split between capex and energy opex that
makes "power consumption ... responsible for a significant slice of
their TCO" (the paper's introduction).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TcoModel"]


@dataclass(frozen=True)
class TcoModel:
    """Total cost of ownership over the system's service life."""

    capex: float                      # purchase + installation
    it_power_w: float                 # average IT draw
    pue: float = 1.1
    electricity_price_per_kwh: float = 0.25
    lifetime_years: float = 5.0
    utilization: float = 0.85         # fraction of time at the average draw
    maintenance_fraction_per_year: float = 0.05  # of capex

    def __post_init__(self) -> None:
        if self.capex < 0 or self.it_power_w <= 0:
            raise ValueError("invalid capex or IT power")
        if self.pue < 1.0:
            raise ValueError("PUE must be >= 1")
        if not 0 < self.utilization <= 1:
            raise ValueError("utilization must lie in (0, 1]")

    @property
    def annual_energy_kwh(self) -> float:
        """Facility energy per year."""
        hours = 8760.0 * self.utilization
        return self.it_power_w * self.pue / 1000.0 * hours

    @property
    def annual_energy_cost(self) -> float:
        """Electricity bill per year."""
        return self.annual_energy_kwh * self.electricity_price_per_kwh

    @property
    def lifetime_energy_cost(self) -> float:
        """Electricity over the service life."""
        return self.annual_energy_cost * self.lifetime_years

    @property
    def lifetime_maintenance_cost(self) -> float:
        """Maintenance over the service life."""
        return self.capex * self.maintenance_fraction_per_year * self.lifetime_years

    @property
    def total(self) -> float:
        """Lifetime TCO."""
        return self.capex + self.lifetime_energy_cost + self.lifetime_maintenance_cost

    @property
    def energy_fraction(self) -> float:
        """Share of the TCO that is electricity — the paper's motivation."""
        return self.lifetime_energy_cost / self.total
