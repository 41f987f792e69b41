"""Tests for energy metrics, TCO and the Top500/Green500 snapshot."""

import pytest

from repro.analysis import (
    NOV2016_SNAPSHOT,
    SystemEntry,
    TcoModel,
    davide_projection,
    efficiency_ratio,
    green500_ranking,
    top500_ranking,
)


class TestTco:
    def model(self):
        return TcoModel(capex=2_000_000.0, it_power_w=100e3, pue=1.1,
                        electricity_price_per_kwh=0.25, lifetime_years=5.0)

    def test_annual_energy(self):
        m = self.model()
        # 100 kW * 1.1 * 8760 h * 0.85 util = ~819 MWh/yr.
        assert m.annual_energy_kwh == pytest.approx(819e3, rel=0.01)

    def test_energy_is_significant_tco_slice(self):
        # The paper's motivation: electricity is a large share of TCO.
        m = self.model()
        assert 0.2 < m.energy_fraction < 0.6

    def test_total_includes_all_components(self):
        m = self.model()
        assert m.total == pytest.approx(
            m.capex + m.lifetime_energy_cost + m.lifetime_maintenance_cost
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            TcoModel(capex=-1.0, it_power_w=1e3)
        with pytest.raises(ValueError):
            TcoModel(capex=1.0, it_power_w=1e3, pue=0.9)
        with pytest.raises(ValueError):
            TcoModel(capex=1.0, it_power_w=1e3, utilization=0.0)


class TestSnapshot:
    def test_taihulight_tops_top500(self):
        assert top500_ranking()[0].name == "Sunway TaihuLight"

    def test_paper_efficiency_figures(self):
        by_name = {e.name: e for e in NOV2016_SNAPSHOT}
        # Paper: TaihuLight 6 GF/W, Tianhe-2 ~2 GF/W, SaturnV 9.5, Piz Daint 7.5.
        assert by_name["Sunway TaihuLight"].gflops_per_w == pytest.approx(6.0, rel=0.02)
        assert by_name["Tianhe-2"].gflops_per_w == pytest.approx(1.9, rel=0.05)
        assert by_name["DGX SaturnV"].gflops_per_w == pytest.approx(9.5, rel=0.02)
        assert by_name["Piz Daint"].gflops_per_w == pytest.approx(7.5, rel=0.02)

    def test_taihulight_3x_tianhe2(self):
        assert efficiency_ratio("Sunway TaihuLight", "Tianhe-2") == pytest.approx(3.0, rel=0.1)

    def test_green500_top_two_use_p100(self):
        top2 = green500_ranking()[:2]
        assert {e.name for e in top2} == {"DGX SaturnV", "Piz Daint"}
        assert all(e.accelerator == "P100" for e in top2)

    def test_davide_projection_leads_green500(self):
        davide = davide_projection()
        ranking = green500_ranking(NOV2016_SNAPSHOT + [davide])
        # ~7.6 GF/W Linpack-derated: competitive with the 2016 leaders.
        assert ranking.index(davide) <= 2
        assert davide.gflops_per_w > 7.0

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            SystemEntry("x", rmax_pflops=0.0, power_mw=1.0)
        with pytest.raises(ValueError):
            davide_projection(linpack_efficiency=0.0)

    def test_unknown_system_in_ratio(self):
        with pytest.raises(KeyError):
            efficiency_ratio("Nonexistent", "Tianhe-2")
