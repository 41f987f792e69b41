"""E01 — the Top500/Green500 energy-efficiency landscape (paper Section I).

Paper claims regenerated here:
* TaihuLight: 93 PFlops in 15.4 MW -> 6 GFlops/W; Tianhe-2: 33.8 PFlops in
  17.8 MW -> ~2 GFlops/W; the 3x efficiency jump between them;
* DGX SaturnV 9.5 and Piz Daint 7.5 GFlops/W lead the Green500, both P100;
* 9 of the top-10 Green500 use accelerators (here: all P100 entries rank
  above all non-accelerated ones except TaihuLight's custom silicon);
* D.A.V.I.D.E.'s projection lands among the efficiency leaders.
"""

import pytest

from repro.analysis import (
    NOV2016_SNAPSHOT,
    davide_projection,
    efficiency_ratio,
    green500_ranking,
    top500_ranking,
)


def _build_landscape():
    entries = NOV2016_SNAPSHOT + [davide_projection()]
    return top500_ranking(entries), green500_ranking(entries)


def test_e01_green500_landscape(benchmark, table):
    top, green = benchmark(_build_landscape)

    table(
        "E01: Green500 ranking (Nov 2016 snapshot + D.A.V.I.D.E. projection)",
        ["rank", "system", "Rmax [PF]", "power [MW]", "GF/W", "accelerator"],
        [
            [i + 1, e.name, f"{e.rmax_pflops:.2f}", f"{e.power_mw:.3f}",
             f"{e.gflops_per_w:.2f}", e.accelerator or "-"]
            for i, e in enumerate(green)
        ],
    )

    # Paper figures.
    by_name = {e.name: e for e in green}
    assert by_name["Sunway TaihuLight"].gflops_per_w == pytest.approx(6.0, rel=0.02)
    assert by_name["Tianhe-2"].gflops_per_w == pytest.approx(1.9, rel=0.05)
    assert by_name["DGX SaturnV"].gflops_per_w == pytest.approx(9.5, rel=0.02)
    assert by_name["Piz Daint"].gflops_per_w == pytest.approx(7.5, rel=0.02)
    assert efficiency_ratio("Sunway TaihuLight", "Tianhe-2") == pytest.approx(3.0, rel=0.1)
    # Top500 order differs from Green500 order (the paper's framing).
    assert top[0].name == "Sunway TaihuLight"
    assert green[0].name != top[1].name
    # D.A.V.I.D.E. projected among the top-3 most efficient.
    davide_rank = [e.name for e in green].index("D.A.V.I.D.E. (projected)") + 1
    assert davide_rank <= 3
    # The projection's 75% Linpack-efficiency assumption is corroborated
    # by the HPL performance model on the actual machine configuration.
    from repro.analysis import HplModel

    derived = HplModel().rmax().efficiency
    print(f"\nHPL model: derived Linpack efficiency {derived:.3f} "
          f"(projection assumed 0.750)")
    assert derived == pytest.approx(0.75, abs=0.10)
