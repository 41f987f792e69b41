"""E10 — application porting study (paper Section IV).

Claims regenerated per application, CPU-only vs GPU-PCIe vs GPU-NVLink:
all four codes gain time- and energy-to-solution from the GPUs; NVLink's
benefit concentrates where the paper says it does (QE's FFT pair
exchange, BQCD's QUDA peer-to-peer), while NEMO — bandwidth-bound with
no device-peer traffic — gains little from NVLink over PCIe.
"""

import pytest

from repro.apps import ALL_APPS, ExecutionPlatform


def _port_study():
    platforms = {
        "cpu-only": ExecutionPlatform.cpu_only(),
        "gpu-pcie": ExecutionPlatform.gpu_pcie(),
        "gpu-nvlink": ExecutionPlatform.gpu_nvlink(),
    }
    results = {}
    for app_name, factory in ALL_APPS.items():
        app = factory(n_iterations=10)
        results[app_name] = {
            plat_name: plat.run(app, n_nodes=4) for plat_name, plat in platforms.items()
        }
    return results


def test_e10_application_porting(benchmark, table):
    results = benchmark(_port_study)
    rows = []
    for app_name, by_platform in results.items():
        cpu = by_platform["cpu-only"]
        pcie = by_platform["gpu-pcie"]
        nvl = by_platform["gpu-nvlink"]
        rows.append([
            app_name,
            f"{cpu.time_to_solution_s:.2f}",
            f"{cpu.time_to_solution_s / pcie.time_to_solution_s:.1f}x",
            f"{cpu.time_to_solution_s / nvl.time_to_solution_s:.1f}x",
            f"{pcie.time_to_solution_s / nvl.time_to_solution_s:.2f}x",
            f"{cpu.energy_to_solution_j / nvl.energy_to_solution_j:.1f}x",
        ])
    table(
        "E10: porting study (4 nodes; speedups vs CPU-only, NVLink vs PCIe)",
        ["app", "CPU TTS [s]", "GPU-PCIe speedup", "GPU-NVLink speedup",
         "NVLink/PCIe", "energy saving"],
        rows,
    )

    for app_name, by_platform in results.items():
        cpu, pcie, nvl = (by_platform[k] for k in ("cpu-only", "gpu-pcie", "gpu-nvlink"))
        # Every app gains time and energy from the port.
        assert nvl.time_to_solution_s < cpu.time_to_solution_s, app_name
        assert nvl.energy_to_solution_j < cpu.energy_to_solution_j, app_name
    # NVLink's advantage concentrates where the paper says.
    nvlink_gain = {
        name: r["gpu-pcie"].time_to_solution_s / r["gpu-nvlink"].time_to_solution_s
        for name, r in results.items()
    }
    assert nvlink_gain["qe"] > 1.10
    assert nvlink_gain["bqcd"] > 1.02
    assert nvlink_gain["nemo"] < 1.05
    assert nvlink_gain["qe"] > nvlink_gain["nemo"]


def _strong_scaling():
    from repro.apps import specfem3d

    platform = ExecutionPlatform.gpu_nvlink()
    out = []
    for n_nodes, scale in [(2, 1.0), (8, 0.25), (32, 0.0625)]:
        app = specfem3d(scale=scale, n_iterations=10)
        out.append((n_nodes, scale, platform.run(app, n_nodes=n_nodes).comm_fraction()))
    return out


def test_e10a_strong_scaling_comm_fraction(benchmark, table):
    """Messaging stays negligible 'as long as you have sufficient amount
    of work per GPU' (SPECFEM3D claim) — and grows under strong scaling."""
    sweep = benchmark(_strong_scaling)
    fractions = [f for _, _, f in sweep]
    rows = [[n, f"{s:g}", f"{f * 100:.1f}%"] for n, s, f in sweep]
    table("E10a: SPECFEM3D strong scaling (fixed global problem)",
          ["nodes", "per-node scale", "comm fraction"], rows)
    assert fractions[0] < 0.15          # plenty of work per GPU: comm minor
    assert fractions[-1] > fractions[0]  # strong scaling exposes messaging
