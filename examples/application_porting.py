#!/usr/bin/env python3
"""The Section-IV co-design study: porting four codes to the GPU node.

For Quantum ESPRESSO, NEMO, SPECFEM3D and BQCD, runs the phase model on
the three node configurations (CPU-only, GPU over PCIe, GPU over
NVLink), prints the time/energy wins, and demonstrates the
energy-proportionality API: shaping the node around a job that needs
only part of it.

Run:  python examples/application_porting.py
"""

from repro.apps import ALL_APPS, ExecutionPlatform
from repro.cluster import ClusterBuilder
from repro.energyapi import ComponentConfig, NodeEnergyApi, TradeoffRecorder


def porting_study() -> None:
    platforms = {
        "cpu-only": ExecutionPlatform.cpu_only(),
        "gpu-pcie": ExecutionPlatform.gpu_pcie(),
        "gpu-nvlink": ExecutionPlatform.gpu_nvlink(),
    }
    print(f"{'app':10s} {'platform':11s} {'TTS [s]':>9s} {'ETS [kJ]':>9s} "
          f"{'mean W':>7s} {'comm %':>7s}")
    print("-" * 58)
    for app_name, factory in ALL_APPS.items():
        app = factory(n_iterations=20)
        for plat_name, platform in platforms.items():
            r = platform.run(app, n_nodes=4)
            print(f"{app_name:10s} {plat_name:11s} {r.time_to_solution_s:9.2f} "
                  f"{r.energy_to_solution_j / 1e3:9.1f} {r.mean_power_w:7.0f} "
                  f"{r.comm_fraction() * 100:6.1f}%")
        print()


def nvlink_focus() -> None:
    print("NVLink benefit (PCIe time / NVLink time):")
    for app_name, factory in ALL_APPS.items():
        app = factory(n_iterations=20)
        pcie = ExecutionPlatform.gpu_pcie().run(app, n_nodes=4)
        nvl = ExecutionPlatform.gpu_nvlink().run(app, n_nodes=4)
        gain = pcie.time_to_solution_s / nvl.time_to_solution_s
        note = ""
        if app_name == "qe":
            note = "  <- FFT pair exchange localized on the GPU gang"
        if app_name == "bqcd":
            note = "  <- QUDA peer-to-peer over NVLink"
        if app_name == "nemo":
            note = "  <- bandwidth-bound, no device-peer traffic"
        print(f"  {app_name:10s} {gain:5.2f}x{note}")
    print()


def node_shaping() -> None:
    print("energy-proportionality API: shaping the node per job class")
    recorder = TradeoffRecorder()
    shapes = {
        "full node": ComponentConfig(),
        "2 GPUs, 4 cores": ComponentConfig(gpus_needed=2, active_cores_per_cpu=4),
        "CPU-only": ComponentConfig(gpus_needed=0),
    }
    builder = ClusterBuilder(n_nodes=1)
    for label, config in shapes.items():
        node = builder.build_nodes()[0]
        api = NodeEnergyApi(node)
        node.set_utilization(cpu=0.3, gpu=1.0 if "GPU" not in label else 0.5,
                             memory_intensity=0.4)
        api.apply(config)
        print(f"  {label:18s} -> {node.power_w():6.0f} W  (calls: {api.log.calls})")


if __name__ == "__main__":
    porting_study()
    nvlink_focus()
    node_shaping()
