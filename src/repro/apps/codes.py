"""Phase models of the four applications ported in Section IV.

Each factory returns an :class:`ApplicationModel` whose phase structure
encodes the paper's bottleneck analysis for that code.  ``scale`` grows
the per-node problem size (weak-scaling knob); all work figures are per
node per iteration.

The numbers are chosen so the *shape* of the paper's claims reproduces:

* **Quantum ESPRESSO** — FFT-dominated; the FFT transpose is an
  MPI all-to-all plus GPU-pair peer traffic, so "peer-to-peer GPU-to-GPU
  communication, allowing to localize FFT computation in group of 2
  GPUs" makes NVLink the visible winner;
* **NEMO** — "stencil-based code with limited parallelism, low
  computational intensity and frequent halo exchanges" and a "flat
  timing profile": bandwidth-bound everywhere, GPU speedup tracks the
  HBM2/DDR4 bandwidth ratio, not the flops ratio;
* **SPECFEM3D** — SEM kernels "benefit from the increased bandwidth of
  Pascal"; boundary exchanges "are all already neatly overlapped", so
  messaging barely shows as long as there is enough work per GPU;
* **BQCD** — even/odd-preconditioned CG on a 4-D lattice: sparse matvec
  (Wilson dslash, AI ~ 1 flop/byte), small allreduces every iteration,
  halo exchange in up to 3 dimensions, and QUDA's direct peer-to-peer
  GPU communication that NVLink accelerates transparently.
"""

from __future__ import annotations

from .base import ApplicationModel, CommKind, Device, Phase

__all__ = ["quantum_espresso", "nemo", "specfem3d", "bqcd", "ALL_APPS"]

GIB = 1024**3


def quantum_espresso(scale: float = 1.0, n_iterations: int = 40) -> ApplicationModel:
    """SCF iteration of pw.x: FFTs + transpose + dense subspace algebra."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    fft_points = 2.0e9 * scale           # grid points x bands batched
    return ApplicationModel(
        name="quantum-espresso",
        n_iterations=n_iterations,
        phases=(
            # 3-D FFTs: ~ 5 N log N flops, streaming the grid repeatedly.
            Phase(
                name="fft",
                device=Device.GPU,
                flops=5.0 * fft_points * 31,           # log2(2e9) ~ 31
                bytes_moved=16.0 * fft_points * 6,      # complex doubles, 6 passes
            ),
            # FFT transpose: all-to-all between nodes + GPU-pair exchange
            # inside the node (the NVLink locality the paper highlights).
            Phase(
                name="fft-transpose",
                device=Device.GPU,
                comm=CommKind.ALLTOALL,
                comm_bytes=8e6 * scale,
                ),
            Phase(
                name="fft-pair-exchange",
                device=Device.GPU,
                comm=CommKind.P2P_GPU,
                comm_bytes=1.0 * GIB * scale,
            ),
            # Subspace diagonalisation / GEMMs: compute-bound.
            Phase(
                name="diag-gemm",
                device=Device.GPU,
                flops=4.0e12 * scale,
                bytes_moved=8.0 * GIB * scale / 16,
            ),
            # Residual host work (symmetrisation, mixing).
            Phase(
                name="mixing",
                device=Device.CPU,
                flops=5.0e10 * scale,
                bytes_moved=2.0 * GIB * scale / 8,
            ),
        ),
    )


def nemo(n_iterations: int = 200) -> ApplicationModel:
    """One ocean time step: bandwidth-bound stencils + halo exchanges."""
    grid_bytes = 6.0 * GIB                # prognostic fields per node
    return ApplicationModel(
        name="nemo",
        n_iterations=n_iterations,
        phases=(
            # Flat profile: several stencil sweeps, none dominant, all
            # streaming the grid with ~0.2 flop/byte.
            Phase(
                name="tracer-advection",
                device=Device.GPU,
                flops=0.2 * grid_bytes,
                bytes_moved=grid_bytes,
            ),
            Phase(
                name="momentum",
                device=Device.GPU,
                flops=0.25 * grid_bytes,
                bytes_moved=1.2 * grid_bytes,
            ),
            Phase(
                name="vertical-physics",
                device=Device.GPU,
                flops=0.15 * grid_bytes,
                bytes_moved=0.8 * grid_bytes,
            ),
            # Frequent halo exchanges on the 2-D lat/lon decomposition.
            Phase(
                name="halo",
                device=Device.GPU,
                comm=CommKind.HALO,
                comm_bytes=12e6,
                comm_neighbors=4,
            ),
        ),
    )


def specfem3d(scale: float = 1.0, n_iterations: int = 100) -> ApplicationModel:
    """SEM wave-propagation step: element kernels + overlapped boundaries."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    elements = 1.2e6 * scale
    return ApplicationModel(
        name="specfem3d",
        n_iterations=n_iterations,
        phases=(
            # Element stiffness kernels: moderate AI (~2.5 flop/byte),
            # bandwidth still matters on Pascal.
            Phase(
                name="element-kernels",
                device=Device.GPU,
                flops=3.0e6 * elements / 1e3,
                bytes_moved=1.2e6 * elements / 1e3,
            ),
            # Global assembly: purely bandwidth.
            Phase(
                name="assembly",
                device=Device.GPU,
                flops=0.1e6 * elements / 1e3,
                bytes_moved=0.9e6 * elements / 1e3,
            ),
            # Boundary exchange: small (surface-scaling) and neatly
            # overlapped in the real code; visible only when the work per
            # GPU shrinks under strong scaling.
            Phase(
                name="boundary-exchange",
                device=Device.GPU,
                comm=CommKind.HALO,
                comm_bytes=0.6e6 * scale ** (2 / 3),
                comm_neighbors=6,
            ),
            Phase(
                name="time-update",
                device=Device.GPU,
                flops=0.05e6 * elements / 1e3,
                bytes_moved=0.5e6 * elements / 1e3,
            ),
        ),
    )


def bqcd(scale: float = 1.0, n_iterations: int = 500) -> ApplicationModel:
    """One CG iteration of the Wilson-fermion solver (QUDA-style)."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    lattice_sites = 48**3 * 96 * scale / 8.0  # per node, even/odd preconditioned
    dslash_flops = 1320.0 * lattice_sites     # standard Wilson dslash count
    dslash_bytes = 1440.0 * lattice_sites     # gauge links + spinors (double)
    return ApplicationModel(
        name="bqcd",
        n_iterations=n_iterations,
        phases=(
            # The dominating sparse matvec.
            Phase(
                name="dslash",
                device=Device.GPU,
                flops=dslash_flops,
                bytes_moved=dslash_bytes,
            ),
            # Linear algebra (axpy/dot) riding on bandwidth.
            Phase(
                name="blas1",
                device=Device.GPU,
                flops=48.0 * lattice_sites,
                bytes_moved=384.0 * lattice_sites,
            ),
            # Two small global reductions per CG iteration.
            Phase(
                name="cg-reductions",
                device=Device.GPU,
                comm=CommKind.ALLREDUCE,
                comm_bytes=16.0,
            ),
            # Lattice halo in 3 decomposed dimensions (surface scaling).
            Phase(
                name="lattice-halo",
                device=Device.GPU,
                comm=CommKind.HALO,
                comm_bytes=6e6 * scale ** (2 / 3),
                comm_neighbors=6,
            ),
            # QUDA peer-to-peer between the GPUs of one node: the lattice
            # surfaces the intra-node decomposition exchanges each
            # iteration (tens of MB — large enough that NVLink's 2.5x
            # bandwidth over PCIe shows, small next to the dslash volume).
            Phase(
                name="quda-p2p",
                device=Device.GPU,
                comm=CommKind.P2P_GPU,
                comm_bytes=24e6 * scale,
            ),
        ),
    )


#: All four codes with their factories, keyed by the workload-generator tag.
ALL_APPS = {
    "qe": quantum_espresso,
    "nemo": nemo,
    "specfem": specfem3d,
    "bqcd": bqcd,
}
