"""A real NumPy mini-kernel matching BQCD's hot loop.

The phase models in :mod:`repro.apps.codes` are analytic; this kernel
is an *actual computation* with the same structure — an
even/odd-preconditioned conjugate gradient (BQCD).  The examples use it
to generate genuine dynamic power/phase traces for the monitoring
stack, and the tests use it to validate numerical behaviour (the CG
really converges).

It follows the HPC-Python idioms: preallocated arrays, in-place
updates, vectorised slicing — no Python-level inner loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["cg_solve", "CgResult"]


@dataclass(frozen=True)
class CgResult:
    """Outcome of a conjugate-gradient solve."""

    x: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool


def cg_solve(
    matvec,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int = 1000,
) -> CgResult:
    """Conjugate gradient on an SPD operator (the BQCD solver core).

    ``matvec(v)`` applies the operator.  Preallocates all work vectors
    and performs in-place updates — the allocation-free inner loop the
    real solvers use.
    """
    if b.ndim != 1:
        raise ValueError("b must be a vector")
    if tol <= 0 or max_iter < 1:
        raise ValueError("invalid tolerance or iteration limit")
    x = np.zeros_like(b) if x0 is None else x0.astype(float, copy=True)
    r = b - matvec(x)
    p = r.copy()
    rs = float(r @ r)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0:
        return CgResult(x=np.zeros_like(b), iterations=0, residual_norm=0.0, converged=True)
    for it in range(1, max_iter + 1):
        Ap = matvec(p)
        denom = float(p @ Ap)
        if denom <= 0:
            raise np.linalg.LinAlgError("operator is not positive definite")
        alpha = rs / denom
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= tol * b_norm:
            return CgResult(x=x, iterations=it, residual_norm=float(np.sqrt(rs_new)), converged=True)
        p *= rs_new / rs
        p += r
        rs = rs_new
    return CgResult(x=x, iterations=max_iter, residual_norm=float(np.sqrt(rs)), converged=False)
