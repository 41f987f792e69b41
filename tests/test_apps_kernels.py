"""Numerical tests for the real CG mini-kernel."""

import numpy as np
import pytest

from repro.apps import cg_solve


class TestCg:
    def spd_system(self, n=50, seed=0):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, n))
        A = A @ A.T + n * np.eye(n)
        x_true = rng.normal(size=n)
        return A, x_true, A @ x_true

    def test_converges_to_solution(self):
        A, x_true, b = self.spd_system()
        result = cg_solve(lambda v: A @ v, b, tol=1e-10)
        assert result.converged
        assert np.allclose(result.x, x_true, atol=1e-6)

    def test_iteration_count_bounded_by_dimension(self):
        # Exact CG converges in at most n steps (plus rounding slack).
        A, _, b = self.spd_system(n=30, seed=1)
        result = cg_solve(lambda v: A @ v, b, tol=1e-12, max_iter=100)
        assert result.converged
        assert result.iterations <= 40

    def test_zero_rhs_immediate(self):
        result = cg_solve(lambda v: v, np.zeros(10))
        assert result.converged and result.iterations == 0

    def test_non_spd_detected(self):
        A = -np.eye(5)
        with pytest.raises(np.linalg.LinAlgError):
            cg_solve(lambda v: A @ v, np.ones(5))

    def test_max_iter_reached_reports_not_converged(self):
        A, _, b = self.spd_system(n=60, seed=2)
        result = cg_solve(lambda v: A @ v, b, tol=1e-14, max_iter=2)
        assert not result.converged
        assert result.iterations == 2

    def test_warm_start(self):
        A, x_true, b = self.spd_system(n=40, seed=3)
        cold = cg_solve(lambda v: A @ v, b, tol=1e-10)
        warm = cg_solve(lambda v: A @ v, b, x0=x_true + 1e-8, tol=1e-10)
        assert warm.iterations <= cold.iterations

    def test_validation(self):
        with pytest.raises(ValueError):
            cg_solve(lambda v: v, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            cg_solve(lambda v: v, np.ones(3), tol=0.0)
