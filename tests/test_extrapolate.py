import ast
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import pcfield
from pcfield import extrapolate, minimax
from pcfield.extrapolate import (
    FACTORIZATION_TOL,
    FactorizationError,
    FactorizationResult,
    _FACTORIZE_TOL,
    functional_variance,
    oracle_solve,
    solve_by_factorization,
    solve_channel,
    spectral_factorize,
    _factor_convolution,
)
from pcfield.simulate import simulate_channel
from pcfield.spectral import (
    MinimalityViolation,
    RationalDensity,
    SpectralDensityGrid,
    as_grid,
    assemble_operators,
    covariance_from_density,
    evaluate_lag_series,
    fourier_coefficients,
    lambda_grid,
    _node_inverse,
    _node_matmul,
)


def random_rational(rng, K, degree=2, pole=None, lag_scale=0.5):
    num = lag_scale * (rng.normal(size=(degree + 1, K, K))
                       + 1j * rng.normal(size=(degree + 1, K, K)))
    num[0] += (2 + K) * np.eye(K)
    den = [1.0] if pole is None else [1.0, -pole]
    return RationalDensity(num, den)


def kolmogorov_one_step_error(density, n_lambda=8192):
    """Independent quadrature of the geometric-mean formula."""
    grid = as_grid(density, n_lambda)
    logs = np.log(grid.values[:, 0, 0].real)
    return float(np.exp(np.mean(logs)))


def _oracle_by_loops(F, G, a, j_past, n_lambda):
    """Reference finite-past oracle: the variance, cross and Gram terms
    gathered block by block from the covariances of F and F + G, with the
    observations ordered -1 .. -j_past."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    J, K = a.shape
    max_lag = j_past + J
    cov_f = covariance_from_density(as_grid(F, n_lambda), max_lag).matrices
    cov_o = cov_f.copy()
    if G is not None:
        cov_o = cov_o + covariance_from_density(as_grid(G, n_lambda), max_lag).matrices

    var = 0.0j
    for j1 in range(J):
        for j2 in range(J):
            var += a[j1] @ cov_f[max_lag + j1 - j2] @ np.conj(a[j2])
    times = -np.arange(1, j_past + 1)
    gram = np.zeros((j_past * K, j_past * K), dtype=complex)
    for i1, s1 in enumerate(times):
        for i2, s2 in enumerate(times):
            gram[i1 * K:(i1 + 1) * K, i2 * K:(i2 + 1) * K] = cov_o[max_lag + s1 - s2]
    cross = np.zeros(j_past * K, dtype=complex)
    for i, s in enumerate(times):
        for j in range(J):
            cross[i * K:(i + 1) * K] += cov_f[max_lag + j - s].T @ a[j]
    gram = (gram + gram.conj().T) / 2
    solved = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram), np.conj(cross))
    return float(np.real(var)) - float(np.real(cross @ solved))


class TestWhiteNoise:
    def test_unit_variance_coefficients_and_error_exact(self):
        a = np.array([[1.0], [0.5], [-0.25]])
        sol = solve_channel(SpectralDensityGrid.white(1, 1.0, 512), None, a, window=16)
        assert np.max(np.abs(sol.coefficients[:3] - a)) < 1e-12
        assert np.max(np.abs(sol.coefficients[3:])) < 1e-12
        assert sol.delta == pytest.approx(float(np.sum(np.abs(a) ** 2)), abs=1e-10)
        assert np.max(np.abs(sol.h_grid)) < 1e-12

    def test_scaled_variance(self):
        # B = sigma^{-2} I, so the solved coefficients carry the variance
        # factor while the error scales exactly
        sigma2 = 2.25
        a = np.array([[1.0], [0.5], [-0.25]])
        sol = solve_channel(SpectralDensityGrid.white(1, sigma2, 512), None, a, window=16)
        assert np.max(np.abs(sol.coefficients[:3] - sigma2 * a)) < 1e-12
        assert sol.delta == pytest.approx(sigma2 * float(np.sum(np.abs(a) ** 2)),
                                          abs=1e-10)
        assert np.max(np.abs(sol.h_grid)) < 1e-12

    def test_jointly_white_noisy(self):
        a = np.array([[1.0], [2.0]])
        sol = solve_channel(SpectralDensityGrid.white(1, 1.0, 512),
                            SpectralDensityGrid.white(1, 1.0, 512), a, window=16)
        assert np.max(np.abs(sol.coefficients[:2] - a)) < 1e-12
        # signal and noise jointly white: the past is useless and the error
        # equals the functional's variance
        assert sol.delta == pytest.approx(5.0, abs=1e-10)


class TestAutoregressive:
    def test_one_step_prediction_error(self):
        F = RationalDensity.ar1(0.5)
        sol = solve_channel(F, None, np.array([[1.0]]), window=96)
        oracle = kolmogorov_one_step_error(F)
        assert sol.delta == pytest.approx(1.0, abs=1e-6)
        assert sol.delta == pytest.approx(oracle, abs=1e-6)

    def test_coefficients_are_powers(self):
        sol = solve_channel(RationalDensity.ar1(0.5), None, np.array([[1.0]]), window=64)
        expect = 0.5 ** np.arange(8)
        assert np.max(np.abs(sol.coefficients[:8, 0] - expect)) < 1e-10

    def test_spectral_characteristic(self):
        sol = solve_channel(RationalDensity.ar1(0.5), None, np.array([[1.0]]), window=64)
        lam = lambda_grid(sol.h_grid.shape[0])
        assert np.max(np.abs(sol.h_grid[:, 0] - 0.5 * np.exp(-1j * lam))) < 1e-12

    def test_time_domain_weights(self):
        sol = solve_channel(RationalDensity.ar1(0.5), None, np.array([[1.0]]), window=64)
        w = sol.h_lag_coefficients(4)
        assert w[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert np.max(np.abs(w[1:])) < 1e-12


class TestSolveChannelContracts:
    def test_noiseless_matches_vanishing_noise(self):
        rng = np.random.default_rng(2)
        F = as_grid(random_rational(rng, 2, pole=0.4), 1024)
        a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        eps = SpectralDensityGrid.white(2, 1e-8, 1024)
        s0 = solve_channel(F, None, a, window=48)
        s1 = solve_channel(F, eps, a, window=48)
        assert np.max(np.abs(s0.coefficients - s1.coefficients)) < 1e-6
        assert s1.delta == pytest.approx(s0.delta, rel=1e-7)

    def test_two_characteristic_forms_agree(self):
        rng = np.random.default_rng(4)
        F = as_grid(random_rational(rng, 2, pole=0.3), 1024)
        G = as_grid(random_rational(rng, 2, degree=1), 1024)
        a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        sol = solve_channel(F, G, a, window=48)
        # first form: (A^T F - C^T)(F+G)^{-1}, rebuilt from the solution
        from pcfield.extrapolate import _functional_on_grid

        a_pad = np.zeros((48, 2), dtype=complex)
        a_pad[:3] = a
        A = _functional_on_grid(a_pad, 1024)
        C = _functional_on_grid(sol.coefficients, 1024)
        inv_total = np.linalg.inv(F.values + G.values)
        first = np.einsum("tn,tnk->tk",
                          np.einsum("tk,tkn->tn", A, F.values) - C, inv_total)
        assert np.max(np.abs(first - sol.h_grid)) < 1e-10

    def test_causality_and_orthogonality_diagnostics(self):
        rng = np.random.default_rng(5)
        for _ in range(4):
            K = int(rng.integers(1, 3))
            F = as_grid(random_rational(rng, K, pole=float(rng.uniform(-0.5, 0.5))), 1024)
            G = (as_grid(random_rational(rng, K, degree=1), 1024)
                 if rng.integers(0, 2) else None)
            a = rng.normal(size=(4, K)) + 1j * rng.normal(size=(4, K))
            sol = solve_channel(F, G, a, window=64)
            assert sol.diagnostics["causal_leakage"] <= 1e-6
            assert sol.diagnostics["orthogonality_residual"] <= 1e-6
            assert sol.delta >= -1e-10

    @pytest.mark.parametrize("factor", [1.01, 0.5])
    def test_perturbed_coefficients_lift_causal_leakage(self, monkeypatch, factor):
        # both diagnostics check the coefficient solve: coefficients off the
        # solution put energy of h at nonnegative lags, and leave a residual
        # ||B c - D a|| / ||D a|| of factor - 1
        rng = np.random.default_rng(8)
        F = as_grid(random_rational(rng, 3, pole=0.4), 1024)
        G = as_grid(random_rational(rng, 3, degree=1), 1024)
        a = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        exact = solve_channel(F, G, a, window=48).diagnostics
        solve_pd = extrapolate._solve_pd
        monkeypatch.setattr(extrapolate, "_solve_pd",
                            lambda B, rhs: factor * solve_pd(B, rhs))
        perturbed = solve_channel(F, G, a, window=48).diagnostics
        assert exact["causal_leakage"] <= 1e-12
        assert perturbed["causal_leakage"] > 1e-6
        assert perturbed["orthogonality_residual"] > 1e-6

    @pytest.mark.parametrize("noisy", [False, True])
    def test_delta_is_the_toeplitz_quadratic_form(self, noisy):
        # delta, read off h, against a* R a + c* B c with R the block
        # Toeplitz operator of F (F + G)^{-1} G (zero without noise)
        rng = np.random.default_rng(9)
        n, window, K = 1024, 32, 2
        F = as_grid(random_rational(rng, K, pole=0.4), n)
        G = as_grid(random_rational(rng, K, degree=1), n) if noisy else None
        a = rng.normal(size=(3, K)) + 1j * rng.normal(size=(3, K))
        sol = solve_channel(F, G, a, window=window)
        a_vec = np.zeros(window * K, dtype=complex)
        a_vec[:a.size] = a.ravel()
        c_vec = sol.coefficients.ravel()
        ops = assemble_operators(F, G, window=window)
        quadratic = np.real(c_vec.conj() @ ops.B @ c_vec)
        if noisy:
            total = F.values + G.values
            symbol = F.values @ np.linalg.inv(total) @ G.values
            lags = np.arange(-(window - 1), window)
            coeffs = fourier_coefficients(np.swapaxes(symbol, 1, 2), lags)
            R = np.block([[coeffs[j - s + window - 1] for j in range(window)]
                          for s in range(window)])
            quadratic += np.real(a_vec.conj() @ R @ a_vec)
        assert sol.delta == pytest.approx(quadratic, rel=1e-12)

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_right_hand_side_is_the_block_toeplitz_product(self, K, noisy):
        # B c against D a, with D placed block by block from the coefficients
        # of F (F + G)^{-1} (the identity without noise)
        rng = np.random.default_rng(40 + K)
        n, window = 512, 24
        F = as_grid(random_rational(rng, K, pole=0.4), n)
        G = as_grid(random_rational(rng, K, degree=1), n) if noisy else None
        a = rng.normal(size=(3, K)) + 1j * rng.normal(size=(3, K))
        sol = solve_channel(F, G, a, window=window)
        ops = assemble_operators(F, G, window=window)
        D = np.eye(window * K, dtype=complex)
        if noisy:
            symbol = _node_matmul(F.values, _node_inverse(F.values + G.values))
            lags = np.arange(-(window - 1), window)
            coeffs = fourier_coefficients(np.swapaxes(symbol, 1, 2), lags)
            for s in range(window):
                for j in range(window):
                    D[s * K:(s + 1) * K, j * K:(j + 1) * K] = coeffs[j - s + window - 1]
        a_vec = np.zeros(window * K, dtype=complex)
        a_vec[:a.size] = a.ravel()
        d = D @ a_vec
        gap = np.linalg.norm(ops.B @ sol.coefficients.ravel() - d)
        assert gap <= 1e-12 * np.linalg.norm(d)

    def test_noise_cannot_reduce_error(self):
        rng = np.random.default_rng(6)
        for _ in range(4):
            F = as_grid(random_rational(rng, 2, pole=0.35), 1024)
            G = as_grid(random_rational(rng, 2, degree=1), 1024)
            a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
            noisy = solve_channel(F, G, a, window=48).delta
            clean = solve_channel(F, None, a, window=48).delta
            assert noisy >= clean - 1e-10

    def test_error_bounded_by_functional_variance(self):
        rng = np.random.default_rng(7)
        F = as_grid(random_rational(rng, 2, pole=0.3), 1024)
        a = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        sol = solve_channel(F, None, a, window=48)
        var = functional_variance(F, a)
        assert -1e-10 <= sol.delta <= var * (1 + 1e-12)

    def test_functional_wider_than_window_rejected(self):
        F = SpectralDensityGrid.white(1, 1.0, 256)
        with pytest.raises(ValueError, match="window"):
            solve_channel(F, None, np.ones((9, 1)), window=8)

    def test_blocked_functional_pipes_into_solver(self):
        from pcfield.blocking import BlockingConfig, functional_to_spec

        cfg = BlockingConfig(period=1.0, n_components=2, dt=1.0 / 8)
        samples = np.concatenate([np.ones(8), np.zeros(16)])
        func = functional_to_spec(samples, cfg)
        sol = solve_channel(SpectralDensityGrid.white(2, 1.0, 512), None, func,
                            window=16)
        # the indicator of one period is the unit zero-frequency weight
        assert sol.delta == pytest.approx(1.0, abs=1e-10)


class TestNonPositiveDefiniteOperator:
    """A B that is not positive definite in floating point is refused, not
    floored: the pair is too badly conditioned to solve."""

    def test_rounding_negative_eigenvalue_is_a_minimality_violation(self):
        # F <= 1, so the exact B satisfies B >= I, but at cond_B ~ 8e17 the
        # computed B has an eigenvalue near -134.  A solve that floors the
        # spectrum reads whatever the floor gives: 1.06e-7 at 1e-12 of the
        # largest eigenvalue, 7.2e22 and 7.2e28 at 1e-12 and 1e-15.  At
        # K = 1 every node has condition 1, so the pointwise minimality
        # check never sees this range.
        n = 512
        F = SpectralDensityGrid(np.maximum(
            np.abs(np.sin(lambda_grid(n) / 2)) ** 8, 1e-19).astype(complex)[:, None, None])
        with pytest.raises(MinimalityViolation, match="assembled B is not positive definite"):
            solve_channel(F, None, np.array([[1.0], [0.5]]), window=48)

    def test_failed_cholesky_is_a_minimality_violation(self):
        with pytest.raises(MinimalityViolation, match="Cholesky factorization of B failed"):
            extrapolate._solve_pd(np.diag([1.0, -1e-3]).astype(complex), np.ones((2, 1)))


class TestOracle:
    def test_white_exact(self):
        a = np.array([[1.0], [0.5], [0.25]])
        got = oracle_solve(SpectralDensityGrid.white(1, 1.0, 512), None, a, j_past=16)
        assert got == pytest.approx(1.3125, abs=1e-12)

    def test_ar1_with_short_past(self):
        got = oracle_solve(RationalDensity.ar1(0.5), None, np.array([[1.0]]),
                           j_past=32, n_lambda=4096)
        assert got == pytest.approx(1.0, abs=1e-8)

    def test_matches_solver_on_random_instance(self):
        rng = np.random.default_rng(1)
        F = random_rational(rng, 2, pole=0.4)
        G = random_rational(rng, 2, degree=1)
        a = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        sol = solve_channel(as_grid(F, 2048), as_grid(G, 2048), a, window=96)
        mse = oracle_solve(F, G, a, j_past=64, n_lambda=2048)
        assert abs(sol.delta - mse) / mse < 1e-5

    @pytest.mark.parametrize("j_past", [8, 64])
    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_matches_loop_reference(self, K, noisy, j_past):
        rng = np.random.default_rng(70 + 2 * K + noisy)
        F = random_rational(rng, K, pole=0.6)
        G = random_rational(rng, K, degree=1) if noisy else None
        a = rng.normal(size=(3, K)) + 1j * rng.normal(size=(3, K))
        got = oracle_solve(F, G, a, j_past=j_past, n_lambda=1024)
        expect = _oracle_by_loops(F, G, a, j_past, 1024)
        assert abs(got - expect) <= 1e-12 * abs(expect)

    def test_singular_gram_is_ridge_stabilized(self):
        # a constant rank-1 density v v* makes the observed components
        # linearly dependent, and its white past says nothing about the
        # future: the error is the functional's variance |a . v|^2 = 2
        v = np.array([1.0, 0.5j])
        F = SpectralDensityGrid.constant(np.outer(v, v.conj()))
        with pytest.warns(RuntimeWarning, match="ridge-stabilized"):
            got = oracle_solve(F, None, np.array([[1.0, 2.0]]), j_past=8)
        assert got == pytest.approx(2.0, rel=1e-12)

    def test_discrepancy_decreases_in_past_window(self):
        rng = np.random.default_rng(9)
        F = random_rational(rng, 1, pole=0.5, lag_scale=0.8)
        a = np.array([[1.0], [0.3]])
        sol = solve_channel(as_grid(F, 2048), None, a, window=96)
        gaps = [abs(oracle_solve(F, None, a, j_past=jp, n_lambda=2048) - sol.delta)
                for jp in (4, 8, 16, 32)]
        assert gaps[0] >= gaps[1] >= gaps[2] >= gaps[3]


class TestFactorization:
    def test_white_density(self):
        fac = spectral_factorize(SpectralDensityGrid.white(2, 2.25, 256))
        assert np.max(np.abs(fac.coefficients[0] - 1.5 * np.eye(2))) < 1e-10
        assert np.max(np.abs(fac.coefficients[1:])) < 1e-10

    def test_moving_average_exact(self):
        fac = spectral_factorize(RationalDensity.ma([1.0, 0.4]))
        assert fac.coefficients[0, 0, 0] == pytest.approx(1.0, abs=1e-8)
        assert fac.coefficients[1, 0, 0] == pytest.approx(0.4, abs=1e-8)
        assert np.max(np.abs(fac.coefficients[2:])) < 1e-8

    def test_reconstruction_residual_random_matrix_density(self):
        rng = np.random.default_rng(13)
        for K in (2, 3, 4):
            F = as_grid(random_rational(rng, K, degree=3), 1024)
            fac = spectral_factorize(F)
            assert fac.residual <= 1e-8
            d0 = fac.coefficients[0]
            assert np.max(np.abs(np.triu(d0, 1))) < 1e-10
            diag = np.diag(d0)
            assert np.max(np.abs(diag.imag)) < 1e-10
            assert np.all(diag.real > 0)

    @pytest.mark.parametrize("K", [1, 3, 4])
    def test_first_sweep_inverts_one_matrix(self, monkeypatch, K):
        # the starting factor is one Cholesky factor broadcast over the grid
        shapes = []
        inv = extrapolate._node_inverse

        def recorded(a):
            shapes.append(np.shape(a))
            return inv(a)

        monkeypatch.setattr(extrapolate, "_node_inverse", recorded)
        F = as_grid(random_rational(np.random.default_rng(5), K), 512)
        fac = spectral_factorize(F)
        assert fac.relative_residual <= _FACTORIZE_TOL and fac.iterations >= 2
        assert shapes == [(1, K, K)] + [(512, K, K)] * (fac.iterations - 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_grid_refused_before_sweeping(self, monkeypatch, bad):
        # check=False lets the grid past SpectralDensityGrid's own check
        def refuse(*args):
            raise AssertionError("a non-finite grid entered Wilson's sweeps")

        monkeypatch.setattr(extrapolate, "_wilson_sweeps", refuse)
        values = as_grid(random_rational(np.random.default_rng(6), 3), 1024).values.copy()
        values[100, 1, 2] = bad
        with pytest.raises(FactorizationError, match="non-finite"):
            spectral_factorize(SpectralDensityGrid(values, check=False))

    @pytest.mark.parametrize("n", [0, 1])
    def test_grid_of_fewer_than_two_nodes_refused(self, n):
        # one node has no causal lag to read the factor from
        values = np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2)).copy()
        with pytest.raises(FactorizationError, match=f"on a {n}-node grid"):
            spectral_factorize(SpectralDensityGrid(values, check=False))
        fac = spectral_factorize(SpectralDensityGrid.white(2, 2.25, 2))
        np.testing.assert_allclose(fac.coefficients, 1.5 * np.eye(2)[None], atol=1e-15)

    def test_rank_deficient_rejected(self):
        with pytest.raises(FactorizationError, match="rank deficient"):
            spectral_factorize(RationalDensity.ma([1.0, -1.0]))

    def test_zero_density_rejected(self):
        with pytest.raises(FactorizationError):
            spectral_factorize(SpectralDensityGrid.zero(2, 128))

    @pytest.mark.parametrize("sweeps, residual", [(1, "4.263e+00"), (0, "9.474e-01")])
    def test_sweep_cap_returns_a_factor_that_is_refused(self, monkeypatch, sweeps, residual):
        # AR(1) 0.9 needs more than one sweep; a cap of 0 runs none and
        # returns the starting factor.  Either factor comes back with its
        # residual, and neither the solve nor the sampler uses it.  The
        # sweeps factorize grids, so the density is given as its grid.
        monkeypatch.setattr("pcfield.extrapolate._FACTORIZE_MAX_SWEEPS", sweeps)
        fac = spectral_factorize(as_grid(RationalDensity.ar1(0.9), 256))
        assert fac.iterations == sweeps
        assert f"{fac.relative_residual:.3e}" == residual
        with pytest.raises(FactorizationError,
                           match=f"relative residual {re.escape(residual)}"):
            solve_by_factorization(fac, np.array([[1.0]]))
        with pytest.raises(FactorizationError,
                           match=f"cannot sample: factor's relative residual {re.escape(residual)}"):
            simulate_channel(fac, 10, seed=1)


def _node_major_causal_half(values):
    """The causal projection along the first (grid) axis of an (n, K, K)
    stack, as the node-major sweeps below took it."""
    n = values.shape[0]
    gamma = np.fft.ifft(values, axis=0)
    gamma[0] *= 0.5
    gamma0 = gamma[0].copy()
    if n % 2 == 0:
        gamma[n // 2] *= 0.5
    gamma[n // 2 + 1:] = 0.0
    return np.fft.fft(gamma, axis=0), gamma0


def _node_major_sweeps(values, sup):
    """Reference: Wilson's sweeps on the strided (n, K, K) stack, with all K^2
    entries of every per-node product, of g and of its projection."""
    gamma0 = np.mean(values, axis=0)
    gamma0 = (gamma0 + gamma0.conj().T) / 2
    psi = np.linalg.cholesky(gamma0)[None]
    ident = np.eye(values.shape[1])
    iterations = 0
    for iterations in range(1, extrapolate._FACTORIZE_MAX_SWEEPS + 1):
        psi_inv = _node_inverse(psi)
        g = _node_matmul(_node_matmul(psi_inv, values),
                         np.conj(np.swapaxes(psi_inv, 1, 2))) + ident
        g_plus, g0 = _node_major_causal_half(g)
        s = np.triu(g0, k=1)
        psi = _node_matmul(psi, g_plus + s - s.conj().T)
        recon = _node_matmul(psi, np.conj(np.swapaxes(psi, 1, 2)))
        if float(np.max(np.linalg.norm(values - recon, axis=(1, 2)))) / sup <= _FACTORIZE_TOL:
            break
    return psi, iterations


class TestEntryPlaneSweeps:
    """The sweeps form the upper triangle of the Hermitian g and psi psi^*
    only, on (K, K, n) entry planes, and run sweep for sweep as the
    node-major reference does."""

    @pytest.mark.parametrize("n", [7, 8, 255, 256])
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_hermitian_half_matches_the_full_projection(self, K, n):
        rng = np.random.default_rng(100 * K + n)
        x = rng.normal(size=(K, K, n)) + 1j * rng.normal(size=(K, K, n))
        g = x + np.conj(np.swapaxes(x, 0, 1))          # Hermitian at every node
        full, full0 = extrapolate._causal_half(g)
        rows, cols = np.triu_indices(K)
        half, half0 = extrapolate._hermitian_causal_half(g[rows, cols], K)
        assert np.max(np.abs(half - full)) <= 1e-15 * np.max(np.abs(full))
        assert np.max(np.abs(half0 - full0[rows, cols])) <= 1e-15 * np.max(np.abs(full0))

    @pytest.mark.parametrize("K, n", [(K, n) for K in (1, 2, 3, 4, 5) for n in (512, 1024)]
                             + [(3, 4096)])
    def test_sweeps_agree_with_the_node_major_sweeps(self, monkeypatch, K, n):
        F = as_grid(random_rational(np.random.default_rng(70 + K), K, pole=0.7), n)
        fac = spectral_factorize(F)
        monkeypatch.setattr(extrapolate, "_wilson_sweeps", _node_major_sweeps)
        ref = spectral_factorize(F)
        assert fac.iterations == ref.iterations > 0
        gap = np.linalg.norm(fac.coefficients - ref.coefficients) / np.linalg.norm(ref.coefficients)
        assert gap <= 1e-13


class TestRiccatiFactor:
    """A rational density is factorized exactly by one Riccati solve; its
    rasterized grid goes through Wilson's sweeps."""

    @staticmethod
    def non_minimum_phase(rng, K):
        # N_1 = 2 randn puts zeros of det N inside the unit disk; the
        # denominator 1 - 2.5 z has its root 0.4 inside it too
        num = rng.normal(size=(3, K, K)) + 1j * rng.normal(size=(3, K, K))
        num[1] *= 2.0
        return RationalDensity(num, [1.0, -2.5])

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_matches_the_sweeps_on_the_same_grid(self, K):
        n = 1024
        F = self.non_minimum_phase(np.random.default_rng(40 + K), K)
        # Jensen's formula: the mean of log|det N| on the circle exceeds
        # log|det N_0| exactly when det N has zeros inside the disk
        num_grid = evaluate_lag_series(F.numerator, -np.arange(3), n)
        assert (np.mean(np.log(np.abs(np.linalg.det(num_grid))))
                > np.log(abs(np.linalg.det(F.numerator[0]))) + 0.1)

        exact = spectral_factorize(F, n)
        swept = spectral_factorize(as_grid(F, n))
        assert exact.iterations == 0 and swept.iterations > 0
        assert exact.relative_residual <= 1e-13
        gap = (np.linalg.norm(exact.coefficients - swept.coefficients)
               / np.linalg.norm(exact.coefficients))
        assert gap <= 1e-9
        d0 = exact.coefficients[0]
        assert np.max(np.abs(np.triu(d0, 1))) <= 1e-12 * np.max(np.abs(d0))
        assert np.max(np.abs(np.diag(d0).imag)) <= 1e-12 * np.max(np.abs(d0))
        assert np.all(np.diag(d0).real > 0)

    @staticmethod
    def singular_leading_coefficient():
        # N_0 N_0^* is singular; the density itself is full rank on the circle
        rng = np.random.default_rng(8)
        num = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
        num[0] = np.diag([1.0, 0.0])
        return RationalDensity(num, [1.0, -0.5])

    def test_singular_leading_coefficient_is_factorized_exactly(self):
        # the covariance form needs R_0 = sum_u N_u N_u^* invertible, not N_0
        fac = spectral_factorize(self.singular_leading_coefficient(), 512)
        assert fac.iterations == 0
        assert fac.relative_residual <= 1e-13

    def test_rational_input_never_enters_the_sweeps(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a rational density entered Wilson's sweeps")

        monkeypatch.setattr(extrapolate, "_wilson_sweeps", refuse)
        rng = np.random.default_rng(9)
        densities = [random_rational(rng, K, pole=0.6) for K in (1, 2, 3)]
        for F in densities + [self.singular_leading_coefficient()]:
            fac = spectral_factorize(F, 512)
            assert fac.iterations == 0 and fac.relative_residual <= 1e-13
            simulate_channel(F, 20, seed=1)
        with pytest.raises(AssertionError, match="sweeps"):
            spectral_factorize(as_grid(F, 512))

    def test_a_failed_riccati_solve_is_a_factorization_error(self, monkeypatch):
        # no fallback: the error reaches the caller (the CLI's exit 2)
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Failed to find a finite solution.")

        monkeypatch.setattr(scipy.linalg, "solve_discrete_are", fail)
        with pytest.raises(FactorizationError, match="no stabilizing Riccati solution"):
            spectral_factorize(RationalDensity.ma([1.0, 0.4]))

    @pytest.mark.parametrize("scale", [1e-100, 1e60])
    def test_riccati_factor_scales_with_the_numerator(self, scale):
        F = self.non_minimum_phase(np.random.default_rng(12), 2)
        unit = spectral_factorize(F, 256)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = spectral_factorize(RationalDensity(scale * F.numerator, F.denominator), 256)
        assert scaled.iterations == 0
        np.testing.assert_allclose(scaled.coefficients, scale * unit.coefficients,
                                   rtol=0, atol=1e-13 * scale * np.abs(unit.coefficients).max())

    @pytest.mark.parametrize("scale", [1e-100, 1e100, 1e150])
    @pytest.mark.parametrize("kind", ["rational", "grid"])
    def test_scaled_numerators_factorize(self, kind, scale):
        # the grid is divided by 4^k before the rank floor, the sweeps and
        # the residual, whose squared entries would under- or overflow
        F = self.non_minimum_phase(np.random.default_rng(12), 2)
        F = RationalDensity(scale * F.numerator, F.denominator)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fac = spectral_factorize(F if kind == "rational" else as_grid(F, 256), 256)
        assert (fac.iterations == 0) == (kind == "rational")
        assert fac.relative_residual <= 1e-13
        assert np.all(np.isfinite(fac.coefficients))

    @pytest.mark.parametrize("k", [-200, -3, 5, 120])
    def test_wilson_route_is_equivariant_under_powers_of_four(self, k):
        # 4^k and 2^k scale exactly: same sweeps, factor times 2^k bit for bit
        F = as_grid(self.non_minimum_phase(np.random.default_rng(41), 3), 512)
        base = spectral_factorize(F)
        scaled = spectral_factorize(SpectralDensityGrid(F.values * 2.0**k * 2.0**k))
        assert scaled.iterations == base.iterations > 0
        np.testing.assert_array_equal(scaled.coefficients, base.coefficients * 2.0**k)
        np.testing.assert_array_equal(scaled.factor_grid, base.factor_grid * 2.0**k)
        assert scaled.relative_residual == base.relative_residual

    def test_constant_numerator_is_its_cholesky_factor(self):
        # q = 0: no Riccati equation, Psi_0 = chol(N_0 N_0^*), over den
        N0 = np.array([[2.0, 0.0], [1.0 + 1.0j, 0.5]])
        fac = spectral_factorize(RationalDensity(N0[None], [1.0, -0.5]), 256)
        assert fac.iterations == 0
        expected = np.linalg.cholesky(N0 @ N0.conj().T)
        for u in range(4):
            np.testing.assert_allclose(fac.coefficients[u], 0.5 ** u * expected, atol=1e-14)


class TestFactorizationSolve:
    def test_white_matches_direct(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 2))
        fac = spectral_factorize(SpectralDensityGrid.white(2, 1.0, 512))
        sol = solve_by_factorization(fac, a)
        assert sol.delta == pytest.approx(float(np.sum(a**2)), rel=1e-10)

    def test_ar1_one_step(self):
        fac = spectral_factorize(RationalDensity.ar1(0.5))
        sol = solve_by_factorization(fac, np.array([[1.0]]))
        direct = solve_channel(RationalDensity.ar1(0.5), None, np.array([[1.0]]),
                               window=96)
        assert sol.delta == pytest.approx(1.0, abs=1e-6)
        assert sol.delta == pytest.approx(direct.delta, rel=1e-6)

    def test_ma1_innovation_variance(self):
        fac = spectral_factorize(RationalDensity.ma([1.0, 0.4]))
        sol = solve_by_factorization(fac, np.array([[1.0]]))
        assert sol.delta == pytest.approx(1.0, abs=1e-6)

    def test_cross_method_agreement_random(self):
        rng = np.random.default_rng(17)
        for _ in range(3):
            K = int(rng.integers(1, 4))
            F = as_grid(random_rational(rng, K, degree=2), 1024)
            a = rng.normal(size=(4, K)) + 1j * rng.normal(size=(4, K))
            fac = spectral_factorize(F)
            assert fac.residual <= 1e-8
            s_fac = solve_by_factorization(fac, a)
            s_sys = solve_channel(F, None, a, window=96)
            assert abs(s_fac.delta - s_sys.delta) / s_sys.delta < 1e-6
            assert np.max(np.abs(s_fac.h_grid - s_sys.h_grid)) < 1e-6

    @pytest.mark.parametrize("d, delta, leakage", [([1.0, -2.0], 1.0, 1.0),
                                                   ([2.0, -1.0], 4.0, 0.0)])
    def test_causal_leakage_checks_the_factor(self, d, delta, leakage):
        # both factors give |2 - e^{-i lambda}|^2; only [2, -1] is minimum
        # phase.  The other yields the wrong one-step error (1 for 4) and a
        # characteristic with all its energy at nonnegative lags.
        n = 1024
        d = np.asarray(d, dtype=complex)[:, None, None]
        grid = evaluate_lag_series(d, -np.arange(2), n)
        density = RationalDensity.ma([2.0, -1.0]).rasterize(n).values
        fac = FactorizationResult(
            coefficients=d, factor_grid=grid,
            residual=float(np.max(np.abs(density - grid * np.conj(grid)))),
            density_sup=float(np.max(np.abs(density))), iterations=0)
        sol = solve_by_factorization(fac, np.array([[1.0]]))
        assert sol.delta == pytest.approx(delta, rel=1e-12)
        assert abs(sol.diagnostics["causal_leakage"] - leakage) <= 1e-12


class TestFactorConvolution:
    @pytest.mark.parametrize("J, U", [(1, 4), (3, 2), (5, 5), (6, 9)])
    def test_matches_term_by_term_sum(self, J, U):
        rng = np.random.default_rng(J * 10 + U)
        K = 2
        d = rng.normal(size=(U, K, K)) + 1j * rng.normal(size=(U, K, K))
        a = rng.normal(size=(J, K)) + 1j * rng.normal(size=(J, K))
        expect = np.zeros((J, K), dtype=complex)
        for j in range(J):
            for p in range(U):
                if p + j < J:
                    expect[j] += d[p].T @ a[p + j]
        assert np.max(np.abs(_factor_convolution(d, a) - expect)) < 1e-12



class TestFilterRoute:
    """A rational pair is solved by one steady-state Kalman filter; any grid
    density takes the window route."""

    @staticmethod
    def count_assemblies(monkeypatch):
        calls = []
        assemble = extrapolate.assemble_operators

        def counted(*args, **kwargs):
            calls.append(1)
            return assemble(*args, **kwargs)

        monkeypatch.setattr(extrapolate, "assemble_operators", counted)
        return calls

    def test_route_is_picked_by_the_kind_of_pair(self, monkeypatch):
        calls = self.count_assemblies(monkeypatch)
        rng = np.random.default_rng(12)
        F, G = random_rational(rng, 2, pole=0.4), random_rational(rng, 2, degree=1)
        a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        filtered = [solve_channel(F, G, a, window=48, n_lambda=1024),
                    solve_channel(F, None, a, window=48, n_lambda=1024)]
        assert calls == []
        assert all("closed_loop_radius" in sol.diagnostics for sol in filtered)
        windowed = [solve_channel(as_grid(F, 1024), G, a, window=48),
                    solve_channel(F, as_grid(G, 1024), a, window=48, n_lambda=1024),
                    solve_channel(as_grid(F, 1024), None, a, window=48)]
        assert len(calls) == 3
        assert all("orthogonality_residual" in sol.diagnostics for sol in windowed)

    def test_given_grids_are_used_bit_for_bit(self):
        rng = np.random.default_rng(13)
        F, G = random_rational(rng, 3, pole=0.5), random_rational(rng, 3, degree=1)
        a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        own = solve_channel(F, G, a, window=32, n_lambda=512)
        given = solve_channel(F, G, a, window=32, grids=(as_grid(F, 512), as_grid(G, 512)))
        assert own.delta == given.delta
        np.testing.assert_array_equal(own.h_grid, given.h_grid)
        np.testing.assert_array_equal(own.coefficients, given.coefficients)

    def test_near_unit_root_window_falls_below_the_minimum(self):
        # AR(0.995) observed through white noise of variance 0.5: a finite
        # window truncates the estimator and reports an error below the
        # minimum; the filter meets the oracle
        F = RationalDensity.ar1(0.995, 1.0)
        G = RationalDensity([[[np.sqrt(0.5)]]])
        a = np.array([[1.0], [0.5], [0.25]])
        minimum = oracle_solve(F, G, a, j_past=1000, n_lambda=16384)
        sol = solve_channel(F, G, a, n_lambda=16384)
        assert abs(sol.delta - minimum) <= 1e-10 * minimum
        assert sol.diagnostics["causal_leakage"] <= 1e-12
        assert sol.diagnostics["weight_tail"] <= 1e-30
        for window in (32, 96):
            grid_sol = solve_channel(as_grid(F, 4096), as_grid(G, 4096), a, window=window)
            assert grid_sol.delta < minimum * (1 - 1e-3)

    def test_acceptance_instances_meet_the_oracle(self):
        # the rational F and G of the acceptance suite's 20 instances
        from test_acceptance import random_instance

        rng = np.random.default_rng(20240101)
        for _ in range(20):
            F, G, a = random_instance(rng)
            sol = solve_channel(F, G, a, window=96, n_lambda=2048)
            mse = oracle_solve(F, G, a, j_past=160, n_lambda=2048)
            assert abs(sol.delta - mse) <= 1e-10 * mse
            assert sol.diagnostics["causal_leakage"] <= 1e-12

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_matches_the_window_route(self, K, noisy):
        # poles and closed loops well inside the disk: window 96 is exact
        # to rounding, so both routes give one h and one set of coefficients
        rng = np.random.default_rng(60 + K + 3 * noisy)
        F = random_rational(rng, K, pole=0.4)
        G = random_rational(rng, K, degree=1) if noisy else None
        a = rng.normal(size=(4, K)) + 1j * rng.normal(size=(4, K))
        sol = solve_channel(F, G, a, window=96, n_lambda=2048)
        ref = solve_channel(as_grid(F, 2048), None if G is None else as_grid(G, 2048), a,
                            window=96)
        assert abs(sol.delta - ref.delta) <= 1e-12 * ref.delta
        scale = np.max(np.abs(ref.h_grid))
        assert np.max(np.abs(sol.h_grid - ref.h_grid)) <= 1e-12 * scale
        assert np.max(np.abs(sol.coefficients - ref.coefficients)) \
            <= 1e-12 * np.max(np.abs(ref.coefficients))

    def test_singular_lag_zero_numerator(self):
        # N_0 is singular, so the observation noise D_y D_y^* of the filter
        # is singular, while F is positive definite on the circle
        N = np.zeros((2, 2, 2), dtype=complex)
        N[0, 0, 0] = 1.0
        N[1, 1, 1] = 1.0
        F = RationalDensity(N)
        a = np.array([[1.0, 0.5], [0.2, -0.3]])
        sol = solve_channel(F, None, a, window=16, n_lambda=512)
        assert sol.delta == pytest.approx(oracle_solve(F, None, a, j_past=64, n_lambda=512),
                                          rel=1e-12)

    def test_weight_tail_beyond_the_grid_is_reported(self):
        # an MA(1) zero at radius 1 - 1e-6: the one-step error is exactly 1,
        # while the weights decay too slowly for a 512-node grid
        F = RationalDensity.ma([1.0, -(1.0 - 1e-6)])
        sol = solve_channel(F, None, np.array([[1.0]]), window=16, n_lambda=512)
        assert sol.delta == pytest.approx(1.0, abs=1e-12)
        assert sol.diagnostics["weight_tail"] > 0.5
        quick = solve_channel(RationalDensity.ar1(0.5), None, np.array([[1.0]]), window=16,
                              n_lambda=512)
        assert quick.diagnostics["weight_tail"] == 0.0

    def test_zero_on_the_circle_between_nodes_is_a_minimality_violation(self):
        # the zero at lambda = 0.1234 misses every node (condition 1 at
        # K = 1), so the filter's closed loop is what refuses it
        F = RationalDensity.ma([1.0, -np.exp(0.1234j)])
        with pytest.raises(MinimalityViolation, match="closed-loop|stabilizing"):
            solve_channel(F, None, np.array([[1.0]]), n_lambda=4096)


class TestOneSolveEntry:
    """``solve_channel`` is the one entry to the filter and window routes: it
    takes all of a pair's functionals and puts the pair on its grids, judges
    and routes it, assembles and factors B, or solves the filter's W, once."""

    @staticmethod
    def functionals(rng, K):
        return {(m, 1): rng.normal(size=(m + 1, K)) + 1j * rng.normal(size=(m + 1, K))
                for m in range(3)}

    def test_anchor_assembles_and_factors_once(self, monkeypatch):
        from test_spectral import count_calls

        rng = np.random.default_rng(41)
        F, G = random_rational(rng, 2, pole=0.4), random_rational(rng, 2, degree=1)
        assemblies = count_calls(monkeypatch, extrapolate, "assemble_operators")
        factors = count_calls(monkeypatch, scipy.linalg, "cho_factor")
        anchor = minimax.build_anchor(as_grid(F, 512), as_grid(G, 512),
                                      self.functionals(rng, 2), window=16)
        assert len(anchor.solutions) == 3
        assert len(assemblies) == 1 and len(factors) == 1

    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("route", ["filter", "window"])
    def test_dict_form_equals_single_form(self, route, K, noisy):
        rng = np.random.default_rng(50 + K)
        F = random_rational(rng, K, pole=0.5)
        G = random_rational(rng, K, degree=1) if noisy else None
        if route == "window":
            F, G = as_grid(F, 512), None if G is None else as_grid(G, 512)
        functionals = self.functionals(rng, K)
        together = solve_channel(F, G, functionals, window=24, n_lambda=512)
        assert list(together) == list(functionals)
        for key, a in functionals.items():
            alone = solve_channel(F, G, a, window=24, n_lambda=512)
            assert ("closed_loop_radius" in alone.diagnostics) == (route == "filter")
            assert abs(together[key].delta - alone.delta) <= 1e-14 * abs(alone.delta)
            for name in ("h_grid", "coefficients"):
                mine, ref = getattr(together[key], name), getattr(alone, name)
                assert np.max(np.abs(mine - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_rational_pair_solves_w_once(self, monkeypatch):
        from test_spectral import count_calls

        rng = np.random.default_rng(42)
        F, G = random_rational(rng, 3, pole=0.5), random_rational(rng, 3, degree=1)
        calls = count_calls(monkeypatch, scipy.linalg, "solve_discrete_lyapunov")
        solutions = solve_channel(F, G, self.functionals(rng, 3), window=16, n_lambda=512)
        assert len(solutions) == 3 and len(calls) == 1

    def test_ill_conditioned_anchor_warns_once(self):
        # MA(1) with a zero at 0.99999: F(0) = 1e-10 and cond_B ~ 1.2e9 at
        # window 16, while the smallest eigenvalue of B stays near 0.25
        F = RationalDensity.ma([1.0, -0.99999]).rasterize(512)
        functionals = self.functionals(np.random.default_rng(43), 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            anchor = minimax.build_anchor(F, None, functionals, window=16)
        assert anchor.solutions[(0, 1)].diagnostics["cond_B"] > 1e8
        assert [str(w.message).split(" (")[0] for w in caught] == [
            "normal equations are ill-conditioned"]

    def test_assembly_is_called_by_the_solve_alone(self):
        from test_spectral import _call_sites

        assert _call_sites("assemble_operators") == [("extrapolate", "_solve_by_window")]

    def test_minimax_imports_no_window_internal(self):
        source = Path(minimax.__file__).read_text()
        names = {alias.name for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert "solve_channel" in names
        assert not [name for name in names if name.startswith("_solve")
                    or name in ("_pad_functional", "assemble_operators")]

    def test_no_noiseless_wrapper(self):
        name = "solve_" + "noiseless"
        root = Path(__file__).resolve().parents[1]
        files = [*root.glob("src/pcfield/*.py"), *root.glob("tests/*.py"),
                 *root.glob("demos/*.py"), root / "README.md"]
        assert [path.name for path in files if name in path.read_text()] == []
        assert not hasattr(pcfield, name) and not hasattr(extrapolate, name)
