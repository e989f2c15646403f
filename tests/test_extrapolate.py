import numpy as np
import pytest

from pcfield.extrapolate import (
    FactorizationError,
    FunctionalSpec,
    aggregate,
    channel_variance_bound,
    functional_variance,
    oracle_solve,
    solve_by_factorization,
    solve_channel,
    solve_noiseless,
    spectral_factorize,
    _factor_convolution,
)
from pcfield.harmonics import harmonic_count
from pcfield.spectral import (
    RationalDensity,
    SpectralDensityGrid,
    as_grid,
    lambda_grid,
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


class TestWhiteNoise:
    def test_unit_variance_coefficients_and_error_exact(self):
        a = np.array([[1.0], [0.5], [-0.25]])
        sol = solve_noiseless(SpectralDensityGrid.white(1, 1.0, 512), a, window=16)
        assert np.max(np.abs(sol.coefficients[:3] - a)) < 1e-12
        assert np.max(np.abs(sol.coefficients[3:])) < 1e-12
        assert sol.delta == pytest.approx(float(np.sum(np.abs(a) ** 2)), abs=1e-10)
        assert np.max(np.abs(sol.h_grid)) < 1e-12

    def test_scaled_variance(self):
        # B = sigma^{-2} I, so the solved coefficients carry the variance
        # factor while the error scales exactly
        sigma2 = 2.25
        a = np.array([[1.0], [0.5], [-0.25]])
        sol = solve_noiseless(SpectralDensityGrid.white(1, sigma2, 512), a, window=16)
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
        sol = solve_noiseless(F, np.array([[1.0]]), window=96)
        oracle = kolmogorov_one_step_error(F)
        assert sol.delta == pytest.approx(1.0, abs=1e-6)
        assert sol.delta == pytest.approx(oracle, abs=1e-6)

    def test_coefficients_are_powers(self):
        sol = solve_noiseless(RationalDensity.ar1(0.5), np.array([[1.0]]), window=64)
        expect = 0.5 ** np.arange(8)
        assert np.max(np.abs(sol.coefficients[:8, 0] - expect)) < 1e-10

    def test_spectral_characteristic(self):
        sol = solve_noiseless(RationalDensity.ar1(0.5), np.array([[1.0]]), window=64)
        lam = lambda_grid(sol.h_grid.shape[0])
        assert np.max(np.abs(sol.h_grid[:, 0] - 0.5 * np.exp(-1j * lam))) < 1e-12

    def test_time_domain_weights(self):
        sol = solve_noiseless(RationalDensity.ar1(0.5), np.array([[1.0]]), window=64)
        w = sol.h_lag_coefficients(4)
        assert w[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert np.max(np.abs(w[1:])) < 1e-12


class TestSolveChannelContracts:
    def test_noiseless_matches_vanishing_noise(self):
        rng = np.random.default_rng(2)
        F = as_grid(random_rational(rng, 2, pole=0.4), 1024)
        a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        eps = SpectralDensityGrid.white(2, 1e-8, 1024)
        s0 = solve_noiseless(F, a, window=48)
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
        assert var <= channel_variance_bound(F, a) * (1 + 1e-12)

    def test_functional_wider_than_window_rejected(self):
        F = SpectralDensityGrid.white(1, 1.0, 256)
        with pytest.raises(ValueError, match="window"):
            solve_channel(F, None, np.ones((9, 1)), window=8)

    def test_functional_spec_diagnostics(self):
        spec = FunctionalSpec({(0, 1): np.array([[1.0], [0.5]]),
                               (1, 1): np.array([[2.0], [0.0]])})
        total, weighted = spec.summability()
        assert total == pytest.approx(1.5 + 2.0)
        assert weighted == pytest.approx(1.0 + 2 * 0.25 + 4.0)

    def test_blocked_functional_pipes_into_solver(self):
        from pcfield.blocking import BlockingConfig, functional_to_spec

        cfg = BlockingConfig(period=1.0, n_components=2, dt=1.0 / 8)
        samples = np.concatenate([np.ones(8), np.zeros(16)])
        func = functional_to_spec(samples, cfg)
        sol = solve_noiseless(SpectralDensityGrid.white(2, 1.0, 512), func,
                              window=16)
        # the indicator of one period is the unit zero-frequency weight
        assert sol.delta == pytest.approx(1.0, abs=1e-10)


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
        for K in (2, 3):
            F = as_grid(random_rational(rng, K, degree=3), 1024)
            fac = spectral_factorize(F)
            assert fac.residual <= 1e-8
            d0 = fac.coefficients[0]
            assert np.max(np.abs(np.triu(d0, 1))) < 1e-10
            diag = np.diag(d0)
            assert np.max(np.abs(diag.imag)) < 1e-10
            assert np.all(diag.real > 0)

    def test_rank_deficient_rejected(self):
        with pytest.raises(FactorizationError, match="rank deficient"):
            spectral_factorize(RationalDensity.ma([1.0, -1.0]))

    def test_zero_density_rejected(self):
        with pytest.raises(FactorizationError):
            spectral_factorize(SpectralDensityGrid.zero(2, 128))


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
        direct = solve_noiseless(RationalDensity.ar1(0.5), np.array([[1.0]]),
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
            s_sys = solve_noiseless(F, a, window=96)
            assert abs(s_fac.delta - s_sys.delta) / s_sys.delta < 1e-6
            assert np.max(np.abs(s_fac.h_grid - s_sys.h_grid)) < 1e-6


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


class TestAggregate:
    def test_single_channel(self):
        sol = solve_noiseless(SpectralDensityGrid.white(1, 1.0, 256),
                              np.array([[1.0]]), window=8)
        agg = aggregate({(0, 1): sol})
        assert agg.delta_total == sol.delta

    def test_two_identical_channels(self):
        sol = solve_noiseless(SpectralDensityGrid.white(1, 1.0, 256),
                              np.array([[1.0]]), window=8)
        agg = aggregate({(0, 1): sol, (1, 1): sol})
        assert agg.delta_total == pytest.approx(2 * sol.delta)

    def test_isotropic_degree_weighting(self):
        sol = solve_noiseless(SpectralDensityGrid.white(1, 1.0, 256),
                              np.array([[1.0]]), window=8)
        agg = aggregate({m: sol for m in range(4)})
        expect = sum((2 * m + 1) * sol.delta for m in range(4))
        assert agg.delta_total == pytest.approx(expect)
        assert sum(harmonic_count(m, 3) for m in range(4)) == 16

    def test_tail_bound_reported(self):
        sol = solve_noiseless(SpectralDensityGrid.white(1, 1.0, 256),
                              np.array([[1.0]]), window=8)
        agg = aggregate({(0, 1): sol}, tail_bounds=[0.25, 0.5])
        assert agg.tail_bound == pytest.approx(0.75)
