import numpy as np
import pytest

from pcfield.spectral import (
    MinimalityViolation,
    RationalDensity,
    SpectralDensityGrid,
    as_grid,
    assemble_operators,
    check_minimality,
    covariance_from_density,
    density_from_spec,
    density_to_spec,
    evaluate_lag_series,
    export_operators_csv,
    fourier_coefficients,
    lambda_grid,
    matrix_fourier_coefficient,
    _pointwise_condition,
)


def random_trig_poly_density(rng, K, degree, diag_boost=None):
    """Random PD trigonometric-polynomial density via an MA square."""
    num = rng.normal(size=(degree + 1, K, K)) + 1j * rng.normal(size=(degree + 1, K, K))
    num[0] += (diag_boost if diag_boost is not None else 2 + K) * np.eye(K)
    return RationalDensity(num)


class TestFourierCoefficients:
    def test_identity_lag_zero(self):
        grid = SpectralDensityGrid.white(3, 1.0, 256)
        assert np.allclose(matrix_fourier_coefficient(grid.values, 0), np.eye(3))

    def test_identity_nonzero_lag_vanishes(self):
        grid = SpectralDensityGrid.white(3, 1.0, 256)
        assert np.max(np.abs(matrix_fourier_coefficient(grid.values, 3))) < 1e-14

    def test_scalar_cosine(self):
        lam = lambda_grid(512)
        vals = (2.0 + 2.0 * np.cos(lam))[:, None, None]
        for d in (1, -1):
            got = matrix_fourier_coefficient(vals, d)[0, 0]
            assert got == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_riemann_sum(self):
        # independent O(N) evaluation of the same integral
        rng = np.random.default_rng(4)
        n = 128
        lam = lambda_grid(n)
        coeffs = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
        lags_in = np.arange(-2, 3)
        vals = evaluate_lag_series(coeffs, lags_in, n)
        for d in (-3, -1, 0, 2):
            direct = np.mean(vals * np.exp(1j * d * lam)[:, None, None], axis=0)
            fast = matrix_fourier_coefficient(vals, d)
            assert np.max(np.abs(fast - direct)) < 1e-12

    def test_exact_on_trig_polynomials(self):
        # integrating sum_d c_d e^{i d lambda} against e^{+i d' lambda}
        # picks out c_{-d'}
        rng = np.random.default_rng(11)
        coeffs = rng.normal(size=(7, 1, 1)) + 1j * rng.normal(size=(7, 1, 1))
        lags_in = np.arange(-3, 4)
        vals = evaluate_lag_series(coeffs, lags_in, 64)
        got = fourier_coefficients(vals, -lags_in)
        assert np.max(np.abs(got - coeffs)) < 1e-13

    @pytest.mark.parametrize("lags", [
        pytest.param([-5, -1, 0, 3], id="negative"),
        pytest.param([0, 31, 32, 40, 63], id="beyond-half-grid"),
        pytest.param([-70, -6, 2, 58, 66, 130], id="repeat-mod-n"),
    ])
    def test_lag_series_matches_direct_sum(self, lags):
        # sum_d c_d exp(i d lambda) evaluated term by term on a 64-point grid
        rng = np.random.default_rng(17)
        n = 64
        lam = lambda_grid(n)
        coeffs = rng.normal(size=(len(lags), 2, 3)) + 1j * rng.normal(size=(len(lags), 2, 3))
        direct = sum(np.exp(1j * d * lam)[:, None, None] * c for d, c in zip(lags, coeffs))
        fast = evaluate_lag_series(coeffs, lags, n)
        assert fast.shape == (n, 2, 3)
        assert np.max(np.abs(fast - direct)) < 1e-12

    def test_aliasing_guard(self):
        grid = SpectralDensityGrid.white(1, 1.0, 64)
        with pytest.raises(ValueError, match="alias"):
            matrix_fourier_coefficient(grid.values, 32)


class TestDensityTypes:
    def test_rejects_non_hermitian(self):
        vals = np.zeros((8, 2, 2), dtype=complex)
        vals[:, 0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            SpectralDensityGrid(vals)

    def test_rejects_indefinite(self):
        vals = np.broadcast_to(np.diag([1.0, -1.0]), (8, 2, 2)).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            SpectralDensityGrid(vals.copy())

    def test_rational_rasterizes_to_analytic_values(self):
        phi = 0.5
        grid = RationalDensity.ar1(phi).rasterize(256)
        lam = grid.lam
        expect = 1.0 / np.abs(1 - phi * np.exp(1j * lam)) ** 2
        assert np.max(np.abs(grid.values[:, 0, 0] - expect)) < 1e-12

    def test_denominator_root_on_circle_rejected(self):
        with pytest.raises(ValueError, match="vanishes"):
            RationalDensity([1.0], [1.0, -1.0]).rasterize(256)

    def test_json_spec_roundtrip(self):
        den = RationalDensity([1.0, 0.25], [1.0, -0.5])
        spec = density_to_spec(den)
        back = density_from_spec(spec)
        assert np.allclose(back.numerator, den.numerator)
        assert np.allclose(back.denominator, den.denominator)
        grid = den.rasterize(64)
        back_grid = density_from_spec(density_to_spec(grid))
        assert np.max(np.abs(back_grid.values - grid.values)) < 1e-15

    def test_plain_real_coefficient_lists_parse_as_lists(self):
        den = density_from_spec(
            {"type": "rational", "numerator": [1.0], "denominator": [1.0, -0.5]}
        )
        assert den.denominator.shape == (2,)
        assert den.denominator[1] == pytest.approx(-0.5)


class TestAssembleOperators:
    def test_identity_density_no_noise(self):
        F = SpectralDensityGrid.white(2, 1.0, 256)
        ops = assemble_operators(F, None, window=3)
        assert np.max(np.abs(ops.B - np.eye(6))) < 1e-12
        assert np.max(np.abs(ops.D - np.eye(6))) < 1e-12
        assert np.max(np.abs(ops.R)) < 1e-12

    def test_jointly_white_signal_and_noise(self):
        # constant-matrix algebra: (F+G)^{-1} = I/2, F(F+G)^{-1} = I/2,
        # F(F+G)^{-1}G = I/2
        F = SpectralDensityGrid.white(2, 1.0, 256)
        G = SpectralDensityGrid.white(2, 1.0, 256)
        ops = assemble_operators(F, G, window=2)
        assert np.max(np.abs(ops.B - 0.5 * np.eye(4))) < 1e-12
        assert np.max(np.abs(ops.D - 0.5 * np.eye(4))) < 1e-12
        assert np.max(np.abs(ops.R - 0.5 * np.eye(4))) < 1e-12

    def test_ar1_inverse_density_blocks(self):
        # 1/f = |1 - 0.5 e^{i lambda}|^2 has coefficients 1.25, -0.5, -0.5
        F = RationalDensity.ar1(0.5)
        ops = assemble_operators(as_grid(F, 1024), None, window=4)
        B = ops.B
        for j in range(4):
            assert B[j, j] == pytest.approx(1.25, abs=1e-12)
        for j in range(3):
            assert B[j, j + 1] == pytest.approx(-0.5, abs=1e-12)
            assert B[j + 1, j] == pytest.approx(-0.5, abs=1e-12)
        assert abs(B[0, 2]) < 1e-12

    def test_block_toeplitz_and_hermitian_structure(self):
        rng = np.random.default_rng(8)
        F = random_trig_poly_density(rng, 2, 2)
        G = random_trig_poly_density(rng, 2, 1)
        ops = assemble_operators(as_grid(F, 512), as_grid(G, 512), window=4)
        K = 2
        for name, M in (("B", ops.B), ("D", ops.D), ("R", ops.R)):
            blocks = {}
            for s in range(4):
                for j in range(4):
                    blk = M[s * K:(s + 1) * K, j * K:(j + 1) * K]
                    lag = j - s
                    if lag in blocks:
                        assert np.max(np.abs(blk - blocks[lag])) < 1e-12, name
                    else:
                        blocks[lag] = blk
        # Hermitian block-transpose relation for B and R
        for M in (ops.B, ops.R):
            assert np.max(np.abs(M - M.conj().T)) < 1e-12

    def test_positive_definite_under_minimality(self):
        rng = np.random.default_rng(12)
        for _ in range(3):
            F = random_trig_poly_density(rng, 2, 2)
            ops = assemble_operators(as_grid(F, 512), None, window=6)
            assert np.linalg.eigvalsh(ops.B).min() > 0

    def test_noise_operator_positive_semidefinite(self):
        rng = np.random.default_rng(14)
        F = random_trig_poly_density(rng, 2, 2)
        G = random_trig_poly_density(rng, 2, 1)
        ops = assemble_operators(as_grid(F, 512), as_grid(G, 512), window=5)
        scale = np.abs(ops.R).max()
        assert np.linalg.eigvalsh(ops.R).min() > -1e-10 * scale

    def test_quadrature_consistency_under_refinement(self):
        rng = np.random.default_rng(3)
        F = random_trig_poly_density(rng, 2, 4)  # density degree 8 after squaring
        G = random_trig_poly_density(rng, 2, 2)
        ops_a = assemble_operators(as_grid(F, 2048), as_grid(G, 2048), window=4)
        ops_b = assemble_operators(as_grid(F, 4096), as_grid(G, 4096), window=4)
        for attr in ("B", "D", "R"):
            assert np.max(np.abs(getattr(ops_a, attr) - getattr(ops_b, attr))) < 1e-10

    def test_inverse_blocks_invert_covariance_blocks(self):
        # block matrix of (F^{-1})^T coefficients against the matching
        # block matrix of F^T coefficients: product approaches identity,
        # monotonically in the window (moving-average density, so the
        # inverse has full support and truncation actually bites)
        F = as_grid(RationalDensity.ma([1.0, 0.55]), 2048)
        inv_vals = np.linalg.inv(F.values)

        def block_matrix(symbol_values, window):
            lags = np.arange(-(window - 1), window)
            coeffs = fourier_coefficients(np.swapaxes(symbol_values, 1, 2), lags)
            by_lag = {int(d): coeffs[i] for i, d in enumerate(lags)}
            out = np.zeros((window, window), dtype=complex)
            for s in range(window):
                for j in range(window):
                    out[s, j] = by_lag[j - s][0, 0]
            return out

        residuals = []
        for window in (4, 8, 16):
            prod = block_matrix(inv_vals, window) @ block_matrix(F.values, window)
            mid = window // 2
            row = prod[mid]
            expect = np.zeros(window)
            expect[mid] = 1.0
            residuals.append(np.max(np.abs(row - expect)))
        assert residuals[0] > residuals[1] > residuals[2]

    @pytest.mark.parametrize("K", [2, 3])
    def test_matches_loop_built_block_toeplitz(self, K):
        # reference: the symbols' coefficients placed block by block
        rng = np.random.default_rng(30 + K)
        n, window = 256, 5
        F = as_grid(random_trig_poly_density(rng, K, 2), n)
        G = as_grid(random_trig_poly_density(rng, K, 1), n)
        inv = np.linalg.inv(F.values + G.values)
        lags = np.arange(-(window - 1), window)

        def loop_built(symbol):
            coeffs = fourier_coefficients(np.swapaxes(symbol, 1, 2), lags)
            out = np.zeros((window * K, window * K), dtype=complex)
            for s in range(window):
                for j in range(window):
                    out[s * K:(s + 1) * K, j * K:(j + 1) * K] = coeffs[j - s + window - 1]
            return out

        B = loop_built(inv)
        R = loop_built(F.values @ inv @ G.values)
        ops = assemble_operators(F, G, window=window)
        assert np.array_equal(ops.B, (B + B.conj().T) / 2)
        assert np.array_equal(ops.D, loop_built(F.values @ inv))
        assert np.array_equal(ops.R, (R + R.conj().T) / 2)
        assert np.array_equal(ops.inv_total, inv)

    def test_cond_b_is_two_norm_condition(self):
        rng = np.random.default_rng(33)
        F = as_grid(random_trig_poly_density(rng, 2, 2), 256)
        ops = assemble_operators(F, None, window=6)
        pointwise = np.linalg.cond(F.values).max()
        expect = max(np.linalg.cond(ops.B), pointwise)
        assert ops.cond_B == pytest.approx(expect, rel=1e-8)

    def test_singular_pair_raises_with_location(self):
        F = RationalDensity.ma([1.0, -1.0])  # vanishes at lambda = 0
        with pytest.raises(MinimalityViolation) as err:
            assemble_operators(as_grid(F, 512), None, window=2)
        assert err.value.lambda_value == pytest.approx(0.0, abs=1e-12)

    def test_csv_export(self, tmp_path):
        F = SpectralDensityGrid.white(1, 1.0, 64)
        ops = assemble_operators(F, None, window=2)
        path = tmp_path / "ops.csv"
        export_operators_csv(ops, path)
        text = path.read_text().splitlines()
        assert text[0] == "operator,row,col,re,im"
        assert len(text) == 1 + 3 * 4


class TestPointwiseCondition:
    def test_matches_svd_condition_on_hermitian_pd_samples(self):
        rng = np.random.default_rng(41)
        for K in (1, 2, 4):
            X = rng.normal(size=(200, K, K)) + 1j * rng.normal(size=(200, K, K))
            scales = np.exp(rng.uniform(-6, 0, size=(200, 1, 1)))
            values = X @ np.conj(np.swapaxes(X, 1, 2)) + scales * np.eye(K)
            got = _pointwise_condition(values)
            expect = np.linalg.cond(values)
            assert np.max(np.abs(got / expect - 1)) < 1e-8

    def test_zero_eigenvalue_is_infinite(self):
        values = np.array([np.diag([1.0, 0.0]), np.zeros((2, 2)), np.eye(2)], dtype=complex)
        assert list(_pointwise_condition(values)) == [np.inf, np.inf, 1.0]

    def test_check_minimality_reports_svd_condition(self):
        rng = np.random.default_rng(43)
        F = as_grid(random_trig_poly_density(rng, 3, 2), 256)
        report = check_minimality(F)
        assert report.max_condition == pytest.approx(np.linalg.cond(F.values).max(), rel=1e-8)


class TestCheckMinimality:
    def test_identity_passes_with_trace_k(self):
        report = check_minimality(SpectralDensityGrid.white(2, 1.0, 512))
        assert report.passed
        assert report.trace_integral == pytest.approx(2.0, rel=1e-12)

    def test_jointly_white_pair(self):
        report = check_minimality(SpectralDensityGrid.white(2, 1.0, 512),
                                  SpectralDensityGrid.white(2, 1.0, 512))
        assert report.passed
        assert report.trace_integral == pytest.approx(1.0, rel=1e-12)

    def test_vanishing_density_flagged_divergent(self):
        report = check_minimality(RationalDensity.ma([1.0, -1.0]), n_lambda=4096)
        assert not report.passed
        # masked integral grows by more than 10% when the grid is doubled
        assert report.refinement_growth is not None
        assert report.refinement_growth > 0.10
        assert any(abs(x) < 1e-9 for x in report.singular_lambdas)

    def test_smooth_rational_refinement_stable(self):
        report = check_minimality(RationalDensity.ar1(0.5), n_lambda=1024)
        assert report.passed
        assert abs(report.refinement_growth) < 1e-10


class TestCovariance:
    def test_white_noise(self):
        cov = covariance_from_density(SpectralDensityGrid.white(2, 2.0, 256), 3)
        assert np.max(np.abs(cov[0] - 2.0 * np.eye(2))) < 1e-12
        for j in (1, 2, 3, -2):
            assert np.max(np.abs(cov[j])) < 1e-12

    def test_ar1_closed_form(self):
        phi = 0.5
        cov = covariance_from_density(RationalDensity.ar1(phi), 6, n_lambda=4096)
        for j in range(-6, 7):
            expect = phi ** abs(j) / (1 - phi**2)
            assert cov[j][0, 0] == pytest.approx(expect, abs=1e-12)

    def test_hermitian_lag_symmetry(self):
        rng = np.random.default_rng(21)
        cov = covariance_from_density(
            as_grid(random_trig_poly_density(rng, 3, 3), 512), 5)
        for j in range(6):
            assert np.max(np.abs(cov[-j] - cov[j].conj().T)) < 1e-12

    def test_lag_bound_enforced(self):
        cov = covariance_from_density(SpectralDensityGrid.white(1, 1.0, 64), 2)
        with pytest.raises(IndexError):
            cov[3]
