import ast
import decimal
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from pcfield import extrapolate, minimax, spectral
from pcfield.spectral import (
    MinimalityViolation,
    NonFiniteDensityError,
    RationalDensity,
    SpectralDensityGrid,
    as_grid,
    assemble_operators,
    check_minimality,
    covariance_from_density,
    density_from_spec,
    density_to_spec,
    evaluate_lag_series,
    fourier_coefficients,
    joint_covariance,
    lambda_grid,
    _condition_from_eigenvalues,
    _hermitian_eigenvalues,
    _node_inverse,
    _node_matmul,
)


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so that its calls are counted; returns the list
    that receives one entry per call."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def pointwise_condition(values):
    """2-norm condition number of the Hermitian part of each node."""
    return _condition_from_eigenvalues(_hermitian_eigenvalues(values))


def random_trig_poly_density(rng, K, degree, diag_boost=None):
    """Random PD trigonometric-polynomial density via an MA square."""
    num = rng.normal(size=(degree + 1, K, K)) + 1j * rng.normal(size=(degree + 1, K, K))
    num[0] += (diag_boost if diag_boost is not None else 2 + K) * np.eye(K)
    return RationalDensity(num)


class TestFourierCoefficients:
    def test_identity_lag_zero(self):
        grid = SpectralDensityGrid.white(3, 1.0, 256)
        assert np.allclose(fourier_coefficients(grid.values, [0])[0], np.eye(3))

    def test_identity_nonzero_lag_vanishes(self):
        grid = SpectralDensityGrid.white(3, 1.0, 256)
        assert np.max(np.abs(fourier_coefficients(grid.values, [3])[0])) < 1e-14

    def test_scalar_cosine(self):
        lam = lambda_grid(512)
        vals = (2.0 + 2.0 * np.cos(lam))[:, None, None]
        for d in (1, -1):
            got = fourier_coefficients(vals, [d])[0, 0, 0]
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
            fast = fourier_coefficients(vals, [d])[0]
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
            fourier_coefficients(grid.values, [32])


class TestTensorFromJson:
    @pytest.mark.parametrize("data, kind", [
        pytest.param([True, 0.5], "bool", id="bool-in-vector"),
        pytest.param([[0.5, 0.0], [False, 1.0]], "bool", id="bool-in-matrix"),
        pytest.param([1.0, "0.5"], "str", id="numeric-string"),
        pytest.param([1.0, None], "NoneType", id="null"),
        pytest.param([[1.0, 2.0], [3.0]], "list", id="ragged"),
        pytest.param([np.bool_(True), 1.0], "bool", id="numpy-bool"),
    ])
    def test_refuses_an_entry_that_is_not_a_number(self, data, kind):
        with pytest.raises(ValueError, match=rf"^value: entries must be numbers .*, got {kind}$"):
            spectral.complex_tensor_from_json(data, base_ndim=(1, 2), where="value")

    def test_reads_ints_and_numpy_reals(self):
        got = spectral.complex_tensor_from_json([1, np.float64(0.5), np.int64(2)],
                                                base_ndim=(1,), where="value")
        assert got.dtype == complex
        np.testing.assert_array_equal(got, [1.0, 0.5, 2.0])

    def test_grid_values_match_the_float_reading(self):
        values = np.random.default_rng(5).normal(size=(64, 3, 3, 2)).tolist()
        got = spectral.complex_tensor_from_json(values, base_ndim=(3,), where="value")
        expect = np.asarray(values, dtype=float)
        np.testing.assert_array_equal(got, expect[..., 0] + 1j * expect[..., 1])


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

    @pytest.mark.parametrize("n", [512, 4096, 8192])
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_rasterize_in_entry_planes_is_bit_exact(self, K, n):
        # the node-major formula rasterize used before it ran on entry
        # planes: the same ufuncs in the same order give the same bits
        def node_major(density, n_lambda):
            z = np.exp(-1j * lambda_grid(n_lambda))
            num = np.zeros((n_lambda, density.K, density.K), dtype=complex)
            for u in range(density.numerator.shape[0]):
                num += (z**u)[:, None, None] * density.numerator[u]
            den = np.zeros(n_lambda, dtype=complex)
            for v, coeff in enumerate(density.denominator):
                den += coeff * z**v
            values = (_node_matmul(num, np.conj(np.swapaxes(num, 1, 2)))
                      / (np.abs(den) ** 2)[:, None, None])
            return (values + np.conj(np.swapaxes(values, 1, 2))) / 2

        rng = np.random.default_rng(10 * K + n % 7)
        for U in (1, 3):
            for den in ([1.0], [1.0, -0.6], [2.0, 0.3 - 0.2j, 0.1]):
                num = rng.normal(size=(U, K, K)) + 1j * rng.normal(size=(U, K, K))
                density = RationalDensity(num, den)
                grid = density.rasterize(n).values
                assert grid.flags.c_contiguous
                np.testing.assert_array_equal(grid, node_major(density, n))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_grid_values(self, bad):
        vals = np.ones((8, 1, 1), dtype=complex)
        vals[3, 0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            SpectralDensityGrid(vals)

    @pytest.mark.parametrize("numerator, denominator", [
        ([1.0, np.nan], [1.0]),
        ([[[1.0, 0.0], [np.inf, 1.0]]], [1.0]),
        ([1.0], [1.0, np.nan]),
        ([1.0], [complex(1.0, np.inf)]),
    ])
    def test_rational_rejects_non_finite_coefficients(self, numerator, denominator):
        with pytest.raises(ValueError, match="finite"):
            RationalDensity(numerator, denominator)

    def test_rasterized_grids_pass_validation(self, monkeypatch):
        # rasterize skips the grid checks because N N^* / |den|^2, symmetrized
        # exactly, is Hermitian and PSD as built; the checks must agree
        eigen_calls = count_calls(monkeypatch, spectral, "_hermitian_eigenvalues")
        rng = np.random.default_rng(101)
        grids = []
        for K in (1, 2, 3):
            for degree in (0, 1, 2):
                for _ in range(4):
                    num = rng.normal(size=(degree + 1, K, K)) \
                        + 1j * rng.normal(size=(degree + 1, K, K))
                    if rng.random() < 0.5:
                        num[:, :, -1] = 0.0  # rank-deficient at every node
                    poles = rng.uniform(0.0, 0.95, size=2) \
                        * np.exp(1j * rng.uniform(-np.pi, np.pi, size=2))
                    den = np.poly(poles)[::-1] * rng.uniform(0.1, 10.0)
                    grids.append(RationalDensity(num, den).rasterize(256))
        assert eigen_calls == []
        for grid in grids:
            grid._validate()
        assert len(eigen_calls) == len(grids) == 36

    @pytest.mark.parametrize("numerator", [
        [1e200],
        [[[1.0, 0.0], [1e160, 1e160]], [[0.0, 1e160], [0.0, 1.0]]],
    ])
    def test_overflowing_grid_is_refused(self, numerator):
        # finite coefficients, but N N^* overflows: a typed error, no numpy warning
        density = RationalDensity(numerator)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteDensityError, match="overflows"):
                density.rasterize(64)
        assert issubclass(NonFiniteDensityError, ValueError)

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

    def test_jointly_white_signal_and_noise(self):
        # constant-matrix algebra: (F+G)^{-1} = I/2
        F = SpectralDensityGrid.white(2, 1.0, 256)
        G = SpectralDensityGrid.white(2, 1.0, 256)
        ops = assemble_operators(F, G, window=2)
        assert np.max(np.abs(ops.B - 0.5 * np.eye(4))) < 1e-12

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
        blocks = {}
        for s in range(4):
            for j in range(4):
                blk = ops.B[s * K:(s + 1) * K, j * K:(j + 1) * K]
                lag = j - s
                if lag in blocks:
                    assert np.max(np.abs(blk - blocks[lag])) < 1e-12
                else:
                    blocks[lag] = blk
        # Hermitian block-transpose relation for B
        assert np.max(np.abs(ops.B - ops.B.conj().T)) < 1e-12

    def test_positive_definite_under_minimality(self):
        rng = np.random.default_rng(12)
        for _ in range(3):
            F = random_trig_poly_density(rng, 2, 2)
            ops = assemble_operators(as_grid(F, 512), None, window=6)
            assert np.linalg.eigvalsh(ops.B).min() > 0

    def test_quadrature_consistency_under_refinement(self):
        rng = np.random.default_rng(3)
        F = random_trig_poly_density(rng, 2, 4)  # density degree 8 after squaring
        G = random_trig_poly_density(rng, 2, 2)
        ops_a = assemble_operators(as_grid(F, 2048), as_grid(G, 2048), window=4)
        ops_b = assemble_operators(as_grid(F, 4096), as_grid(G, 4096), window=4)
        assert np.max(np.abs(ops_a.B - ops_b.B)) < 1e-10

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

    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_matches_loop_built_block_toeplitz(self, K):
        # reference: the symbols' coefficients placed block by block
        rng = np.random.default_rng(30 + K)
        n, window = 256, 5
        F = as_grid(random_trig_poly_density(rng, K, 2), n)
        G = as_grid(random_trig_poly_density(rng, K, 1), n)
        inv = _node_inverse(F.values + G.values)
        lags = np.arange(-(window - 1), window)

        def loop_built(symbol):
            coeffs = fourier_coefficients(np.swapaxes(symbol, 1, 2), lags)
            out = np.zeros((window * K, window * K), dtype=complex)
            for s in range(window):
                for j in range(window):
                    out[s * K:(s + 1) * K, j * K:(j + 1) * K] = coeffs[j - s + window - 1]
            return out

        # the symbol is formed by the per-node kernel; placement is the subject
        B = loop_built(inv)
        ops = assemble_operators(F, G, window=window)
        assert np.array_equal(ops.B, (B + B.conj().T) / 2)
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


def _operand(rng, K, kind, n=257):
    """An (n, K, K) stack: real, complex, or a non-contiguous conj-transposed
    view of a complex stack."""
    real = rng.normal(size=(2 * n, K, K))
    if kind == "real":
        return real[:n]
    values = real + 1j * rng.normal(size=real.shape)
    if kind == "complex":
        return values[:n]
    return np.swapaxes(values.conj(), 1, 2)[::2]


class TestNodeMatmul:
    """The per-node product kernel against batched ``@``."""

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    @pytest.mark.parametrize("kinds", [
        ("real", "complex"), ("complex", "real"), ("complex", "complex"),
        ("view", "complex"), ("complex", "view"), ("view", "view"), ("real", "real"),
    ])
    def test_matches_matmul(self, K, kinds):
        rng = np.random.default_rng(K)
        A, B = (_operand(rng, K, kind) for kind in kinds)
        got = _node_matmul(A, B)
        ref = A @ B
        assert got.shape == ref.shape and got.dtype == ref.dtype
        if K == 4:
            assert np.array_equal(got, ref)
        else:
            bound = 2 * K * np.finfo(float).eps * (np.abs(A) @ np.abs(B))
            assert np.all(np.abs(got - ref) <= bound)

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_leading_axes_broadcast(self, K):
        rng = np.random.default_rng(10 + K)
        one = _operand(rng, K, "complex", n=1)
        stack = _operand(rng, K, "view")
        for A, B in ((one, stack), (stack, one)):
            got = _node_matmul(A, B)
            assert got.shape == stack.shape
            bound = 2 * K * np.finfo(float).eps * (np.abs(A) @ np.abs(B))
            assert np.all(np.abs(got - A @ B) <= bound)

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_gram_is_hermitian_to_rounding(self, K):
        # numpy's complex multiply may fuse a multiply-add (FMA), so the
        # imaginary parts of a_ik conj(a_jk) and a_jk conj(a_ik) need not
        # cancel exactly; they cancel to the products' rounding (on the
        # diagonal this bounds twice the imaginary part)
        A = _operand(np.random.default_rng(20 + K), K, "complex")
        H = _node_matmul(A, np.conj(np.swapaxes(A, 1, 2)))
        bound = 2 * K * np.finfo(float).eps * (np.abs(A) @ np.abs(np.swapaxes(A, 1, 2)))
        assert np.all(np.abs(H - np.conj(np.swapaxes(H, 1, 2))) <= bound)


def _conditioned_nodes(rng, K, conds, per_cond=32):
    """Complex (n, K, K) nodes U diag(sigma) V* with singular values
    log-spaced from 1 to 1/cond, U and V random unitary; returns the nodes
    and each node's 2-norm condition number."""
    n = len(conds) * per_cond
    u, _ = np.linalg.qr(rng.normal(size=(n, K, K)) + 1j * rng.normal(size=(n, K, K)))
    v, _ = np.linalg.qr(rng.normal(size=(n, K, K)) + 1j * rng.normal(size=(n, K, K)))
    cond = np.repeat(np.asarray(conds, dtype=float), per_cond)
    sigma = cond[:, None] ** -np.linspace(0.0, 1.0, K)
    return u @ (sigma[:, :, None] * np.conj(np.swapaxes(v, 1, 2))), cond


class TestNodeInverse:
    """The per-node inverse: adj/det for K <= 3 behind a Frobenius
    condition-number gate, ``np.linalg.inv`` past it and at K >= 4."""

    CONDS = [1.0, 10.0, 1e2, 1e4, 1e6, 1e8, 1e10, 1e12]

    @staticmethod
    def residual(M, X):
        return np.linalg.norm(M @ X - np.eye(M.shape[-1]), axis=(1, 2))

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_residual_within_4x_lapack(self, K, scale):
        # a node's residual is compared with LAPACK's on that node, or with
        # eps * kappa_F where LAPACK's happens to fall below that scale
        M, _ = _conditioned_nodes(np.random.default_rng(50 + K), K, self.CONDS)
        kappa = np.linalg.norm(M, axis=(1, 2)) * np.linalg.norm(np.linalg.inv(M), axis=(1, 2))
        floor = np.finfo(float).eps * kappa
        M = scale * M
        X, ref = _node_inverse(M), np.linalg.inv(M)
        assert np.all(self.residual(M, X) <= 4 * np.maximum(self.residual(M, ref), floor))

    @pytest.mark.parametrize("K", [2, 3])
    def test_nodes_above_the_gate_take_lapack(self, monkeypatch, K):
        # kappa_F lies between cond and K * cond: cond 10 stays below the gate
        # of 64 and every cond from 1e2 up lies above it
        M, cond = _conditioned_nodes(np.random.default_rng(60 + K), K, self.CONDS)
        above = cond >= 1e2
        shapes = []
        inv = np.linalg.inv

        def recorded(a):
            shapes.append(a.shape)
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", recorded)
        X = _node_inverse(M)
        assert shapes == [(int(above.sum()), K, K)]
        np.testing.assert_array_equal(X[above], inv(M[above]))
        assert not np.any(np.all(X[~above] == inv(M[~above]), axis=(1, 2)))

    def test_k4_is_lapack(self):
        M, _ = _conditioned_nodes(np.random.default_rng(64), 4, self.CONDS)
        np.testing.assert_array_equal(_node_inverse(M), np.linalg.inv(M))

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_singular_node_raises(self, K):
        M, _ = _conditioned_nodes(np.random.default_rng(70 + K), K, [1.0], per_cond=4)
        M[2] = 0.0
        M[2, 0, :] = 1.0 if K > 1 else 0.0    # rank 1; zero at K = 1
        with pytest.raises(np.linalg.LinAlgError):
            _node_inverse(M)

    def test_broadcast_node_and_real_input(self):
        one = np.array([[[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]]])
        X = _node_inverse(one)
        assert X.shape == (1, 3, 3) and X.dtype == np.float64
        assert np.max(np.abs(one[0] @ X[0] - np.eye(3))) <= 4 * np.finfo(float).eps


def _sites(matches):
    """(module, innermost enclosing function or "<module>") of every AST
    node of the package source for which ``matches(node)`` holds."""
    sites = []

    class Visitor(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.scope = module, ["<module>"]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def generic_visit(self, node):
            if matches(node):
                sites.append((self.module, self.scope[-1]))
            super().generic_visit(node)

    for path in sorted(Path(spectral.__file__).parent.glob("*.py")):
        source = path.read_text()
        assert "linalg import" not in source
        Visitor(path.stem).visit(ast.parse(source))
    return sites


def _call_sites(func):
    """Sites of every call whose callee reads ``func``, e.g. "np.linalg.inv"."""
    return _sites(lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) == func)


class TestKernelSites:
    """Each per-node kernel is the only place its LAPACK call is made, and
    each factorization route has one call site."""

    def test_inverse_only_in_node_inverse(self):
        assert set(_call_sites("np.linalg.inv")) == {("spectral", "_node_inverse")}

    def test_eigvalsh_only_in_kernel_and_single_matrix_sites(self):
        # the kernel (_hermitian_eigenvalues and its K = 3 branch _eig3);
        # then the dense B, the lag-0 covariance and a class weight, each
        # one matrix
        assert set(_call_sites("np.linalg.eigvalsh")) == {
            ("spectral", "_hermitian_eigenvalues"), ("spectral", "_eig3"),
            ("spectral", "assemble_operators"), ("spectral", "covariance_from_density"),
            ("minimax", "_check_weight"),
        }

    def test_riccati_and_lyapunov_solves_only_in_the_shared_model(self):
        # the solve, the rational factor and the minimality verdict read one
        # innovations model (the verdict's filter); the covariance-form
        # factor is gone; W is solved where check's exact integral reads it
        assert _call_sites("scipy.linalg.solve_discrete_are") == [("spectral", "_innovations")]
        assert _call_sites("scipy.linalg.solve_discrete_lyapunov") == [
            ("spectral", "check_minimality")]
        assert set(_call_sites("_innovations")) == {
            ("spectral", "filter"), ("extrapolate", "spectral_factorize")}
        source = Path(extrapolate.__file__).read_text()
        for name in ("_riccati_factor", "_pd_cholesky", "lambda_grid", "_reachability"):
            assert name not in source

    def test_rational_factor_solves_no_lyapunov_equation(self, monkeypatch):
        # spectral_factorize and the filter read P, Re and K_p only; W is
        # solved where check reads it
        rng = np.random.default_rng(31)
        F = RationalDensity(random_trig_poly_density(rng, 3, 2).numerator, [1.0, -0.5])
        G = RationalDensity(0.4 * np.eye(3)[None])
        calls = count_calls(monkeypatch, scipy.linalg, "solve_discrete_lyapunov")
        extrapolate.spectral_factorize(F, n_lambda=512)
        extrapolate.solve_channel(F, G, np.ones((2, 3)), window=16, n_lambda=512)
        assert calls == []
        check_minimality(F, G, n_lambda=512)
        assert len(calls) == 1

    def test_fft_only_in_the_lag_helpers(self):
        # the grid's two lag transforms, the sweeps' causal projection and
        # the causal energy share of h
        fft_calls = _sites(lambda node: isinstance(node, ast.Call)
                           and ast.unparse(node.func).startswith("np.fft."))
        assert set(fft_calls) == {
            ("spectral", "fourier_coefficients"), ("spectral", "evaluate_lag_series"),
            ("extrapolate", "_causal_half"), ("extrapolate", "_causal_share"),
        }

    def test_wilson_sweeps_only_from_spectral_factorize(self):
        assert _call_sites("_wilson_sweeps") == [("extrapolate", "spectral_factorize")]

    def test_tail_cut_is_one_named_constant(self):
        # one assignment, read by the one rule, which the rational factor's
        # doubling and the trim that simulate and cli share both call; no
        # small literal (a trim level) is left in either of them
        def named(node):
            return isinstance(node, ast.Name) and node.id == "_NEGLIGIBLE_TAIL"

        assert _sites(lambda node: named(node) and isinstance(node.ctx, ast.Store)) == [
            ("extrapolate", "<module>")]
        assert _sites(lambda node: named(node) and isinstance(node.ctx, ast.Load)) == [
            ("extrapolate", "_kept_lags")]
        assert set(_call_sites("_kept_lags")) == {
            ("extrapolate", "trimmed_coefficients"), ("extrapolate", "spectral_factorize")}
        readers = _sites(lambda node: isinstance(node, ast.Attribute)
                         and node.attr == "trimmed_coefficients")
        assert {module for module, _ in readers} == {"simulate", "cli"}
        small = _sites(lambda node: isinstance(node, ast.Constant)
                       and isinstance(node.value, float) and 1e-20 < node.value < 1e-10)
        assert not [site for site in small if site[0] in ("simulate", "cli")]


class TestThresholdSites:
    """Each numerical threshold is one module constant that every command
    reads: no parameter or field can fork it."""

    def test_no_ceiling_or_batch_parameter(self):
        def forks(node):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                names = [arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)]
            elif isinstance(node, ast.ClassDef):
                names = [item.target.id for item in node.body if isinstance(item, ast.AnnAssign)]
            else:
                return False
            return bool({"cond_ceiling", "batch_size"} & set(names))

        assert _sites(forks) == []

    def test_cond_ceiling_read_by_the_node_checks_and_meta(self):
        def named(node):
            return isinstance(node, ast.Name) and node.id == "DEFAULT_COND_CEILING"

        assert _sites(lambda node: named(node) and isinstance(node.ctx, ast.Store)) == [
            ("spectral", "<module>")]
        # compared once, in the pair's verdict, which the solves, the
        # operator assembly and check read
        assert set(_sites(lambda node: named(node) and isinstance(node.ctx, ast.Load))) == {
            ("spectral", "_judge_pair"), ("cli", "_meta")}

    def test_factor_residual_compared_only_in_checked_factor(self):
        def compares(node):
            return isinstance(node, ast.Compare) and any(
                (isinstance(sub, ast.Name) and sub.id == "FACTORIZATION_TOL")
                or (isinstance(sub, ast.Attribute) and sub.attr == "relative_residual")
                for sub in ast.walk(node))

        assert _sites(compares) == [("extrapolate", "_checked_factor")]
        reads = _sites(lambda node: isinstance(node, ast.Name)
                       and node.id == "FACTORIZATION_TOL" and isinstance(node.ctx, ast.Load))
        assert set(reads) == {("extrapolate", "_checked_factor"), ("cli", "_meta")}



_FUNCTIONAL = np.array([[1.0], [0.5]])
# each entry point that puts a density pair on a grid, called on (F, G)
# and, where it takes one, an explicit n_lambda
_PAIR_ENTRY_POINTS = {
    "solve_channel": lambda F, G, **kw: extrapolate.solve_channel(
        F, G, _FUNCTIONAL[:, :F.K], window=8, **kw),
    "check_minimality": lambda F, G, **kw: check_minimality(F, G, **kw),
    "assemble_operators": lambda F, G: assemble_operators(F, G, window=8),
    "oracle_solve": lambda F, G, **kw: extrapolate.oracle_solve(
        F, G, _FUNCTIONAL[:, :F.K], j_past=8, **kw),
    "build_anchor": lambda F, G: minimax.build_anchor(F, G, {(0, 1): _FUNCTIONAL[:, :F.K]},
                                                      window=8),
}
_OFF_GRID = "grid density has N=256, expected 512; re-rasterization needs a parametric density"
_OFF_N_LAMBDA = "grid density has N=512, expected 4096; re-rasterization needs a parametric density"
_MISMATCHED_K = "component mismatch: F has K=2, G has K=1"


class TestPairLayer:
    """One grid rule and one verdict per density pair (``spectral._pair_grids``
    and ``spectral._judge_pair``); the solves, the assembly and ``check``
    read the verdict, the oracle and the minimax anchor the rule only."""

    @pytest.mark.parametrize("case, name", [
        *(("grid-sides-differ", name) for name in sorted(_PAIR_ENTRY_POINTS)),
        # assemble_operators and build_anchor take no n_lambda
        *(("grid-off-n-lambda", name) for name in
          ("check_minimality", "oracle_solve", "solve_channel")),
        *(("k-differs", name) for name in sorted(_PAIR_ENTRY_POINTS)),
    ])
    def test_one_value_error_off_the_grid_rule(self, case, name):
        ar1 = RationalDensity.ar1(0.5)
        if case == "grid-sides-differ":
            # no n_lambda: the pair's N is its first grid side's
            args, kwargs, message = (ar1.rasterize(512), ar1.rasterize(256)), {}, _OFF_GRID
        elif case == "grid-off-n-lambda":
            args, kwargs, message = (ar1.rasterize(512), None), {"n_lambda": 4096}, _OFF_N_LAMBDA
        else:
            two = RationalDensity(np.eye(2)[None], [1.0, -0.5])
            args, kwargs, message = (two, RationalDensity([[[0.5]]])), {}, _MISMATCHED_K
        with pytest.raises(ValueError) as info:
            _PAIR_ENTRY_POINTS[name](*args, **kwargs)
        assert str(info.value) == message

    def test_route_predicate_written_once(self):
        # "F rational, G rational or absent" is one function; the solve and
        # the verdict call it
        def predicate(node):
            return isinstance(node, ast.BoolOp) and "RationalDensity" in ast.unparse(node)

        assert set(_sites(predicate)) == {("spectral", "_rational_pair")}
        assert set(_call_sites("_rational_pair")) == {
            ("spectral", "_judge_pair"),
            ("spectral", "check_minimality"), ("extrapolate", "solve_channel")}

    def test_pairs_reach_a_grid_only_through_the_rule(self):
        # as_grid is called on single densities only; every pair goes
        # through _pair_grids, and only the solve, the assembly and check judge
        assert set(_call_sites("as_grid")) == {
            ("spectral", "_pair_grids"), ("spectral", "covariance_from_density"),
            ("spectral", "density_to_spec"), ("extrapolate", "spectral_factorize"),
            ("extrapolate", "functional_variance"), ("minimax", "rasterized"),
            ("minimax", "factorized_saddle_residual")}
        assert set(_call_sites("_judge_pair")) == {
            ("spectral", "assemble_operators"), ("spectral", "check_minimality"),
            ("extrapolate", "solve_channel")}
        readers = {module for module, _ in _call_sites("_pair_grids")}
        assert readers == {"spectral", "extrapolate", "minimax", "cli"}
        for name in ("_checked_condition", "_node_traces"):
            assert not hasattr(spectral, name)

    @pytest.mark.parametrize("F, G", [
        pytest.param(RationalDensity.ar1(0.5), RationalDensity([[[0.6]]]), id="rational"),
        pytest.param(RationalDensity.ar1(0.5).rasterize(512),
                     SpectralDensityGrid.white(1, 0.36, 512), id="grid"),
    ])
    def test_solve_takes_one_eigenvalue_pass(self, monkeypatch, F, G):
        eigen_calls = count_calls(monkeypatch, spectral, "_hermitian_eigenvalues")
        extrapolate.solve_channel(F, G, _FUNCTIONAL, window=8, n_lambda=512)
        assert len(eigen_calls) == 1


def _kernel_nodes(K, rng):
    """Random Hermitian nodes, then diagonal, repeated, rank-deficient,
    -c I and zero nodes of size K (each special spectrum under a random
    unitary rotation as well)."""
    def hermitian(n):
        X = rng.normal(size=(n, K, K)) + 1j * rng.normal(size=(n, K, K))
        return (X + np.conj(np.swapaxes(X, 1, 2))) / 2

    q, _ = np.linalg.qr(rng.normal(size=(K, K)) + 1j * rng.normal(size=(K, K)))
    spectra = [
        np.linspace(-1.5, 2.0, K),                    # diagonal, mixed signs
        np.ones(K),                                   # repeated
        np.r_[np.ones(K - 1), 1e-8][-K:],             # repeated pair, tiny last
        np.r_[np.zeros(K - 1), 2.5][-K:],             # rank deficient (rank 1)
        np.r_[np.zeros(K - 1), -2.5][-K:],            # rank-1 NSD
        -3.0 * np.ones(K),                            # -c I
        np.zeros(K),                                  # zero
    ]
    special = [np.diag(d).astype(complex) for d in spectra]
    rotated = [q @ node @ q.conj().T for node in special]
    return np.concatenate([hermitian(256), np.array(special), np.array(rotated)])


def _exact_eig2(herm):
    """Eigenvalues mid -/+ rad of Hermitian 2x2 nodes, computed in 50-digit
    decimal arithmetic from the nodes' exact binary values, rounded once."""
    out = []
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        for node in herm:
            a, d = Decimal(node[0, 0].real), Decimal(node[1, 1].real)
            re, im = Decimal(node[1, 0].real), Decimal(node[1, 0].imag)
            mid = (a + d) / 2
            rad = (((a - d) / 2) ** 2 + re * re + im * im).sqrt()
            out.append([float(mid - rad), float(mid + rad)])
    return np.array(out)


def _rational_rotation(a, b, c, d):
    """n Q for the rotation Q of the integer quaternion (a, b, c, d), with
    n = a^2 + b^2 + c^2 + d^2: an integer matrix M with M M^T = n^2 I."""
    return np.array([
        [a*a + b*b - c*c - d*d, 2 * (b*c - a*d), 2 * (b*d + a*c)],
        [2 * (b*c + a*d), a*a - b*b + c*c - d*d, 2 * (c*d - a*b)],
        [2 * (b*d - a*c), 2 * (c*d + a*b), a*a - b*b - c*c + d*d],
    ])


def _exact_nodes(rng, spectra, per_spectrum):
    """Hermitian 3x3 nodes whose entries and eigenvalues are exact in
    binary floating point, each spectrum under ``per_spectrum`` rotations.

    Node = W diag(mu) W* with W = M1 diag(i^k) M2 (M1, M2 from random
    quaternions with entries in -2..2), so W / (n1 n2) is unitary and the
    eigenvalues are (n1 n2)^2 mu.  All intermediate values are Gaussian
    integers below 2^53 for integer |mu| <= 1e10.  Returns (nodes, exact
    ascending eigenvalues).
    """
    nodes, lams = [], []
    for mu in np.asarray(spectra, dtype=float):
        for _ in range(per_spectrum):
            quats = rng.integers(-2, 3, size=(2, 4))
            quats[np.all(quats == 0, axis=1), 0] = 1
            m1, m2 = (_rational_rotation(*quat) for quat in quats)
            w = m1 @ np.diag(1j ** rng.integers(0, 4, size=3)) @ m2
            nodes.append(w @ np.diag(mu) @ np.conj(w.T))
            lams.append(np.sort(float(np.sum(quats[0] ** 2) * np.sum(quats[1] ** 2)) ** 2 * mu))
    return np.array(nodes), np.array(lams)


class TestHermitianEigenvalues:
    """The per-node eigenvalue kernel reads the Hermitian part of each node.

    At K = 1 it is the node's real part, and at K >= 4 one batched
    ``eigvalsh``; both are ``eigvalsh`` of the Hermitian part, bit for bit.  At
    K = 2 the closed form is within 4 eps times the node's 2-norm of the
    exact eigenvalues, and within 8 eps of ``eigvalsh``, whose own error
    reaches about 4 eps on these nodes.  At K = 3 the closed form is within
    8 eps of ``eigvalsh`` (5.4 eps measured on these nodes), and on nodes of
    known spectrum its error exceeds ``eigvalsh``'s by at most 4 eps.
    """

    @staticmethod
    def assert_matches(values):
        herm = (values + np.conj(np.swapaxes(values, 1, 2))) / 2
        ref = np.linalg.eigvalsh(herm)
        got = _hermitian_eigenvalues(values)
        assert got.shape == ref.shape
        if values.shape[1] not in (2, 3):
            np.testing.assert_array_equal(got, ref)
            return
        assert np.all(np.isfinite(got)) and np.all(np.diff(got, axis=1) >= 0)
        eps_norm = np.finfo(float).eps * np.max(np.abs(ref), axis=1, keepdims=True)
        if values.shape[1] == 2:
            assert np.all(np.abs(got - _exact_eig2(herm)) <= 4 * eps_norm)
        assert np.all(np.abs(got - ref) <= 8 * eps_norm)

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_matches_eigvalsh(self, K, scale):
        self.assert_matches(scale * _kernel_nodes(K, np.random.default_rng(K)))

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_nearly_hermitian_input_reads_its_hermitian_part(self, K):
        rng = np.random.default_rng(30 + K)
        values = _kernel_nodes(K, rng)
        skew = rng.normal(size=values.shape) + 1j * rng.normal(size=values.shape)
        values = values + 1e-13 * skew
        assert np.max(np.abs(values - np.conj(np.swapaxes(values, 1, 2)))) > 1e-14
        self.assert_matches(values)

    def test_k1_is_the_real_part_without_lapack(self, monkeypatch):
        rng = np.random.default_rng(12)
        mags = 10.0 ** rng.uniform(-200, 200, 4096)
        values = (mags * rng.choice([-1.0, 1.0], 4096)
                  * (1 + 1j * rng.normal(size=4096)))[:, None, None]
        ref = np.linalg.eigvalsh((values + np.conj(values)) / 2)
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape))
        got = _hermitian_eigenvalues(values)
        assert calls == []
        np.testing.assert_array_equal(got, ref)
        assert got.dtype == ref.dtype and got.shape == ref.shape

    @pytest.mark.parametrize("scale", [2.0 ** -498, 1.0, 2.0 ** 498])
    def test_k3_error_within_4_eps_of_eigvalsh_error(self, scale):
        # random, gapped, repeated, rank-deficient, -c I and cond-1e10
        # spectra on exact nodes; 2^-+498 is about 1e-+150
        rng = np.random.default_rng(7)
        spectra = np.r_[rng.integers(-1000, 1001, size=(64, 3)),
                        [[300, 100, 30], [1, 1, 1], [1e8, 1e8, 1], [2, 2, -1],
                         [0, 0, 25], [0, 10, 20], [-3, -3, -3], [1e10, 1e5, 1],
                         [1e10, 1e10, 1]]]
        values, lams = _exact_nodes(rng, spectra, 16)
        values, lams = scale * values, scale * lams
        got = _hermitian_eigenvalues(values)
        ref = np.linalg.eigvalsh(values)
        eps_norm = np.finfo(float).eps * np.max(np.abs(lams), axis=1)
        err = np.max(np.abs(got - lams), axis=1)
        ref_err = np.max(np.abs(ref - lams), axis=1)
        assert np.all(np.diff(got, axis=1) >= 0)
        assert np.all(err <= ref_err + 4 * eps_norm)

    def test_k3_nodes_at_the_arccos_edge_take_eigvalsh(self, monkeypatch):
        # a repeated pair puts the arccos argument at -1 or +1; well-separated
        # spectra keep it inside, so only the repeated-pair nodes are referred
        values, _ = _exact_nodes(np.random.default_rng(8),
                                 [[1, 2, 4], [1e8, 1e8, 1], [-2, 1, 1]], 8)
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recorded(a):
            shapes.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        got = _hermitian_eigenvalues(values)
        assert shapes == [(16, 3, 3)]
        np.testing.assert_array_equal(got[8:], eigvalsh(values[8:]))


class TestPointwiseCondition:
    def test_matches_svd_condition_on_hermitian_pd_samples(self):
        rng = np.random.default_rng(41)
        for K in (1, 2, 4):
            X = rng.normal(size=(200, K, K)) + 1j * rng.normal(size=(200, K, K))
            scales = np.exp(rng.uniform(-6, 0, size=(200, 1, 1)))
            values = X @ np.conj(np.swapaxes(X, 1, 2)) + scales * np.eye(K)
            got = pointwise_condition(values)
            expect = np.linalg.cond(values)
            assert np.max(np.abs(got / expect - 1)) < 1e-8

    def test_zero_eigenvalue_is_infinite(self):
        values = np.array([np.diag([1.0, 0.0]), np.zeros((2, 2)), np.eye(2)], dtype=complex)
        assert list(pointwise_condition(values)) == [np.inf, np.inf, 1.0]

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
        # the zero at lambda = 0 puts the filter's closed loop on the circle
        assert report.closed_loop_radius >= 1.0
        assert report.trace_integral == np.inf
        assert any(abs(x) < 1e-9 for x in report.singular_lambdas)

    def test_smooth_rational_refinement_stable(self):
        # the exact integral (1 + phi^2) / sigma^2 does not move with the grid
        reports = [check_minimality(RationalDensity.ar1(0.5), n_lambda=n) for n in (1024, 2048)]
        assert all(report.passed for report in reports)
        assert reports[0].trace_integral == reports[1].trace_integral
        assert reports[0].trace_integral == pytest.approx(1.25, rel=1e-12)
        assert reports[0].closed_loop_radius < 1.0

    @staticmethod
    def separate_grid_report(F, G, n, cond_ceiling=1e10):
        """Masked trace integrals on separate grids n, 2n, .., 16n, each
        rasterized and inverted node by node, with the condition number
        and singular nodes of the first."""

        def masked(total):
            conds = pointwise_condition(total)
            good = np.isfinite(conds) & (conds <= cond_ceiling)
            inv = np.linalg.inv(total[good])
            integral = np.sum(np.trace(inv, axis1=1, axis2=2).real) / len(total)
            max_cond = conds.max() if good.all() else np.inf
            return integral, max_cond, list(lambda_grid(len(total))[~good])

        def total(m):
            return as_grid(F, m).values + (0.0 if G is None else as_grid(G, m).values)

        integrals = [masked(total(n * 2 ** k))[0] for k in range(5)]
        _, cond, singular = masked(total(n))
        return integrals, cond, singular

    @pytest.mark.parametrize("F, G", [
        pytest.param(RationalDensity.ar1(0.5), RationalDensity([[[0.6]]]), id="ar1-white"),
        pytest.param(RationalDensity.ma([1.0, -1.0]), None, id="ma-zero-at-0"),
        pytest.param(RationalDensity([[[1.0, 0.3j], [0.2, 0.8]], [[0.4, 0.0], [0.1, -0.5]]],
                                     [1.0, -0.6]),
                     RationalDensity(0.1 * np.eye(2)[None]), id="K2"),
    ])
    def test_nested_grid_matches_separate_grids(self, monkeypatch, F, G):
        # the grid part of the report is one eigenvalue pass at n; the exact
        # integral is the limit of the nested grids' integrals, which grow
        # without bound where the filter refuses the pair
        integrals, cond, singular = self.separate_grid_report(F, G, 1024)
        eigen_calls = count_calls(monkeypatch, spectral, "_hermitian_eigenvalues")
        inv_calls = count_calls(monkeypatch, np.linalg, "inv")
        report = check_minimality(F, G, n_lambda=1024)
        assert len(eigen_calls) == 1 and inv_calls == []
        assert report.n_lambda == 1024
        assert report.max_condition == cond
        assert report.singular_lambdas == singular
        if report.passed:
            assert report.trace_integral == pytest.approx(integrals[-1], rel=1e-12)
        else:
            assert report.trace_integral == np.inf
            assert all(b > 1.1 * a for a, b in zip(integrals, integrals[1:]))

    def test_grid_pair_takes_one_eigenvalue_pass(self, monkeypatch):
        F = RationalDensity.ar1(0.5).rasterize(512)
        G = SpectralDensityGrid.white(1, 0.5, 512)
        eigen_calls = count_calls(monkeypatch, spectral, "_hermitian_eigenvalues")
        inv_calls = count_calls(monkeypatch, np.linalg, "inv")
        report = check_minimality(F, G)
        assert len(eigen_calls) == 1 and inv_calls == []
        assert report.passed and report.closed_loop_radius is None
        direct = np.mean(1.0 / (F.values[:, 0, 0].real + 0.5))
        assert report.trace_integral == pytest.approx(direct, rel=1e-12)

    def test_all_singular_report(self):
        # every node is singular, and the filter has no stabilizing solution
        n = 16384
        report = check_minimality(RationalDensity([[[0.0]]]), n_lambda=n)
        assert not report.passed
        assert report.trace_integral == np.inf
        assert report.closed_loop_radius == np.inf
        assert report.max_condition == np.inf
        assert report.n_lambda == n
        assert report.singular_lambdas == lambda_grid(n).tolist()

    @pytest.mark.parametrize("rho, angle", [
        (0.3, 0.0), (0.9, 0.0), (0.999, 0.0),
        # a zero next to an odd node of the doubled grid: minimal, and exact
        (1.0 - 1e-6, np.pi / 4096),
    ])
    def test_ma1_integral_is_exact(self, rho, angle):
        report = check_minimality(RationalDensity.ma([1.0, -rho * np.exp(1j * angle)]),
                                  n_lambda=4096)
        assert report.passed and report.closed_loop_radius < 1.0
        assert report.trace_integral == pytest.approx(1.0 / (1.0 - rho ** 2), rel=1e-12)

    @pytest.mark.parametrize("phi, sigma", [(0.5, 1.0), (0.9, 2.0), (0.995, 0.7)])
    def test_ar1_integral_is_exact(self, phi, sigma):
        report = check_minimality(RationalDensity.ar1(phi, sigma), n_lambda=512)
        assert report.passed
        assert report.trace_integral == pytest.approx((1.0 + phi ** 2) / sigma ** 2, rel=1e-12)

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_noisy_integral_meets_a_fine_grid(self, K):
        rng = np.random.default_rng(70 + K)
        num = rng.normal(size=(3, K, K)) + 1j * rng.normal(size=(3, K, K))
        F = RationalDensity(num, [1.0, -0.6 * np.exp(1j)])
        G = RationalDensity(0.3 * np.eye(K)[None])
        report = check_minimality(F, G, n_lambda=256)
        total = as_grid(F, 8192).values + as_grid(G, 8192).values
        grid = np.mean(np.trace(np.linalg.inv(total), axis1=1, axis2=2).real)
        assert report.passed
        assert report.trace_integral == pytest.approx(grid, rel=1e-12)


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

    def test_joint_covariance_keeps_noise_off_the_future(self):
        # observed past (signal + noise) then signal future; the noise is
        # independent of the signal, so it enters the past-past block only
        F = RationalDensity(np.array([[[1.0, 0.2], [0.0, 0.8]]]), [1.0, -0.6])
        G = RationalDensity(0.4 * np.eye(2)[None])
        L, J, K = 5, 3, 2
        cov = joint_covariance(F, G, L, J).reshape(L + J, K, L + J, K)
        KF = covariance_from_density(F, L + J - 1)
        KG = covariance_from_density(G, L + J - 1)
        for s in range(L + J):
            for t in range(L + J):
                expected = KF[s - t] + (KG[s - t] if max(s, t) < L else 0.0)
                assert np.allclose(cov[s, :, t, :], expected, atol=1e-14)
        flat = cov.reshape((L + J) * K, -1)
        assert np.allclose(flat, flat.conj().T, atol=1e-14)
