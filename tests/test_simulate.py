import numpy as np
import pytest

from pcfield import simulate
from pcfield.blocking import BlockingConfig, _basis_matrix, block_coefficients
from pcfield.extrapolate import (
    FACTORIZATION_TOL,
    FactorizationError,
    _FACTORIZE_TOL,
    functional_variance,
    solve_channel,
    spectral_factorize,
)
from pcfield.harmonics import decompose_field, design_matrix, flat_index, gauss_legendre_grid
from pcfield.simulate import (
    PastWindowError,
    SimulationConfig,
    _pair_conjugate,
    empirical_lag_covariance,
    empirical_mse,
    simulate_channel,
    synthesize_field,
)
from pcfield.spectral import (
    RationalDensity,
    SpectralDensityGrid,
    as_grid,
    joint_covariance,
)


class TestChannelSimulation:
    def test_white_noise_covariance(self):
        path = simulate_channel(SpectralDensityGrid.white(2, 1.0, 512), 4000, seed=42)
        c0 = empirical_lag_covariance(path, 0)
        assert np.max(np.abs(c0 - np.eye(2))) < 3.0 / np.sqrt(4000)

    def test_fixed_seed_reproducible(self):
        F = RationalDensity.ar1(0.5)
        a = simulate_channel(F, 500, seed=9)
        b = simulate_channel(F, 500, seed=9)
        assert a.tobytes() == b.tobytes()
        c = simulate_channel(F, 500, seed=10)
        assert a.tobytes() != c.tobytes()

    def test_ar1_autocorrelation_ratio(self):
        phi = 0.5
        path = simulate_channel(RationalDensity.ar1(phi), 20000, seed=7)
        c0 = empirical_lag_covariance(path, 0)[0, 0].real
        c1 = empirical_lag_covariance(path, 1)[0, 0].real
        # 3-sigma band for the lag-1 autocorrelation of an AR(1) sample
        band = 3.0 / np.sqrt(20000)
        assert abs(c1 / c0 - phi) < band * 2
        assert abs(c0 - 4.0 / 3.0) < 0.05

    def test_factor_input_draws_the_density_path(self):
        F = RationalDensity(np.array([[[1.0, 0.2], [0.0, 0.8]]]), [1.0, -0.6])
        fac = spectral_factorize(F)
        assert simulate_channel(fac, 300, seed=4).tobytes() == \
            simulate_channel(F, 300, seed=4).tobytes()


class TestEmpiricalMse:
    def test_white_noise_validates_theory(self):
        F = SpectralDensityGrid.white(1, 1.0, 512)
        a = np.array([[1.0]])
        sol = solve_channel(F, None, a, window=32)
        res = empirical_mse(sol, F, None, a,
                            SimulationConfig(seed=123, n_trials=10_000, n_steps=32))
        assert abs(res.mse - 1.0) <= 3 * res.stderr
        assert res.stderr < 0.05

    def test_ar1_one_step(self):
        F = RationalDensity.ar1(0.5)
        a = np.array([[1.0]])
        sol = solve_channel(F, None, a, window=64)
        res = empirical_mse(sol, F, None, a,
                            SimulationConfig(seed=5, n_trials=10_000, n_steps=64))
        assert abs(res.mse - sol.delta) <= 3 * res.stderr

    def test_noisy_multichannel_instance(self):
        rng = np.random.default_rng(0)
        numF = 0.5 * (rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2)))
        numF[0] += 3 * np.eye(2)
        F = RationalDensity(numF, [1.0, -0.4])
        numG = 0.5 * (rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2)))
        numG[0] += 2 * np.eye(2)
        G = RationalDensity(numG)
        a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        sol = solve_channel(F, G, a, window=96)
        res = empirical_mse(sol, F, G, a,
                            SimulationConfig(seed=77, n_trials=8000, n_steps=96))
        assert abs(res.mse - sol.delta) <= 3 * res.stderr

    def test_deterministic_given_seed(self):
        F = RationalDensity.ar1(0.3)
        a = np.array([[1.0]])
        sol = solve_channel(F, None, a, window=48)
        cfg = SimulationConfig(seed=2, n_trials=500, n_steps=48)
        r1 = empirical_mse(sol, F, None, a, cfg)
        r2 = empirical_mse(sol, F, None, a, cfg)
        assert r1.mse == r2.mse
        assert r1.stderr == r2.stderr

    def test_trial_records_kept_on_request(self):
        F = SpectralDensityGrid.white(1, 1.0, 256)
        a = np.array([[1.0]])
        sol = solve_channel(F, None, a, window=16)
        res = empirical_mse(sol, F, None, a,
                            SimulationConfig(seed=1, n_trials=100, n_steps=16),
                            keep_trials=True)
        assert res.realized.shape == (100,)
        sq_errors = np.abs(res.realized - res.estimated) ** 2
        assert np.all(sq_errors >= 0)
        assert res.mse == pytest.approx(float(sq_errors.mean()))

    def test_draws_without_factorizing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("empirical_mse factorized a density")

        monkeypatch.setattr(simulate, "spectral_factorize", refuse)
        F, G = RationalDensity.ar1(0.5), RationalDensity.ma([0.7])
        a = np.array([[1.0], [0.5]])
        sol = solve_channel(F, G, a, window=48)
        res = empirical_mse(sol, F, G, a, SimulationConfig(seed=4, n_trials=500, n_steps=48))
        assert res.n_trials == 500

    def test_realized_functional_has_the_functional_variance(self):
        rng = np.random.default_rng(6)
        num = 0.5 * (rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2)))
        num[0] += 2 * np.eye(2)
        F = RationalDensity(num, [1.0, -0.6])
        a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        G = RationalDensity(0.5 * np.eye(2)[None])
        sol = solve_channel(F, G, a, window=64)
        n = 8000
        res = empirical_mse(sol, F, G, a,
                            SimulationConfig(seed=31, n_trials=n, n_steps=64),
                            keep_trials=True)
        # the functional is circular complex Gaussian, so |X|^2 has mean
        # Var X and standard deviation Var X
        sample = float(np.mean(np.abs(res.realized) ** 2))
        variance = functional_variance(F, a)
        assert abs(sample - variance) <= 4 * variance / np.sqrt(n)

    def test_reduced_rank_signal_is_refused(self):
        # the second component carries noise only, so the signal future's
        # covariance is singular and has no Cholesky factor
        F = RationalDensity(np.diag([1.0, 0.0])[None].astype(complex), [1.0, -0.5])
        G = RationalDensity(0.5 * np.eye(2)[None])
        a = np.array([[1.0, 1.0]])
        sol = solve_channel(F, G, a, window=48)
        with pytest.raises(FactorizationError, match="cannot sample: the joint covariance"):
            empirical_mse(sol, F, G, a, SimulationConfig(seed=8, n_trials=100, n_steps=48))

    def test_joint_size_limit_checked_before_drawing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("empirical_mse built the joint covariance")

        monkeypatch.setattr(simulate, "MAX_JOINT_SIZE", 40)
        monkeypatch.setattr(simulate, "joint_covariance", refuse)
        F = RationalDensity.ar1(0.5)
        a = np.array([[1.0], [0.5]])
        sol = solve_channel(F, None, a, window=48)
        with pytest.raises(PastWindowError, match="joint vector of 50 entries"):
            empirical_mse(sol, F, None, a, SimulationConfig(seed=1, n_trials=10, n_steps=48))

    def test_short_past_window_rejected(self):
        # a moving-average density with a zero near the circle makes the
        # estimator memory long; a 2-step window leaves visible weight mass
        # outside the simulated past
        F = RationalDensity.ma([1.0, 0.9])
        a = np.array([[1.0]])
        sol = solve_channel(F, None, a, window=96)
        with pytest.raises(ValueError, match="past window"):
            empirical_mse(sol, F, None, a,
                          SimulationConfig(seed=3, n_trials=100, n_steps=2))

    def test_aliased_weight_lags_rejected(self):
        # the replay reads weights to lag 2 * n_steps = 128 on a 256-point grid
        F = as_grid(RationalDensity.ar1(0.5), 256)
        a = np.array([[1.0]])
        sol = solve_channel(F, None, a, window=16)
        with pytest.raises(PastWindowError, match="lag 128 aliases"):
            empirical_mse(sol, F, None, a,
                          SimulationConfig(seed=3, n_trials=100, n_steps=64))


def _noisy_case(K, noisy, seed=0):
    """A seeded K-component rational signal, white noise or none, a
    two-step functional and its solution."""
    rng = np.random.default_rng(seed)
    num = 0.4 * (rng.normal(size=(2, K, K)) + 1j * rng.normal(size=(2, K, K)))
    num[0] += 2 * np.eye(K)
    F = RationalDensity(num, [1.0, -0.4])
    G = RationalDensity(0.7 * np.eye(K)[None]) if noisy else None
    a = rng.normal(size=(2, K)) + 1j * rng.normal(size=(2, K))
    return F, G, a, solve_channel(F, G, a, window=48)


def _functional_gram(sol, F, G, a, L):
    """E[z^T conj(z)] for z = (realized, estimated), read off the joint
    covariance without its Cholesky factor."""
    J, K = a.shape
    cov = joint_covariance(as_grid(F), as_grid(G) if G is not None else None, L, J)
    coeffs = np.zeros((cov.shape[0], 2), dtype=complex)
    coeffs[L * K:, 0] = a.ravel()
    coeffs[:L * K, 1] = sol.h_lag_coefficients(2 * L)[:L][::-1].ravel()
    return coeffs.T @ cov @ np.conj(coeffs)


class TestTwoFunctionalDraw:
    """Each trial draws (realized, estimated) as u R, u in C^2 iid CN(0, 1)."""

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_root_reproduces_the_functional_gram(self, monkeypatch, K, noisy):
        # unit innovation rows make the two trials the rows of R
        monkeypatch.setattr(simulate, "_complex_innovations",
                            lambda rng, shape: np.eye(2, dtype=complex))
        F, G, a, sol = _noisy_case(K, noisy)
        res = empirical_mse(sol, F, G, a,
                            SimulationConfig(seed=1, n_trials=2, n_steps=48),
                            keep_trials=True)
        R = np.column_stack([res.realized, res.estimated])
        gram = _functional_gram(sol, F, G, a, 48)
        assert np.max(np.abs(R.T @ np.conj(R) - gram)) <= 1e-13 * np.max(np.abs(gram))

    def test_draws_two_innovations_per_trial(self, monkeypatch):
        shapes = []
        draw = simulate._complex_innovations

        def record(rng, shape):
            shapes.append(shape)
            return draw(rng, shape)

        monkeypatch.setattr(simulate, "_complex_innovations", record)
        F, G, a, sol = _noisy_case(3, True)
        empirical_mse(sol, F, G, a,
                      SimulationConfig(seed=2, n_trials=2500, n_steps=48))
        assert shapes == [(1000, 2), (1000, 2), (500, 2)]

    def test_sample_covariance_matches_the_gram(self):
        F, G, a, sol = _noisy_case(2, True, seed=3)
        n = 200_000
        res = empirical_mse(sol, F, G, a, SimulationConfig(seed=9, n_trials=n, n_steps=48),
                            keep_trials=True)
        z = np.column_stack([res.realized, res.estimated])
        sample = z.T @ np.conj(z) / n
        gram = _functional_gram(sol, F, G, a, 48)
        # z_i conj(z_j) of a circular Gaussian pair has variance G_ii G_jj
        scale = np.sqrt(np.outer(gram.diagonal().real, gram.diagonal().real) / n)
        assert np.all(np.abs(sample - gram) <= 5 * scale)

    @pytest.mark.parametrize("field", ["n_trials", "n_steps"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_nonpositive_size_refused(self, field, value):
        with pytest.raises(ValueError, match="n_trials and n_steps must be positive"):
            SimulationConfig(seed=1, **{field: value})


class TestFactorResidualGuard:
    """Paths are drawn only from a factor that reproduces its density."""

    def test_slow_pole_on_a_coarse_grid_is_refused(self):
        fac = spectral_factorize(RationalDensity.ar1(0.995).rasterize(1024))
        assert fac.relative_residual > FACTORIZATION_TOL
        assert fac.relative_residual > _FACTORIZE_TOL
        with pytest.raises(FactorizationError, match="relative residual"):
            simulate_channel(fac, 10, seed=1)
        with pytest.raises(FactorizationError, match="relative residual"):
            simulate_channel(RationalDensity.ar1(0.995).rasterize(1024), 10, seed=1)

    def test_slow_pole_on_a_fine_grid_is_drawn(self):
        fac = spectral_factorize(RationalDensity.ar1(0.995).rasterize(16384))
        assert fac.relative_residual <= _FACTORIZE_TOL
        assert simulate_channel(fac, 10, seed=1).shape == (10, 1)


def _outer_product_field(paths, cfg, grid, m_max):
    """Reference synthesis: one design-matrix column per channel, summed as
    outer products with the channel's reconstructed series."""
    basis = _basis_matrix(cfg)
    design = design_matrix(m_max, grid)
    field = 0.0
    for (m, l), values in paths.items():
        series = (_pair_conjugate(np.array(values, dtype=complex), cfg) @ basis.T).reshape(-1)
        field = field + np.outer(series, design[:, flat_index(m, l)])
    return field.real


class TestFieldSynthesis:
    def setup_method(self):
        self.cfg = BlockingConfig(period=1.0, n_components=3, dt=1.0 / 12)
        self.grid = gauss_legendre_grid(2)

    def _roundtrip(self, paths, m_max=2):
        field = synthesize_field(paths, self.cfg, self.grid, m_max)
        coeffs = np.array([
            decompose_field(field[t], m_max, self.grid)
            for t in range(field.shape[0])
        ])
        worst = 0.0
        for (m, l), v in paths.items():
            rec = block_coefficients(coeffs[:, flat_index(m, l)], self.cfg)
            worst = max(worst, float(np.max(np.abs(rec.values - v))))
        return field, worst

    def test_zero_field(self):
        paths = {(0, 1): np.zeros((3, 3), dtype=complex)}
        field, err = self._roundtrip(paths)
        assert np.max(np.abs(field)) == 0.0
        assert err == 0.0

    def test_single_channel_impulse(self):
        v = np.zeros((3, 3), dtype=complex)
        v[1, 0] = 2.0  # zero-frequency component of the middle period
        paths = {(1, 2): v}
        field, err = self._roundtrip(paths)
        assert err < 1e-8
        assert np.isrealobj(field)

    def test_random_multichannel_roundtrip(self):
        rng = np.random.default_rng(3)
        paths = {}
        for m in range(3):
            for l in range(1, 2 * m + 2):
                v = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
                paths[(m, l)] = _pair_conjugate(v, self.cfg)
        field, err = self._roundtrip(paths, m_max=2)
        assert err < 1e-8
        assert np.isrealobj(field)

    def test_matches_outer_product_reference(self):
        rng = np.random.default_rng(8)
        m_max = 3
        grid = gauss_legendre_grid(m_max)
        paths = {(m, l): rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
                 for m in range(m_max + 1) for l in range(1, 2 * m + 2)
                 if (m + l) % 3}
        field = synthesize_field(paths, self.cfg, grid, m_max)
        reference = _outer_product_field(paths, self.cfg, grid, m_max)
        assert field.shape == reference.shape == (5 * self.cfg.samples_per_period,
                                                  grid.n_nodes)
        assert np.max(np.abs(field - reference)) <= 1e-13 * np.max(np.abs(reference))

    def test_inputs_left_unpaired(self):
        v = np.random.default_rng(2).normal(size=(2, 3)) + 0j
        before = v.copy()
        synthesize_field({(1, 3): v}, self.cfg, self.grid, 2)
        assert np.array_equal(v, before)

    def test_period_counts_must_agree(self):
        paths = {(0, 1): np.zeros((2, 3)), (1, 1): np.zeros((3, 3))}
        with pytest.raises(ValueError, match="same number of periods"):
            synthesize_field(paths, self.cfg, self.grid, 2)

    def test_order_beyond_its_degree_refused(self):
        # (1, 4) shares flat index 4 with harmonic (2, 1)
        with pytest.raises(ValueError, match=r"\(1, 4\)"):
            synthesize_field({(1, 4): np.ones((2, 3))}, self.cfg, self.grid, 2)

    def test_order_zero_refused(self):
        # (0, 0) has flat index -1, the last harmonic's column
        with pytest.raises(ValueError, match=r"\(0, 0\)"):
            synthesize_field({(0, 0): np.ones((2, 3))}, self.cfg, self.grid, 2)

    def test_degree_above_m_max_refused(self):
        paths = {(0, 1): np.ones((2, 3)), (3, 1): np.ones((2, 3))}
        with pytest.raises(ValueError, match=r"channel \(3, 1\) has degree above m_max=2"):
            synthesize_field(paths, self.cfg, self.grid, 2)

    def test_unpaired_component_zeroed_for_real_field(self):
        cfg = BlockingConfig(period=1.0, n_components=4, dt=1.0 / 12)
        rng = np.random.default_rng(1)
        v = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        field = synthesize_field({(0, 1): v}, cfg, self.grid, 0)
        assert np.isrealobj(field)


class TestPeriodicCorrelation:
    def test_synthesized_field_covariance_is_period_invariant(self):
        # build a periodically correlated scalar-channel field from a
        # stationary blocked sequence and check B(t + T, s + T) = B(t, s)
        cfg = BlockingConfig(period=1.0, n_components=3, dt=1.0 / 8)
        # three-component vector sequence of independent AR(1) coordinates
        F = as_grid(RationalDensity(np.eye(3)[None], [1.0, -0.5]), 256)
        factor = spectral_factorize(F)
        n_trials = 4000
        n_periods = 4
        S = cfg.samples_per_period
        rng_paths = [simulate_channel(factor, n_periods, seed=1000 + i)
                     for i in range(n_trials)]
        basis = np.exp(2j * np.pi * np.outer(
            cfg.dt * np.arange(S), [0, 1, -1]) / cfg.period) / np.sqrt(cfg.period)
        samples = np.array([(p @ basis.T).reshape(-1) for p in rng_paths])
        t1, s1 = 3, 5  # indices inside the first period
        prod_0 = samples[:, t1] * np.conj(samples[:, s1])
        prod_T = samples[:, t1 + S] * np.conj(samples[:, s1 + S])
        diff = np.mean(prod_0) - np.mean(prod_T)
        sigma = np.std(prod_0 - prod_T) / np.sqrt(n_trials)
        assert abs(diff) <= 3 * max(sigma, 1e-12)
