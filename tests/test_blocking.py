import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcfield.blocking import (
    BlockingConfig,
    BlockingError,
    basis_frequency,
    block_coefficients,
    functional_to_spec,
    reconstruct_segment,
)


class TestBasisFrequency:
    def test_walk(self):
        assert basis_frequency(1) == 0
        assert basis_frequency(3) == -1
        assert basis_frequency(6) == 3
        assert [basis_frequency(k) for k in range(1, 8)] == [0, 1, -1, 2, -2, 3, -3]

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            basis_frequency(0)

    @given(st.integers(min_value=1, max_value=500))
    def test_bijective_onto_integers(self, k):
        # no duplicate frequencies: the inverse map is well defined
        nu = basis_frequency(k)
        back = 2 * nu if nu > 0 else -2 * nu + 1 if nu < 0 else 1
        assert back == k


class TestBlockingConfig:
    def test_non_integer_sampling_rejected(self):
        with pytest.raises(ValueError):
            BlockingConfig(period=1.0, n_components=2, dt=0.3)

    def test_nyquist_margin_enforced(self):
        with pytest.raises(ValueError):
            BlockingConfig(period=1.0, n_components=4, dt=1.0 / 6)
        BlockingConfig(period=1.0, n_components=4, dt=1.0 / 8)


@pytest.fixture
def cfg():
    return BlockingConfig(period=1.0, n_components=4, dt=1.0 / 16)


class TestBlockCoefficients:
    def test_constant_function(self, cfg):
        seq = block_coefficients(np.ones(cfg.samples_per_period), cfg)
        expect = np.zeros(cfg.n_components, dtype=complex)
        expect[0] = np.sqrt(cfg.period)
        assert np.max(np.abs(seq.values[0] - expect)) < 1e-12

    def test_cosine_splits_between_frequency_pair(self, cfg):
        u = cfg.dt * np.arange(cfg.samples_per_period)
        seq = block_coefficients(np.cos(2 * np.pi * u / cfg.period), cfg)
        # frequency +1 sits at k=2, frequency -1 at k=3 (1-based)
        expect = np.zeros(cfg.n_components, dtype=complex)
        expect[1] = np.sqrt(cfg.period) / 2
        expect[2] = np.sqrt(cfg.period) / 2
        assert np.max(np.abs(seq.values[0] - expect)) < 1e-12

    def test_roundtrip_random_vectors(self, cfg):
        rng = np.random.default_rng(3)
        v = rng.normal(size=cfg.n_components) + 1j * rng.normal(size=cfg.n_components)
        samples = reconstruct_segment(v, cfg)
        back = block_coefficients(samples, cfg)
        assert np.max(np.abs(back.values[0] - v)) < 1e-10
        assert back.discarded_energy[0] < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_roundtrip_property(self, seed):
        cfg = BlockingConfig(period=2.0, n_components=3, dt=2.0 / 8)
        rng = np.random.default_rng(seed)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        back = block_coefficients(reconstruct_segment(v, cfg), cfg)
        assert np.max(np.abs(back.values[0] - v)) < 1e-10

    def test_partial_period_rejected(self, cfg):
        with pytest.raises(BlockingError, match="truncated"):
            block_coefficients(np.ones(cfg.samples_per_period + 3), cfg)

    def test_non_finite_rejected(self, cfg):
        bad = np.ones(cfg.samples_per_period)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            block_coefficients(bad, cfg)

    def test_parseval_inequality_and_band_limited_equality(self, cfg):
        rng = np.random.default_rng(9)
        u = cfg.dt * np.arange(cfg.samples_per_period)
        # rough signal: energy splits, quadrature sum dominates coefficients
        rough = rng.normal(size=cfg.samples_per_period)
        seq = block_coefficients(rough, cfg)
        total = cfg.dt * np.sum(np.abs(rough) ** 2)
        assert np.sum(np.abs(seq.values[0]) ** 2) <= total + 1e-12
        # band-limited signal: equality
        v = rng.normal(size=cfg.n_components) + 1j * rng.normal(size=cfg.n_components)
        smooth = reconstruct_segment(v, cfg)
        seq2 = block_coefficients(smooth, cfg)
        total2 = cfg.dt * np.sum(np.abs(smooth) ** 2)
        assert abs(np.sum(np.abs(seq2.values[0]) ** 2) - total2) < 1e-8

class TestFunctionalToSpec:
    def test_zero_function(self, cfg):
        spec = functional_to_spec(np.zeros(3 * cfg.samples_per_period), cfg)
        assert spec.absolute_sum == 0.0
        assert spec.weighted_square_sum == 0.0
        assert np.all(spec.coefficients == 0)

    def test_indicator_of_first_period(self):
        cfg = BlockingConfig(period=1.0, n_components=2, dt=1.0 / 8)
        samples = np.concatenate([np.ones(8), np.zeros(16)])
        spec = functional_to_spec(samples, cfg)
        assert spec.coefficients[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert abs(spec.coefficients[0, 1]) < 1e-12
        assert np.max(np.abs(spec.coefficients[1:])) < 1e-12

    def test_exponential_diagnostics_match_direct_sums(self, cfg):
        t = cfg.dt * np.arange(4 * cfg.samples_per_period)
        spec = functional_to_spec(np.exp(-t), cfg)
        norms = np.linalg.norm(spec.coefficients, axis=1)
        direct_abs = float(np.sum(norms))
        direct_weighted = float(np.sum((np.arange(4) + 1) * norms**2))
        assert spec.absolute_sum == pytest.approx(direct_abs, abs=1e-10)
        assert spec.weighted_square_sum == pytest.approx(direct_weighted, abs=1e-10)


class TestStationarityOfBlockedProcess:
    def test_periodically_correlated_process_blocks_to_stationary(self):
        # amplitude-modulated white noise is periodically correlated with
        # the modulation period; its blocked vector sequence is stationary,
        # so lag covariances estimated on disjoint halves must agree.
        cfg = BlockingConfig(period=1.0, n_components=3, dt=1.0 / 8)
        rng = np.random.default_rng(2024)
        n_periods = 6000
        t = cfg.dt * np.arange(n_periods * cfg.samples_per_period)
        x = (1.0 + 0.5 * np.cos(2 * np.pi * t / cfg.period)) * rng.standard_normal(t.size)
        seq = block_coefficients(x, cfg).values
        half = n_periods // 2

        def lag_cov(blocks, d):
            lead = blocks[d:]
            base = blocks[: blocks.shape[0] - d]
            return np.einsum("jk,jn->kn", lead, np.conj(base)) / lead.shape[0]

        for d in (0, 1):
            c_a = lag_cov(seq[:half], d)
            c_b = lag_cov(seq[half:], d)
            # entrywise 3-sigma band from the sample size
            sigma = 3.0 * np.abs(c_a).max() / np.sqrt(half - d)
            assert np.max(np.abs(c_a - c_b)) < max(3 * sigma, 0.05)
