import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from pcfield.extrapolate import solve_channel, solve_noiseless
from pcfield.minimax import (
    ClassModeError,
    DensityClassSpec,
    InfeasibleClassError,
    NoiseClass,
    SignalClass,
    band_pair,
    build_anchor,
    contamination_pair,
    evaluate_robust_objective,
    feasibility_gap,
    find_least_favorable,
    minimax_characteristic,
    project_onto_class,
    saddle_point_residual,
    sample_feasible,
    _clipped_shift,
    _soft_threshold_to_radius,
)
from pcfield.spectral import RationalDensity, SpectralDensityGrid, as_grid, lambda_grid

N = 512


def fixed_power_class(p, n_lambda=N, variant="trace", K=1):
    """Signal class with only the power constraint (degenerate mixture)."""
    upper = SpectralDensityGrid.white(K, 1.0, n_lambda)
    return DensityClassSpec(signal=SignalClass(
        kind="contamination", variant=variant, upper=upper, epsilon=1.0, power=p))


@pytest.fixture(autouse=True)
def quiet_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


class TestRobustObjective:
    def test_reproduces_anchor_error(self):
        F = as_grid(RationalDensity.ar1(0.4), N)
        G = SpectralDensityGrid.white(1, 0.5, N)
        anchor = build_anchor(F, G, {(0, 1): np.array([[1.0], [0.5]])}, window=48)
        obj = evaluate_robust_objective(F, G, anchor)
        assert obj == pytest.approx(anchor.delta, abs=1e-8)

    def test_affine_in_each_argument(self):
        F = as_grid(RationalDensity.ar1(0.4), N)
        G = SpectralDensityGrid.white(1, 0.5, N)
        anchor = build_anchor(F, G, {(0, 1): np.array([[1.0], [0.5]])}, window=48)
        F1 = SpectralDensityGrid.white(1, 1.3, N)
        F2 = as_grid(RationalDensity.ma([1.0, 0.3]), N)
        o1 = evaluate_robust_objective(F1, G, anchor)
        o2 = evaluate_robust_objective(F2, G, anchor)
        mix = SpectralDensityGrid(0.25 * F1.values + 0.75 * F2.values)
        omix = evaluate_robust_objective(mix, G, anchor)
        assert omix == pytest.approx(0.25 * o1 + 0.75 * o2, abs=1e-10)

    def test_white_anchor_hand_value(self):
        # anchor F = 1, G = 0, a = (1): the anchored error under density f
        # is the mean of f; for f = 1 + cos the value is exactly 1
        anchor = build_anchor(SpectralDensityGrid.white(1, 1.0, N), None,
                              {(0, 1): np.array([[1.0]])}, window=32)
        f = SpectralDensityGrid.from_scalar_function(lambda lam: 1.0 + np.cos(lam), N)
        assert evaluate_robust_objective(f, None, anchor) == pytest.approx(1.0,
                                                                           abs=1e-12)


class TestProjection:
    def test_power_normalization_shifts(self):
        spec = fixed_power_class(1.0)
        F = SpectralDensityGrid.white(1, 2.0, N)
        Fp, _ = project_onto_class((F, None), spec)
        assert np.max(np.abs(Fp.values - 1.0)) < 1e-12

    def test_band_clipping(self):
        spec = DensityClassSpec(signal=SignalClass(
            kind="band", variant="trace",
            lower=SpectralDensityGrid.white(1, 0.5, N),
            upper=SpectralDensityGrid.white(1, 2.0, N)))
        Fp, _ = project_onto_class((SpectralDensityGrid.white(1, 3.0, N), None), spec)
        assert np.max(np.abs(Fp.values - 2.0)) < 1e-12

    def test_feasible_point_unchanged(self):
        U = as_grid(RationalDensity.ar1(0.3), N)
        spec = contamination_pair("trace", upper=U, epsilon=0.4,
                                  signal_power=1.2 * U.trace_integral(),
                                  noise_power=0.5)
        rng = np.random.default_rng(0)
        F, G = sample_feasible(spec, rng, N)
        F2, G2 = project_onto_class((F, G), spec)
        assert np.max(np.abs(F2.values - F.values)) < 1e-10
        assert np.max(np.abs(G2.values - G.values)) < 1e-10

    @pytest.mark.parametrize("variant", ["trace", "component", "weighted", "matrix"])
    def test_contamination_projection_feasible_all_variants(self, variant):
        rng = np.random.default_rng(42)
        K = 2
        U = as_grid(RationalDensity(
            0.4 * (rng.normal(size=(2, K, K)) + 1j * rng.normal(size=(2, K, K)))
            + np.concatenate([np.eye(K)[None] * 2, np.zeros((1, K, K))])), N)
        B = np.array([[2.0, 0.3], [0.3, 1.0]], dtype=complex)
        if variant == "trace":
            power = 1.1 * U.trace_integral()
        elif variant == "component":
            power = 1.1 * np.mean(np.diagonal(U.values, axis1=1, axis2=2).real, axis=0)
        elif variant == "weighted":
            power = 1.1 * float(np.mean(np.einsum(
                "kn,tnk->t", B, U.values).real))
        else:
            power = 1.1 * np.mean(U.values, axis=0)
        spec = contamination_pair(variant, upper=U, epsilon=0.3,
                                  signal_power=power,
                                  noise_power=power if variant != "weighted" else power,
                                  weight_signal=B if variant == "weighted" else None,
                                  weight_noise=B if variant == "weighted" else None)
        F, G = sample_feasible(spec, rng, N)
        assert feasibility_gap((F, G), spec) < 1e-6

    @pytest.mark.parametrize("variant", ["trace", "component", "weighted", "matrix"])
    def test_band_projection_feasible_all_variants(self, variant):
        rng = np.random.default_rng(24)
        K = 2
        V = SpectralDensityGrid.white(K, 0.4, N)
        U = SpectralDensityGrid.white(K, 2.5, N)
        G1 = SpectralDensityGrid.white(K, 0.3, N)
        B = np.array([[1.5, 0.2], [0.2, 1.0]], dtype=complex)
        if variant == "trace":
            power, radius = 1.5 * K, 0.2
        elif variant == "component":
            power, radius = np.full(K, 1.5), np.full(K, 0.2)
        elif variant == "weighted":
            power = 1.5 * float(np.real(np.trace(B)))
            radius = 0.2
        else:
            power, radius = 1.5 * np.eye(K), np.full((K, K), 0.2)
        spec = band_pair(variant, lower=V, upper=U, signal_power=power,
                         noise_nominal=G1, noise_radius=radius,
                         weight_signal=B if variant == "weighted" else None,
                         weight_noise=B if variant == "weighted" else None)
        F, G = sample_feasible(spec, rng, N)
        assert feasibility_gap((F, G), spec) < 1e-6

    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("variant", ["trace", "component"])
    def test_power_side_reaches_the_class_at_higher_K(self, variant, K):
        # a PSD noise input with mean trace 55 against a power target of
        # 1.8: the clipped shift keeps every field nonnegative, so the
        # alternation with the PSD clip ends feasible
        n = 256
        rng = np.random.default_rng(K)
        U = as_grid(RationalDensity(
            0.4 * (rng.normal(size=(2, K, K)) + 1j * rng.normal(size=(2, K, K)))
            + np.concatenate([np.eye(K)[None] * 2, np.zeros((1, K, K))])), n)
        if variant == "trace":
            signal_power, noise_power = 1.1 * U.trace_integral(), 1.8
        else:
            signal_power = 1.1 * np.mean(np.diagonal(U.values, axis1=1, axis2=2).real,
                                         axis=0)
            noise_power = np.full(K, 1.8 / K)
        spec = contamination_pair(variant, upper=U, epsilon=0.3,
                                  signal_power=signal_power, noise_power=noise_power)
        z = np.exp(-1j * lambda_grid(n))

        def random_psd(mean_trace):
            num = rng.normal(size=(3, K, K)) + 1j * rng.normal(size=(3, K, K))
            P = sum((z ** u)[:, None, None] * num[u] for u in range(3))
            vals = P @ np.conj(np.swapaxes(P, 1, 2))
            vals *= mean_trace / np.mean(np.trace(vals, axis1=1, axis2=2).real)
            return SpectralDensityGrid(vals, check=False)

        F, G = random_psd(5.0), random_psd(55.0)
        assert feasibility_gap(project_onto_class((F, G), spec), spec) < 1e-10

    def test_infeasible_power_target_raises(self):
        spec = DensityClassSpec(signal=SignalClass(
            kind="band", variant="trace",
            lower=SpectralDensityGrid.white(1, 1.0, N),
            upper=SpectralDensityGrid.white(1, 2.0, N),
            power=5.0))
        with pytest.raises(InfeasibleClassError):
            project_onto_class((SpectralDensityGrid.white(1, 1.5, N), None), spec)


def _brentq_shift(t, lo, hi, target):
    """Reference clipped shift: a bracketed root of the monotone mean map."""
    def excess(shift):
        return float(np.clip(t + shift, lo, hi).mean()) - target

    span = 10.0 * (1.0 + np.max(np.abs(t)) + np.max(np.abs(lo)))
    return np.clip(t + brentq(excess, -span, span, xtol=1e-14, rtol=1e-15), lo, hi)


class TestExactSteps:
    """Each projection step against a root of the same monotone map found
    by scipy's brentq."""

    @pytest.mark.parametrize("case", ["finite", "infinite", "at_lower", "at_upper",
                                      "tied"])
    def test_clipped_shift_matches_root(self, case):
        rng = np.random.default_rng(3)
        n = 64
        t = 2.0 * rng.normal(size=n)
        lo = np.abs(rng.normal(size=n))
        hi = lo + np.abs(rng.normal(size=n))
        target = 0.5 * (lo.mean() + hi.mean())
        if case == "infinite":
            hi = np.where(np.arange(n) % 2 == 0, np.inf, hi)
            target = lo.mean() + 1.5
        elif case == "at_lower":
            target = lo.mean()
        elif case == "at_upper":
            target = hi.mean()
        elif case == "tied":
            # equal kinks lo - t and hi - t over blocks of nodes, and nodes
            # whose two kinks coincide (lo = hi)
            t = np.repeat(t[:8], 8)
            lo = np.repeat(lo[:8], 8)
            hi = np.where(np.arange(n) % 3 == 0, lo, np.repeat(hi[:8], 8))
            target = 0.5 * (lo.mean() + hi.mean())
        out = _clipped_shift(t, lo, hi, target)
        assert np.max(np.abs(out - _brentq_shift(t, lo, hi, target))) <= 1e-12
        assert out.mean() == pytest.approx(target, abs=1e-12)

    @pytest.mark.parametrize("case", ["generic", "complex", "tied"])
    def test_soft_threshold_matches_root(self, case):
        rng = np.random.default_rng(4)
        dev = rng.normal(size=200)
        if case == "complex":
            dev = dev + 1j * rng.normal(size=200)
        elif case == "tied":
            dev = np.repeat(dev[:10], 20) * np.tile([1.0, -1.0], 100)
        mags = np.abs(dev)
        radius = 0.3 * mags.mean()
        tau = brentq(lambda x: np.maximum(mags - x, 0.0).mean() - radius,
                     0.0, mags.max(), xtol=1e-14, rtol=1e-15)
        ref = dev * np.maximum(1.0 - tau / mags, 0.0)
        out = _soft_threshold_to_radius(dev, radius)
        assert np.max(np.abs(out - ref)) <= 1e-12
        assert np.abs(out).mean() == pytest.approx(radius, abs=1e-12)

    def test_soft_threshold_edge_radii(self):
        dev = np.array([0.5, -2.0, 2.0, 1e-3, 0.0, -0.7])
        assert np.all(_soft_threshold_to_radius(dev, 0.0) == 0.0)
        inside = _soft_threshold_to_radius(dev, np.abs(dev).mean())
        assert np.array_equal(inside, dev)

    @pytest.mark.parametrize("kind", ["contamination", "band", "power"])
    def test_k1_projection_is_the_closed_form(self, kind):
        # at K = 1 the projection onto {max(lower, 0) <= f <= upper,
        # mean f = target} is one clipped shift of the input
        U = as_grid(RationalDensity.ar1(0.5), N)
        u = U.values[:, 0, 0].real
        t = 1.5 * np.cos(3 * lambda_grid(N)) + 0.2  # negative in places
        start = SpectralDensityGrid(t.astype(complex)[:, None, None], check=False)
        if kind == "power":
            spec = contamination_pair("trace", upper=U, epsilon=0.3,
                                      signal_power=1.2 * u.mean(), noise_power=0.9)
            out = project_onto_class((U, start), spec)[1]
            lower, upper, target = np.zeros(N), np.inf, 0.9
        elif kind == "contamination":
            spec = DensityClassSpec(signal=SignalClass(
                kind="contamination", variant="trace", upper=U, epsilon=0.3,
                power=u.mean()))
            out = project_onto_class((start, None), spec)[0]
            lower, upper, target = (1.0 - 0.3) * u, np.inf, u.mean()
        else:
            spec = DensityClassSpec(signal=SignalClass(
                kind="band", variant="trace", lower=SpectralDensityGrid(0.6 * U.values),
                upper=SpectralDensityGrid(1.4 * U.values), power=u.mean()))
            out = project_onto_class((start, None), spec)[0]
            lower, upper, target = 0.6 * u, 1.4 * u, u.mean()
        ref = _brentq_shift(t, lower, upper, target)
        assert np.max(np.abs(out.values[:, 0, 0] - ref)) <= 1e-12


class TestLeastFavorable:
    def test_fixed_power_benchmark_constant_density(self):
        # maximizing the one-step error under a power budget flattens the
        # density (arithmetic-geometric mean inequality); grid search over
        # a cosine family provides the independent confirmation
        p = 1.5
        spec = fixed_power_class(p)
        init = SpectralDensityGrid.from_scalar_function(
            lambda lam: p * (1.0 + 0.6 * np.cos(lam)), N)
        res = find_least_favorable(spec, np.array([[1.0]]), (init, None),
                                   max_iter=300, tol=1e-10, window=48, n_lambda=N)
        assert res.converged
        f0 = res.F0.values[:, 0, 0].real
        assert np.max(np.abs(f0 - p)) <= 1e-3 * p
        assert res.objective_history[-1] == pytest.approx(p, abs=1e-3)
        assert res.report.residual_F <= 1e-3

        thetas = np.linspace(-0.9, 0.9, 19)
        values = []
        for theta in thetas:
            f = SpectralDensityGrid.from_scalar_function(
                lambda lam: p * (1.0 + theta * np.cos(lam)), N)
            values.append(solve_noiseless(f, np.array([[1.0]]), window=48).delta)
        assert np.argmax(values) == 9  # theta = 0
        assert max(values) <= res.objective_history[-1] + 1e-6

    def test_objective_history_non_decreasing(self):
        spec = fixed_power_class(1.0)
        init = SpectralDensityGrid.from_scalar_function(
            lambda lam: 1.0 + 0.8 * np.cos(2 * lam), N)
        res = find_least_favorable(spec, np.array([[1.0]]), (init, None),
                                   max_iter=100, tol=1e-9, window=48, n_lambda=N)
        hist = np.array(res.objective_history)
        assert np.all(np.diff(hist) >= -1e-12)

    def test_point_class_returns_input(self):
        U = as_grid(RationalDensity.ar1(0.3), N)
        spec = band_pair("trace", lower=U, upper=U,
                         signal_power=U.trace_integral(),
                         noise_nominal=SpectralDensityGrid.white(1, 0.2, N),
                         noise_radius=0.0)
        res = find_least_favorable(spec, np.array([[1.0]]),
                                   (SpectralDensityGrid.white(1, 1.0, N),
                                    SpectralDensityGrid.white(1, 0.2, N)),
                                   max_iter=60, tol=1e-8, window=48, n_lambda=N)
        assert np.max(np.abs(res.F0.values - U.values)) < 1e-9
        assert np.max(np.abs(res.G0.values - 0.2)) < 1e-9

    def test_degenerate_mixture_pins_scalar_density(self):
        U = as_grid(RationalDensity.ar1(0.3), N)
        spec = contamination_pair("trace", upper=U, epsilon=0.0,
                                  signal_power=U.trace_integral(),
                                  noise_power=0.3)
        F, _ = project_onto_class((SpectralDensityGrid.white(1, 1.0, N),
                                   SpectralDensityGrid.white(1, 0.3, N)), spec)
        assert np.max(np.abs(F.values - U.values)) < 1e-10


class TestSaddleResidual:
    def test_small_at_optimum_large_elsewhere(self):
        U = as_grid(RationalDensity.ar1(0.3), N)
        spec = contamination_pair("trace", upper=U, epsilon=0.3,
                                  signal_power=1.2 * U.trace_integral(),
                                  noise_power=0.4)
        a = np.array([[1.0], [0.5]])
        init = (SpectralDensityGrid.white(1, 1.2 * U.trace_integral(), N),
                SpectralDensityGrid.white(1, 0.4, N))
        res = find_least_favorable(spec, a, init, max_iter=500, tol=1e-10,
                                   window=48, n_lambda=N)
        assert res.report.residual_F <= 1e-3
        assert res.report.residual_G <= 1e-3

        rng = np.random.default_rng(5)
        Fs, Gs = sample_feasible(spec, rng, N)
        rep = saddle_point_residual(Fs, Gs, spec, a, mode="noisy", window=48)
        assert rep.residual_F > 0.1
        assert rep.residual_G > 0.1

    def test_complementary_slackness_and_signs(self):
        U = as_grid(RationalDensity.ar1(0.3), N)
        spec = contamination_pair("trace", upper=U, epsilon=0.3,
                                  signal_power=1.2 * U.trace_integral(),
                                  noise_power=0.4)
        a = np.array([[1.0], [0.5]])
        init = (SpectralDensityGrid.white(1, 1.2 * U.trace_integral(), N),
                SpectralDensityGrid.white(1, 0.4, N))
        res = find_least_favorable(spec, a, init, max_iter=500, tol=1e-10,
                                   window=48, n_lambda=N)
        mult = res.report.multipliers["F"]
        assert mult["alpha_sq"] >= 0
        gamma = mult["gamma"]
        assert np.all(gamma <= 1e-12)
        # slackness: wherever the contamination bound is inactive the
        # fitted pointwise multiplier vanishes
        f0 = res.F0.values[:, 0, 0].real
        bound = (1 - 0.3) * U.values[:, 0, 0].real
        inactive = f0 > bound + 1e-6 * f0.max()
        assert np.max(np.abs(gamma[inactive])) <= 1e-6
        assert res.report.multipliers["G"]["beta_sq"] >= 0

    def test_band_pair_sign_constraints(self):
        V = SpectralDensityGrid.white(1, 0.5, N)
        U = SpectralDensityGrid.white(1, 2.0, N)
        G1 = SpectralDensityGrid.white(1, 0.2, N)
        spec = band_pair("trace", lower=V, upper=U, signal_power=1.1,
                         noise_nominal=G1, noise_radius=0.1)
        a = np.array([[1.0], [0.5]])
        res = find_least_favorable(spec, a,
                                   (SpectralDensityGrid.white(1, 1.1, N), G1),
                                   max_iter=400, tol=1e-10, window=48, n_lambda=N)
        mult = res.report.multipliers["F"]
        assert np.all(mult["gamma"] <= 1e-12)
        assert np.all(mult["gamma_upper"] >= -1e-12)
        assert res.report.residual_F <= 1e-3
        assert res.report.residual_G <= 5e-3

    def test_noiseless_and_factorized_modes_agree(self):
        p = 1.5
        spec = fixed_power_class(p)
        init = SpectralDensityGrid.from_scalar_function(
            lambda lam: p * (1.0 + 0.5 * np.cos(lam)), N)
        res = find_least_favorable(spec, np.array([[1.0]]), (init, None),
                                   max_iter=300, tol=1e-10, window=48, n_lambda=N)
        rep_nl = saddle_point_residual(res.F0, None, spec, np.array([[1.0]]),
                                       mode="noiseless", window=48)
        rep_fc = saddle_point_residual(res.F0, None, spec, np.array([[1.0]]),
                                       mode="factorized", window=48)
        assert rep_nl.residual_F <= 1e-3
        assert rep_fc.residual_F <= 1e-3
        assert rep_fc.objective == pytest.approx(rep_nl.objective, rel=1e-6)

    def test_mode_class_mismatch_rejected(self):
        U = as_grid(RationalDensity.ar1(0.3), N)
        spec = contamination_pair("trace", upper=U, epsilon=0.3,
                                  signal_power=1.2 * U.trace_integral(),
                                  noise_power=0.4)
        F0 = SpectralDensityGrid.white(1, 1.0, N)
        G0 = SpectralDensityGrid.white(1, 0.4, N)
        with pytest.raises(ClassModeError):
            saddle_point_residual(F0, G0, spec, np.array([[1.0]]), mode="factorized")
        with pytest.raises(ClassModeError):
            saddle_point_residual(F0, None, fixed_power_class(1.0),
                                  np.array([[1.0]]), mode="noisy")


class TestDominance:
    def test_sampled_saddle_dominance_contamination(self):
        U = as_grid(RationalDensity.ar1(0.3), N)
        spec = contamination_pair("trace", upper=U, epsilon=0.3,
                                  signal_power=1.2 * U.trace_integral(),
                                  noise_power=0.4)
        a = np.array([[1.0], [0.5]])
        init = (SpectralDensityGrid.white(1, 1.2 * U.trace_integral(), N),
                SpectralDensityGrid.white(1, 0.4, N))
        res = find_least_favorable(spec, a, init, max_iter=500, tol=1e-10,
                                   window=48, n_lambda=N)
        anchor = build_anchor(res.F0, res.G0, {(0, 1): a}, window=48)
        rng = np.random.default_rng(7)
        for _ in range(15):
            Fs, Gs = sample_feasible(spec, rng, N)
            val = evaluate_robust_objective(Fs, Gs, anchor)
            assert val <= anchor.delta * (1 + 1e-3)

    def test_minimax_characteristic_tagged(self):
        F0 = as_grid(RationalDensity.ar1(0.4), N)
        G0 = SpectralDensityGrid.white(1, 0.3, N)
        sol = minimax_characteristic(F0, G0, np.array([[1.0]]), window=48)
        assert sol.diagnostics["minimax"] is True
        direct = solve_channel(F0, G0, np.array([[1.0]]), window=48)
        assert sol.delta == pytest.approx(direct.delta, rel=1e-12)


class TestStructuredVariants:
    """The non-scalar constraint variants: correctness on decoupled
    instances, behavioral guarantees on coupled ones."""

    def test_component_variant_matches_scalar_on_decoupled_instance(self):
        # diagonal bounds with the functional on component 1 only: the
        # component-variant search must reproduce the scalar solution
        K = 2
        U = as_grid(RationalDensity(
            np.stack([np.diag([1.0, 0.8]), np.diag([0.3, -0.2])]), [1.0]), N)
        pk = 1.15 * np.mean(np.diagonal(U.values, axis1=1, axis2=2).real, axis=0)
        spec = contamination_pair("component", upper=U, epsilon=0.35,
                                  signal_power=pk,
                                  noise_power=np.array([0.3, 0.25]))
        a = np.array([[1.0, 0.0], [0.5, 0.0]], dtype=complex)
        init = (SpectralDensityGrid.constant(np.diag(pk), N),
                SpectralDensityGrid.constant(np.diag([0.3, 0.25]), N))
        res = find_least_favorable(spec, a, init, max_iter=250, tol=1e-9,
                                   window=32, n_lambda=N)
        U1 = SpectralDensityGrid(U.values[:, :1, :1])
        spec1 = contamination_pair("trace", upper=U1, epsilon=0.35,
                                   signal_power=float(pk[0]), noise_power=0.3)
        res1 = find_least_favorable(
            spec1, np.array([[1.0], [0.5]]),
            (SpectralDensityGrid.white(1, float(pk[0]), N),
             SpectralDensityGrid.white(1, 0.3, N)),
            max_iter=400, tol=1e-10, window=32, n_lambda=N)
        assert res.objective_history[-1] == pytest.approx(
            res1.objective_history[-1], rel=1e-5)
        assert res.report.residual_F <= 1e-2
        assert res.report.residual_G <= 1e-2

    def test_coupled_variants_monotone_feasible_dominant(self):
        # coupled matrix-valued instances converge slowly in the
        # off-diagonal directions; assert the structural guarantees that
        # hold at every iterate: monotone objective, feasibility, and
        # dominance of the anchored estimate over sampled class members
        K = 2
        U = as_grid(RationalDensity(
            np.stack([np.diag([1.0, 0.8]), np.diag([0.3, -0.2])]), [1.0]), N)
        a = np.array([[1.0, 0.2], [0.3, -0.4]], dtype=complex)
        B1 = np.array([[1.5, 0.2], [0.2, 1.0]], dtype=complex)
        pw = 1.2 * float(np.mean(np.einsum("kn,tnk->t", B1, U.values).real))
        spec_w = contamination_pair("weighted", upper=U, epsilon=0.3,
                                    signal_power=pw, noise_power=0.5,
                                    weight_signal=B1, weight_noise=B1)
        V = SpectralDensityGrid.constant(0.3 * np.eye(K), N)
        Um = SpectralDensityGrid.constant(
            2.0 * np.eye(K) + 0.2 * np.array([[0, 1], [1, 0]]), N)
        G1 = SpectralDensityGrid.constant(0.25 * np.eye(K), N)
        spec_m = band_pair("matrix", lower=V, upper=Um,
                           signal_power=1.0 * np.eye(K),
                           noise_nominal=G1,
                           noise_radius=np.full((K, K), 0.15))
        init = (SpectralDensityGrid.constant(np.eye(K), N), G1)
        rng = np.random.default_rng(6)
        for spec in (spec_w, spec_m):
            res = find_least_favorable(spec, a, init, max_iter=40, tol=1e-9,
                                       window=32, n_lambda=N)
            hist = np.array(res.objective_history)
            assert np.all(np.diff(hist) >= -1e-12)
            assert feasibility_gap((res.F0, res.G0), spec) < 1e-6
            anchor = build_anchor(res.F0, res.G0, {(0, 1): a}, window=32)
            for _ in range(5):
                Fs, Gs = sample_feasible(spec, rng, N)
                val = evaluate_robust_objective(Fs, Gs, anchor)
                assert val <= anchor.delta * (1 + 1e-3)


class TestBandNoiselessFactorized:
    def test_band_class_flat_optimum_all_modes(self):
        # two-sided bounds around the power level: the constant density is
        # feasible and maximizes the one-step error, with both bounds slack
        # everywhere, so every residual mode must agree and be small
        p = 1.2
        spec = DensityClassSpec(signal=SignalClass(
            kind="band", variant="trace",
            lower=SpectralDensityGrid.white(1, 0.5, N),
            upper=SpectralDensityGrid.white(1, 2.0, N),
            power=p))
        init = SpectralDensityGrid.from_scalar_function(
            lambda lam: p * (1.0 + 0.4 * np.cos(lam)), N)
        res = find_least_favorable(spec, np.array([[1.0]]), (init, None),
                                   max_iter=300, tol=1e-10, window=48,
                                   n_lambda=N)
        assert np.max(np.abs(res.F0.values[:, 0, 0].real - p)) <= 1e-3 * p
        rep_nl = saddle_point_residual(res.F0, None, spec, np.array([[1.0]]),
                                       mode="noiseless", window=48)
        rep_fc = saddle_point_residual(res.F0, None, spec, np.array([[1.0]]),
                                       mode="factorized", window=48)
        assert rep_nl.residual_F <= 1e-3
        assert rep_fc.residual_F <= 1e-3
        # interior optimum: both slack profiles vanish identically
        assert np.max(np.abs(rep_nl.multipliers["F"]["gamma"])) <= 1e-9
        assert np.max(np.abs(rep_nl.multipliers["F"]["gamma_upper"])) <= 1e-9


class TestMultiplierFits:
    """The per-weight multiplier fits rebuild the model along the same
    weights they read the coefficients from."""

    def test_weighted_fit_matches_stationary_field_complex_weight(self):
        from pcfield.minimax import _class_constraints

        B = np.array([[1.5, 0.3j], [-0.3j, 1.0]])
        K = 2
        spec = band_pair("weighted", lower=SpectralDensityGrid.white(K, 0.2, N),
                         upper=SpectralDensityGrid.white(K, 3.0, N),
                         signal_power=None,
                         noise_nominal=SpectralDensityGrid.white(K, 0.3, N),
                         noise_radius=0.1, weight_signal=B, weight_noise=B)
        signal, _ = _class_constraints(spec, N, K, True)
        # interior signal: both bounds slack everywhere
        F = SpectralDensityGrid.white(K, 1.0, N).values
        M = np.broadcast_to(0.7 * B, (N, K, K))
        model, mult = signal.fit(M, F, 1e-6)
        assert mult["alpha_sq"] == pytest.approx(0.7, abs=1e-12)
        assert np.max(np.abs(model - M)) <= 1e-12

        noise_spec = contamination_pair("weighted", upper=SpectralDensityGrid.white(K, 1.0, N),
                                        epsilon=0.3, signal_power=None, noise_power=1.0,
                                        weight_signal=B, weight_noise=B)
        _, noise = _class_constraints(noise_spec, N, K, True)
        model, mult = noise.fit(M, SpectralDensityGrid.white(K, 0.4, N).values, 1e-6)
        assert mult["beta_sq"] == pytest.approx(0.7, abs=1e-12)
        assert np.max(np.abs(model - M)) <= 1e-12

    def test_component_l1_fit_has_one_level_per_component(self):
        from pcfield.minimax import _class_constraints

        K = 2
        nominal = SpectralDensityGrid.white(K, 0.3, N)
        spec = band_pair("component", lower=SpectralDensityGrid.white(K, 0.2, N),
                         upper=SpectralDensityGrid.white(K, 3.0, N),
                         signal_power=np.full(K, 1.0), noise_nominal=nominal,
                         noise_radius=np.full(K, 0.05))
        _, noise = _class_constraints(spec, N, K, True)
        # deviation from the nominal is positive on both diagonals
        G = nominal.values + 0.1 * np.eye(K)
        M = np.broadcast_to(np.diag([1.0, 3.0]).astype(complex), (N, K, K))
        model, mult = noise.fit(M, G, 1e-6)
        np.testing.assert_allclose(mult["beta_sq"], [1.0, 3.0], rtol=0, atol=1e-12)
        assert np.max(np.abs(model - M)) <= 1e-12


class TestBacktracking:
    def test_programming_error_in_trial_propagates(self, monkeypatch):
        import pcfield.minimax as minimax

        calls = []
        real_build = minimax.build_anchor

        def build(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:  # the first trial step of the ascent
                raise TypeError("bug in the anchor solve")
            return real_build(*args, **kwargs)

        monkeypatch.setattr(minimax, "build_anchor", build)
        spec = fixed_power_class(1.0)
        init = SpectralDensityGrid.from_scalar_function(
            lambda lam: 1.0 + 0.5 * np.cos(lam), N)
        with pytest.raises(TypeError, match="bug in the anchor solve"):
            find_least_favorable(spec, np.array([[1.0]]), (init, None),
                                 max_iter=5, window=16, n_lambda=N)
        assert len(calls) == 2
