import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from pcfield import extrapolate, minimax
from pcfield.extrapolate import (
    FactorizationError,
    solve_channel,
    spectral_factorize,
)
from pcfield.minimax import (
    DensityClassSpec,
    InfeasibleClassError,
    build_anchor,
    evaluate_robust_objective,
    factorized_saddle_residual,
    feasibility_gap,
    find_least_favorable,
    project_onto_class,
    saddle_point_residual,
    sample_feasible,
    _LoewnerConstraints,
    _clipped_shift,
    _psd_clip,
    _soft_threshold_to_radius,
)
from pcfield.spectral import (
    RationalDensity,
    SpectralDensityGrid,
    _node_matmul,
    as_grid,
    lambda_grid,
)

N = 512


def fixed_power_class(p, n_lambda=N, variant="trace", K=1):
    """Signal class with only the power constraint (degenerate mixture)."""
    upper = SpectralDensityGrid.white(K, 1.0, n_lambda)
    return DensityClassSpec("contamination", variant, noiseless=True, upper=upper,
                            epsilon=1.0, signal_power=p)


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


def _higher_k_power_case(variant, K, n=256):
    """A contamination x power class and PSD inputs, the noise input with
    mean trace 55 against a power target of 1.8.  The weighted variant
    takes a fixed 3 x 3 weight, so it needs K = 3."""
    rng = np.random.default_rng(K)
    U = as_grid(RationalDensity(
        0.4 * (rng.normal(size=(2, K, K)) + 1j * rng.normal(size=(2, K, K)))
        + np.concatenate([np.eye(K)[None] * 2, np.zeros((1, K, K))])), n)
    weight = None
    if variant == "trace":
        signal_power, noise_power = 1.1 * U.trace_integral(), 1.8
    elif variant == "component":
        signal_power = 1.1 * np.mean(np.diagonal(U.values, axis1=1, axis2=2).real, axis=0)
        noise_power = np.full(K, 1.8 / K)
    else:
        weight = np.array([[2, .3, .1], [.3, 1, .2], [.1, .2, 1.5]], dtype=complex)
        signal_power = 1.1 * float(np.mean(np.einsum("kn,tnk->t", weight, U.values).real))
        noise_power = 1.8
    spec = DensityClassSpec("contamination", variant, upper=U, epsilon=0.3,
                            signal_power=signal_power, noise_power=noise_power,
                            weight_signal=weight, weight_noise=weight)
    z = np.exp(-1j * lambda_grid(n))

    def random_psd(mean_trace):
        num = rng.normal(size=(3, K, K)) + 1j * rng.normal(size=(3, K, K))
        P = sum((z ** u)[:, None, None] * num[u] for u in range(3))
        vals = P @ np.conj(np.swapaxes(P, 1, 2))
        vals *= mean_trace / np.mean(np.trace(vals, axis1=1, axis2=2).real)
        return SpectralDensityGrid(vals, check=False)

    return spec, random_psd(5.0), random_psd(55.0)


class TestProjection:
    def test_power_normalization_shifts(self):
        spec = fixed_power_class(1.0)
        F = SpectralDensityGrid.white(1, 2.0, N)
        Fp, _ = project_onto_class((F, None), spec)
        assert np.max(np.abs(Fp.values - 1.0)) < 1e-12

    def test_band_clipping(self):
        spec = DensityClassSpec("band", "trace", noiseless=True,
                                lower=SpectralDensityGrid.white(1, 0.5, N),
                                upper=SpectralDensityGrid.white(1, 2.0, N))
        Fp, _ = project_onto_class((SpectralDensityGrid.white(1, 3.0, N), None), spec)
        assert np.max(np.abs(Fp.values - 2.0)) < 1e-12

    def test_feasible_point_unchanged(self):
        U = as_grid(RationalDensity.ar1(0.3), N)
        spec = DensityClassSpec("contamination", "trace", upper=U, epsilon=0.4,
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
        spec = DensityClassSpec("contamination", variant, upper=U, epsilon=0.3,
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
        spec = DensityClassSpec("band", variant, lower=V, upper=U, signal_power=power,
                                noise_nominal=G1, noise_radius=radius,
                                weight_signal=B if variant == "weighted" else None,
                                weight_noise=B if variant == "weighted" else None)
        F, G = sample_feasible(spec, rng, N)
        assert feasibility_gap((F, G), spec) < 1e-6

    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("variant", ["trace", "component"])
    def test_power_side_reaches_the_class_at_higher_K(self, variant, K):
        # the clipped shift keeps every field nonnegative, so the
        # alternation with the PSD clip ends feasible
        spec, F, G = _higher_k_power_case(variant, K)
        assert feasibility_gap(project_onto_class((F, G), spec), spec) < 1e-10

    def test_infeasible_power_target_raises(self):
        spec = DensityClassSpec("band", "trace", noiseless=True,
                                lower=SpectralDensityGrid.white(1, 1.0, N),
                                upper=SpectralDensityGrid.white(1, 2.0, N),
                                signal_power=5.0)
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
            spec = DensityClassSpec("contamination", "trace", upper=U, epsilon=0.3,
                                    signal_power=1.2 * u.mean(), noise_power=0.9)
            out = project_onto_class((U, start), spec)[1]
            lower, upper, target = np.zeros(N), np.inf, 0.9
        elif kind == "contamination":
            spec = DensityClassSpec("contamination", "trace", noiseless=True, upper=U,
                                    epsilon=0.3, signal_power=u.mean())
            out = project_onto_class((start, None), spec)[0]
            lower, upper, target = (1.0 - 0.3) * u, np.inf, u.mean()
        else:
            spec = DensityClassSpec("band", "trace", noiseless=True,
                                    lower=SpectralDensityGrid(0.6 * U.values),
                                    upper=SpectralDensityGrid(1.4 * U.values),
                                    signal_power=u.mean())
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
            values.append(solve_channel(f, None, np.array([[1.0]]), window=48).delta)
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

    def test_side_with_a_rounding_gradient_takes_no_step(self):
        # the benchmark's matrix band problem: at F = I the white signal is
        # unpredictable, so h and grad_G are rounding next to grad_F.
        # Scaled to its own norm grad_G would move G a full step along noise.
        K = 2
        G1 = SpectralDensityGrid.constant(0.25 * np.eye(K), N)
        spec = DensityClassSpec(
            "band", "matrix", lower=SpectralDensityGrid.constant(0.3 * np.eye(K), N),
            upper=SpectralDensityGrid.constant([[2.0, 0.2], [0.2, 2.0]], N),
            signal_power=np.eye(K), noise_nominal=G1, noise_radius=np.full((K, K), 0.15))
        functionals = {(0, 1): np.array([[1.0, 0.2], [0.3, -0.4]])}
        F, G = project_onto_class((SpectralDensityGrid.constant(np.eye(K), N), G1), spec)
        anchor = build_anchor(F, G, functionals, window=32)
        node_max = lambda grad: np.max(np.linalg.norm(grad, axis=(1, 2)))
        assert node_max(anchor.grad_G) <= 1e-20 * node_max(anchor.grad_F)
        res = find_least_favorable(spec, functionals, (F, G), max_iter=1,
                                   tol=1e-9, window=32, n_lambda=N)
        assert len(res.objective_history) == 2
        assert np.max(np.abs(res.F0.values - F.values)) > 1e-3
        assert np.max(np.abs(res.G0.values - G.values)) <= 1e-12

    def test_point_class_returns_input(self):
        U = as_grid(RationalDensity.ar1(0.3), N)
        spec = DensityClassSpec("band", "trace", lower=U, upper=U,
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
        spec = DensityClassSpec("contamination", "trace", upper=U, epsilon=0.0,
                                signal_power=U.trace_integral(),
                                noise_power=0.3)
        F, _ = project_onto_class((SpectralDensityGrid.white(1, 1.0, N),
                                   SpectralDensityGrid.white(1, 0.3, N)), spec)
        assert np.max(np.abs(F.values - U.values)) < 1e-10


class TestSaddleResidual:
    def test_small_at_optimum_large_elsewhere(self):
        U = as_grid(RationalDensity.ar1(0.3), N)
        spec = DensityClassSpec("contamination", "trace", upper=U, epsilon=0.3,
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
        rep = saddle_point_residual(Fs, Gs, spec, a, window=48)
        assert rep.residual_F > 0.1
        assert rep.residual_G > 0.1

    def test_complementary_slackness_and_signs(self):
        U = as_grid(RationalDensity.ar1(0.3), N)
        spec = DensityClassSpec("contamination", "trace", upper=U, epsilon=0.3,
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
        spec = DensityClassSpec("band", "trace", lower=V, upper=U, signal_power=1.1,
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

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_noiseless_and_factorized_modes_agree(self, K):
        # the one-step errors of all K components: every constant density
        # of power p is least favorable.  At K >= 2 the complex coupling
        # makes the factor P differ from its transpose, and the two modes
        # fit one multiplier only when the factorized field is P^-* L P^-1
        p = 1.5
        spec = fixed_power_class(p, K=K)
        root = np.eye(K) + np.triu(np.full((K, K), 0.5j), 1)
        shape = root @ root.conj().T
        shape /= np.trace(shape).real
        init = SpectralDensityGrid(
            (p * (1.0 + 0.5 * np.cos(lambda_grid(N))))[:, None, None] * shape)
        functionals = {(k, 1): np.eye(K)[k:k + 1] for k in range(K)}
        res = find_least_favorable(spec, functionals, (init, None),
                                   max_iter=300, tol=1e-10, window=48, n_lambda=N)
        rep_nl = saddle_point_residual(res.F0, None, spec, functionals, window=48)
        rep_fc = factorized_saddle_residual(res.F0, spec, functionals)
        assert rep_nl.residual_F <= 1e-3
        assert rep_fc.residual_F <= 1e-3
        assert rep_fc.objective == pytest.approx(rep_nl.objective, rel=1e-6)
        assert rep_fc.multipliers["F"]["alpha_sq"] == pytest.approx(
            rep_nl.multipliers["F"]["alpha_sq"], rel=1e-8)

    def test_mode_class_mismatch_rejected(self):
        # the check is noisy iff G0 is given; a noiseless class has no
        # noise side to check it on
        F0 = SpectralDensityGrid.white(1, 1.0, N)
        G0 = SpectralDensityGrid.white(1, 0.4, N)
        with pytest.raises(ValueError, match="noiseless class takes no noise density"):
            saddle_point_residual(F0, G0, fixed_power_class(1.0), np.array([[1.0]]))

    def test_noisy_mode_needs_a_noise_density(self):
        # without G0 the check of a noisy class is the noiseless one: the
        # signal side at (F0, 0), as for the class without its noise side
        U = as_grid(RationalDensity.ar1(0.3), N)
        fields = dict(upper=U, epsilon=0.3, signal_power=1.2 * U.trace_integral())
        spec = DensityClassSpec("contamination", "trace", noise_power=0.4, **fields)
        F0 = SpectralDensityGrid.white(1, 1.0, N)
        rep = saddle_point_residual(F0, None, spec, np.array([[1.0]]), window=48)
        ref = saddle_point_residual(F0, None, DensityClassSpec(
            "contamination", "trace", noiseless=True, **fields), np.array([[1.0]]), window=48)
        assert rep.residual_G is None and rep.multipliers.keys() == {"F"}
        assert rep.residual_F == ref.residual_F and rep.objective == ref.objective

    def test_factorized_mode_refuses_a_factor_over_tolerance(self):
        # at N 1024 the factor of a pole at 0.995 misses its density by 15 %;
        # a report on it would give an objective of 1.0231 for a one-step
        # error of 1
        n = 1024
        F0 = as_grid(RationalDensity.ar1(0.995), n)
        spec = DensityClassSpec("contamination", "trace", noiseless=True,
                                upper=as_grid(RationalDensity.ar1(0.3), n),
                                epsilon=0.3, signal_power=F0.trace_integral())
        with pytest.raises(FactorizationError, match="relative residual"):
            factorized_saddle_residual(F0, spec, np.array([[1.0]]))

    def test_factorized_mode_refuses_a_singular_factor(self, monkeypatch):
        # the field is read off the innovations route's h; where that route
        # cannot invert the factor, h is unavailable and so is the report
        def singular(values):
            raise np.linalg.LinAlgError("Singular matrix")

        F0 = as_grid(RationalDensity.ar1(0.3), N)
        fac = spectral_factorize(F0)
        monkeypatch.setattr(minimax, "spectral_factorize", lambda F: fac)
        monkeypatch.setattr(extrapolate, "_node_inverse", singular)
        spec = DensityClassSpec("contamination", "trace", noiseless=True,
                                upper=as_grid(RationalDensity.ar1(0.5), N),
                                epsilon=0.3, signal_power=F0.trace_integral())
        # the event is reported once: the solve returns h_grid None, silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = extrapolate.solve_by_factorization(fac, np.array([[1.0]]))
        assert sol.h_grid is None and sol.coefficients is None
        assert sol.delta == pytest.approx(1.0)
        with pytest.raises(FactorizationError, match="singular"):
            factorized_saddle_residual(F0, spec, np.array([[1.0]]))


class TestDominance:
    def test_sampled_saddle_dominance_contamination(self):
        U = as_grid(RationalDensity.ar1(0.3), N)
        spec = DensityClassSpec("contamination", "trace", upper=U, epsilon=0.3,
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
        spec = DensityClassSpec("contamination", "component", upper=U, epsilon=0.35,
                                signal_power=pk,
                                noise_power=np.array([0.3, 0.25]))
        a = np.array([[1.0, 0.0], [0.5, 0.0]], dtype=complex)
        init = (SpectralDensityGrid.constant(np.diag(pk), N),
                SpectralDensityGrid.constant(np.diag([0.3, 0.25]), N))
        res = find_least_favorable(spec, a, init, max_iter=250, tol=1e-9,
                                   window=32, n_lambda=N)
        U1 = SpectralDensityGrid(U.values[:, :1, :1])
        spec1 = DensityClassSpec("contamination", "trace", upper=U1, epsilon=0.35,
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
        spec_w = DensityClassSpec("contamination", "weighted", upper=U, epsilon=0.3,
                                  signal_power=pw, noise_power=0.5,
                                  weight_signal=B1, weight_noise=B1)
        V = SpectralDensityGrid.constant(0.3 * np.eye(K), N)
        Um = SpectralDensityGrid.constant(
            2.0 * np.eye(K) + 0.2 * np.array([[0, 1], [1, 0]]), N)
        G1 = SpectralDensityGrid.constant(0.25 * np.eye(K), N)
        spec_m = DensityClassSpec("band", "matrix", lower=V, upper=Um,
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
        spec = DensityClassSpec("band", "trace", noiseless=True,
                                lower=SpectralDensityGrid.white(1, 0.5, N),
                                upper=SpectralDensityGrid.white(1, 2.0, N),
                                signal_power=p)
        init = SpectralDensityGrid.from_scalar_function(
            lambda lam: p * (1.0 + 0.4 * np.cos(lam)), N)
        res = find_least_favorable(spec, np.array([[1.0]]), (init, None),
                                   max_iter=300, tol=1e-10, window=48,
                                   n_lambda=N)
        assert np.max(np.abs(res.F0.values[:, 0, 0].real - p)) <= 1e-3 * p
        rep_nl = saddle_point_residual(res.F0, None, spec, np.array([[1.0]]), window=48)
        rep_fc = factorized_saddle_residual(res.F0, spec, np.array([[1.0]]))
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
        spec = DensityClassSpec("band", "weighted", lower=SpectralDensityGrid.white(K, 0.2, N),
                                upper=SpectralDensityGrid.white(K, 3.0, N),
                                signal_power=None,
                                noise_nominal=SpectralDensityGrid.white(K, 0.3, N),
                                noise_radius=0.1, weight_signal=B, weight_noise=B)
        signal, _ = _class_constraints(spec, N, True)
        # interior signal: both bounds slack everywhere
        F = SpectralDensityGrid.white(K, 1.0, N).values
        M = np.broadcast_to(0.7 * B, (N, K, K))
        model, mult = signal.fit(M, F)
        assert mult["alpha_sq"] == pytest.approx(0.7, abs=1e-12)
        assert np.max(np.abs(model - M)) <= 1e-12

        noise_spec = DensityClassSpec("contamination", "weighted",
                                      upper=SpectralDensityGrid.white(K, 1.0, N),
                                      epsilon=0.3, signal_power=None, noise_power=1.0,
                                      weight_signal=B, weight_noise=B)
        _, noise = _class_constraints(noise_spec, N, True)
        model, mult = noise.fit(M, SpectralDensityGrid.white(K, 0.4, N).values)
        assert mult["beta_sq"] == pytest.approx(0.7, abs=1e-12)
        assert np.max(np.abs(model - M)) <= 1e-12

    def test_component_l1_fit_has_one_level_per_component(self):
        from pcfield.minimax import _class_constraints

        K = 2
        nominal = SpectralDensityGrid.white(K, 0.3, N)
        spec = DensityClassSpec("band", "component", lower=SpectralDensityGrid.white(K, 0.2, N),
                                upper=SpectralDensityGrid.white(K, 3.0, N),
                                signal_power=np.full(K, 1.0), noise_nominal=nominal,
                                noise_radius=np.full(K, 0.05))
        _, noise = _class_constraints(spec, N, True)
        # deviation from the nominal is positive on both diagonals
        G = nominal.values + 0.1 * np.eye(K)
        M = np.broadcast_to(np.diag([1.0, 3.0]).astype(complex), (N, K, K))
        model, mult = noise.fit(M, G)
        np.testing.assert_allclose(mult["beta_sq"], [1.0, 3.0], rtol=0, atol=1e-12)
        assert np.max(np.abs(model - M)) <= 1e-12


def _rank1(v):
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


class TestLoewnerFits:
    """The K = 2 matrix contamination class's two cone-constrained fits on a
    stationarity field built to meet their model exactly: a constant
    rank-1 PSD level R0 at the interior nodes, and R0 plus a negative
    definite slack at the active (signal) or edge (noise) nodes."""

    K = 2
    R0 = _rank1([0.8, 0.6j])
    SLACK = -(_rank1([1.0, 0.5 - 0.5j]) + 0.2 * np.eye(2))

    def sides(self):
        from pcfield.minimax import _class_constraints

        U = SpectralDensityGrid.constant([[2.0, 0.3j], [-0.3j, 1.5]], N)
        spec = DensityClassSpec("contamination", "matrix", upper=U, epsilon=0.3,
                                signal_power=np.eye(self.K), noise_power=0.5 * np.eye(self.K))
        return _class_constraints(spec, N, True)

    def field(self, active):
        M = np.broadcast_to(self.R0, (N, self.K, self.K)).copy()
        M[active] += self.SLACK
        return M

    @staticmethod
    def model_residual(model, M):
        return float(np.max(np.linalg.norm(model - M, axis=(1, 2)))
                     / np.max(np.linalg.norm(M, axis=(1, 2))))

    def test_signal_lower_bound_only_fit(self):
        # F = lower + a rank-1 PSD matrix sits on the lower bound; lower + I
        # is interior.  The contamination side has no upper bound.
        signal, _ = self.sides()
        assert signal.upper is None
        active = np.arange(N) % 3 == 0
        F = signal.lower + np.where(active[:, None, None], _rank1([0.3, 0.4]), np.eye(self.K))
        M = self.field(active)
        model, mult = signal.fit(M, F)
        assert self.model_residual(model, M) <= 1e-12
        assert np.max(np.abs(mult["alpha_outer"] - self.R0)) <= 1e-12
        assert mult["active_lower_fraction"] == pytest.approx(active.mean(), abs=0)

    def test_noise_power_fit(self):
        # a rank-1 noise density sits on the PSD cone's edge
        _, noise = self.sides()
        assert noise.radius is None and noise.lower is None
        edge = np.arange(N) % 4 == 1
        G = np.where(edge[:, None, None], _rank1([0.5, -0.2j]), 0.5 * np.eye(self.K))
        M = self.field(edge)
        model, mult = noise.fit(M, G)
        assert self.model_residual(model, M) <= 1e-12
        assert np.max(np.abs(mult["beta_outer"] - self.R0)) <= 1e-12
        assert mult["boundary_fraction"] == pytest.approx(edge.mean(), abs=0)


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


def _cnormal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _random_density(rng, K, degree=2):
    num = 0.5 * _cnormal(rng, (degree + 1, K, K))
    num[0] += (2 + K) * np.eye(K)
    return as_grid(RationalDensity(num), N)


def _max_rel(x, ref):
    x, ref = np.asarray(x), np.asarray(ref)
    return float(np.max(np.abs(x - ref))) / max(float(np.max(np.abs(ref))), 1e-300)


class TestAnchorLinearization:
    """The anchor's gradient fields against the per-channel formulas they
    replaced: u u^H with u = (F+G)^{-1} conj(r), and (F+G)^{-1} L (F+G)^{-1}
    with L = conj(r) r^T, where r_G = A^T G + C and r_F = A^T F - C."""

    WINDOW = 16

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_fields_and_objective_match_per_channel_formulas(self, seed):
        from pcfield.extrapolate import _functional_on_grid

        rng = np.random.default_rng(seed)
        K = 2
        F, G = _random_density(rng, K), _random_density(rng, K)
        functionals = {(0, 1): _cnormal(rng, (3, K)), (1, 2): _cnormal(rng, (2, K))}
        anchor = build_anchor(F, G, functionals, window=self.WINDOW)

        inv_total = np.linalg.inv(F.values + G.values)
        outer_F = np.zeros((N, K, K), dtype=complex)
        outer_G = np.zeros_like(outer_F)
        L_F = np.zeros_like(outer_F)
        L_G = np.zeros_like(outer_F)
        us = []
        for key, a in functionals.items():
            a_pad = np.zeros((self.WINDOW, K), dtype=complex)
            a_pad[:a.shape[0]] = a
            A = _functional_on_grid(a_pad, N)
            C = _functional_on_grid(anchor.solutions[key].coefficients, N)
            rG = np.einsum("tk,tkn->tn", A, G.values) + C
            rF = np.einsum("tk,tkn->tn", A, F.values) - C
            uG = np.einsum("tkn,tn->tk", inv_total, np.conj(rG))
            uF = np.einsum("tkn,tn->tk", inv_total, np.conj(rF))
            outer_F += np.einsum("tk,tn->tkn", uG, np.conj(uG))
            outer_G += np.einsum("tk,tn->tkn", uF, np.conj(uF))
            L_F += np.einsum("tk,tn->tkn", np.conj(rG), rG)
            L_G += np.einsum("tk,tn->tkn", np.conj(rF), rF)
            us.append((uG, uF))
            assert np.array_equal(anchor.solutions[key].h_grid,
                                  solve_channel(F, G, a, window=self.WINDOW).h_grid)
        assert _max_rel(anchor.grad_F, outer_F) <= 1e-12
        assert _max_rel(anchor.grad_G, outer_G) <= 1e-12
        assert _max_rel(anchor.grad_F, inv_total @ L_F @ inv_total) <= 1e-12
        assert _max_rel(anchor.grad_G, inv_total @ L_G @ inv_total) <= 1e-12

        for Fx, Gx in ((F, G), (_random_density(rng, K), _random_density(rng, K))):
            loop = 0.0
            for uG, uF in us:
                loop += float(np.mean(np.einsum(
                    "tk,tkn,tn->t", np.conj(uG), Fx.values, uG).real))
                loop += float(np.mean(np.einsum(
                    "tk,tkn,tn->t", np.conj(uF), Gx.values, uF).real))
            assert evaluate_robust_objective(Fx, Gx, anchor) == pytest.approx(
                loop, rel=1e-12, abs=0)
        assert evaluate_robust_objective(F, G, anchor) == pytest.approx(
            anchor.delta, rel=1e-10)

    def test_noiseless_anchor_prices_an_added_noise_density(self):
        rng = np.random.default_rng(3)
        F, G = _random_density(rng, 2), _random_density(rng, 2)
        a = {(0, 1): _cnormal(rng, (2, 2))}
        anchor = build_anchor(F, None, a, window=self.WINDOW)
        assert anchor.G0 is None
        added = evaluate_robust_objective(F, G, anchor) - evaluate_robust_objective(
            F, None, anchor)
        expected = float(np.mean(np.einsum("tkn,tnk->t", anchor.grad_G, G.values).real))
        assert added == pytest.approx(expected, rel=1e-12)
        assert added > 0

    @pytest.mark.parametrize("case", ["matrix-band-K2", "component-contamination-K2",
                                      "trace-noiseless-K1"])
    def test_search_report_is_the_saddle_residual_at_the_final_pair(self, case):
        if case == "trace-noiseless-K1":
            spec = fixed_power_class(1.0)
            functionals = {(0, 1): np.array([[1.0], [0.4]])}
            init = (SpectralDensityGrid.from_scalar_function(
                lambda lam: 1.0 + 0.5 * np.cos(lam), N), None)
        else:
            K = 2
            functionals = {(0, 1): np.array([[1.0, 0.2], [0.3, -0.4]]),
                           (1, 2): np.array([[0.5, 1.0]])}
            G1 = SpectralDensityGrid.constant(0.25 * np.eye(K), N)
            init = (SpectralDensityGrid.constant(np.eye(K), N), G1)
            if case == "matrix-band-K2":
                spec = DensityClassSpec(
                    "band", "matrix", lower=SpectralDensityGrid.constant(0.3 * np.eye(K), N),
                    upper=SpectralDensityGrid.constant(2.0 * np.eye(K), N),
                    signal_power=np.eye(K), noise_nominal=G1,
                    noise_radius=np.full((K, K), 0.1))
            else:
                spec = DensityClassSpec(
                    "contamination", "component",
                    upper=SpectralDensityGrid.constant(np.eye(K), N),
                    epsilon=0.3, signal_power=np.full(K, 1.2), noise_power=np.full(K, 0.25))
        res = find_least_favorable(spec, functionals, init, max_iter=4, tol=1e-12,
                                   window=self.WINDOW, n_lambda=N)
        assert res.anchor.F0 is res.F0 and res.anchor.delta == res.objective_history[-1]
        ref = saddle_point_residual(res.F0, res.G0, spec, functionals, window=self.WINDOW)
        rep = res.report
        assert rep.objective == pytest.approx(ref.objective, rel=1e-12)
        assert rep.residual_F == pytest.approx(ref.residual_F, rel=1e-12)
        if res.G0 is not None:
            assert rep.residual_G == pytest.approx(ref.residual_G, rel=1e-12)
        else:
            assert rep.residual_G is ref.residual_G is None
        assert rep.multipliers.keys() == ref.multipliers.keys()
        for side, levels in ref.multipliers.items():
            assert rep.multipliers[side].keys() == levels.keys()
            for key, value in levels.items():
                assert _max_rel(rep.multipliers[side][key], value) <= 1e-12, (side, key)
        for key, a in functionals.items():
            assert np.array_equal(res.anchor.solutions[key].h_grid,
                                  solve_channel(res.F0, res.G0, a, window=self.WINDOW).h_grid)


def _hermitian(x):
    return (x + np.conj(np.swapaxes(x, 1, 2))) / 2


def _eigh_clip(values):
    """The PSD clip by a batched eigh: the route K >= 3 takes, with its
    reconstruction formed by the per-node product kernel."""
    w, U = np.linalg.eigh(_hermitian(values))
    return _node_matmul(U, np.maximum(w, 0.0)[..., None] * np.conj(np.swapaxes(U, 1, 2)))


def _node_rel(x, ref, scale):
    """Worst node error of x against ref, relative to each node's scale."""
    err = np.max(np.abs(x - ref), axis=(1, 2))
    return float(np.max(err / np.maximum(np.max(np.abs(scale), axis=(1, 2)), 1e-300)))


def _special_2x2():
    """Diagonal (b = 0), a = d, -c I, 0, rank-1 PSD and rank-1 NSD nodes."""
    v = np.array([0.6, 0.8j])
    rank1 = np.outer(v, v.conj())
    return np.array([
        [[1.5, 0.0], [0.0, -2.0]], [[-0.5, 0.0], [0.0, 3.0]],
        [[-1.0, 0.0], [0.0, -1.0e-3]], [[0.7, 0.4 - 0.3j], [0.4 + 0.3j, 0.7]],
        [[-0.7, 2.0j], [-2.0j, -0.7]], -3.0 * np.eye(2), -np.eye(2),
        np.zeros((2, 2)), rank1, -rank1, 2.5 * rank1,
    ], dtype=complex)


class TestPsdClip2x2:
    """The closed-form K = 2 cone step against the eigh route."""

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_batches_match_eigh(self, seed, scale):
        X = scale * _hermitian(_cnormal(np.random.default_rng(seed), (512, 2, 2)))
        out = _psd_clip(X)
        assert np.all(np.isfinite(out))
        assert _node_rel(out, _eigh_clip(X), X) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_special_nodes_match_eigh(self, scale):
        X = scale * _special_2x2()
        out = _psd_clip(X)
        assert np.all(np.isfinite(out))
        assert _node_rel(out, _eigh_clip(X), X) <= 1e-12
        # -c I, -I and the rank-1 NSD node leave nothing; 0 stays 0
        assert np.all(out[[5, 6, 7, 9]] == 0.0)
        diagonal = scale * np.array([np.diag([1.5, 0.0]), np.diag([0.0, 3.0])])
        assert _node_rel(out[:2], diagonal, X[:2]) <= 1e-15

    def test_non_hermitian_input_is_symmetrized_first(self):
        X = _cnormal(np.random.default_rng(5), (64, 2, 2))
        assert _node_rel(_psd_clip(X), _eigh_clip(X), X) <= 1e-12

    def test_psd_batch_comes_back_unchanged(self):
        A = _cnormal(np.random.default_rng(3), (512, 2, 2))
        X = A @ np.conj(np.swapaxes(A, 1, 2)) + 0.1 * np.eye(2)
        X = _hermitian(X)
        np.testing.assert_array_equal(_psd_clip(X), X)

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_output_is_psd_and_idempotent(self, scale):
        rng = np.random.default_rng(7)
        X = scale * np.concatenate([_hermitian(_cnormal(rng, (256, 2, 2))),
                                    _special_2x2()])
        out = _psd_clip(X)
        again = _psd_clip(out)
        assert np.all(np.isfinite(out)) and np.all(np.isfinite(again))
        low = np.linalg.eigvalsh(out / scale).min(axis=1)
        assert low.min() >= -1e-12 * np.max(np.abs(X / scale))
        assert _node_rel(again, out, X) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_slack_matches_eigvalsh(self, scale):
        rng = np.random.default_rng(11)
        a = scale * np.concatenate([_hermitian(_cnormal(rng, (256, 2, 2))),
                                    _special_2x2()])
        b = scale * _hermitian(_cnormal(rng, a.shape))
        ref = np.linalg.eigvalsh(a - b).min(axis=1)
        got = _LoewnerConstraints.slack(a, b)
        norm = np.max(np.abs(a - b), axis=(1, 2))
        assert np.max(np.abs(got - ref) / norm) <= 1e-12

    def test_k3_keeps_the_eigh_route(self):
        X = _hermitian(_cnormal(np.random.default_rng(2), (64, 3, 3)))
        np.testing.assert_array_equal(_psd_clip(X), _eigh_clip(X))


class TestProjectionStop:
    """A field side's step is the exact projection onto its constraints, so
    the alternation stops once the PSD clip leaves that step unchanged."""

    @staticmethod
    def counted_clips(monkeypatch):
        calls = []

        def counted(values):
            calls.append(values.shape)
            return _psd_clip(values)

        monkeypatch.setattr(minimax, "_psd_clip", counted)
        return calls

    def test_k1_projection_clips_once(self, monkeypatch):
        U = as_grid(RationalDensity.ar1(0.5), N)
        side, _ = minimax._class_constraints(DensityClassSpec(
            "contamination", "trace", noiseless=True, upper=U, epsilon=0.3,
            signal_power=U.trace_integral()), N, False)
        start = (1.5 * np.cos(3 * lambda_grid(N)) + 0.2).astype(complex)[:, None, None]
        two_sweeps = _psd_clip(side._clip(_psd_clip(side._clip(start))))
        calls = self.counted_clips(monkeypatch)
        out = side.project(start)
        assert len(calls) == 1
        assert np.max(np.abs(out - two_sweeps)) <= 1e-14

    def test_k2_trace_side_whose_clip_acts_still_alternates(self, monkeypatch):
        spec, F, G = _higher_k_power_case("trace", 2)
        _, side = minimax._class_constraints(spec, F.n_lambda, True)
        assert np.max(np.abs(_psd_clip(side._clip(G.values)) - side._clip(G.values))) > 1e-3
        calls = self.counted_clips(monkeypatch)
        out = side.project(G.values)
        assert len(calls) > 2
        assert side.gap(out) <= 1e-10


class TestProjectionSweepCap:
    def test_weighted_k3_contamination_warns_at_the_cap(self):
        # the alternation with the PSD clip stalls short of the weighted
        # noise class and must say so
        spec, F, G = _higher_k_power_case("weighted", 3)
        with pytest.warns(RuntimeWarning, match=r"weighted power side \(K=3\) stopped "
                                                r"at its 80-sweep cap with a last step"):
            project_onto_class((F, G), spec)

    def test_benchmark_band_class_warns_nothing(self):
        # the matrix band x L1 class of the minimax_search benchmark; its
        # projections end within 41 of the 80 sweeps
        K = 2
        G1 = SpectralDensityGrid.constant(0.25 * np.eye(K), N)
        spec = DensityClassSpec(
            "band", "matrix", lower=SpectralDensityGrid.constant(0.3 * np.eye(K), N),
            upper=SpectralDensityGrid.constant([[2.0, 0.2], [0.2, 2.0]], N),
            signal_power=np.eye(K), noise_nominal=G1, noise_radius=np.full((K, K), 0.15))
        init = (SpectralDensityGrid.constant(np.eye(K), N), G1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            find_least_favorable(spec, {(0, 1): np.array([[1.0, 0.2], [0.3, -0.4]])},
                                 init, max_iter=8, tol=1e-9, window=32, n_lambda=N)
            rng = np.random.default_rng(1)
            for _ in range(5):
                sample_feasible(spec, rng, N)
        assert not [w for w in caught if "sweep cap" in str(w.message)]
