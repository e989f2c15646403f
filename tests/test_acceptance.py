"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines; every tolerance is fixed here, nothing is calibrated at run time.
"""

import json
import time
import warnings

import numpy as np
import pytest

from pcfield.cli import EXIT_OK, main
from pcfield.extrapolate import (
    oracle_solve,
    solve_by_factorization,
    solve_channel,
    solve_noiseless,
    spectral_factorize,
)
from pcfield.minimax import (
    DensityClassSpec,
    build_anchor,
    evaluate_robust_objective,
    find_least_favorable,
    sample_feasible,
)
from pcfield.simulate import SimulationConfig, empirical_mse
from pcfield.spectral import (
    RationalDensity,
    SpectralDensityGrid,
    as_grid,
    check_minimality,
)


def report(number, detail):
    print(f"\nACCEPTANCE {number:2d} PASS: {detail}", flush=True)


def random_instance(rng):
    K = int(rng.choice([1, 2, 3]))
    J = int(rng.choice([2, 4, 8]))
    noisy = bool(rng.integers(0, 2))
    degree = int(rng.integers(1, 4))
    num = 0.45 * (rng.normal(size=(degree + 1, K, K))
                  + 1j * rng.normal(size=(degree + 1, K, K)))
    num[0] += (2 + K) * np.eye(K)
    pole = float(rng.uniform(-0.55, 0.55))
    F = RationalDensity(num, [1.0, -pole])
    if noisy:
        deg_g = int(rng.integers(1, 3))
        num_g = 0.4 * (rng.normal(size=(deg_g + 1, K, K))
                       + 1j * rng.normal(size=(deg_g + 1, K, K)))
        num_g[0] += (1 + K) * np.eye(K)
        G = RationalDensity(num_g)
    else:
        G = None
    a = rng.normal(size=(J, K)) + 1j * rng.normal(size=(J, K))
    return F, G, a


@pytest.fixture(scope="module")
def solved_instances():
    rng = np.random.default_rng(20240101)
    out = []
    for _ in range(20):
        F, G, a = random_instance(rng)
        sol = solve_channel(as_grid(F, 2048), as_grid(G, 2048) if G else None,
                            a, window=96)
        out.append((F, G, a, sol))
    return out


def test_criterion_01_oracle_equivalence(solved_instances):
    t0 = time.time()
    worst = 0.0
    for F, G, a, sol in solved_instances:
        mse = oracle_solve(F, G, a, j_past=64, n_lambda=2048)
        rel = abs(sol.delta - mse) / abs(mse)
        worst = max(worst, rel)
        assert rel <= 1e-4
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(1, f"20 random rational instances, worst solver-vs-oracle relative "
              f"gap {worst:.2e} <= 1e-4 ({elapsed:.1f}s)")


def test_criterion_02_white_noise_exact():
    a = np.array([[1.0], [0.5], [-0.25]])
    norm_sq = float(np.sum(np.abs(a) ** 2))
    sol_unit = solve_noiseless(SpectralDensityGrid.white(1, 1.0, 512), a, window=16)
    assert np.max(np.abs(sol_unit.coefficients[:3] - a)) < 1e-14
    assert abs(sol_unit.delta - norm_sq) < 1e-10
    sigma2 = 2.25
    sol = solve_noiseless(SpectralDensityGrid.white(1, sigma2, 512), a, window=16)
    # the defining equations give c = sigma^2 a (B = sigma^{-2} I); at
    # sigma = 1 this is c = a exactly
    assert np.max(np.abs(sol.coefficients[:3] - sigma2 * a)) < 1e-12
    assert abs(sol.delta - sigma2 * norm_sq) < 1e-10
    assert np.max(np.abs(sol.h_grid)) < 1e-12
    report(2, f"white noise: c exact, delta = sigma^2 ||a||^2 within 1e-10, h = 0")


def test_criterion_03_ar1_one_step():
    F = RationalDensity.ar1(0.5)
    sol = solve_noiseless(F, np.array([[1.0]]), window=96)
    # independent quadrature of the geometric-mean formula on a finer grid
    grid = as_grid(F, 16384)
    kolmogorov = float(np.exp(np.mean(np.log(grid.values[:, 0, 0].real))))
    assert abs(sol.delta - 1.0) <= 1e-6
    assert abs(sol.delta - kolmogorov) <= 1e-6
    report(3, f"AR(1) one-step error {sol.delta:.9f} vs geometric-mean "
              f"quadrature {kolmogorov:.9f} (both 1.0 +- 1e-6)")


def test_criterion_04_factorization():
    t0 = time.time()
    rng = np.random.default_rng(77)
    worst_resid = 0.0
    worst_gap = 0.0
    for _ in range(10):
        K = int(rng.choice([1, 2, 3]))
        degree = int(rng.integers(1, 5))
        num = 0.5 * (rng.normal(size=(degree + 1, K, K))
                     + 1j * rng.normal(size=(degree + 1, K, K)))
        num[0] += (2 + K) * np.eye(K)
        F = as_grid(RationalDensity(num), 1024)
        fac = spectral_factorize(F)
        worst_resid = max(worst_resid, fac.residual)
        assert fac.residual <= 1e-8
        a = rng.normal(size=(4, K)) + 1j * rng.normal(size=(4, K))
        inner = solve_noiseless(F, a, window=96).delta
        through_factor = solve_by_factorization(fac, a).delta
        gap = abs(inner - through_factor) / inner
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-6
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(4, f"10 factorizations: worst reconstruction {worst_resid:.2e} <= 1e-8, "
              f"worst route disagreement {worst_gap:.2e} <= 1e-6 ({elapsed:.1f}s)")


def test_criterion_05_monte_carlo():
    t0 = time.time()
    cases = []
    cases.append((SpectralDensityGrid.white(1, 1.0, 1024), None,
                  np.array([[1.0]]), 101))
    cases.append((RationalDensity.ar1(0.5), None, np.array([[1.0]]), 102))
    cases.append((RationalDensity.ma([1.0, 0.4]), None,
                  np.array([[1.0], [0.5]]), 103))
    rng = np.random.default_rng(55)
    for seed in (104, 105):
        num = 0.5 * (rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2)))
        num[0] += 3 * np.eye(2)
        F = RationalDensity(num, [1.0, -0.3])
        num_g = 0.4 * (rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2)))
        num_g[0] += 2 * np.eye(2)
        G = RationalDensity(num_g)
        a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        cases.append((F, G, a, seed))
    sigmas = []
    for F, G, a, seed in cases:
        sol = solve_channel(as_grid(F, 1024), as_grid(G, 1024) if G else None,
                            a, window=96)
        mc = empirical_mse(sol, F, G, a,
                           SimulationConfig(seed=seed, n_trials=10_000, n_steps=96))
        z = abs(mc.mse - sol.delta) / mc.stderr
        sigmas.append(z)
        assert z <= 3.0
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(5, f"5 fixed-seed instances, 1e4 trials each: all within 3 standard "
              f"errors (z = {', '.join(f'{z:.2f}' for z in sigmas)}; {elapsed:.1f}s)")


def test_criterion_06_minimax_scalar_benchmark():
    p = 1.5
    N = 512
    spec = DensityClassSpec("contamination", "trace", noiseless=True,
                            upper=SpectralDensityGrid.white(1, 1.0, N), epsilon=1.0,
                            signal_power=p)
    init = SpectralDensityGrid.from_scalar_function(
        lambda lam: p * (1.0 + 0.6 * np.cos(lam)), N)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = find_least_favorable(spec, np.array([[1.0]]), (init, None),
                                   max_iter=300, tol=1e-10, window=48, n_lambda=N)
    f0 = res.F0.values[:, 0, 0].real
    sup_dev = float(np.max(np.abs(f0 - p)))
    assert sup_dev <= 1e-3 * p
    assert abs(res.objective_history[-1] - p) <= 1e-3
    assert res.report.residual_F <= 1e-3
    report(6, f"fixed-power benchmark: constant density (sup dev {sup_dev:.2e} <= "
              f"{1e-3 * p:.1e}), objective {res.objective_history[-1]:.6f} = p +- 1e-3, "
              f"saddle residual {res.report.residual_F:.2e} <= 1e-3")


def test_criterion_07_saddle_dominance_sampling():
    N = 512
    a = np.array([[1.0], [0.5]])
    U = as_grid(RationalDensity.ar1(0.3), N)
    spec_a = DensityClassSpec("contamination", "trace", upper=U, epsilon=0.3,
                              signal_power=1.2 * U.trace_integral(),
                              noise_power=0.4)
    spec_b = DensityClassSpec("band", "trace",
                              lower=SpectralDensityGrid.white(1, 0.5, N),
                              upper=SpectralDensityGrid.white(1, 2.0, N),
                              signal_power=1.1,
                              noise_nominal=SpectralDensityGrid.white(1, 0.2, N),
                              noise_radius=0.1)
    inits = {
        "contamination x power": (spec_a,
                                  (SpectralDensityGrid.white(1, 1.2 * U.trace_integral(), N),
                                   SpectralDensityGrid.white(1, 0.4, N))),
        "band x l1": (spec_b, (SpectralDensityGrid.white(1, 1.1, N),
                               SpectralDensityGrid.white(1, 0.2, N))),
    }
    summaries = []
    rng = np.random.default_rng(909)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for name, (spec, init) in inits.items():
            res = find_least_favorable(spec, a, init, max_iter=600, tol=1e-10,
                                       window=48, n_lambda=N)
            anchor = build_anchor(res.F0, res.G0, {(0, 1): a}, window=48)
            worst = -np.inf
            for _ in range(50):
                Fs, Gs = sample_feasible(spec, rng, N)
                worst = max(worst, evaluate_robust_objective(Fs, Gs, anchor))
            assert worst <= anchor.delta * (1 + 1e-3), name
            summaries.append(f"{name}: max sampled {worst:.6f} <= "
                             f"{anchor.delta:.6f} * (1 + 1e-3)")
    report(7, "saddle dominance on 50 feasible members per class; " +
              "; ".join(summaries))


def test_criterion_08_causality_and_orthogonality(solved_instances):
    worst_leak = 0.0
    worst_orth = 0.0
    for _, _, _, sol in solved_instances:
        worst_leak = max(worst_leak, sol.diagnostics["causal_leakage"])
        worst_orth = max(worst_orth, sol.diagnostics["orthogonality_residual"])
        assert sol.diagnostics["causal_leakage"] <= 1e-6
        assert sol.diagnostics["orthogonality_residual"] <= 1e-6
    report(8, f"every solved instance: anticausal leakage <= {worst_leak:.2e}, "
              f"orthogonality residual <= {worst_orth:.2e} (both <= 1e-6)")


def test_criterion_09_minimality_detector():
    density = RationalDensity.ma([1.0, -1.0])  # |1 - e^{i lambda}|^2
    rep = check_minimality(density, n_lambda=4096)
    assert not rep.passed
    assert rep.closed_loop_radius >= 1.0
    assert rep.trace_integral == float("inf")
    report(9, f"|1 - e^(i lambda)|^2 flagged non-minimal; the filter's closed-loop "
              f"radius is {rep.closed_loop_radius:.6f} (>= 1), trace integral infinite")


def test_criterion_10_determinism(tmp_path):
    problem = {
        "version": "1",
        "solver": {"window": 64, "j_past": 48, "n_lambda": 1024},
        "channels": [{
            "m": 0, "l": 1,
            "F": {"type": "rational", "numerator": [1.0],
                  "denominator": [1.0, -0.5]},
            "a": [[1.0]],
        }],
        "simulation": {"seed": 21, "n_trials": 4000, "n_steps": 64},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem, indent=1))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["validate", "--input", str(path), "--output", str(out1)]) == EXIT_OK
    assert main(["validate", "--input", str(path), "--output", str(out2)]) == EXIT_OK
    f1 = sorted(p.name for p in out1.iterdir())
    f2 = sorted(p.name for p in out2.iterdir())
    assert f1 == f2
    for name in f1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    report(10, f"two cmd_validate runs produced byte-identical artifacts "
               f"({', '.join(f1)})")
