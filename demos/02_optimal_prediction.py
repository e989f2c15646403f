#!/usr/bin/env python3
"""Optimal one-sided estimation of a channel functional.

The target is A = sum_j a(j)^T zeta(j) over future times j >= 0, estimated
linearly from the past of zeta + theta.  The solver assembles the block
Toeplitz normal equations from the spectral densities and returns the
estimator, its spectral characteristic, and the exact mean-square error.
A brute-force projection built from covariances alone confirms the value.
"""

import numpy as np

from pcfield import (
    RationalDensity,
    SpectralDensityGrid,
    functional_variance,
    oracle_solve,
    solve_channel,
    solve_noiseless,
)

print("=== classical sanity checks ===")
# white noise is unpredictable: the error is the functional's variance
a = np.array([[1.0], [0.5]])
sol = solve_noiseless(SpectralDensityGrid.white(1, 1.0, 1024), a, window=48)
print(f"white noise:  delta = {sol.delta:.6f}  (= ||a||^2 = 1.25)")

# first-order autoregression, one-step prediction: unit innovation variance
F = RationalDensity.ar1(0.5)
sol = solve_noiseless(F, np.array([[1.0]]), window=96)
print(f"AR(1), phi=0.5, one step: delta = {sol.delta:.9f}  (expect 1)")
w = sol.h_lag_coefficients(3)
print("time-domain weights on the past:", np.round(w[:, 0].real, 6),
      "(the one-step predictor is phi * zeta(-1))")

print("\n=== a matrix-valued channel with observation noise ===")
rng = np.random.default_rng(1)
num = 0.5 * (rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2)))
num[0] += 3 * np.eye(2)
F = RationalDensity(num, [1.0, -0.4])
num_g = 0.4 * (rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2)))
num_g[0] += 2 * np.eye(2)
G = RationalDensity(num_g)
a = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))

noisy = solve_channel(F, G, a, window=96)
clean = solve_channel(F, None, a, window=96)
print(f"delta with noise:    {noisy.delta:.6f}")
print(f"delta without noise: {clean.delta:.6f}  (noise can only hurt)")
print(f"variance of A:       {functional_variance(F, a):.6f}  (upper bound)")

mse = oracle_solve(F, G, a, j_past=64)
print(f"\nbrute-force finite-past projection: {mse:.6f}")
print(f"relative agreement with the solver: "
      f"{abs(noisy.delta - mse) / mse:.2e}")
print("causality leakage of h:",
      f"{noisy.diagnostics['causal_leakage']:.2e}",
      " normal-equation residual ||Bc - d||/||d||:",
      f"{noisy.diagnostics['orthogonality_residual']:.2e}")
