#!/usr/bin/env python3
"""Optimal one-sided estimation of a channel functional.

The target is A = sum_j a(j)^T zeta(j) over future times j >= 0, estimated
linearly from the past of zeta + theta.  For rational densities the solver
runs one steady-state Kalman filter on the pair's state-space form; for
densities given on a grid it solves the block Toeplitz normal equations
on a finite window.  Either way it returns the estimator, its spectral
characteristic and the mean-square error.  A brute-force projection built
from covariances alone confirms the value, and on a near-unit-root signal
shows the window's truncation bias that the filter does not have.
"""

import numpy as np

from pcfield import (
    RationalDensity,
    SpectralDensityGrid,
    as_grid,
    functional_variance,
    oracle_solve,
    solve_channel,
)

print("=== classical sanity checks ===")
# white noise is unpredictable: the error is the functional's variance
a = np.array([[1.0], [0.5]])
sol = solve_channel(SpectralDensityGrid.white(1, 1.0, 1024), None, a, window=48)
print(f"white noise:  delta = {sol.delta:.6f}  (= ||a||^2 = 1.25)")

# first-order autoregression, one-step prediction: unit innovation variance
F = RationalDensity.ar1(0.5)
sol = solve_channel(F, None, np.array([[1.0]]), window=96)
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
print("closed-loop spectral radius of the filter:",
      f"{noisy.diagnostics['closed_loop_radius']:.4f}",
      "(below 1: the filter is stable and its weights decay)")

print("\n=== a near-unit-root signal: the filter against the window ===")
F = RationalDensity.ar1(0.995)
G = RationalDensity([[[np.sqrt(0.5)]]])       # white noise of variance 0.5
a = np.array([[1.0], [0.5], [0.25]])
print(f"filter:               delta = {solve_channel(F, G, a).delta:.10f}")
print(f"oracle, 1000 past:    mse   = {oracle_solve(F, G, a, j_past=1000):.10f}")
for window in (32, 96):
    on_grid = solve_channel(as_grid(F), as_grid(G), a, window=window)
    print(f"window {window:3d} on grids: delta = {on_grid.delta:.10f}  "
          "(below the minimum: the window truncates the estimator)")
