#!/usr/bin/env python3
"""Replay the solved estimator on simulated paths.

A channel path is synthesized through the causal factor of its density.
The error check reads the 2 x 2 covariance of the realized functional and
the estimate (the estimator's time-domain weights on the observed past) off
the joint covariance of the past and the future, draws that pair of numbers
from a root of it, and compares the sample mean-square error with the
theoretical value.
"""

import numpy as np

from pcfield import (
    RationalDensity,
    SimulationConfig,
    empirical_lag_covariance,
    empirical_mse,
    simulate_channel,
    solve_channel,
)

print("=== does the synthesis match the density? ===")
F = RationalDensity.ar1(0.5)
path = simulate_channel(F, 20_000, seed=7)
c0 = empirical_lag_covariance(path, 0)[0, 0].real
c1 = empirical_lag_covariance(path, 1)[0, 0].real
print(f"AR(1), phi = 0.5: sample lag-0 covariance {c0:.4f} (expect 4/3),"
      f" lag-1/lag-0 ratio {c1 / c0:.4f} (expect 0.5)")

print("\n=== Monte Carlo check of the error formula ===")
rng = np.random.default_rng(2)
num = 0.5 * (rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2)))
num[0] += 3 * np.eye(2)
F = RationalDensity(num, [1.0, -0.3])
num_g = 0.4 * (rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2)))
num_g[0] += 2 * np.eye(2)
G = RationalDensity(num_g)
a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))

sol = solve_channel(F, G, a, window=96)
summary = empirical_mse(sol, F, G, a,
                        SimulationConfig(seed=11, n_trials=10_000, n_steps=96))
z = abs(summary.mse - sol.delta) / summary.stderr
print(f"theoretical error:  {sol.delta:.4f}")
print(f"empirical error:    {summary.mse:.4f} +- {summary.stderr:.4f} "
      f"({summary.n_trials} trials)")
print(f"discrepancy: {z:.2f} standard errors")
