#!/usr/bin/env python3
"""Canonical factorization and the innovations route to the same answer.

A density bounded away from zero factors as F = P P* with a causal factor
P(l) = sum_u d(u) exp(-i*u*l).  A rational density is factorized exactly by
one Riccati solve; a density given on a grid, by Wilson's sweeps.  The
factor coefficients alone give the prediction error as a finite sum, and
the pointwise inverse of P gives the spectral characteristic; both agree
with the linear-system route.  The same Riccati solve judges minimality:
``check_minimality`` reads the whitening filter's closed loop and its exact
trace integral.
"""

import numpy as np

from pcfield import (
    RationalDensity,
    as_grid,
    check_minimality,
    solve_by_factorization,
    solve_channel,
    spectral_factorize,
)

print("=== scalar moving average, factor read off exactly ===")
fac = spectral_factorize(RationalDensity.ma([1.0, 0.4]))
print("d(0), d(1) =", np.round(fac.coefficients[:2, 0, 0].real, 8),
      " (the polynomial itself)")
print("reconstruction residual:", f"{fac.residual:.2e}",
      " Wilson sweeps:", fac.iterations, "(one Riccati solve)")

print("\n=== matrix density ===")
rng = np.random.default_rng(5)
num = 0.5 * (rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3)))
num[0] += 4 * np.eye(3)
F = RationalDensity(num)
fac = spectral_factorize(F)
swept = spectral_factorize(as_grid(F))
print("K = 3, degree-3 numerator: Riccati residual", f"{fac.residual:.2e}")
print("the same density as a grid: Wilson residual", f"{swept.residual:.2e}",
      "after", swept.iterations, "sweeps; coefficients agree to",
      f"{np.max(np.abs(fac.coefficients - swept.coefficients)):.2e}")
d0 = fac.coefficients[0]
print("d(0) is lower triangular with positive diagonal:")
print(np.round(d0, 4))

a = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
through_factor = solve_by_factorization(fac, a)
through_system = solve_channel(F, None, a, window=96)
print(f"\nprediction error, innovations route:   {through_factor.delta:.8f}")
print(f"prediction error, linear-system route:  {through_system.delta:.8f}")
print("spectral characteristics agree to",
      f"{np.max(np.abs(through_factor.h_grid - through_system.h_grid)):.2e}")

print("\n=== minimality from the same Riccati solve ===")
print("MA(1) [1, -rho]: the trace integral of 1/F is 1/(1 - rho^2), exactly")
for rho in (0.5, 0.9, 0.999, 1.0):
    report = check_minimality(RationalDensity.ma([1.0, -rho]), n_lambda=4096)
    exact = 1.0 / (1.0 - rho ** 2) if rho < 1.0 else float("inf")
    print(f"  rho = {rho:<6} check: {report.trace_integral:.12g}  1/(1 - rho^2): {exact:.12g}"
          f"  closed-loop radius {report.closed_loop_radius:.6f}  passed {report.passed}")
