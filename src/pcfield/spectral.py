"""Spectral densities on a frequency grid and the operators built from them.

Matrix densities are sampled on the uniform grid

    lambda_t = -pi + 2*pi*t / N,   t = 0 .. N-1,

and Fourier coefficients use the convention

    coeff(g, d) = (1/2pi) * integral g(lambda) exp(i*d*lambda) d lambda,

approximated by the rectangle rule, i.e. one bin of the discrete Fourier
transform.  This is exact for trigonometric polynomials of degree < N/2.

The prediction operators are block Toeplitz matrices whose (s, j) block is
the transposed coefficient at lag ``j - s`` of, respectively,

    (F + G)^{-1},   F (F + G)^{-1},   F (F + G)^{-1} G,

so that the normal equations of one-sided linear estimation read
``B c = D a`` and the error is ``a* R a + c* B c``.
"""

import json
import warnings
from dataclasses import dataclass

import numpy as np

DEFAULT_N_LAMBDA = 4096
DEFAULT_COND_CEILING = 1e10


class MinimalityViolation(RuntimeError):
    """The density pair is (numerically) singular somewhere on the grid."""

    def __init__(self, message, lambda_value=None, condition_number=None):
        super().__init__(message)
        self.lambda_value = lambda_value
        self.condition_number = condition_number


def lambda_grid(n_lambda):
    """Uniform frequency grid on [-pi, pi)."""
    return -np.pi + 2.0 * np.pi * np.arange(n_lambda) / n_lambda


def fourier_coefficients(values, lags):
    """(1/2pi) * integral g(lambda) exp(+i*d*lambda) d lambda for each lag d.

    ``values`` has shape (N, ...); the result has shape (len(lags), ...).
    Computed as one bin of the inverse FFT, so it is exact for
    trigonometric polynomials resolved by the grid.  Lags with
    ``|d| >= N/2`` alias and are rejected.
    """
    values = np.asarray(values)
    n = values.shape[0]
    lags = np.atleast_1d(np.asarray(lags, dtype=int))
    if np.any(np.abs(lags) >= n // 2):
        worst = lags[np.argmax(np.abs(lags))]
        raise ValueError(
            f"lag {worst} aliases on a {n}-point grid (need |lag| < {n // 2})"
        )
    spectrum = np.fft.ifft(values, axis=0)
    # Grid starts at -pi, not 0: bin d picks up a phase (-1)^d.
    signs = np.where(lags % 2 == 0, 1.0, -1.0)
    out = spectrum[lags % n]
    return out * signs.reshape((-1,) + (1,) * (values.ndim - 1))


def matrix_fourier_coefficient(values, d):
    """Single matrix Fourier coefficient at lag ``d``."""
    return fourier_coefficients(values, [d])[0]


def evaluate_lag_series(coefficients, lags, n_lambda):
    """Evaluate sum_d c_d exp(i*d*lambda) on the standard grid.

    ``coefficients`` has shape (len(lags), ...); result (n_lambda, ...).
    Computed as one zero-padded inverse FFT: on the grid,
    exp(i*d*lambda_t) = (-1)^d exp(2*pi*i*(d mod N)*t / N), so each
    coefficient is scattered to bin ``d mod N`` with the sign (-1)^d.  Exact
    on the grid for any integer lags, including negative lags and lags that
    coincide mod N (their coefficients add up in one bin).
    """
    coefficients = np.asarray(coefficients, dtype=complex)
    lags = np.asarray(lags, dtype=int)
    signs = np.where(lags % 2 == 0, 1.0, -1.0)
    flat = coefficients.reshape(len(lags), -1)
    bins = np.zeros((n_lambda, flat.shape[1]), dtype=complex)
    np.add.at(bins, lags % n_lambda, flat * signs[:, None])
    out = np.fft.ifft(bins, axis=0) * n_lambda
    return out.reshape((n_lambda,) + coefficients.shape[1:])


class SpectralDensityGrid:
    """Hermitian PSD matrix density sampled on the uniform grid.

    ``values`` has shape (n_lambda, K, K).  Hermitian symmetry is enforced
    to 1e-12 and eigenvalues may dip no lower than -1e-10 (numerical
    noise), matching how densities come out of quadrature and arithmetic.
    """

    def __init__(self, values, check=True):
        values = np.asarray(values, dtype=complex)
        if values.ndim == 1:
            values = values[:, None, None]
        if values.ndim != 3 or values.shape[1] != values.shape[2]:
            raise ValueError(f"values must be (N, K, K), got {values.shape}")
        self.values = values
        if check:
            self._validate()

    def _validate(self):
        herm_gap = np.max(np.abs(self.values - np.conj(np.swapaxes(self.values, 1, 2))))
        scale = max(1.0, float(np.max(np.abs(self.values)) or 0.0))
        if herm_gap > 1e-12 * scale:
            raise ValueError(f"density is not Hermitian (gap {herm_gap:.3e})")
        eigs = np.linalg.eigvalsh((self.values + np.conj(np.swapaxes(self.values, 1, 2))) / 2)
        if eigs.min() < -1e-10 * scale:
            raise ValueError(f"density has eigenvalue {eigs.min():.3e} < 0")

    @property
    def n_lambda(self):
        return self.values.shape[0]

    @property
    def K(self):
        return self.values.shape[1]

    @property
    def lam(self):
        return lambda_grid(self.n_lambda)

    def trace_integral(self):
        """(1/2pi) integral of Tr F, i.e. the total power of the channel."""
        return float(np.mean(np.trace(self.values, axis1=1, axis2=2).real))

    @classmethod
    def constant(cls, matrix, n_lambda=DEFAULT_N_LAMBDA):
        matrix = np.atleast_2d(np.asarray(matrix, dtype=complex))
        return cls(np.broadcast_to(matrix, (n_lambda,) + matrix.shape).copy())

    @classmethod
    def white(cls, K, sigma2=1.0, n_lambda=DEFAULT_N_LAMBDA):
        return cls.constant(sigma2 * np.eye(K), n_lambda)

    @classmethod
    def zero(cls, K, n_lambda=DEFAULT_N_LAMBDA):
        return cls(np.zeros((n_lambda, K, K), dtype=complex))

    @classmethod
    def from_scalar_function(cls, fn, n_lambda=DEFAULT_N_LAMBDA):
        lam = lambda_grid(n_lambda)
        return cls(np.asarray(fn(lam), dtype=complex)[:, None, None])


class RationalDensity:
    """Density of moving-average / autoregressive form.

    ``F(lambda) = N(lambda) N(lambda)^* / |den(lambda)|^2`` with the matrix
    numerator ``N(lambda) = sum_u N_u exp(-i*u*lambda)`` and a scalar
    denominator polynomial ``den(lambda) = sum_v den_v exp(-i*v*lambda)``.
    Hermitian and PSD by construction; rasterizes to any grid size, so
    refinement diagnostics stay available.
    """

    def __init__(self, numerator, denominator=(1.0,)):
        numerator = np.asarray(numerator, dtype=complex)
        if numerator.ndim == 1:
            numerator = numerator[:, None, None]
        if numerator.ndim != 3 or numerator.shape[1] != numerator.shape[2]:
            raise ValueError(
                f"numerator must be (U,) or (U, K, K), got {numerator.shape}"
            )
        self.numerator = numerator
        self.denominator = np.asarray(denominator, dtype=complex).ravel()
        if self.denominator.size == 0:
            raise ValueError("denominator needs at least one coefficient")

    @property
    def K(self):
        return self.numerator.shape[1]

    def rasterize(self, n_lambda=DEFAULT_N_LAMBDA):
        lam = lambda_grid(n_lambda)
        z = np.exp(-1j * lam)
        num = np.zeros((n_lambda, self.K, self.K), dtype=complex)
        for u in range(self.numerator.shape[0]):
            num += (z**u)[:, None, None] * self.numerator[u]
        den = np.zeros(n_lambda, dtype=complex)
        for v, coeff in enumerate(self.denominator):
            den += coeff * z**v
        if np.min(np.abs(den)) < 1e-14:
            bad = lam[int(np.argmin(np.abs(den)))]
            raise ValueError(f"denominator vanishes near lambda = {bad:.6f}")
        values = num @ np.conj(np.swapaxes(num, 1, 2)) / (np.abs(den) ** 2)[:, None, None]
        values = (values + np.conj(np.swapaxes(values, 1, 2))) / 2
        return SpectralDensityGrid(values)

    @classmethod
    def ar1(cls, phi, sigma=1.0):
        """Scalar density  sigma^2 / |1 - phi e^{i lambda}|^2."""
        return cls([[[sigma]]], [1.0, -phi])

    @classmethod
    def ma(cls, coefficients):
        """Scalar moving-average density |sum_u c_u e^{-iu lambda}|^2."""
        return cls(np.asarray(coefficients, dtype=complex)[:, None, None])


def as_grid(density, n_lambda=None):
    """Coerce a density (grid or rational) to a SpectralDensityGrid."""
    if isinstance(density, SpectralDensityGrid):
        if n_lambda is not None and density.n_lambda != n_lambda:
            raise ValueError(
                f"grid density has N={density.n_lambda}, expected {n_lambda}; "
                "re-rasterization needs a parametric density"
            )
        return density
    if isinstance(density, RationalDensity):
        return density.rasterize(n_lambda or DEFAULT_N_LAMBDA)
    raise TypeError(f"not a density: {type(density).__name__}")


@dataclass
class CovarianceSequence:
    """Matrix covariances K(j) for |j| <= max_lag; K(-j) = K(j)^*."""

    max_lag: int
    matrices: np.ndarray  # shape (2*max_lag + 1, K, K)

    def __getitem__(self, j):
        if abs(j) > self.max_lag:
            raise IndexError(f"lag {j} beyond max_lag {self.max_lag}")
        return self.matrices[j + self.max_lag]

    @property
    def K(self):
        return self.matrices.shape[1]


def covariance_from_density(density, max_lag, n_lambda=None):
    """Covariances K(j) = (1/2pi) integral exp(i j lambda) F(lambda) d lambda."""
    grid = as_grid(density, n_lambda)
    lags = np.arange(-max_lag, max_lag + 1)
    mats = fourier_coefficients(grid.values, lags)
    k0 = mats[max_lag]
    scale = max(1.0, float(np.max(np.abs(k0))))
    if np.max(np.abs(k0 - k0.conj().T)) > 1e-10 * scale:
        raise ValueError("lag-0 covariance is not Hermitian")
    if np.linalg.eigvalsh((k0 + k0.conj().T) / 2).min() < -1e-8 * scale:
        raise ValueError("lag-0 covariance is not PSD")
    return CovarianceSequence(max_lag=max_lag, matrices=mats)


@dataclass
class OperatorSet:
    """Truncated prediction operators on a ``window``-period horizon.

    B, D, R are (window*K, window*K); the (s, j) block of each is the
    transposed Fourier coefficient at lag ``j - s`` of its symbol.  B and R
    are Hermitian; B is positive definite whenever the minimality condition
    holds.  ``cond_B`` is the larger of the 2-norm condition numbers of B and
    of F + G at its worst grid node.  ``inv_total`` is the pointwise inverse
    (F + G)^{-1} on the grid, shape (n_lambda, K, K), from which the symbols
    were built; solvers reuse it instead of inverting F + G again.
    """

    B: np.ndarray
    D: np.ndarray
    R: np.ndarray
    window: int
    K: int
    cond_B: float
    inv_total: np.ndarray = None


def _block_toeplitz(coeffs, lags, window, K):
    """Assemble blocks M(s, j) = coeffs[j - s] into a (wK, wK) matrix.

    ``lags`` must be consecutive integers covering -(window-1) .. window-1.
    """
    offsets = np.arange(window)
    blocks = coeffs[offsets[None, :] - offsets[:, None] - lags[0]]  # (w, w, K, K)
    return blocks.transpose(0, 2, 1, 3).reshape(window * K, window * K)


def _condition_from_eigenvalues(eigvals):
    """2-norm condition numbers of Hermitian matrices from their eigenvalues.

    Reduces the last axis; a zero eigenvalue gives ``inf``.
    """
    mags = np.abs(eigvals)
    largest, smallest = mags.max(axis=-1), mags.min(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(smallest > 0, largest / smallest, np.inf)


def _pointwise_condition(values):
    """2-norm condition number of the Hermitian part of each grid sample."""
    hermitian = (values + np.conj(np.swapaxes(values, 1, 2))) / 2
    return _condition_from_eigenvalues(np.linalg.eigvalsh(hermitian))


def _pointwise_inverse(values, cond_ceiling, lam):
    conds = _pointwise_condition(values)
    worst = int(np.argmax(conds))
    if not np.isfinite(conds[worst]) or conds[worst] > cond_ceiling:
        raise MinimalityViolation(
            f"density pair is numerically singular at lambda = {lam[worst]:.6f} "
            f"(condition number {conds[worst]:.3e})",
            lambda_value=float(lam[worst]),
            condition_number=float(conds[worst]),
        )
    return np.linalg.inv(values), float(conds[worst])


def assemble_operators(F, G=None, window=1, cond_ceiling=DEFAULT_COND_CEILING):
    """Build the truncated operators B, D, R for the density pair (F, G).

    ``G=None`` means noiseless observations; then D = I and R = 0 and B is
    built from F alone.
    """
    Fg = as_grid(F)
    n = Fg.n_lambda
    K = Fg.K
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window >= n // 2:
        raise ValueError(f"window {window} too large for grid size {n}")
    lam = Fg.lam
    if G is None:
        total = Fg.values
    else:
        Gg = as_grid(G, n)
        if Gg.K != K:
            raise ValueError(f"component mismatch: F has K={K}, G has K={Gg.K}")
        total = Fg.values + Gg.values
    inv_total, max_cond = _pointwise_inverse(total, cond_ceiling, lam)

    lags = np.arange(-(window - 1), window)
    sym_B = np.swapaxes(inv_total, 1, 2)
    coeff_B = fourier_coefficients(sym_B, lags)
    B = _block_toeplitz(coeff_B, lags, window, K)
    B = (B + B.conj().T) / 2

    if G is None:
        D = np.eye(window * K, dtype=complex)
        R = np.zeros((window * K, window * K), dtype=complex)
    else:
        f_inv = Fg.values @ inv_total
        coeff_D = fourier_coefficients(np.swapaxes(f_inv, 1, 2), lags)
        D = _block_toeplitz(coeff_D, lags, window, K)
        sym_R = np.swapaxes(f_inv @ Gg.values, 1, 2)
        coeff_R = fourier_coefficients(sym_R, lags)
        R = _block_toeplitz(coeff_R, lags, window, K)
        R = (R + R.conj().T) / 2

    eigs_B = np.linalg.eigvalsh(B)
    eig_min = float(eigs_B.min())
    if eig_min <= 0:
        warnings.warn(
            f"assembled B is not positive definite (min eigenvalue {eig_min:.3e}); "
            "density pair is badly conditioned",
            RuntimeWarning,
        )
    cond_B = float(_condition_from_eigenvalues(eigs_B))
    return OperatorSet(B=B, D=D, R=R, window=window, K=K,
                       cond_B=max(cond_B, max_cond), inv_total=inv_total)


@dataclass
class MinimalityReport:
    """Diagnostics for invertibility of F + G across the grid."""

    trace_integral: float
    max_condition: float
    passed: bool
    singular_lambdas: list
    n_lambda: int
    refined_integral: float | None = None
    refinement_growth: float | None = None


def _masked_trace_integral(values, cond_ceiling):
    lam = lambda_grid(values.shape[0])
    conds = _pointwise_condition(values)
    good = np.isfinite(conds) & (conds <= cond_ceiling)
    singular = [float(x) for x in lam[~good]]
    if good.any():
        inv = np.linalg.inv(values[good])
        # sum over non-singular nodes against the full grid measure
        integral = float(np.sum(np.trace(inv, axis1=1, axis2=2).real) / values.shape[0])
        max_cond = float(conds[good].max())
    else:
        integral = float("inf")
        max_cond = float("inf")
    if singular:
        max_cond = float("inf")
    return integral, max_cond, singular


def check_minimality(F, G=None, cond_ceiling=DEFAULT_COND_CEILING,
                     n_lambda=DEFAULT_N_LAMBDA, refine=True):
    """Report whether (F + G)^{-1} has an integrable trace on the grid.

    The trace integral (1/2pi) int Tr[(F+G)^{-1}] is computed with exactly
    singular nodes masked and reported.  For parametric densities a refined
    grid (2 * n_lambda) is also evaluated: growth above 10% between the two
    resolutions marks a divergent integral.  Passing requires no singular
    nodes, a condition number below ``cond_ceiling``, and no divergence.
    """

    def total_at(n):
        Fg = as_grid(F, n if not isinstance(F, SpectralDensityGrid) else None)
        if G is None:
            return Fg.values
        Gg = as_grid(G, Fg.n_lambda if isinstance(G, RationalDensity) else None)
        if Gg.n_lambda != Fg.n_lambda:
            raise ValueError("F and G sampled on different grids")
        return Fg.values + Gg.values

    base = total_at(n_lambda)
    integral, max_cond, singular = _masked_trace_integral(base, cond_ceiling)
    refined_integral = None
    growth = None
    can_refine = isinstance(F, RationalDensity) and (G is None or isinstance(G, RationalDensity))
    if refine and can_refine:
        fine = as_grid(F, 2 * base.shape[0]).values
        if G is not None:
            fine = fine + as_grid(G, 2 * base.shape[0]).values
        refined_integral, fine_cond, fine_singular = _masked_trace_integral(fine, cond_ceiling)
        singular = singular + [x for x in fine_singular if x not in singular]
        max_cond = max(max_cond, fine_cond)
        if integral > 0 and np.isfinite(integral) and np.isfinite(refined_integral):
            growth = float(refined_integral / integral - 1.0)
        else:
            growth = float("inf")
    passed = (
        not singular
        and np.isfinite(max_cond)
        and max_cond <= cond_ceiling
        and (growth is None or growth <= 0.10)
    )
    return MinimalityReport(
        trace_integral=integral,
        max_condition=max_cond,
        passed=passed,
        singular_lambdas=singular,
        n_lambda=base.shape[0],
        refined_integral=refined_integral,
        refinement_growth=growth,
    )


def density_to_spec(density):
    """JSON-serializable description of a density."""
    if isinstance(density, RationalDensity):
        return {
            "type": "rational",
            "numerator": _complex_array_to_json(density.numerator),
            "denominator": _complex_array_to_json(density.denominator),
        }
    grid = as_grid(density)
    return {
        "type": "grid",
        "K": grid.K,
        "n_lambda": grid.n_lambda,
        "values": _complex_array_to_json(grid.values),
    }


def density_from_spec(spec):
    """Parse the JSON density description (see ``density_to_spec``)."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("density spec must be an object with a 'type' field")
    kind = spec["type"]
    if kind == "rational":
        num = complex_tensor_from_json(spec["numerator"], base_ndim=(1, 3),
                                       where="numerator")
        den = complex_tensor_from_json(spec.get("denominator", [1.0]),
                                       base_ndim=(1,), where="denominator")
        return RationalDensity(num, den)
    if kind == "grid":
        values = complex_tensor_from_json(spec["values"], base_ndim=(3,),
                                          where="grid values")
        grid = SpectralDensityGrid(values)
        if "K" in spec and grid.K != spec["K"]:
            raise ValueError(f"grid says K={spec['K']} but values have K={grid.K}")
        if "n_lambda" in spec and grid.n_lambda != spec["n_lambda"]:
            raise ValueError(
                f"grid says n_lambda={spec['n_lambda']} but values have {grid.n_lambda}"
            )
        return grid
    raise ValueError(f"unknown density type {kind!r}")


def _complex_array_to_json(arr):
    arr = np.asarray(arr, dtype=complex)
    stacked = np.stack([arr.real, arr.imag], axis=-1)
    return stacked.tolist()


def complex_tensor_from_json(data, base_ndim, where="array"):
    """Parse a real or re/im-paired nested list of known base rank.

    An array of rank ``r`` in ``base_ndim`` is read as real; rank ``r + 1``
    with a trailing axis of length 2 is read as [re, im] pairs.  This keeps
    the encoding unambiguous (a plain coefficient list is never mistaken
    for a single complex pair).
    """
    arr = np.asarray(data, dtype=float)
    options = tuple(base_ndim) if isinstance(base_ndim, (tuple, list)) else (base_ndim,)
    if arr.ndim in options:
        return arr.astype(complex)
    if arr.ndim - 1 in options and arr.shape[-1] == 2:
        return arr[..., 0] + 1j * arr[..., 1]
    raise ValueError(
        f"{where}: expected an array of rank {options} (real) or rank+1 with a "
        f"trailing [re, im] axis, got shape {arr.shape}"
    )


def export_operators_csv(ops, path):
    """Write the assembled operators as one CSV for inspection."""
    import csv as _csv

    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["operator", "row", "col", "re", "im"])
        for name, mat in (("B", ops.B), ("D", ops.D), ("R", ops.R)):
            for r in range(mat.shape[0]):
                for c in range(mat.shape[1]):
                    v = mat[r, c]
                    writer.writerow([name, r, c, repr(v.real), repr(v.imag)])
