"""Spectral densities on a frequency grid and the operators built from them.

Matrix densities are sampled on the uniform grid

    lambda_t = -pi + 2*pi*t / N,   t = 0 .. N-1,

and Fourier coefficients use the convention

    coeff(g, d) = (1/2pi) * integral g(lambda) exp(i*d*lambda) d lambda,

approximated by the rectangle rule, i.e. one bin of the discrete Fourier
transform.  This is exact for trigonometric polynomials of degree < N/2.

The prediction operator B is the block Toeplitz matrix whose (s, j) block
is the transposed coefficient at lag ``j - s`` of (F + G)^{-1}.  The normal
equations of one-sided linear estimation read ``B c = d``, where block s of
d is the coefficient at lag ``-s`` of the row vector

    A^T F (F + G)^{-1} = A^T - A^T G (F + G)^{-1},

A the functional's series; ``extrapolate`` reads d off the grid (d = a
without noise).  The error is read off the characteristic h of the solved c:
delta = mean Re[(A - h)^T F conj(A - h) + h^T G conj(h)].
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg

DEFAULT_N_LAMBDA = 4096
# the largest condition number of F + G at a grid node; above it, or where
# it is not finite, the pair is singular there
DEFAULT_COND_CEILING = 1e10
# Largest K for which _node_matmul and _node_inverse work over the entries.
# Batched ``@`` and ``inv`` pay a fixed cost per small matrix; the entry
# loop's cost grows as K^3 and meets it at K = 4.
_ENTRY_LOOP_MAX_K = 3
# The K = 3 eigenvalue closed form sends to ``eigvalsh`` the nodes whose
# arccos argument lies within this distance of +-1: there a near-degenerate
# pair loses digits, about eps / sqrt(distance) relative to the node.
_EIG3_EDGE = 0.03
# adj/det's residual grows like cond^2 * eps, LAPACK's like cond * eps; nodes
# whose Frobenius condition number exceeds this go to ``np.linalg.inv``.
_ADJUGATE_MAX_COND = 64.0


class MinimalityViolation(RuntimeError):
    """The density pair is (numerically) singular somewhere on the grid."""

    def __init__(self, message, lambda_value=None):
        super().__init__(message)
        self.lambda_value = lambda_value


class NonFiniteDensityError(ValueError):
    """A density's coefficients are finite but its grid values are not."""


def _node_matmul(A, B):
    """Per-node product of two (..., K, K) stacks; leading axes broadcast.

    For K <= 3 each of the K^2 output entries is the sum over k of the node
    vectors A[..., i, k] * B[..., k, j], added in ascending k; this avoids
    the fixed per-matrix cost of batched ``@``.  Larger K returns ``A @ B``.
    """
    K = A.shape[-1]
    if K > _ENTRY_LOOP_MAX_K:
        return A @ B
    out = np.empty(np.broadcast_shapes(A.shape, B.shape), dtype=np.result_type(A, B))
    for i in range(K):
        for j in range(K):
            acc = A[..., i, 0] * B[..., 0, j]
            for k in range(1, K):
                acc += A[..., i, k] * B[..., k, j]
            out[..., i, j] = acc
    return out


def _frobenius_squared(entries):
    """Sum of |x|^2 over a nested list of node vectors."""
    return sum(x.real ** 2 + x.imag ** 2 for row in entries for x in row)


def _node_inverse(values):
    """Per-node inverse of a (..., K, K) stack: the one per-node inverse.

    For K <= 3 each node M is scaled by a power of two (exact) to a
    Frobenius norm in [1/sqrt(2), sqrt(2)) and inverted as adj M / det M
    (1/x at K = 1).  A node whose Frobenius condition number
    ||M|| ||adj M|| / |det M| exceeds ``_ADJUGATE_MAX_COND`` or is not
    finite is inverted again by ``np.linalg.inv``, so a singular node
    raises ``LinAlgError``; the result keeps the memory layout of
    ``values``.  Larger K returns ``np.linalg.inv(values)``.
    """
    K = values.shape[-1]
    if K > _ENTRY_LOOP_MAX_K:
        return np.linalg.inv(values)
    raw = [[values[..., i, j] for j in range(K)] for i in range(K)]
    norm2 = _frobenius_squared(raw)
    scale = np.ldexp(1.0, -(np.frexp(norm2)[1] // 2))
    m = [[x * scale for x in row] for row in raw]
    if K == 1:
        adj, det = [[1.0]], m[0][0]
    elif K == 2:
        (a, b), (c, d) = m
        adj, det = [[d, -b], [-c, a]], a * d - b * c
    else:
        (a, b, c), (d, e, f), (g, h, i) = m
        c0, c1, c2 = e * i - f * h, f * g - d * i, d * h - e * g
        adj = [[c0, c * h - b * i, b * f - c * e],
               [c1, a * i - c * g, c * d - a * f],
               [c2, b * g - a * h, a * e - b * d]]
        det = a * c0 + b * c1 + c * c2
    out = np.empty_like(values, dtype=np.result_type(values, 1.0))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv_det = 1.0 / det
        # ||m||^2 = norm2 scale^2 exactly (scale is a power of two) unless a square underflows
        kappa = np.sqrt(norm2 * scale * scale * _frobenius_squared(adj)) * np.abs(inv_det)
        # M^{-1} = scale * (scale M)^{-1}
        inv_det = inv_det * scale
        for i in range(K):
            for j in range(K):
                out[..., i, j] = adj[i][j] * inv_det
    refer = ~(kappa <= _ADJUGATE_MAX_COND)
    if refer.any():
        out[refer] = np.linalg.inv(values[refer])
    return out


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

    ``values`` has shape (n_lambda, K, K).  Values must be finite, Hermitian
    symmetry is enforced to 1e-12 and eigenvalues may dip no lower than
    -1e-10 (numerical noise), matching how densities come out of quadrature
    and arithmetic.  ``check=False`` skips these checks, for values that
    satisfy them by construction.
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
        if not np.all(np.isfinite(self.values)):
            raise ValueError("density has non-finite values")
        herm_gap = np.max(np.abs(self.values - np.conj(np.swapaxes(self.values, 1, 2))))
        scale = max(1.0, float(np.max(np.abs(self.values)) or 0.0))
        if herm_gap > 1e-12 * scale:
            raise ValueError(f"density is not Hermitian (gap {herm_gap:.3e})")
        eigs = _hermitian_eigenvalues(self.values)
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
    Hermitian and PSD by construction; rasterizes to any grid size.
    Coefficients must be finite,
    and ``rasterize`` raises :class:`NonFiniteDensityError` when the grid
    values overflow.
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
        if not (np.all(np.isfinite(numerator)) and np.all(np.isfinite(self.denominator))):
            raise ValueError("numerator and denominator coefficients must be finite")

    @property
    def K(self):
        return self.numerator.shape[1]

    def rasterize(self, n_lambda=DEFAULT_N_LAMBDA):
        """F on the n-point grid, as a :class:`SpectralDensityGrid`.

        The numerator sum_u z^u N_u (ascending u), N N^* (each entry's sum
        over k ascending), the division by |den|^2 and the exact
        symmetrization run on contiguous (K, K, n) entry planes, and the
        result is moved back to (n, K, K) once.  K >= 4 forms N N^* by
        batched ``@`` instead.
        """
        lam = lambda_grid(n_lambda)
        z = np.exp(-1j * lam)
        K = self.K
        num = np.zeros((K, K, n_lambda), dtype=complex)
        for u in range(self.numerator.shape[0]):
            num += z**u * self.numerator[u][:, :, None]
        den = np.zeros(n_lambda, dtype=complex)
        for v, coeff in enumerate(self.denominator):
            den += coeff * z**v
        if np.min(np.abs(den)) < 1e-14:
            bad = lam[int(np.argmin(np.abs(den)))]
            raise ValueError(f"denominator vanishes near lambda = {bad:.6f}")
        with np.errstate(over="ignore", invalid="ignore"):
            if K > _ENTRY_LOOP_MAX_K:
                rows = np.moveaxis(num, 2, 0)
                planes = np.moveaxis(rows @ np.conj(np.swapaxes(rows, 1, 2)), 0, 2)
            else:
                num_conj = np.conj(num)
                planes = np.empty_like(num)
                for i in range(K):
                    for j in range(K):
                        acc = num[i, 0] * num_conj[j, 0]
                        for k in range(1, K):
                            acc += num[i, k] * num_conj[j, k]
                        planes[i, j] = acc
            planes = planes / np.abs(den) ** 2
            # N N^* / |den|^2, symmetrized exactly: Hermitian and PSD as built
            planes = (planes + np.conj(np.swapaxes(planes, 0, 1))) / 2
        values = np.ascontiguousarray(np.moveaxis(planes, 2, 0))
        if not np.all(np.isfinite(values)):
            raise NonFiniteDensityError(
                f"rational density overflows on the {n_lambda}-point grid "
                "(non-finite values); rescale its coefficients"
            )
        return SpectralDensityGrid(values, check=False)

    @classmethod
    def ar1(cls, phi, sigma=1.0):
        """Scalar density  sigma^2 / |1 - phi e^{i lambda}|^2."""
        return cls([[[sigma]]], [1.0, -phi])

    @classmethod
    def ma(cls, coefficients):
        """Scalar moving-average density |sum_u c_u e^{-iu lambda}|^2."""
        return cls(np.asarray(coefficients, dtype=complex)[:, None, None])


def _numerator_times(N, d):
    """The matrix polynomial N (U, K, K) times the scalar polynomial d,
    both ascending in z: (U + len(d) - 1, K, K)."""
    out = np.zeros((N.shape[0] + len(d) - 1,) + N.shape[1:], dtype=complex)
    for k, coeff in enumerate(d):
        out[k:k + N.shape[0]] += coeff * N
    return out


def _causal_denominator(den):
    """The scalar denominator, ascending, with each root inside the unit disk
    reflected to 1 / conj(root): its modulus on the circle, a causal inverse."""
    # one * (...) is a polynomial also where the denominator has no root
    one, z = np.polynomial.Polynomial([1.0]), np.polynomial.Polynomial([0.0, 1.0])
    den = np.trim_zeros(den, "b")
    out = den[-1]
    for root in np.roots(den[::-1]):
        out = out * ((1.0 - np.conj(root) * z) if abs(root) < 1.0 else (z - root))
    return (one * out).coef


def _pair_state_space(F, G):
    """One state-space model of a rational pair, driven by white noise.

    With the causal denominators d_F, d_G (``_causal_denominator``) and d =
    d_F d_G scaled to d(0) = 1, v = w / d is driven by w = [w_F; w_G],
    white in C^m (m = 2K; m = K and w = w_F without noise).  The signal is
    zeta = M_zeta(L) v with M_zeta = [N_F d_G, 0], the observation y = M(L) v
    with M = [N_F d_G, N_G d_F].  The state s(t) = [v(t-1); ..; v(t-r)] gives

        s(t+1) = A s(t) + B w(t),  y = C_y s + D_y w,  zeta = C_z s + D_z w.

    The numerators are scaled by one power of two to unit size.  Returns
    (A, B, C_y, D_y, C_z, D_z) and that scale.
    """
    d_F = _causal_denominator(F.denominator)
    d_G = _causal_denominator(G.denominator) if G is not None else np.ones(1)
    d = np.convolve(d_F, d_G)
    parts = [_numerator_times(F.numerator, d_G)]
    if G is not None:
        parts.append(_numerator_times(G.numerator, d_F))
    q = max(part.shape[0] for part in parts)
    parts = [np.concatenate([part, np.zeros((q - part.shape[0],) + part.shape[1:])])
             for part in parts]
    M = np.concatenate(parts, axis=2) / d[0]
    unit = math.ldexp(1.0, -math.frexp(float(np.max(np.abs(M))))[1])
    M = M * unit
    K, m = M.shape[1], M.shape[2]
    M_z = np.concatenate([M[:, :, :K], np.zeros_like(M[:, :, K:])], axis=2)
    r = max(len(d) - 1, q - 1, 1)
    alpha = np.zeros(r + 1, dtype=complex)
    alpha[:len(d)] = d / d[0]
    M, M_z = (np.concatenate([X, np.zeros((r + 1 - q, K, m))]) for X in (M, M_z))

    A = np.eye(r * m, k=-m, dtype=complex)
    A[:m] = np.kron(-alpha[1:], np.eye(m))
    B = np.eye(r * m, m)
    C_y, C_z = (np.concatenate([X[k] - X[0] * alpha[k] for k in range(1, r + 1)], axis=1)
                for X in (M, M_z))
    return (A, B, C_y, M[0], C_z, M_z[0]), unit


@dataclass
class Innovations:
    """``_innovations``' model: ``system`` (A, B, C_y, D_y, C_z, D_z) at scale
    ``unit``, the Riccati solution P, Re (``innovation``), the predictor gain
    K_p, the closed loop A - K_p C_y and its spectral radius."""

    system: tuple
    unit: float
    P: np.ndarray
    innovation: np.ndarray
    gain: np.ndarray
    closed: np.ndarray
    radius: float


def _innovations(F, G):
    """The innovations model of the rational pair (F, G); G may be None.

    One ``solve_discrete_are`` on ``_pair_state_space``'s model gives P, the
    state's covariance given the whole observed past, and F + G = Phi Phi^*
    / unit^2 with the canonical factor Phi = (I + C_y (zI - A)^{-1} K_p)
    chol(Re) (Kailath, Sayed & Hassibi 2000, Linear Estimation).  The
    whitening filter Phi^{-1} is stable iff rho(A - K_p C_y) < 1.
    :class:`MinimalityViolation` where the equation has no stabilizing
    solution or Re is singular.
    """
    system, unit = _pair_state_space(F, G)
    A, B, C_y, D_y = system[:4]
    S = B @ D_y.conj().T
    R = D_y @ D_y.conj().T
    try:
        P = scipy.linalg.solve_discrete_are(A.conj().T, C_y.conj().T, B @ B.conj().T, R, s=S)
        innovation = C_y @ P @ C_y.conj().T + R
        gain = np.linalg.solve(innovation.T, (A @ P @ C_y.conj().T + S).T).T
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise MinimalityViolation(
            f"the pair's filter Riccati equation has no stabilizing solution ({exc})") from exc
    closed = A - gain @ C_y
    radius = float(np.max(np.abs(np.linalg.eigvals(closed))))
    return Innovations(system=system, unit=unit, P=P, innovation=innovation, gain=gain,
                       closed=closed, radius=radius)


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


def joint_covariance(F, G, n_past, n_future):
    """Covariance of the observed past (zeta + theta) at times -n_past .. -1
    followed by the signal future zeta at times 0 .. n_future-1, each a
    K-vector, as one ((n_past + n_future) * K)-square matrix.

    Block (s, t) is E[x(s) x(t)^*] = K_F(s - t), plus K_G(s - t) when both
    times are observed; signal and noise are independent.  ``G`` may be
    None; the pair's grid is ``_pair_grids``'.  This is the one layout the
    covariance checks (the finite-past oracle and the Monte Carlo draw)
    share; it uses nothing from the operator route they check.
    """
    n = n_past + n_future
    F, G = _pair_grids(F, G)
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    blocks = covariance_from_density(F, n - 1).matrices[lag + n - 1]
    if G is not None:
        noise = covariance_from_density(G, n_past - 1).matrices
        blocks[:n_past, :n_past] += noise[lag[:n_past, :n_past] + n_past - 1]
    K = blocks.shape[-1]
    return blocks.transpose(0, 2, 1, 3).reshape(n * K, n * K)


@dataclass
class OperatorSet:
    """Truncated prediction operator on a ``window``-period horizon.

    B is (window*K, window*K); its (s, j) block is the transposed Fourier
    coefficient at lag ``j - s`` of (F + G)^{-1}.  B is Hermitian, and
    positive definite whenever the minimality condition holds.  The
    right-hand side d and the error need no operator (module docstring).
    ``cond_B`` is the larger of the 2-norm condition numbers of B and of
    F + G at its worst grid node.  ``inv_total`` is the pointwise inverse
    (F + G)^{-1} on the grid, shape (n_lambda, K, K), from which B was
    built; solvers reuse it for d and h instead of inverting F + G again.
    """

    B: np.ndarray
    cond_B: float
    inv_total: np.ndarray


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


def _eig2_range(values):
    """Eigenvalues mid -/+ rad of each node of an (n, 2, 2) Hermitian stack,
    and rad = hypot((a - d)/2, |b|); reads the diagonal and lower triangle."""
    a, d = values[:, 0, 0].real, values[:, 1, 1].real
    mid = (a + d) / 2
    rad = np.hypot((a - d) / 2, np.abs(values[:, 1, 0]))
    return mid - rad, mid + rad, rad


def _eig3(values):
    """Ascending eigenvalues of the Hermitian part of each node of an
    (n, 3, 3) stack, by the trigonometric solution (Smith 1961).

    Each node is scaled by a power of two (exact) so that its largest entry
    part lies in [1/2, 1); then with q = Tr A / 3, p^2 = ||A - q I||^2 / 6,
    r = det(A - q I) / (2 p^3) and phi = arccos(r) / 3, the eigenvalues
    q + 2 p cos(phi + 2 pi k / 3) are q - p (cos phi +- sqrt(3) sin phi)
    and q + 2 p cos phi.  Nodes with |r| > 1 - _EIG3_EDGE (or a non-finite
    r) take ``eigvalsh`` instead.  Away from that edge the three values are
    well apart, so they come out ascending.
    """
    diag = [values[:, i, i].real for i in range(3)]
    x, y, z = ((values[:, i, j] + np.conj(values[:, j, i])) / 2
               for i, j in ((1, 0), (2, 0), (2, 1)))
    parts = np.stack(diag + [x.real, x.imag, y.real, y.imag, z.real, z.imag], axis=1)
    scale = np.ldexp(1.0, -np.frexp(np.abs(parts).max(axis=1))[1])
    d0, d1, d2 = (d * scale for d in diag)
    x, y, z = x * scale, y * scale, z * scale
    q = (d0 + d1 + d2) / 3
    b0, b1, b2 = d0 - q, d1 - q, d2 - q
    xx, yy, zz = (w.real ** 2 + w.imag ** 2 for w in (x, y, z))
    p2 = (b0 * b0 + b1 * b1 + b2 * b2 + 2 * (xx + yy + zz)) / 6
    p = np.sqrt(p2)
    det = b0 * b1 * b2 + 2 * (x * z * np.conj(y)).real - b0 * zz - b1 * yy - b2 * xx
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.divide(det, 2 * p * p2, out=np.zeros_like(det), where=p > 0)
    edge = ~(np.abs(r) <= 1 - _EIG3_EDGE)
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3
    c, s = np.cos(phi), np.sqrt(3.0) * np.sin(phi)
    out = np.stack([q - p * (c + s), q - p * (c - s), q + 2 * p * c],
                   axis=1) / scale[:, None]
    if edge.any():
        near = values[edge]
        out[edge] = np.linalg.eigvalsh((near + np.conj(np.swapaxes(near, 1, 2))) / 2)
    return out


def _hermitian_eigenvalues(values):
    """Ascending eigenvalues of the Hermitian part of each node of an
    (n, K, K) stack: the one per-node eigenvalue kernel, the node's real
    part at K = 1, closed form at K = 2 (``_eig2_range``) and K = 3
    (``_eig3``), and one batched ``eigvalsh`` at K >= 4."""
    if values.shape[1] == 1:
        return values[:, :, 0].real.copy()
    if values.shape[1] == 3:
        return _eig3(values)
    values = (values + np.conj(np.swapaxes(values, 1, 2))) / 2
    if values.shape[1] == 2:
        low, high, _ = _eig2_range(values)
        return np.stack([low, high], axis=1)
    return np.linalg.eigvalsh(values)


def _pair_grids(F, G, n_lambda=None):
    """The one grid rule of a pair (F, G), G None or a density: both go on N =
    ``n_lambda`` if given, else a grid side's N, else ``DEFAULT_N_LAMBDA``.
    A grid of another N, or F and G of different K, raise ``ValueError``."""
    if n_lambda is None:
        n_lambda = next((side.n_lambda for side in (F, G)
                         if isinstance(side, SpectralDensityGrid)), DEFAULT_N_LAMBDA)
    Fg, Gg = as_grid(F, n_lambda), None if G is None else as_grid(G, n_lambda)
    if Gg is not None and Gg.K != Fg.K:
        raise ValueError(f"component mismatch: F has K={Fg.K}, G has K={Gg.K}")
    return Fg, Gg


def _rational_pair(F, G):
    """The route predicate: F rational, G rational or absent.  Such a pair is
    solved and judged by its filter; a grid side sends it to the window."""
    return isinstance(F, RationalDensity) and (G is None or isinstance(G, RationalDensity))


@dataclass
class _PairVerdict:
    """``_judge_pair``'s answer to "can this pair be solved on this grid?"."""

    pair: tuple                     # (F, G) as given
    grids: tuple                    # (Fg, Gg), by ``_pair_grids``
    total: np.ndarray               # F + G on the grid
    conditions: np.ndarray          # each node's 2-norm condition number
    singular: np.ndarray            # not finite, or above DEFAULT_COND_CEILING
    max_condition: float            # inf where a node is singular
    trace_integral: float | None    # grid pairs: masked mean of Tr (F+G)^{-1}

    def node_condition(self):
        """``max_condition``, or :class:`MinimalityViolation` at the worst node."""
        if self.singular.any():
            worst = int(np.argmax(self.conditions))
            lam = float(lambda_grid(len(self.conditions))[worst])
            raise MinimalityViolation(
                f"density pair is numerically singular at lambda = {lam:.6f} "
                f"(condition number {self.conditions[worst]:.3e})", lambda_value=lam)
        return self.max_condition

    @functools.cached_property
    def filter(self):
        """A rational pair's ``_innovations`` model (None where its Riccati
        equation has no stabilizing solution) and the MinimalityViolation
        that refuses it (None where rho(A - K_p C_y) < 1)."""
        try:
            model = _innovations(*self.pair)
        except MinimalityViolation as exc:
            return None, exc
        return model, None if model.radius < 1.0 else MinimalityViolation(
            f"the pair's filter is not stable (closed-loop spectral radius {model.radius:.6f})")


def _judge_pair(F, G, grids):
    """The verdict on (F, G) put on ``grids`` by ``_pair_grids``, from one
    eigenvalue pass of F + G; a rational pair's filter is solved on demand."""
    Fg, Gg = grids
    total = Fg.values if Gg is None else Fg.values + Gg.values
    eigs = _hermitian_eigenvalues(total)
    conditions = _condition_from_eigenvalues(eigs)
    regular = conditions <= DEFAULT_COND_CEILING
    integral = None
    if not _rational_pair(F, G):
        traces = np.divide(1.0, eigs, out=np.zeros_like(eigs), where=regular[:, None]).sum(axis=1)
        integral = float(np.sum(traces[regular]) / len(traces)) if regular.any() else math.inf
    max_condition = float(conditions.max()) if regular.all() else math.inf
    return _PairVerdict((F, G), grids, total, conditions, ~regular, max_condition, integral)


def assemble_operators(F, G, window):
    """Build the truncated operator B for the density pair (F, G).

    ``G=None`` means noiseless observations; then B is built from F alone.
    The pair's grid is ``_pair_grids``'.  Raises :class:`MinimalityViolation`
    where the pair's verdict finds a singular node or where the assembled B
    has an eigenvalue <= 0.
    """
    grids = _pair_grids(F, G)
    n, K = grids[0].n_lambda, grids[0].K
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window >= n // 2:
        raise ValueError(f"window {window} too large for grid size {n}")
    verdict = _judge_pair(F, G, grids)
    max_cond = verdict.node_condition()
    inv_total = _node_inverse(verdict.total)

    lags = np.arange(-(window - 1), window)
    sym_B = np.swapaxes(inv_total, 1, 2)
    coeff_B = fourier_coefficients(sym_B, lags)
    B = _block_toeplitz(coeff_B, lags, window, K)
    B = (B + B.conj().T) / 2

    eigs_B = np.linalg.eigvalsh(B)
    eig_min = float(eigs_B.min())
    if eig_min <= 0:
        # B of a minimal pair is positive definite; a nonpositive eigenvalue
        # is rounding of a pair too badly conditioned to solve
        raise MinimalityViolation(
            f"assembled B is not positive definite (min eigenvalue {eig_min:.3e}); "
            "the density pair is too badly conditioned to solve")
    cond_B = float(_condition_from_eigenvalues(eigs_B))
    return OperatorSet(B=B, cond_B=max(cond_B, max_cond), inv_total=inv_total)


@dataclass
class MinimalityReport:
    """Diagnostics for invertibility of F + G; ``closed_loop_radius`` is the
    filter's (``_innovations``) for a rational pair, None for a grid pair."""

    trace_integral: float
    max_condition: float
    passed: bool
    singular_lambdas: list
    n_lambda: int
    closed_loop_radius: float | None = None


def check_minimality(F, G=None, n_lambda=None):
    """Report whether (F + G)^{-1} has an integrable trace: the pair's
    verdict (``_judge_pair``) on its grid (``_pair_grids``).

    A pair passes when no node is singular and, for a rational pair, its
    filter is stable, as the solve requires.  A rational pair's trace
    integral (1/2pi) int Tr[(F+G)^{-1}] is exact, the whitening filter's
    squared H2 norm unit^2 Tr[Re^{-1} (I + C_y W C_y^*)], W = sum_k Abar^k K_p
    K_p^* Abar^k* the reachability Gramian of the closed loop Abar (one
    ``solve_discrete_lyapunov``), and infinite where the filter refuses the
    pair; a grid pair's is the verdict's masked mean.
    """
    grids = _pair_grids(F, G, n_lambda)
    verdict = _judge_pair(F, G, grids)
    n = grids[0].n_lambda
    radius, integral, refusal = None, verdict.trace_integral, None
    if _rational_pair(F, G):
        model, refusal = verdict.filter
        radius, integral = (math.inf if model is None else model.radius), math.inf
        if refusal is None:
            C_y, gain = model.system[2], model.gain
            W = scipy.linalg.solve_discrete_lyapunov(model.closed, gain @ gain.conj().T)
            whitened = np.linalg.solve(model.innovation,
                                       np.eye(grids[0].K) + C_y @ W @ C_y.conj().T)
            integral = float(np.trace(whitened).real) * model.unit * model.unit
    return MinimalityReport(
        trace_integral=integral,
        max_condition=verdict.max_condition,
        passed=not verdict.singular.any() and refusal is None,
        singular_lambdas=lambda_grid(n)[verdict.singular].tolist(),
        n_lambda=n,
        closed_loop_radius=radius,
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
        density = RationalDensity(num, den)
        # a pole within 1e-8 of the unit circle spans more dynamic range
        # than double precision resolves
        roots = np.roots(density.denominator[::-1])
        if np.any(np.abs(np.abs(roots) - 1.0) < 1e-8):
            raise ValueError("denominator has a root on the unit circle")
        return density
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


def _real_array_from_json(data, where):
    """A regular nested list of real numbers as a float array; a bool (which
    ``np.asarray`` reads as 1.0/0.0), string, null or ragged list raises
    ``ValueError``.  The entries' types are read by one ``map``, not a loop."""
    entries = np.array(data, dtype=object)
    kinds = set(map(type, entries.ravel().tolist()))
    bad = sorted(kind.__name__ for kind in kinds
                 if kind is bool or not issubclass(kind, numbers.Real))
    if bad:
        raise ValueError(f"{where}: entries must be numbers in a regular nested list, "
                         f"got {', '.join(bad)}")
    try:
        return entries.astype(float)
    except OverflowError as exc:
        raise ValueError(f"{where}: {exc}") from None


def complex_tensor_from_json(data, base_ndim, where):
    """Parse a real or re/im-paired nested list of known base rank.

    An array of rank ``r`` in ``base_ndim`` is read as real; rank ``r + 1``
    with a trailing axis of length 2 is read as [re, im] pairs.  This keeps
    the encoding unambiguous (a plain coefficient list is never mistaken
    for a single complex pair).  Every entry must be a number
    (``_real_array_from_json``).  ``where`` names the value in the error.
    """
    arr = _real_array_from_json(data, where)
    options = tuple(base_ndim) if isinstance(base_ndim, (tuple, list)) else (base_ndim,)
    if arr.ndim in options:
        return arr.astype(complex)
    if arr.ndim - 1 in options and arr.shape[-1] == 2:
        return arr[..., 0] + 1j * arr[..., 1]
    raise ValueError(
        f"{where}: expected an array of rank {options} (real) or rank+1 with a "
        f"trailing [re, im] axis, got shape {arr.shape}"
    )
