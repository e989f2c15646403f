"""One-sided linear extrapolation of blocked channel sequences.

Each channel is a stationary ``C^K``-valued sequence with spectral density
``F`` observed through additive uncorrelated noise with density ``G`` at
times j < 0.  The target is the linear functional

    A = sum_{j >= 0} a(j)^T zeta(j),

and the optimal estimate is the Hilbert-space projection onto the past of
the observed sequence.  The normal equations truncate to a finite window
of coefficient vectors ``c(j)``; the window is kept much larger than the
support of ``a`` so that the truncation error is far below the reported
tolerances.

Three routes are implemented and cross-checked:

* ``solve_channel`` / ``solve_noiseless`` - the linear-system route,
* ``solve_by_factorization`` - the innovations route through a canonical
  factorization of the density,
* ``oracle_solve`` - a brute-force finite-past projection built from
  covariances only, used as an independent check.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .harmonics import harmonic_count
from .spectral import (
    DEFAULT_COND_CEILING,
    as_grid,
    assemble_operators,
    covariance_from_density,
    evaluate_lag_series,
    fourier_coefficients,
    lambda_grid,
)

DEFAULT_WINDOW = 96
FACTORIZATION_TOL = 1e-8


class FactorizationError(RuntimeError):
    """Canonical factorization failed or is unavailable."""


@dataclass
class FunctionalSpec:
    """Coefficient vectors a(j) for every harmonic channel (m, l)."""

    channels: dict  # (m, l) -> complex array (J, K)

    def __post_init__(self):
        if not self.channels:
            raise ValueError("functional needs at least one channel")
        cleaned = {}
        K = None
        for key, arr in self.channels.items():
            arr = np.atleast_2d(np.asarray(arr, dtype=complex))
            if K is None:
                K = arr.shape[1]
            elif arr.shape[1] != K:
                raise ValueError("all channels must share the component count K")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"channel {key} has non-finite coefficients")
            cleaned[key] = arr
        self.channels = cleaned

    @property
    def K(self):
        return next(iter(self.channels.values())).shape[1]

    def summability(self):
        """The two summability diagnostics (finite by construction)."""
        total = 0.0
        weighted = 0.0
        for arr in self.channels.values():
            norms = np.linalg.norm(arr, axis=1)
            j = np.arange(arr.shape[0])
            total += norms.sum()
            weighted += ((j + 1) * norms**2).sum()
        return float(total), float(weighted)


@dataclass
class EstimateSolution:
    """Solution of one channel's extrapolation problem.

    ``coefficients`` are the window-truncated c(j); ``h_grid`` is the
    spectral characteristic sampled on the frequency grid (None when a
    singular factor makes it unavailable); ``delta`` is the mean-square
    error of the optimal estimate.
    """

    coefficients: np.ndarray | None
    h_grid: np.ndarray | None
    delta: float
    window: int
    diagnostics: dict = field(default_factory=dict)

    def h_lag_coefficients(self, max_lag):
        """Time-domain estimator weights h_s for s = -1 .. -max_lag.

        Returns an array of shape (max_lag, K) whose row ``i`` applies to
        the observation at time ``-(i + 1)``.
        """
        if self.h_grid is None:
            raise FactorizationError("spectral characteristic unavailable")
        # series coefficient of exp(i*s*lambda) at s = -(i+1) is the
        # integral against exp(+i*(i+1)*lambda)
        lags = np.arange(1, max_lag + 1)
        return fourier_coefficients(self.h_grid, lags)


def _functional_on_grid(a, n_lambda):
    """A(lambda) = sum_j a(j) exp(i j lambda) sampled on the grid."""
    J = a.shape[0]
    return evaluate_lag_series(a, np.arange(J), n_lambda)


def _causal_leakage(h_grid):
    """Energy fraction of h at nonnegative lags (should vanish)."""
    n = h_grid.shape[0]
    coeffs = np.fft.fft(h_grid, axis=0) / n
    energy = np.sum(np.abs(coeffs) ** 2, axis=1)
    half = n // 2
    total = float(energy.sum())
    if total < 1e-300:
        return 0.0
    # bins 0 .. half-1 hold lags 0 .. half-1, the rest are negative lags
    return float(energy[:half].sum() / total)


def _orthogonality_residual(A, h, Fv, Gv):
    """Relative weight of negative-lag content in (A - h)^T F - h^T G."""
    r = np.einsum("tk,tkn->tn", A - h, Fv)
    if Gv is not None:
        r = r - np.einsum("tk,tkn->tn", h, Gv)
    n = r.shape[0]
    coeffs = np.fft.fft(r, axis=0) / n
    energy = np.sum(np.abs(coeffs) ** 2, axis=1)
    half = n // 2
    total = float(energy.sum())
    if total < 1e-300:
        return 0.0
    return float(np.sqrt(energy[half:].sum() / total))


def _solve_pd(B, rhs):
    """Solve the Hermitian system B x = rhs, flooring eigenvalues if needed."""
    try:
        c, low = scipy.linalg.cho_factor(B)
        return scipy.linalg.cho_solve((c, low), rhs)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        pass
    eigvals, eigvecs = np.linalg.eigh(B)
    floor = 1e-12 * max(eigvals.max(), 1.0)
    warnings.warn(
        f"system matrix not positive definite (min eigenvalue {eigvals.min():.3e}); "
        f"flooring spectrum at {floor:.3e}",
        RuntimeWarning,
    )
    eigvals = np.maximum(eigvals, floor)
    return eigvecs @ ((eigvecs.conj().T @ rhs) / eigvals[:, None])


def _pad_functional(a, window, K):
    a = getattr(a, "coefficients", a)  # accept blocked functionals directly
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    if a.shape[1] != K:
        raise ValueError(f"functional has K={a.shape[1]}, densities have K={K}")
    if a.shape[0] > window:
        raise ValueError(
            f"functional support {a.shape[0]} exceeds solver window {window}"
        )
    out = np.zeros((window, K), dtype=complex)
    out[: a.shape[0]] = a
    return out


def solve_channel(F, G, a, window=DEFAULT_WINDOW,
                  cond_ceiling=DEFAULT_COND_CEILING):
    """Optimal estimate of one channel's functional from noisy observations.

    Parameters
    ----------
    F, G : densities (grid or rational); ``G`` may be None for noiseless
        observations.
    a : (J, K) complex array of functional coefficients, J <= window.
    window : truncation length of the coefficient solve.  The reported
        ``delta`` converges to the untruncated value geometrically in the
        window size.

    Returns an :class:`EstimateSolution` with the solved coefficients, the
    spectral characteristic on the grid, the mean-square error, and
    causality / orthogonality diagnostics.
    """
    Fg = as_grid(F)
    Gg = as_grid(G, Fg.n_lambda) if G is not None else None
    a_pad = _pad_functional(a, window, Fg.K)
    ops = assemble_operators(Fg, Gg, window=window, cond_ceiling=cond_ceiling)
    return _solve_assembled(ops, Fg, Gg, a_pad)[0]


def _solve_assembled(ops, Fg, Gg, a_pad):
    """Solve one channel on operators already assembled for (Fg, Gg).

    ``a_pad`` is the functional zero-padded to the window.  Returns the
    :class:`EstimateSolution` together with the grid functions A and C of
    the functional and of the solved coefficients, which the minimax
    linearization reuses.
    """
    window, K = ops.window, ops.K
    if ops.cond_B > 1e8:
        warnings.warn(
            f"normal equations are ill-conditioned (cond ~ {ops.cond_B:.3e}); "
            "reported error may lose digits",
            RuntimeWarning,
        )
    a_vec = a_pad.reshape(-1)
    rhs = ops.D @ a_vec
    c_vec = _solve_pd(ops.B, rhs[:, None])[:, 0]
    c = c_vec.reshape(window, K)

    n = Fg.n_lambda
    A = _functional_on_grid(a_pad, n)
    C = _functional_on_grid(c, n)
    if Gg is not None:
        numer = np.einsum("tk,tkn->tn", A, Gg.values) + C
    else:
        numer = C
    h = A - np.einsum("tn,tnk->tk", numer, ops.inv_total)

    delta = float(np.real(a_vec.conj() @ (ops.R @ a_vec) + c_vec.conj() @ (ops.B @ c_vec)))
    diagnostics = {
        "window": window,
        "cond_B": ops.cond_B,
        "causal_leakage": _causal_leakage(h),
        "orthogonality_residual": _orthogonality_residual(
            A, h, Fg.values, Gg.values if Gg is not None else None
        ),
        "noisy": Gg is not None,
    }
    sol = EstimateSolution(coefficients=c, h_grid=h, delta=delta,
                           window=window, diagnostics=diagnostics)
    return sol, A, C


def solve_noiseless(F, a, window=DEFAULT_WINDOW,
                    cond_ceiling=DEFAULT_COND_CEILING):
    """Optimal estimate from noise-free observations of the channel.

    Same contract as :func:`solve_channel` with G = 0; the error reduces
    to the real inner product of c with a.
    """
    return solve_channel(F, None, a, window=window, cond_ceiling=cond_ceiling)


@dataclass
class FactorizationResult:
    """Causal factor of a density: F = P P* with P(l) = sum_u d(u) e^{-iul}.

    ``coefficients`` holds d(u) for u = 0 .. U-1 with d(0) lower triangular
    with positive diagonal; ``factor_grid`` is P sampled on the frequency
    grid; ``residual`` is the sup-norm reconstruction gap of F - P P*, and
    ``density_sup`` the sup-norm of F itself (their ratio is the
    scale-free quality measure).
    """

    coefficients: np.ndarray
    factor_grid: np.ndarray
    residual: float
    density_sup: float
    iterations: int
    converged: bool

    @property
    def K(self):
        return self.coefficients.shape[1]

    @property
    def relative_residual(self):
        return self.residual / max(self.density_sup, 1e-300)


def _causal_half(values):
    """Project onto span{exp(-i u lambda) : u >= 0} with halved u = 0 term.

    Shared-edge bins (u = 0 and the Nyquist bin) are halved so that
    plus(g) + plus(g)^* = g holds exactly for Hermitian-symmetric g.
    """
    n = values.shape[0]
    lam = lambda_grid(n)
    # coefficient of exp(-i u lambda): gamma_u = (-1)^u ifft-bin u
    gamma = np.fft.ifft(values, axis=0)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    gamma = gamma * signs[:, None, None]
    half = n // 2
    gamma[0] *= 0.5
    gamma0 = gamma[0].copy()
    if n % 2 == 0:
        gamma[half] *= 0.5
        gamma[half + 1:] = 0.0
    else:
        gamma[half + 1:] = 0.0
    gamma = gamma * signs[:, None, None]
    plus = np.fft.fft(gamma, axis=0)
    return plus, gamma0


def spectral_factorize(F, n_lambda=None, tol=1e-10, max_iter=200,
                       pd_floor=1e-10):
    """Canonical (causal) factorization of a Hermitian PD matrix density.

    Newton-type fixed-point iteration on the frequency grid: starting from
    the Cholesky factor of the lag-0 covariance, each step multiplies the
    current factor by the causal half of ``psi^{-1} F psi^{-*} + I``.
    Converges quadratically for densities bounded away from singularity.

    Raises :class:`FactorizationError` for rank-deficient densities or when
    the residual fails to reach ``tol`` within ``max_iter`` sweeps.
    """
    Fg = as_grid(F, n_lambda)
    values = Fg.values
    n = Fg.n_lambda
    K = Fg.K
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        raise FactorizationError("cannot factorize the zero density")
    eig_min = float(np.linalg.eigvalsh(values).min())
    if eig_min < pd_floor * scale:
        raise FactorizationError(
            f"density is rank deficient on the grid (min eigenvalue {eig_min:.3e}); "
            "reduced-rank factorization is not supported"
        )

    gamma0 = np.mean(values, axis=0)
    gamma0 = (gamma0 + gamma0.conj().T) / 2
    psi = np.broadcast_to(np.linalg.cholesky(gamma0), (n, K, K)).copy()
    ident = np.eye(K)

    sup_f = float(np.max(np.linalg.norm(values, axis=(1, 2))))
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        psi_inv = np.linalg.inv(psi)
        g = psi_inv @ values @ np.conj(np.swapaxes(psi_inv, 1, 2)) + ident
        g_plus, g0 = _causal_half(g)
        s = np.triu(g0, k=1)
        s = s - s.conj().T
        psi = psi @ (g_plus + s)
        recon = psi @ np.conj(np.swapaxes(psi, 1, 2))
        residual = float(np.max(np.linalg.norm(values - recon, axis=(1, 2)))) / sup_f
        if residual <= tol:
            converged = True
            break
    if not converged:
        raise FactorizationError(
            f"factorization did not converge in {max_iter} iterations "
            f"(last relative residual {residual:.3e})"
        )

    # causal coefficients of psi: d(u) is the coefficient of exp(-i u lambda)
    gamma = np.fft.ifft(psi, axis=0)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    gamma = gamma * signs[:, None, None]
    d = gamma[: n // 2].copy()

    # rotate so d(0) is lower triangular with positive diagonal
    q, r = np.linalg.qr(d[0].conj().T)
    sign_fix = np.sign(np.real(np.diag(r)))
    sign_fix[sign_fix == 0] = 1.0
    q = q * sign_fix
    d = d @ q
    psi = psi @ q

    # residual of the reconstruction actually returned (from coefficients)
    padded = np.zeros((n, K, K), dtype=complex)
    padded[: d.shape[0]] = d * signs[: d.shape[0], None, None]
    p_from_d = np.fft.fft(padded, axis=0)
    recon = p_from_d @ np.conj(np.swapaxes(p_from_d, 1, 2))
    residual = float(np.max(np.linalg.norm(values - recon, axis=(1, 2))))
    return FactorizationResult(
        coefficients=d,
        factor_grid=p_from_d,
        residual=residual,
        density_sup=sup_f,
        iterations=iterations,
        converged=converged,
    )


def _factor_convolution(d, a):
    """conv(j) = sum_p d(p)^T a(p + j) for j = 0 .. J-1, with a = 0 past J.

    ``d`` is (U, K, K), ``a`` is (J, K); the result is (J, K).
    """
    J, K = a.shape
    P = min(J, d.shape[0])
    padded = np.zeros((J + P, K), dtype=complex)
    padded[:J] = a
    shifted = padded[np.arange(P)[:, None] + np.arange(J)[None, :]]  # (P, J, K)
    return np.einsum("pkn,pjk->jn", d[:P], shifted)


def solve_by_factorization(fac, a, n_lambda=None,
                           factorization_tol=FACTORIZATION_TOL):
    """Noiseless extrapolation through the canonical factorization.

    The error needs only the causal coefficients d(u):

        delta = sum_{j >= 0} || sum_p d(p)^T a(p + j) ||^2,

    a finite sum once ``a`` has finite support.  The spectral
    characteristic additionally needs the pointwise inverse of the factor;
    if the factor is singular at a grid node, h is reported unavailable
    while delta is still returned.  The quality gate compares the
    reconstruction residual relative to the density's own scale.
    """
    if fac.relative_residual > factorization_tol:
        raise FactorizationError(
            f"relative factorization residual {fac.relative_residual:.3e} "
            f"exceeds tolerance {factorization_tol:.1e}"
        )
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    J, K = a.shape
    if K != fac.K:
        raise ValueError(f"functional has K={K}, factor has K={fac.K}")
    d = fac.coefficients

    conv = _factor_convolution(d, a)
    delta = float(np.sum(np.abs(conv) ** 2))

    n = fac.factor_grid.shape[0]
    A = _functional_on_grid(a, n)
    S = evaluate_lag_series(conv, np.arange(J), n)
    diagnostics = {"factorization_residual": fac.residual, "noisy": False}
    try:
        q = np.linalg.inv(fac.factor_grid)
    except np.linalg.LinAlgError:
        warnings.warn(
            "factor is singular at a grid node; spectral characteristic "
            "unavailable, error value still exact",
            RuntimeWarning,
        )
        return EstimateSolution(coefficients=None, h_grid=None, delta=delta,
                                window=J, diagnostics=diagnostics)
    h = A - np.einsum("tnk,tn->tk", q, S)
    Fv = fac.factor_grid @ np.conj(np.swapaxes(fac.factor_grid, 1, 2))
    diagnostics["causal_leakage"] = _causal_leakage(h)
    diagnostics["orthogonality_residual"] = _orthogonality_residual(A, h, Fv, None)
    # recover the window coefficients from C = (A - h)^T F for completeness;
    # the series coefficient of exp(i*j*lambda) integrates against exp(-i*j*lambda)
    Ct = np.einsum("tk,tkn->tn", A - h, Fv)
    c = fourier_coefficients(Ct, -np.arange(J))
    return EstimateSolution(coefficients=c, h_grid=h, delta=delta,
                            window=J, diagnostics=diagnostics)


def aggregate(solutions, n=3, tail_bounds=None):
    """Combine per-channel solutions into the total mean-square error.

    ``solutions`` maps either (m, l) pairs or plain degrees m to
    :class:`EstimateSolution`.  Integer keys stand for a full degree of
    identical channels and are weighted by the harmonic count h(m, n).
    ``tail_bounds`` (optional) is an iterable of variance bounds for the
    channels dropped by the degree cutoff; their sum is reported as the
    truncation tail.
    """
    if not solutions:
        raise ValueError("nothing to aggregate")
    total = 0.0
    per_channel = {}
    for key, sol in solutions.items():
        if isinstance(key, tuple):
            weight = 1
        else:
            weight = harmonic_count(key, n)
        contribution = weight * sol.delta
        per_channel[key] = contribution
        total += contribution
    tail = float(sum(tail_bounds)) if tail_bounds is not None else 0.0
    return AggregateResult(delta_total=float(total), per_channel=per_channel,
                           tail_bound=tail)


@dataclass
class AggregateResult:
    delta_total: float
    per_channel: dict
    tail_bound: float


def channel_variance_bound(F, a):
    """Upper bound on one channel's functional variance, for tail reports."""
    Fg = as_grid(F)
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    sup_norm = float(np.max(np.linalg.norm(Fg.values, axis=(1, 2))))
    return sup_norm * float(np.sum(np.abs(a) ** 2))


def functional_variance(F, a):
    """Exact variance of the functional: (1/2pi) int A^T F conj(A)."""
    Fg = as_grid(F)
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    A = _functional_on_grid(a, Fg.n_lambda)
    vals = np.einsum("tk,tkn,tn->t", A, Fg.values, np.conj(A))
    return float(np.mean(vals.real))


def oracle_solve(F, G, a, j_past=64, n_lambda=None, ridge=0.0):
    """Brute-force finite-past projection error, from covariances alone.

    Builds the joint second-moment matrix of the functional and the
    observations at times -1 .. -j_past and evaluates

        Var(A) - rho* Gram^{-1} rho.

    Independent of the operator route; converges to the solver's delta
    from above as ``j_past`` grows.  A singular Gram matrix is
    ridge-stabilized and the shift reported through a warning.
    """
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    J, K = a.shape
    Fg = as_grid(F, n_lambda)
    Gg = as_grid(G, Fg.n_lambda) if G is not None else None
    max_lag = j_past + J
    cov_f = covariance_from_density(Fg, max_lag)
    cov_total = cov_f.matrices.copy()
    if Gg is not None:
        cov_total = cov_total + covariance_from_density(Gg, max_lag).matrices
    center = max_lag

    def gamma_f(d):
        return cov_f.matrices[center + d]

    def gamma_o(d):
        return cov_total[center + d]

    var = 0.0j
    for j1 in range(J):
        for j2 in range(J):
            var += a[j1] @ gamma_f(j1 - j2) @ np.conj(a[j2])
    var = float(np.real(var))

    times = -np.arange(1, j_past + 1)
    dim = j_past * K
    gram = np.zeros((dim, dim), dtype=complex)
    for i1, s1 in enumerate(times):
        for i2, s2 in enumerate(times):
            gram[i1 * K:(i1 + 1) * K, i2 * K:(i2 + 1) * K] = gamma_o(s1 - s2)
    cross = np.zeros(dim, dtype=complex)
    for i, s in enumerate(times):
        acc = np.zeros(K, dtype=complex)
        for j in range(J):
            acc += gamma_f(j - s).T @ a[j]
        cross[i * K:(i + 1) * K] = acc

    gram = (gram + gram.conj().T) / 2
    shift = ridge
    while True:
        try:
            solved = scipy.linalg.cho_solve(
                scipy.linalg.cho_factor(gram + shift * np.eye(dim)), np.conj(cross)
            )
            break
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
            shift = max(shift * 10, 1e-12 * max(1.0, float(np.abs(gram).max())))
            if shift > 1e-2:
                raise
    if shift > ridge:
        warnings.warn(
            f"observation Gram matrix singular; ridge-stabilized with shift {shift:.3e}",
            RuntimeWarning,
        )
    # estimator is bilinear in the observations, so the projection reduces
    # the error by cross^T Gram^{-1} conj(cross)
    mse = var - float(np.real(cross @ solved))
    return mse
