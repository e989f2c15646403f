"""One-sided linear extrapolation of blocked channel sequences.

Each channel is a stationary ``C^K``-valued sequence with spectral density
``F`` observed through additive uncorrelated noise with density ``G`` at
times j < 0.  The target is the linear functional

    A = sum_{j >= 0} a(j)^T zeta(j),

and the optimal estimate is the Hilbert-space projection onto the past of
the observed sequence.

Four routes are implemented and cross-checked:

* ``solve_channel`` on a rational pair - the filter route: one
  steady-state Kalman filter on the pair's state-space form, exact, with
  no window and no grid truncation of the error,
* ``solve_channel`` on a grid density - the window route: the
  block-Toeplitz normal equations truncated to a finite window of
  coefficient vectors ``c(j)``, whose error converges geometrically in the
  window size and lies below the minimum at a finite window,
* ``solve_by_factorization`` - the innovations route through a canonical
  factorization of the density (exact for a rational density, read off
  the filter's innovations model; Wilson's sweeps for a grid),
* ``oracle_solve`` - a brute-force finite-past projection built from
  covariances only, used as an independent check.
"""

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .blocking import _as_functional
from .spectral import (
    MinimalityViolation,
    RationalDensity,
    as_grid,
    assemble_operators,
    evaluate_lag_series,
    fourier_coefficients,
    joint_covariance,
    _hermitian_eigenvalues,
    _innovations,
    _judge_pair,
    _node_inverse,
    _node_matmul,
    _pair_grids,
    _rational_pair,
)

DEFAULT_WINDOW = 96
DEFAULT_J_PAST = 64
FACTORIZATION_TOL = 1e-8        # largest relative residual of a factor in use (_checked_factor)
_FACTORIZE_TOL = 1e-10          # relative residual at which the sweeps stop
_FACTORIZE_MAX_SWEEPS = 200
_FACTORIZE_PD_FLOOR = 1e-10     # smallest eigenvalue relative to sup |F|
_NEGLIGIBLE_TAIL = 1e-13        # factor coefficients below this times ||d(0)|| are cut
_FACTOR_MAX_LAGS = 2 ** 16      # most exact lags of a rational factor


class FactorizationError(RuntimeError):
    """Canonical factorization failed or is unavailable."""


@dataclass
class EstimateSolution:
    """Solution of one channel's extrapolation problem.

    ``coefficients`` are c(j), j = 0 .. window-1: the window route's
    solved unknowns, on the other routes the first lags of c = (A - h)^T F
    - h^T G read off the grid; ``h_grid`` is the spectral characteristic
    sampled on the frequency grid (None when a singular factor makes it
    unavailable) and ``error_grid`` the error characteristic A - h there,
    the one transform of the functional (None with ``h_grid``); ``delta``
    is the mean-square error of the optimal estimate.
    """

    coefficients: np.ndarray | None
    h_grid: np.ndarray | None
    error_grid: np.ndarray | None
    delta: float
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
    """A(lambda) = sum_j a(j) exp(i j lambda) on the grid for (J, K) ``a``."""
    return evaluate_lag_series(a, np.arange(a.shape[0]), n_lambda)


def _causal_share(h):
    """``causal_leakage``: the share of the energy of h (n, K) at lags >= 0.

    An estimate reads the past only.  On the Toeplitz route h is causal
    only when the coefficients solve the normal equations; on the
    factorization route, only when the factor is minimum phase.
    """
    n = h.shape[0]
    coeffs = np.fft.fft(h, axis=0) / n
    energy = np.sum(np.abs(coeffs) ** 2, axis=1)
    total = float(energy.sum())
    if total < 1e-300:
        return 0.0
    # bins 0 .. n//2 - 1 hold lags 0 .. n//2 - 1, the rest are negative lags
    return float(energy[:n // 2].sum() / total)


def _solve_pd(B, rhs):
    """Solve the Hermitian positive definite system B X = rhs by Cholesky.

    A B that the factorization refuses is not positive definite in
    floating point: the pair is too badly conditioned to solve, and
    :class:`MinimalityViolation` says so.
    """
    try:
        c, low = scipy.linalg.cho_factor(B)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise MinimalityViolation(
            f"Cholesky factorization of B failed ({exc}); the density pair is "
            "too badly conditioned to solve") from exc
    return scipy.linalg.cho_solve((c, low), rhs)


def solve_channel(F, G, a, window=DEFAULT_WINDOW, n_lambda=None, grids=None):
    """Optimal estimate of a channel's functional from noisy observations.

    Parameters
    ----------
    F, G : densities (grid or rational); ``G`` may be None for noiseless
        observations.
    a : one (J, K) functional, J <= window, as an array or a
        ``ChannelFunctional`` (``blocking._as_functional``), or a dict of
        them keyed by channel, all solved against the one pair; a dict
        comes back as a dict of solutions with the same keys.
    window : the number of coefficients c(j) reported, and on the window
        route the truncation length of the coefficient solve.
    n_lambda : grid size; the pair's grid follows ``spectral._pair_grids``
        (``n_lambda``, else a grid side's N, else ``DEFAULT_N_LAMBDA``).
    grids : (Fg, Gg), F and G already sampled on the solve's grid, used in
        place of sampling them again.

    The pair is routed once per call, by its kind, with no option to change it:

    * F rational and G rational or None: the filter route
      (``_solve_by_filter``), exact, with no truncation.  Diagnostics
      ``max_condition`` (the worst node of F + G), ``closed_loop_radius``
      and ``causal_leakage`` (there the share of the weights' energy at
      lags >= n/2, which the grid wraps onto its positive lags).
    * any grid density: the window route (``_solve_by_window``), the
      block-Toeplitz normal equations B c = d on ``window`` coefficients,
      with one B and one Cholesky factor for all the functionals.  Its
      ``delta`` converges to the untruncated value geometrically in the
      window size.  Diagnostics ``cond_B``, ``orthogonality_residual`` (the
      relative residual ||B c - d|| / ||d||) and ``causal_leakage``.

    Both read the pair's verdict (``spectral._judge_pair``) and raise its
    :class:`MinimalityViolation` where the pair is singular.  Each
    :class:`EstimateSolution` holds the spectral characteristic h on the
    grid, the mean-square error delta (on the window route read off h: mean
    Re[(A - h)^T F conj(A - h) + h^T G conj(h)]) and the first ``window``
    lags of c = (A - h)^T F - h^T G.  ``causal_leakage`` is ``_causal_share``.
    """
    Fg, Gg = grids = _pair_grids(*(grids or (F, G)), n_lambda)
    functionals = {key: _as_functional(f, Fg.K)
                   for key, f in (a.items() if isinstance(a, dict) else [(None, a)])}
    for f in functionals.values():
        if f.shape[0] > window:
            raise ValueError(f"functional support {f.shape[0]} exceeds solver window {window}")
    if _rational_pair(F, G):
        solutions = _solve_by_filter(_judge_pair(F, G, grids), functionals, window)
    else:
        solutions = _solve_by_window(Fg, Gg, functionals, window)
    return solutions if isinstance(a, dict) else solutions[None]


def _solve_by_window(Fg, Gg, functionals, window):
    """The window route: B assembled for (Fg, Gg) and one solve on its one
    Cholesky factor (``_solve_pd``), the right-hand side d of each functional
    a, padded with zeros to ``window``, a column; one
    :class:`EstimateSolution` per key of ``functionals``.
    """
    n, K = Fg.n_lambda, Fg.K
    ops = assemble_operators(Fg, Gg, window=window)
    if ops.cond_B > 1e8:
        warnings.warn(
            f"normal equations are ill-conditioned (cond ~ {ops.cond_B:.3e}); "
            "reported error may lose digits",
            RuntimeWarning,
        )
    columns = []
    for a in functionals.values():
        A = _functional_on_grid(a, n)
        if Gg is None:  # d is a, padded to the window
            sym, d = A, np.concatenate([a, np.zeros((window - len(a), K))]).reshape(-1)
        else:  # sym = A^T F (F+G)^{-1}; block s of d is its lag -s coefficient
            sym = A - np.einsum("tn,tnk->tk", np.einsum("tk,tkn->tn", A, Gg.values), ops.inv_total)
            d = fourier_coefficients(sym, -np.arange(window)).reshape(-1)
        columns.append((A, sym, d))
    solved = _solve_pd(ops.B, np.reshape([d for _, _, d in columns], (len(columns), window * K)).T)

    solutions = {}
    for key, (A, sym, d), c in zip(functionals, columns, solved.T):
        c = c.reshape(window, K)
        residual = np.linalg.norm(ops.B @ c.reshape(-1) - d) / max(np.linalg.norm(d), 1e-300)
        h = sym - np.einsum("tn,tnk->tk", _functional_on_grid(c, n), ops.inv_total)
        e = A - h
        error = np.einsum("tk,tkn,tn->t", e, Fg.values, np.conj(e))
        if Gg is not None:
            error = error + np.einsum("tk,tkn,tn->t", h, Gg.values, np.conj(h))
        diagnostics = {
            "window": window,
            "cond_B": ops.cond_B,
            "causal_leakage": _causal_share(h),
            "orthogonality_residual": float(residual),
            "noisy": Gg is not None,
        }
        solutions[key] = EstimateSolution(coefficients=c, h_grid=h, error_grid=e,
                                          delta=float(np.mean(error.real)),
                                          diagnostics=diagnostics)
    return solutions


def _solve_by_filter(verdict, functionals, window):
    """Exact solve of a rational pair by one steady-state Kalman filter.

    On the pair's innovations model (``verdict.filter``), the
    stabilizing solution P of the filter's Riccati equation is the
    covariance of s(0) given the whole observed past, K_p the predictor
    gain and A - K_p C_y the closed loop.  The functional is v s(0) plus
    the future noise, with v = sum_j a(j)^T C_z A^j, so

        delta = v P v^* + sum_i || sum_{j >= i} a(j)^T G_{j-i} ||^2,

    G_0 = D_z and G_k = C_z A^{k-1} B.  The estimate's weight on y(-k) is
    c_k = v (A - K_p C_y)^{k-1} K_p.  On the grid from -pi, z^-n = (-1)^n,
    so the whole series folds onto lags 1 .. n with the weights
    v (A - K_p C_y)^{k-1} (I - (-1)^n (A - K_p C_y)^n)^{-1} K_p, formed by
    doubling; h on the grid (``evaluate_lag_series``, which wraps lag n
    onto lag 0) is exact at every node.  The model serves every key of
    ``functionals``; the verdict's grids serve the node check and the
    reported coefficients only.
    """
    Fg, Gg = verdict.grids
    n = Fg.n_lambda
    max_cond = verdict.node_condition()
    model, refusal = verdict.filter
    if refusal is not None:
        raise refusal
    (A, B, _, _, C_z, D_z), unit = model.system, model.unit
    P, closed, radius = model.P, model.closed, model.radius
    wrap = np.linalg.matrix_power(closed, n) * (-1.0) ** n
    folded = np.linalg.solve(np.eye(len(closed)) - wrap, model.gain)

    solutions = {}
    for key, a in functionals.items():
        CA = [C_z]                                   # C_z A^j, j = 0 .. J-1
        for _ in range(len(a) - 1):
            CA.append(CA[-1] @ A)
        CA = np.array(CA)
        v = np.einsum("jk,jkn->n", a, CA)
        impulse = np.concatenate([D_z[None], CA[:-1, :, :B.shape[1]]])   # G_k, C_z A^{k-1} B
        future = np.sum(np.abs(_factor_convolution(impulse, a)) ** 2)
        delta = (float(np.real(v @ P @ v.conj())) + float(future)) / unit / unit

        weights = _power_rows(v[None], closed, n) @ folded   # rows k - 1: lag k
        h = evaluate_lag_series(weights, -np.arange(1, n + 1), n)

        e = _functional_on_grid(a, n) - h
        cross = np.einsum("tk,tkn->tn", e, Fg.values)
        if Gg is not None:
            cross = cross - np.einsum("tk,tkn->tn", h, Gg.values)
        diagnostics = {
            "window": window,
            "max_condition": max_cond,
            "closed_loop_radius": radius,
            "causal_leakage": _causal_share(h),
            "noisy": Gg is not None,
        }
        solutions[key] = EstimateSolution(
            coefficients=fourier_coefficients(cross, -np.arange(window)),
            h_grid=h, error_grid=e, delta=delta, diagnostics=diagnostics)
    return solutions


@dataclass
class FactorizationResult:
    """Causal factor of a density: F = P P* with P(l) = sum_u d(u) e^{-iul}.

    ``coefficients`` holds d(u) for u = 0 .. U-1 with d(0) lower triangular
    with positive diagonal; ``factor_grid`` is P sampled on the frequency
    grid; ``residual`` is the sup-norm reconstruction gap of F - P P* for
    this factor, and ``density_sup`` the sup-norm of F (both taken on F
    scaled exactly to unit size).  Their ratio, ``relative_residual``, is
    the factor's scale-free quality; solvers and samplers refuse a factor
    whose ratio is not finite or exceeds ``FACTORIZATION_TOL``.
    ``iterations`` counts Wilson's sweeps that produced it: positive for a
    grid, 0 for the exact Riccati factor of a rational density.
    """

    coefficients: np.ndarray
    factor_grid: np.ndarray
    residual: float
    density_sup: float
    iterations: int

    @property
    def K(self):
        return self.coefficients.shape[1]

    @property
    def relative_residual(self):
        return self.residual / max(self.density_sup, 1e-300)

    @property
    def trimmed_coefficients(self):
        """d(u) up to the last that is not negligible (``_kept_lags``)."""
        return self.coefficients[:_kept_lags(self.coefficients)]


def _kept_lags(d):
    """The one negligible-tail rule: the number of d(u) up to the last whose
    Frobenius norm exceeds ``_NEGLIGIBLE_TAIL`` ||d(0)||, the norms taken on
    d scaled exactly by a power of two."""
    unit = d * math.ldexp(1.0, -math.frexp(float(np.max(np.abs(d))))[1])
    norms = np.linalg.norm(unit, axis=(1, 2))
    keep = np.nonzero(norms > _NEGLIGIBLE_TAIL * norms[0])[0]
    return int(keep[-1]) + 1 if keep.size else 1


def _causal_half(rows):
    """Project each row onto span{exp(-i u lambda) : u >= 0} with halved u = 0 term.

    ``rows`` is (..., n) with the grid on the last axis.  Shared-edge bins
    (u = 0 and the Nyquist bin) are halved so that plus(g) + plus(g)^* = g
    holds exactly for Hermitian-symmetric g: plus(g)_ji = conj(g_ij -
    plus(g)_ij), which ``_hermitian_causal_half`` rests on.  On the grid
    from -pi the coefficient of exp(-i u lambda) is (-1)^u times ifft bin
    u.  Keeping, halving and zeroing whole bins commute with that sign, so
    the projection acts on the ifft bins directly.  Returns the projection
    on the grid and its (halved) u = 0 coefficients.
    """
    n = rows.shape[-1]
    gamma = np.fft.ifft(rows, axis=-1)
    gamma[..., 0] *= 0.5
    gamma0 = gamma[..., 0].copy()
    if n % 2 == 0:
        gamma[..., n // 2] *= 0.5
    gamma[..., n // 2 + 1:] = 0.0
    return np.fft.fft(gamma, axis=-1), gamma0


@functools.cache
def _upper_pairs(K):
    """The (i, j), i <= j, of a K x K matrix in ``np.triu_indices`` order."""
    return tuple((i, j) for i in range(K) for j in range(i, K))


def _hermitian_causal_half(upper, K):
    """``_causal_half`` of a Hermitian (K, K, n) stack given its upper triangle.

    ``upper`` holds the rows g_ij, i <= j, in ``_upper_pairs(K)`` order.
    Only these rows are projected; each lower entry is conj(g_ij -
    plus(g)_ij).  Returns the (K, K, n) projection and the upper rows' u = 0
    coefficients.
    """
    plus, gamma0 = _causal_half(upper)
    out = np.empty((K, K, upper.shape[-1]), dtype=complex)
    for m, (i, j) in enumerate(_upper_pairs(K)):
        out[i, j] = plus[m]
        if i < j:
            out[j, i] = np.conj(upper[m] - plus[m])
    return out, gamma0


def _plane_product(a, b):
    """Per-node product a b of two (K, K, n) entry-plane stacks; a length-1
    node axis broadcasts.  Row i is sum_k a[i, k] b[k], added in ascending k."""
    K = a.shape[0]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    for i in range(K):
        row = out[i]
        np.multiply(a[i, 0], b[0], out=row)
        for k in range(1, K):
            row += a[i, k] * b[k]
    return out


def _upper_gram(a, b):
    """(a b^*)_ij per node for i <= j, in ``_upper_pairs`` order, from two
    (K, K, n) entry-plane stacks: a (K(K+1)/2, n) array of rows."""
    K = a.shape[0]
    b_conj = np.conj(b)
    out = np.empty((K * (K + 1) // 2, np.broadcast_shapes(a.shape, b.shape)[2]), dtype=complex)
    start = 0
    for i in range(K):
        rows = out[start:start + K - i]
        np.multiply(a[i, 0], b_conj[i:, 0], out=rows)
        for k in range(1, K):
            rows += a[i, k] * b_conj[i:, k]
        start += K - i
    return out


def _wilson_sweeps(values, sup):
    """Wilson's (1972) Newton sweeps on the grid: the factor and the sweeps run.

    Starting from the Cholesky factor of the lag-0 covariance, each sweep
    multiplies the current factor psi by plus(g) + U - U^*, where g =
    psi^{-1} F psi^{-*} + I, plus is ``_causal_half`` and U the strict upper
    triangle of plus(g)'s u = 0 coefficient, which keeps the new d(0) lower
    triangular.
    Converges quadratically for densities bounded away from singularity.

    The grid is moved once into contiguous (K, K, n) entry planes, every
    sweep runs there, and the factor is moved back once.  g and psi psi^*
    are Hermitian, so only their K(K+1)/2 upper rows are formed (g with a
    real diagonal); the causal projection transforms those rows and takes
    each lower entry from the Hermitian identity
    (``_hermitian_causal_half``).  The starting factor is one node that
    broadcasts over the grid, so the first sweep inverts it once; later
    sweeps take the per-node inverse of every node, both through
    ``_node_inverse``.  The sweeps stop when the iterate's residual, the
    largest node Frobenius norm of F - psi psi^* (each off-diagonal entry
    counted twice), reaches ``_FACTORIZE_TOL`` times ``sup`` (the largest
    node norm of F), or at ``_FACTORIZE_MAX_SWEEPS``.
    """
    K = values.shape[1]
    planes = np.ascontiguousarray(np.moveaxis(values, 0, 2))
    pairs = _upper_pairs(K)
    upper = np.array([planes[i, j] for i, j in pairs])
    weight = np.array([1.0 if i == j else 2.0 for i, j in pairs])
    gamma0 = np.mean(values, axis=0)
    gamma0 = (gamma0 + gamma0.conj().T) / 2
    # one node that broadcasts over the grid: the first sweep inverts it once
    psi = np.linalg.cholesky(gamma0)[:, :, None]
    iterations = 0
    for iterations in range(1, _FACTORIZE_MAX_SWEEPS + 1):
        psi_inv = np.ascontiguousarray(np.moveaxis(_node_inverse(np.moveaxis(psi, 2, 0)), 0, 2))
        g = _upper_gram(_plane_product(psi_inv, planes), psi_inv)
        for m, (i, j) in enumerate(pairs):
            if i == j:
                g[m] = g[m].real + 1.0
        mult, g0 = _hermitian_causal_half(g, K)
        for m, (i, j) in enumerate(pairs):
            if i < j:
                mult[i, j] += g0[m]
                mult[j, i] -= np.conj(g0[m])
        psi = _plane_product(psi, mult)
        gap = upper - _upper_gram(psi, psi)
        norm2 = weight @ (gap.real ** 2 + gap.imag ** 2)
        if math.sqrt(float(np.max(norm2))) / sup <= _FACTORIZE_TOL:
            break
    return np.moveaxis(psi, 2, 0), iterations


def _power_rows(rows, power, count):
    """rows (b, s) times power^u for u = 0 .. count - 1, stacked as one
    (count b, s) matrix, by doubling."""
    size = count * rows.shape[0]
    while rows.shape[0] < size:
        rows = np.concatenate([rows, rows @ power])
        power = power @ power
    return rows[:size]


def spectral_factorize(F, n_lambda=None):
    """Canonical (causal, minimum-phase) factorization of a Hermitian PD
    matrix density.

    A :class:`RationalDensity` is factorized exactly by its innovations
    model, the filter route's (``iterations`` 0; the closed loop is not
    judged), a grid density by Wilson's sweeps (``_wilson_sweeps``).  The
    grid is divided by 4^k, the even power of two nearest its largest
    entry; the rank floor, the stop test and the residual are taken on that
    unit grid, and the factor is multiplied back by 2^k.  Both scalings are
    exact, so a grid gets the same sweeps and factor, bit for bit, at any
    scale that neither under- nor overflows.  A rational factor's exact
    lags are formed by doubling their count until the second half of them
    is negligible (``_kept_lags``), or up to ``_FACTOR_MAX_LAGS``; a grid
    factor's are the sweeps' causal coefficients that the grid resolves,
    lags 0 .. n/2 - 1.  They are rotated so that d(0) is lower triangular
    with a positive diagonal, and the residual of that factor is taken
    against the density on the grid, every lag wrapped onto it.

    Returns the factor however far the sweeps got, with its own residual,
    for its user to judge.  Raises :class:`FactorizationError` for a
    density it cannot start on: on fewer than 2 nodes (no causal lag),
    non-finite, zero, with smallest eigenvalue below ``_FACTORIZE_PD_FLOOR``
    times the largest modulus of its entries (rank deficient), or a
    rational one whose Riccati solve fails.
    """
    Fg = as_grid(F, n_lambda)
    n = Fg.n_lambda
    if n < 2:
        raise FactorizationError(f"cannot factorize on a {n}-node grid: need at least 2 nodes")
    scale = float(np.max(np.abs(Fg.values)))
    if not math.isfinite(scale):
        raise FactorizationError("density has non-finite values on the grid")
    if scale == 0.0:
        raise FactorizationError("cannot factorize the zero density")
    root = math.ldexp(1.0, -(math.frexp(scale)[1] // 2))     # 2^-k
    values = Fg.values * root * root
    eig_min = float(_hermitian_eigenvalues(values).min())
    if eig_min < _FACTORIZE_PD_FLOOR * (scale * root * root):
        raise FactorizationError(
            f"density is rank deficient on the grid (min eigenvalue {eig_min / root / root:.3e}); "
            "reduced-rank factorization is not supported"
        )

    sup = float(np.max(np.linalg.norm(values, axis=(1, 2))))
    if isinstance(F, RationalDensity):
        # exact lags d(0) = chol(Re) / unit, d(u) = C_y A^{u-1} K_p chol(Re) / unit
        try:
            model = _innovations(F, None)
            head = np.linalg.cholesky(model.innovation)
        except (MinimalityViolation, np.linalg.LinAlgError) as exc:
            raise FactorizationError(
                f"no stabilizing Riccati solution ({exc.__cause__ or exc})") from None
        A, _, C_y = model.system[:3]
        gain = model.gain @ head
        # the count starts above twice the state size r: r zero lags in a row
        # make every later lag zero (Cayley-Hamilton), so a negligible second
        # half is no gap in an oscillating tail
        count = 1 << (2 * len(A)).bit_length()
        while True:
            tail = _power_rows(C_y, A, count - 1) @ gain
            d = np.concatenate([head[None], tail.reshape(-1, *head.shape)])
            if 2 * _kept_lags(d) <= count or count >= _FACTOR_MAX_LAGS:
                break
            count *= 2
        d, iterations = d * (root / model.unit), 0
    else:
        psi, iterations = _wilson_sweeps(values, sup)
        # causal coefficients of psi: d(u) is the coefficient of exp(-i u lambda);
        # with no sweep run, psi is still the one starting node
        d = fourier_coefficients(np.broadcast_to(psi, values.shape), np.arange(n // 2))

    # rotate so d(0) is lower triangular with positive diagonal
    q, r = np.linalg.qr(d[0].conj().T)
    d = d @ (q * np.where(np.real(np.diag(r)) < 0, -1.0, 1.0))

    # residual of the reconstruction actually returned (from coefficients)
    p_from_d = evaluate_lag_series(d, -np.arange(len(d)), n)
    recon = _node_matmul(p_from_d, np.conj(np.swapaxes(p_from_d, 1, 2)))
    residual = float(np.max(np.linalg.norm(values - recon, axis=(1, 2))))
    return FactorizationResult(coefficients=d / root, factor_grid=p_from_d / root,
                               residual=residual / root / root,
                               density_sup=sup / root / root, iterations=iterations)


def _checked_factor(fac, prefix=""):
    """``fac``, or :class:`FactorizationError` when its relative residual is
    not finite or exceeds ``FACTORIZATION_TOL``: it factors another density."""
    if not fac.relative_residual <= FACTORIZATION_TOL:
        raise FactorizationError(
            f"{prefix}factor's relative residual {fac.relative_residual:.3e} "
            f"exceeds {FACTORIZATION_TOL:.1e}")
    return fac


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


def solve_by_factorization(fac, a):
    """Noiseless extrapolation through the canonical factorization.

    The error needs only the causal coefficients d(u):

        delta = sum_{j >= 0} || sum_p d(p)^T a(p + j) ||^2,

    a finite sum once ``a`` has finite support.  The spectral
    characteristic h = A - S^T P^{-1}, S the series of that sum, needs the
    pointwise inverse of the factor; if the factor is singular at a grid
    node, delta is still returned and ``h_grid`` and ``coefficients`` are
    None (``h_lag_coefficients`` then raises).  Its
    ``causal_leakage`` checks that P is minimum phase.  Raises
    :class:`FactorizationError` for a factor whose relative residual
    exceeds ``FACTORIZATION_TOL``.
    """
    _checked_factor(fac)
    a = _as_functional(a, fac.K)
    d = fac.coefficients

    conv = _factor_convolution(d, a)
    delta = float(np.sum(np.abs(conv) ** 2))

    n = fac.factor_grid.shape[0]
    A = _functional_on_grid(a, n)
    S = evaluate_lag_series(conv, np.arange(len(a)), n)
    diagnostics = {"factorization_residual": fac.residual, "noisy": False}
    try:
        q = _node_inverse(fac.factor_grid)
    except np.linalg.LinAlgError:
        return EstimateSolution(coefficients=None, h_grid=None, error_grid=None,
                                delta=delta, diagnostics=diagnostics)
    h = A - np.einsum("tnk,tn->tk", q, S)
    diagnostics["causal_leakage"] = _causal_share(h)
    # the window coefficients from C = (A - h)^T F = S^T P^*; the series
    # coefficient of exp(i*j*lambda) integrates against exp(-i*j*lambda)
    Ct = np.einsum("tk,tnk->tn", S, np.conj(fac.factor_grid))
    c = fourier_coefficients(Ct, -np.arange(len(a)))
    return EstimateSolution(coefficients=c, h_grid=h, error_grid=A - h, delta=delta,
                            diagnostics=diagnostics)


def functional_variance(F, a):
    """Exact variance of the functional: (1/2pi) int A^T F conj(A)."""
    Fg = as_grid(F)
    A = _functional_on_grid(_as_functional(a, Fg.K), Fg.n_lambda)
    vals = np.einsum("tk,tkn,tn->t", A, Fg.values, np.conj(A))
    return float(np.mean(vals.real))


def oracle_solve(F, G, a, j_past=DEFAULT_J_PAST, n_lambda=None):
    """Brute-force finite-past projection error, from covariances alone.

    Reads the second moments of the functional and of the observations at
    times -j_past .. -1 from their joint covariance and evaluates

        Var(A) - rho* Gram^{-1} rho.

    Independent of the operator route; converges to the solver's delta
    from above as ``j_past`` grows.  A singular Gram matrix is
    ridge-stabilized and the shift reported through a warning.  It shares
    the pair's grid rule (``spectral._pair_grids``) and no verdict.
    """
    Fg, Gg = _pair_grids(F, G, n_lambda)
    a = _as_functional(a, Fg.K)
    cov = joint_covariance(Fg, Gg, j_past, len(a))
    P = j_past * Fg.K
    a_vec = a.ravel()
    var = float(np.real(a_vec @ cov[P:, P:] @ np.conj(a_vec)))
    cross = cov[P:, :P].T @ a_vec
    gram = (cov[:P, :P] + cov[:P, :P].conj().T) / 2
    shift = 0.0
    while True:
        try:
            solved = scipy.linalg.cho_solve(
                scipy.linalg.cho_factor(gram + shift * np.eye(P)), np.conj(cross)
            )
            break
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
            shift = max(shift * 10, 1e-12 * max(1.0, float(np.abs(gram).max())))
            if shift > 1e-2:
                raise
    if shift > 0.0:
        warnings.warn(
            f"observation Gram matrix singular; ridge-stabilized with shift {shift:.3e}",
            RuntimeWarning,
        )
    # estimator is bilinear in the observations, so the projection reduces
    # the error by cross^T Gram^{-1} conj(cross)
    mse = var - float(np.real(cross @ solved))
    return mse
