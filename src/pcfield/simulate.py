"""Monte Carlo synthesis of channel sequences and empirical error checks.

Channels are synthesized by the moving-average representation that the
canonical factorization provides: with F = P P* and P(l) = sum_u d(u)
exp(-i*u*l), the sequence

    zeta(j) = sum_{u >= 0} d(u) w(j - u)

driven by circular complex Gaussian innovations w has spectral density F.
A draw takes a density or its :class:`FactorizationResult` (factorize once,
draw many paths).  A rational density is factorized exactly, read off the
filter's innovations model; a grid density by Wilson's sweeps, whose factor
comes back however far they got.  A draw refuses a factor whose relative
residual exceeds ``FACTORIZATION_TOL`` (:class:`FactorizationError`): its
paths would have another density.
``synthesize_field`` makes real field samples in one batched synthesis.

``empirical_mse`` replays the solved estimator on simulated paths and
compares the sample mean-square error with the theoretical value.  It does
not factorize.  The joint vector of the observed past (zeta + theta)(-L ..
-1) and the signal future zeta(0 .. J-1) has a block-Toeplitz covariance,
which ``spectral.joint_covariance`` builds and one Cholesky decomposition
factors.  The realized functional and the estimate are two linear maps of
that factor's innovations; one thin QR of the two maps gives a 2 x 2
triangle R, and each trial draws the pair as u R from two innovations u.
This is the joint vector's law of the pair, exactly.  The covariance holds
((L + J) * K)^2 entries, so memory grows with the square of ``n_steps``
but not with the number of draws; ``check_joint_size`` refuses a joint
vector longer than ``MAX_JOINT_SIZE``.
``joint_covariance`` is what this check shares with the covariance oracle,
which reads three of its blocks; neither shares code with the operator
route it checks.
"""

from dataclasses import dataclass

import numpy as np

from . import harmonics
from .blocking import _as_functional, _basis_matrix
from .extrapolate import (
    FactorizationError,
    FactorizationResult,
    spectral_factorize,
    _checked_factor,
)
from .spectral import joint_covariance


class PastWindowError(ValueError):
    """The simulated past window cannot hold the estimator's weights."""


# Trials drawn from each SeedSequence substream of ``empirical_mse``; a
# seed and a trial count fix every draw.
_BATCH_TRIALS = 1000

# Largest joint vector (n_steps + J) * K that ``empirical_mse`` draws: its
# covariance and Cholesky factor are dense complex matrices of 16 * size^2
# bytes each, 64 MiB at this limit.
MAX_JOINT_SIZE = 2048


def check_joint_size(n_steps, J, K):
    """Raise :class:`PastWindowError` when ``n_steps`` past and ``J`` future
    K-vectors make a joint vector longer than ``MAX_JOINT_SIZE``."""
    size = (n_steps + J) * K
    if size > MAX_JOINT_SIZE:
        raise PastWindowError(
            f"{n_steps} past and {J} future steps of {K} components make a joint vector "
            f"of {size} entries, whose covariance would take {16 * size ** 2 / 2 ** 20:.0f} "
            f"MiB; the limit is {MAX_JOINT_SIZE} entries")


@dataclass(frozen=True)
class SimulationConfig:
    """Trial count, past-window length and base seed of one experiment."""

    seed: int
    n_trials: int = 10_000
    n_steps: int = 64

    def __post_init__(self):
        if self.n_trials < 1 or self.n_steps < 1:
            raise ValueError("n_trials and n_steps must be positive")


@dataclass
class TrialSummary:
    """Outcome of a Monte Carlo error measurement."""

    mse: float
    stderr: float
    n_trials: int
    seed: int
    realized: np.ndarray = None
    estimated: np.ndarray = None


def _complex_innovations(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _ma_filter(d, w, n_out):
    """out(t) = sum_u d(u) w(t - u) for batched innovation rows.

    ``w`` has shape (..., n_out + U - 1, K) with time increasing along the
    second-to-last axis; index U - 1 of w aligns with output time 0.
    """
    U = d.shape[0]
    out = np.zeros(w.shape[:-2] + (n_out, w.shape[-1]), dtype=complex)
    for u in range(U):
        start = U - 1 - u
        out += w[..., start:start + n_out, :] @ d[u].T
    return out


def simulate_channel(F, n_steps, seed):
    """One sample path of the stationary vector sequence with density F.

    ``F`` may be the density's :class:`FactorizationResult`: same path, no
    refactorization.  The factor's negligible tail is cut
    (``FactorizationResult.trimmed_coefficients``).  Fixed ``seed`` gives a
    byte-identical path; the lag-0 covariance converges to the density's.
    """
    fac = F if isinstance(F, FactorizationResult) else spectral_factorize(F)
    d = _checked_factor(fac, "cannot sample: ").trimmed_coefficients
    rng = np.random.default_rng(seed)
    w = _complex_innovations(rng, (n_steps + d.shape[0] - 1, d.shape[1]))
    return _ma_filter(d, w, n_steps)


def empirical_lag_covariance(path, lag):
    """Sample covariance E[zeta(j + lag) zeta(j)^*] of one path."""
    n = path.shape[0]
    if not 0 <= lag < n:
        raise ValueError(f"lag must be in [0, {n}), got {lag}")
    lead = path[lag:]
    base = path[: n - lag]
    return np.einsum("tk,tn->kn", lead, np.conj(base)) / (n - lag)


def synthesize_field(channel_paths, cfg, grid, m_max):
    """Real field samples (n_periods * S, n_nodes) from blocked channel paths.

    ``channel_paths`` maps (m, l), m <= m_max, to (n_periods, K) arrays.  The
    +/- frequency components are conjugate-paired (reality is a property of
    the field, not of the complex channel model), and the channels' series
    form one coefficient series for one batched harmonic synthesis.
    """
    if not channel_paths:
        raise ValueError("no channels supplied")
    if len({np.shape(v)[0] for v in channel_paths.values()}) > 1:
        raise ValueError("all channels need the same number of periods")
    columns = [harmonics.flat_index(m, l) for m, l in channel_paths]
    if max(channel_paths)[0] > m_max:
        raise ValueError(f"channel {max(channel_paths)} has degree above m_max={m_max}")
    values = np.array(list(channel_paths.values()), dtype=complex)
    # (channels, periods, S) -> one time series per channel
    series = (_pair_conjugate(values, cfg) @ _basis_matrix(cfg).T).reshape(len(values), -1)
    coefficients = np.zeros((series.shape[1], harmonics.n_harmonics(m_max)))
    coefficients[:, columns] = series.real.T
    return harmonics.synthesize_field(coefficients, m_max, grid)


def _pair_conjugate(values, cfg):
    """Project coefficients (..., K) onto the real-field constraint, in place."""
    K = cfg.n_components
    values[..., 0] = values[..., 0].real
    for o in range(1, (K - 1) // 2 + 1):
        plus, minus = 2 * o - 1, 2 * o
        mean = 0.5 * (values[..., plus] + np.conj(values[..., minus]))
        values[..., plus] = mean
        values[..., minus] = np.conj(mean)
    if K % 2 == 0 and K > 1:
        # unpaired highest frequency cannot appear in a real field
        values[..., K - 1] = 0.0
    return values


def empirical_mse(solution, F, G, a, config, keep_trials=False):
    """Monte Carlo mean-square error of the solved estimator.

    The estimator's time-domain weights on the observed past and the
    functional on the signal future are read through one Cholesky factor
    of the two windows' joint covariance, as two columns V = [future,
    past]; a thin QR V = Q R leaves the 2 x 2 triangle R.  Each of the
    ``config.n_trials`` trials draws u with iid CN(0, 1) entries and takes
    (realized, estimated) = u R: for innovations w of the whole joint
    vector, w Q has the law of u because Q^H Q = I.  Returns a
    :class:`TrialSummary` with the sample mean and its standard error.
    ``F`` and ``G`` are densities.  :class:`PastWindowError` means
    ``config.n_steps`` is too short for the estimator's memory, 2 * n_steps
    reaches half the solution's frequency grid, or the joint vector exceeds
    ``MAX_JOINT_SIZE``.  :class:`FactorizationError` means the covariance is
    singular, as for a signal density of reduced rank.
    """
    a = _as_functional(a, F.K)
    J, K = a.shape
    L = config.n_steps
    check_joint_size(L, J, K)
    try:
        extended = solution.h_lag_coefficients(2 * L)
    except ValueError as exc:
        raise PastWindowError(
            f"{L} steps read the estimator's weights to lag {2 * L}: {exc}") from None
    weights = extended[:L]
    total_mass = float(np.sum(np.abs(extended) ** 2))
    tail_mass = float(np.sum(np.abs(extended[L:]) ** 2))
    if total_mass > 0 and tail_mass / total_mass > 1e-6:
        raise PastWindowError(f"estimator keeps {tail_mass / total_mass:.2e} of its weight "
                              f"beyond the simulated past window; increase n_steps above {L}")

    try:
        factor = np.linalg.cholesky(joint_covariance(F, G, L, J))
    except np.linalg.LinAlgError:
        raise FactorizationError("cannot sample: the joint covariance of the observed past "
                                 "and the signal future is singular") from None
    # with joint = innovations @ factor.T, each functional of the joint
    # vector is one product with the innovations; weights row i applies at
    # time -(i+1), i.e. past position L-1-i
    past = factor[:L * K].T @ weights[::-1].ravel()
    future = factor[L * K:].T @ a.ravel()
    # w @ [future, past] = (w Q) R, and w Q is again iid CN(0, 1) because
    # Q^H Q = I: each trial draws the two functionals from two innovations
    gram_root = np.linalg.qr(np.column_stack([future, past]), mode="r")

    starts = range(0, config.n_trials, _BATCH_TRIALS)
    children = np.random.SeedSequence(config.seed).spawn(len(starts))
    pairs = np.empty((config.n_trials, 2), dtype=complex)
    for start, batch_seed in zip(starts, children):
        rows = pairs[start:start + _BATCH_TRIALS]
        rows[:] = _complex_innovations(np.random.default_rng(batch_seed), rows.shape) @ gram_root
    realized, estimated = pairs.T

    sq = np.abs(realized - estimated) ** 2
    mse = float(sq.mean())
    stderr = float(sq.std(ddof=1) / np.sqrt(config.n_trials))
    return TrialSummary(
        mse=mse, stderr=stderr, n_trials=config.n_trials, seed=config.seed,
        realized=realized if keep_trials else None,
        estimated=estimated if keep_trials else None,
    )
