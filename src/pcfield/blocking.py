"""Period blocking of continuous-time channels.

A process observed over periods of length ``T`` is rewritten as a sequence
of coefficient vectors with respect to the orthonormal Fourier basis

    e_k(u) = T^{-1/2} * exp(2*pi*i * nu_k * u / T),   k = 1, 2, ...

on ``[0, T)``, where ``nu_k = (-1)^k * floor(k / 2)`` walks the integer
frequencies 0, 1, -1, 2, -2, ...  Keeping the first ``K`` basis functions
turns each period into a vector in ``C^K``; a periodically correlated
process becomes a stationary vector sequence in these coordinates.
"""

import csv
from dataclasses import dataclass, field

import numpy as np


class BlockingError(ValueError):
    """Raised for sample windows that do not cover whole periods."""


def basis_frequency(k):
    """Signed integer frequency of basis function ``k`` (1-based)."""
    if k < 1:
        raise ValueError(f"basis index must be >= 1, got {k}")
    return (-1) ** k * (k // 2)


@dataclass(frozen=True)
class BlockingConfig:
    """Period length, retained component count, and sample spacing.

    ``period / dt`` must be an integer number of samples per period, at
    least ``2 * n_components`` so every retained frequency is resolved.
    """

    period: float
    n_components: int
    dt: float

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if self.n_components < 1:
            raise ValueError(
                f"need at least one component, got {self.n_components}"
            )
        ratio = self.period / self.dt
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ValueError(
                f"period/dt = {ratio} is not an integer sample count"
            )
        if round(ratio) < 2 * self.n_components:
            raise ValueError(
                f"{round(ratio)} samples per period cannot resolve "
                f"{self.n_components} components; need >= {2 * self.n_components}"
            )

    @property
    def samples_per_period(self):
        return round(self.period / self.dt)

    def frequencies(self):
        return np.array([basis_frequency(k) for k in range(1, self.n_components + 1)])


def _basis_matrix(cfg):
    """(samples_per_period, K) values of the retained basis functions."""
    u = cfg.dt * np.arange(cfg.samples_per_period)
    nu = cfg.frequencies()
    return np.exp(2j * np.pi * np.outer(u, nu) / cfg.period) / np.sqrt(cfg.period)


@dataclass
class ChannelVectorSequence:
    """Blocked coefficients of one channel: ``values[j]`` is in ``C^K``.

    ``discarded_energy[j]`` reports the fraction of each period's sampled
    energy not captured by the retained components, so truncation error is
    observable.
    """

    values: np.ndarray
    config: BlockingConfig
    discarded_energy: np.ndarray = field(default=None)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != 2 or self.values.shape[1] != self.config.n_components:
            raise ValueError(
                f"values must be (n_periods, {self.config.n_components}), "
                f"got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite coefficient encountered")

    @property
    def n_periods(self):
        return self.values.shape[0]


def block_coefficients(samples, cfg):
    """Project sampled periods onto the retained basis functions.

    ``samples`` covers consecutive periods at spacing ``cfg.dt``; its length
    must be a whole multiple of the samples per period.  The projection
    integral is evaluated by the trapezoidal rule on the periodic extension
    of each period, which is exact for the retained frequencies.
    """
    samples = np.asarray(samples)
    if not np.all(np.isfinite(samples)):
        raise ValueError("non-finite sample encountered")
    S = cfg.samples_per_period
    n_periods, rem = divmod(samples.size, S)
    if rem:
        covered = rem * cfg.dt
        raise BlockingError(
            f"final period truncated: last block covers [0, {covered}) of "
            f"[0, {cfg.period}); supply {S - rem} more samples or drop {rem}"
        )
    basis = _basis_matrix(cfg)
    blocks = samples.reshape(n_periods, S)
    values = cfg.dt * (blocks @ np.conj(basis))
    total = cfg.dt * np.sum(np.abs(blocks) ** 2, axis=1)
    kept = np.sum(np.abs(values) ** 2, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        discarded = np.where(total > 0, np.clip(1.0 - kept / total, 0.0, None), 0.0)
    return ChannelVectorSequence(values, cfg, discarded_energy=discarded)


def reconstruct_segment(vector, cfg):
    """Sample the basis expansion of one coefficient vector over a period."""
    vector = np.asarray(vector, dtype=complex)
    if vector.shape != (cfg.n_components,):
        raise ValueError(
            f"vector must have shape ({cfg.n_components},), got {vector.shape}"
        )
    return _basis_matrix(cfg) @ vector


@dataclass
class ChannelFunctional:
    """Blocked coefficients of a deterministic weight function.

    ``absolute_sum`` and ``weighted_square_sum`` are the two summability
    diagnostics sum_j ||a(j)|| and sum_j (j+1) ||a(j)||^2.
    """

    coefficients: np.ndarray
    config: BlockingConfig
    absolute_sum: float
    weighted_square_sum: float


def _as_functional(a, K):
    """A functional (an array or a :class:`ChannelFunctional`) as (J, K) complex
    coefficients; another K, or J = 0, is one ``ValueError``."""
    a = np.atleast_2d(np.asarray(getattr(a, "coefficients", a), dtype=complex))
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] != K:
        raise ValueError(f"functional of shape {a.shape} does not fit densities with "
                         f"K={K}: need (J, {K}) with J >= 1")
    return a


def functional_to_spec(samples, cfg):
    """Block a sampled weight function defined on ``[0, J*T)``.

    Returns the per-period coefficient vectors together with the
    summability diagnostics of the resulting functional.
    """
    seq = block_coefficients(samples, cfg)
    norms = np.linalg.norm(seq.values, axis=1)
    j = np.arange(seq.n_periods)
    return ChannelFunctional(
        coefficients=seq.values,
        config=cfg,
        absolute_sum=float(norms.sum()),
        weighted_square_sum=float(((j + 1) * norms**2).sum()),
    )


def read_samples_csv(path):
    """Read a sampled function from CSV with columns ``t``, ``value``.

    Rows are sorted by ``t``; the sample spacing must be uniform (it is
    checked against the first gap).  Returns (t, values).
    """
    t, values = [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"t", "value"} <= set(reader.fieldnames):
            raise ValueError(f"{path}: expected columns t, value")
        for row in reader:
            t.append(float(row["t"]))
            values.append(float(row["value"]))
    order = np.argsort(t)
    t = np.asarray(t, dtype=float)[order]
    values = np.asarray(values, dtype=float)[order]
    if t.size >= 3:
        gaps = np.diff(t)
        if np.max(np.abs(gaps - gaps[0])) > 1e-9 * max(abs(gaps[0]), 1.0):
            raise ValueError(f"{path}: sample spacing is not uniform")
    return t, values
