"""Spherical-harmonic machinery on the unit sphere.

Dimension counts of harmonic spaces in ambient dimension ``n >= 3``, real
orthonormal harmonics on the 2-sphere (``n = 3``), and quadrature-based
analysis / synthesis of band-limited fields, batched over leading axes.
Gegenbauer polynomials for general ``n`` are ``scipy.special.eval_gegenbauer``.

Every harmonic value comes from one broadcast kernel around one
``scipy.special.sph_legendre_p`` call (orthonormal, no factorials), finite
through degree 645 on SciPy 1.17; the kernel refuses higher degrees.

A :class:`SphereGrid` holds its nodes in the theta-major product layout of
:func:`gauss_legendre_grid` (node ``i * n_phi + j`` sits at colatitude ``i``
and longitude ``j``) and refuses any other order.  The design matrix uses
that layout to separate the variables (Driscoll & Healy 1994): the kernel
runs on the ``n_theta`` colatitudes broadcast against the ``n_phi``
longitudes, so the Legendre factor is evaluated once per colatitude and the
cosine / sine once per longitude, with the same values, bit for bit, as a
per-node evaluation.

Conventions
-----------
Real harmonics, no Condon-Shortley phase.  Within degree ``m`` the order
index ``l`` runs from 1 to ``2m + 1``: the zonal harmonic first, then the
cosine / sine pair of each azimuthal order in ascending order,

    l = 1        zonal (order 0)
    l = 2o       cos(o * phi) harmonic,  o = 1 .. m
    l = 2o + 1   sin(o * phi) harmonic.

All sphere points are (theta, phi) with colatitude theta in [0, pi] and
longitude phi in [0, 2*pi).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_legendre, sph_legendre_p


class GridResolutionError(ValueError):
    """Raised when a sphere grid cannot resolve the requested degree."""


def harmonic_count(m, n):
    """Number of linearly independent spherical harmonics of degree ``m``.

    For ``n = 3`` this reduces to the familiar ``2m + 1``.
    """
    if n < 3:
        raise ValueError(f"ambient dimension must be >= 3, got {n}")
    if m < 0:
        raise ValueError(f"degree must be >= 0, got {m}")
    return (2 * m + n - 2) * math.factorial(m + n - 3) // (
        math.factorial(n - 2) * math.factorial(m)
    )


@dataclass(frozen=True)
class HarmonicIndex:
    """Degree / order / ambient-dimension triple identifying one harmonic."""

    m: int
    l: int
    n: int = 3

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"ambient dimension must be >= 3, got {self.n}")
        if self.m < 0:
            raise ValueError(f"degree must be >= 0, got {self.m}")
        count = harmonic_count(self.m, self.n)
        if not 1 <= self.l <= count:
            raise ValueError(
                f"order l={self.l} outside [1, {count}] for degree {self.m}, n={self.n}"
            )


def flat_index(m, l):
    """Position of harmonic (m, l) in the degree-major flattening (n = 3)."""
    if not (m >= 0 and 1 <= l <= 2 * m + 1):
        raise ValueError(f"harmonic (m, l) = ({m}, {l}) needs m >= 0 and 1 <= l <= 2m + 1")
    return m * m + l - 1


def n_harmonics(m_max):
    """Total number of harmonics of degree <= m_max on the 2-sphere."""
    return (m_max + 1) ** 2


def _harmonic_values(m, l, theta, phi):
    """Real orthonormal harmonics (m, l) at points (theta, phi), broadcast:
    one ``sph_legendre_p`` call and one cosine / sine select (the zonal
    harmonic takes the cosine branch, where cos(0 * phi) = 1).  Raises
    ``ValueError`` naming the lowest degree whose values are not finite."""
    order = l // 2
    # sph_legendre_p carries the Condon-Shortley factor (-1)^order; remove it.
    leg = sph_legendre_p(m, order, theta)[0] * np.where(order % 2 == 0, 1.0, -1.0)
    if not np.isfinite(leg).all():
        degree = np.min(np.broadcast_to(m, leg.shape)[~np.isfinite(leg)])
        raise ValueError(f"harmonic values of degree {degree} are not finite")
    scale = np.where(order == 0, 1.0, math.sqrt(2.0))
    angle = order * np.asarray(phi, dtype=float)
    trig = np.where((l % 2 == 0) | (order == 0), np.cos(angle), np.sin(angle))
    return scale * leg * trig


def evaluate_harmonic(idx, theta, phi):
    """Real orthonormal spherical harmonic at points of the 2-sphere (n = 3)."""
    if idx.n != 3:
        raise ValueError(f"point evaluation is implemented for n = 3 only, got n = {idx.n}")
    return _harmonic_values(idx.m, idx.l, theta, phi)


@dataclass
class SphereGrid:
    """Quadrature grid on the 2-sphere.

    ``theta``, ``phi`` and ``weights`` are flat arrays of equal length; the
    weights sum to the sphere's surface area 4*pi.  ``n_theta`` and
    ``n_phi`` size the product grid of :func:`gauss_legendre_grid`;
    analysis routines check band limits from them.  The nodes must be in
    that grid's theta-major product layout, ``theta = repeat(axis, n_phi)``
    and ``phi = tile(axis, n_theta)``, which :func:`design_matrix` reads as
    ``theta[::n_phi]`` and ``phi[:n_phi]``; any other order raises
    ``ValueError``.
    """

    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray
    n_theta: int
    n_phi: int

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        self.phi = np.asarray(self.phi, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if not (self.theta.shape == self.phi.shape == self.weights.shape):
            raise ValueError("theta, phi, weights must have matching shapes")
        n_theta, n_phi = self.n_theta, self.n_phi
        if n_phi < 1 or n_theta * n_phi != self.theta.size or not (
                np.array_equal(self.theta, np.repeat(self.theta[::n_phi], n_phi))
                and np.array_equal(self.phi, np.tile(self.phi[:n_phi], n_theta))):
            raise ValueError(
                f"nodes are not the theta-major product of {n_theta} colatitudes "
                f"and {n_phi} longitudes (theta = repeat(theta_axis, n_phi), "
                f"phi = tile(phi_axis, n_theta))"
            )

    @property
    def n_nodes(self):
        return self.theta.size

    @property
    def area(self):
        return float(self.weights.sum())

    def max_resolved_degree(self):
        """Largest degree whose harmonics this grid integrates exactly."""
        return min(self.n_theta - 1, (self.n_phi - 1) // 2)


def gauss_legendre_grid(m_max):
    """Product quadrature grid resolving harmonics up to degree ``m_max``.

    Gauss-Legendre nodes in cos(theta) times a uniform periodic grid in
    phi; exact for band-limited integrands of degree <= 2*m_max + 1.
    """
    if m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    n_theta = m_max + 1
    n_phi = max(2 * m_max + 1, 1)
    x, w = roots_legendre(n_theta)
    theta = np.arccos(x)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    theta_full = np.repeat(theta, n_phi)
    phi_full = np.tile(phi, n_theta)
    weights = np.repeat(w, n_phi) * (2.0 * math.pi / n_phi)
    return SphereGrid(theta_full, phi_full, weights, n_theta=n_theta, n_phi=n_phi)


def design_matrix(m_max, grid):
    """Matrix of harmonic values, shape (n_nodes, (m_max + 1)^2), from the
    kernel on the grid's colatitudes times its longitudes, flattened in the
    grid's theta-major node order."""
    m = np.repeat(np.arange(m_max + 1), 2 * np.arange(m_max + 1) + 1)
    l = np.arange(n_harmonics(m_max)) - m * m + 1
    theta = grid.theta[::grid.n_phi, None, None]
    phi = grid.phi[:grid.n_phi, None]
    return _harmonic_values(m, l, theta, phi).reshape(grid.n_nodes, l.size)


def decompose_field(samples, m_max, grid):
    """Project field samples (..., n_nodes) onto harmonics of degree <= m_max.

    Returns coefficients (..., (m_max + 1)^2) in degree-major order (use
    :func:`flat_index` to address a single (m, l) entry), from one design
    matrix for the whole batch.  The grid must resolve degree ``m_max``;
    products of two band-limited factors are then integrated exactly and
    analysis inverts :func:`synthesize_field` up to rounding.
    """
    samples = np.asarray(samples)
    if samples.shape[-1:] != (grid.n_nodes,):
        raise ValueError(f"samples shape {samples.shape} does not match grid "
                         f"(..., {grid.n_nodes})")
    resolved = grid.max_resolved_degree()
    if resolved < m_max:
        raise GridResolutionError(
            f"grid with n_theta={grid.n_theta}, n_phi={grid.n_phi} resolves "
            f"degree {resolved} only; degree {m_max} needs n_theta >= {m_max + 1} "
            f"and n_phi >= {2 * m_max + 1}"
        )
    return (grid.weights * samples) @ design_matrix(m_max, grid)


def synthesize_field(coefficients, m_max, grid):
    """Band-limited field samples (..., n_nodes) from harmonic coefficients
    (..., (m_max + 1)^2), with one design matrix for the whole batch."""
    coefficients = np.asarray(coefficients)
    expected = n_harmonics(m_max)
    if coefficients.shape[-1:] != (expected,):
        raise ValueError(f"expected {expected} coefficients for m_max={m_max}, "
                         f"got shape {coefficients.shape}")
    return coefficients @ design_matrix(m_max, grid).T
