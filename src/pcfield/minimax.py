"""Least-favorable densities and minimax-robust spectral characteristics.

The admissible sets come in two pairs, picked by ``family``.  The
``contamination`` family pairs a contamination signal class (a pointwise
lower bound at a ``1 - epsilon`` fraction of a reference density, plus a
fixed total power) with a fixed-power noise class; the ``band`` family pairs
a band signal class (a two-sided pointwise bound plus a fixed total power)
with an L1 ball around a nominal noise density.  Each family comes in four
structural variants, which share two constraint structures.  Three of them
constrain the scalar fields Re Tr(W_j X(lambda)) of a stack of Hermitian
weights W_j:

    trace      W = [I]                            the trace field Tr X
    component  W = [e_1 e_1^T, ..., e_K e_K^T]    the K diagonal entries X_kk
    weighted   W = [B]                            the weighted field Tr(B X)

and ``matrix`` constrains the full matrix X(lambda): its bounds and power
hold in the Loewner order, its L1 ball entrywise.  One
:class:`DensityClassSpec` holds a class; its fields are the keys of the
problem file's ``class_spec`` section.

The search for the least favorable pair is projected supergradient ascent
on the concave functional (F, G) -> delta(F, G).  A solved anchor
(``build_anchor``) carries the gradient fields grad_F and grad_G, an
explicit pair of PSD matrix fields, and the robust objective is their
linear functional mean Re Tr(grad_F F) + mean Re Tr(grad_G G); each
accepted step re-solves the anchor.  The stationarity equations of each
class then serve as an a-posteriori check on the same fields: the saddle
report fits the (sign-constrained) Lagrange multiplier profile by least
squares and gives the relative defect.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .extrapolate import (
    DEFAULT_WINDOW,
    FactorizationError,
    solve_by_factorization,
    solve_channel,
    spectral_factorize,
    _checked_factor,
    _functional_on_grid,
)
from .spectral import (
    MinimalityViolation,
    RationalDensity,
    SpectralDensityGrid,
    as_grid,
    _eig2_range,
    _hermitian_eigenvalues,
    _node_matmul,
    _pair_grids,
)

_PROJECTION_SWEEPS = 80   # cap of _Constraints.project, met only at K >= 2
_ASCENT_STEP0 = 1.0       # first trial step of each ascent iteration
_ACTIVE_TOL = 1e-6        # slack, relative to the density's scale, of an active bound
# A side whose gradient field is at most this fraction of the larger one is
# rounding (its h or A - h is within 1e-10 of the other's, below what the
# solve resolves); scaled to its own norm it would step along noise.
_ROUNDING_FIELD = 1e-20


class InfeasibleClassError(ValueError):
    """The class constraints admit no density."""


@dataclass
class DensityClassSpec:
    """One admissible pair D_F x D_G; the fields are the ``class_spec`` keys.

    ``family`` picks the pairing (module docstring).  A ``contamination``
    class reads ``upper``, ``epsilon``, ``signal_power`` and
    ``noise_power``; a ``band`` class reads ``lower``, ``upper``,
    ``signal_power``, ``noise_nominal`` and ``noise_radius``.  A class
    ignores the keys its family does not read, and ``noiseless`` drops the
    noise side with its keys.  ``signal_power`` may be None (no power
    constraint).  ``variant`` picks the structure of both sides; the
    ``weighted`` variant reads the Hermitian positive definite
    ``weight_signal`` and ``weight_noise``.

    ``channel_weight`` scales the power functionals; a field-level spec
    passes the harmonic multiplicity over the sphere area here, while the
    single-channel convention is weight 1.  It must be positive.

    The number of components K is read from ``upper``.  Every class density
    and weight must have that K, and each power and radius must be a scalar
    (broadcast to every coordinate) or exactly one side's coordinate shape:
    (m,) for the m weights of a field variant, (K, K) for ``matrix``.  A
    ``matrix`` power must be (K, K).  ``epsilon`` lies in [0, 1]; the powers
    and radii are finite numbers, not booleans, and the radii are
    nonnegative.  The spec is checked once, on construction.
    """

    family: str
    variant: str
    upper: object = None            # reference density U
    lower: object = None            # lower reference V (band family)
    epsilon: float = 0.0            # contamination fraction
    signal_power: object = None     # scalar / (m,) vector / Hermitian matrix
    noise_power: object = None      # fixed noise power (contamination family)
    noise_nominal: object = None    # G^1, centre of the L1 ball (band family)
    noise_radius: object = None     # epsilon / epsilon_k / epsilon_kj
    weight_signal: np.ndarray = None   # B_1 for the weighted variant
    weight_noise: np.ndarray = None    # B_2 for the weighted variant
    channel_weight: float = 1.0
    noiseless: bool = False

    def __post_init__(self):
        if self.family not in ("contamination", "band"):
            raise ValueError(f"unknown class family {self.family!r}")
        contamination = self.family == "contamination"
        if contamination and self.upper is None:
            raise ValueError("contamination class needs a reference density")
        if not contamination and (self.upper is None or self.lower is None):
            raise ValueError("band class needs both lower and upper densities")
        if contamination:
            _check_number(self.epsilon, "epsilon")
            self.epsilon = float(self.epsilon)
            if not 0.0 <= self.epsilon <= 1.0:
                raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if not self.channel_weight > 0:
            raise ValueError(f"channel_weight must be > 0, got {self.channel_weight}")
        self.signal_power, _ = _checked_side(
            "signal", self.variant, self.weight_signal, self.K,
            None if contamination else ("lower", self.lower), self.signal_power, None)
        if self.noiseless:
            return
        if contamination:
            if self.noise_power is None:
                raise ValueError("power class needs the power value")
            self.noise_power, _ = _checked_side(
                "noise", self.variant, self.weight_noise, self.K, None, self.noise_power, None)
        else:
            if self.noise_nominal is None or self.noise_radius is None:
                raise ValueError("l1 class needs a nominal density and a radius")
            _, self.noise_radius = _checked_side(
                "noise", self.variant, self.weight_noise, self.K,
                ("nominal", self.noise_nominal), None, self.noise_radius)

    @property
    def K(self):
        return self.upper.K


def _check_number(value, name):
    """Refuse a class number that is a boolean or has a non-finite entry."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, got {value}")
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite")


def _checked_side(side, variant, weight, K, density, power, radius):
    """Check one side's class density, weight, power and radius; returns
    the power and radius.

    ``density`` is None or a (key, density) pair whose K must match.  The
    power and radius must be finite numbers, not booleans, and the radius
    nonnegative.  Parsed problem files deliver vectors and matrices as
    complex arrays, so the real numbers (radii, and the powers of the field
    variants) are stripped of their zero imaginary parts once, here.
    """
    if density is not None and density[1].K != K:
        raise ValueError(f"{side} {density[0]} has K={density[1].K}, "
                         f"signal upper has K={K}")
    if weight is not None and np.shape(weight) != (K, K):
        raise ValueError(f"{side} weight has shape {np.shape(weight)}, "
                         f"signal upper has K={K}")
    weights = _weight_stack(variant, weight, K)
    shape = (K, K) if weights is None else (len(weights),)
    checked = []
    for key, value in (("power", power), ("radius", radius)):
        name = f"{side} {key}"
        scalar_ok = key == "radius" or weights is not None
        if value is not None:
            _check_number(value, name)
            if scalar_ok and np.iscomplexobj(value):
                if np.any(np.imag(value) != 0):
                    raise ValueError(f"{name} must be real")
                value = np.real(value).copy()
            if key == "radius" and np.any(np.asarray(value) < 0):
                raise ValueError(f"{name} must be >= 0")
            if not (np.shape(value) == shape or (scalar_ok and np.ndim(value) == 0)):
                takes = f"a scalar or shape {shape}" if scalar_ok else f"shape {shape}"
                raise ValueError(f"{name} has shape {np.shape(value)}; the "
                                 f"{variant} variant takes {takes}")
        checked.append(value)
    return checked


def _check_weight(weight):
    weight = np.asarray(weight, dtype=complex)
    if weight.ndim != 2 or weight.shape[0] != weight.shape[1]:
        raise ValueError("weight must be a square matrix")
    if np.max(np.abs(weight - weight.conj().T)) > 1e-12 * max(1.0, np.abs(weight).max()):
        raise ValueError("weight matrix must be Hermitian")
    if np.linalg.eigvalsh(weight).min() <= 0:
        raise ValueError("weight matrix must be positive definite")
    return weight


# ---------------------------------------------------------------------------
# constraint structures: weight-stack fields and the Loewner order


def _weight_stack(variant, weight, K):
    """Hermitian weights W_j whose fields Re Tr(W_j X) a variant constrains.

    Returns an (m, K, K) stack, or None for the ``matrix`` variant, which
    constrains X itself.  This is the one place that tells the variants
    apart (``_class_constraints`` is the one that tells the families apart).
    """
    if variant == "matrix":
        return None
    if variant == "trace":
        return np.eye(K)[None]
    if variant == "component":
        return np.eye(K)[:, :, None] * np.eye(K)[:, None, :]
    if variant == "weighted":
        if weight is None:
            raise ValueError("weighted variant needs the weight matrix")
        return _check_weight(weight)[None]
    raise ValueError(f"unknown variant {variant!r}")


def _psd_clip(values):
    """Projection of each node of a Hermitian stack onto the PSD cone.

    The input is symmetrized first, and an all-PSD stack comes back as the
    symmetrized input.  K = 1 clips the real part at zero.  K = 2 is closed
    form (``_eig2_range``): a node with eigenvalues low < 0 becomes
    max(high, 0) (X - low I) / (high - low), the clipped top eigenvalue
    times the projector onto its eigenvector, and PSD nodes are left as
    they are.  K >= 3 clips the eigenvalues of a batched ``eigh``.
    """
    values = (values + np.conj(np.swapaxes(values, 1, 2))) / 2
    if values.shape[0] == 0:
        return values
    if values.shape[1] == 1:
        return np.maximum(values.real, 0.0).astype(complex)
    if values.shape[1] == 2:
        low, high, rad = _eig2_range(values)
        neg = low < 0.0
        if not neg.any():
            return values
        low, high, rad = low[neg], high[neg], rad[neg]
        # high > 0 > low implies rad > 0; elsewhere the node goes to zero
        up = high > 0.0
        coef = np.zeros_like(high)
        coef[up] = high[up] / (2.0 * rad[up])
        shifted = values[neg]
        shifted[:, 0, 0] -= low
        shifted[:, 1, 1] -= low
        values[neg] = coef[:, None, None] * shifted
        return values
    eigvals, eigvecs = np.linalg.eigh(values)
    if eigvals.min() >= 0.0:
        return values
    eigvals = np.maximum(eigvals, 0.0)
    return _node_matmul(eigvecs, eigvals[..., None] * np.conj(np.swapaxes(eigvecs, 1, 2)))


def _clipped_shift(t, lo, hi, target_mean):
    """Project a field onto {lo <= t <= hi, mean t = target} exactly.

    The projection is clip(t + s, lo, hi) for the shift s that meets the
    target.  The map s -> mean(clip(t + s, lo, hi)) is nondecreasing and
    piecewise linear with kinks at lo - t (a node starts to move) and
    hi - t (it stops), so s is found by a breakpoint search: sort the
    kinks, accumulate the slopes and the values at the kinks, and solve
    the linear piece that holds the target.  ``lo`` must be finite; ``hi``
    may be infinite.
    """
    lo_arr = np.broadcast_to(np.asarray(lo, dtype=float), t.shape)
    hi_arr = np.broadcast_to(np.asarray(hi, dtype=float), t.shape)
    if np.any(lo_arr > hi_arr + 1e-15):
        raise InfeasibleClassError("lower bound exceeds upper bound")
    lo_mean, hi_mean = lo_arr.mean(), hi_arr.mean()
    scale = max(1.0, abs(target_mean))
    if not (lo_mean - 1e-12 * scale <= target_mean <= hi_mean + 1e-12 * scale):
        raise InfeasibleClassError(
            f"power target {target_mean:.6g} outside attainable range "
            f"[{lo_mean:.6g}, {hi_mean:.6g}]"
        )

    kinks = np.concatenate([lo_arr - t, hi_arr - t])
    order = np.argsort(kinks, kind="stable")
    order = order[np.isfinite(kinks[order])]   # an infinite hi never stops a node
    kinks = kinks[order]
    # the map's slope on [kinks[i], kinks[i + 1]] and its value at kinks[i]
    slope = np.cumsum(np.where(order < t.size, 1.0, -1.0)) / t.size
    at_kinks = lo_mean + np.concatenate([[0.0], np.cumsum(slope[:-1] * np.diff(kinks))])
    i = max(int(np.searchsorted(at_kinks, target_mean, side="right")) - 1, 0)
    shift = kinks[i]
    if slope[i] > 0:
        shift += (target_mean - at_kinks[i]) / slope[i]
    return np.clip(t + shift, lo_arr, hi_arr)


def _soft_threshold_to_radius(dev, radius):
    """Shrink a deviation field so its grid-mean absolute value is radius.

    The result is dev * max(1 - tau / |dev|, 0) with the threshold
    tau = max_j (sum of the j largest |dev| - n * radius) / j, which is
    the root of the piecewise-linear sum(max(|dev| - tau, 0)) = n * radius.
    """
    mags = np.abs(dev)
    if float(mags.mean()) <= radius:
        return dev
    top = np.cumsum(np.sort(mags)[::-1])
    tau = float(np.max((top - mags.size * radius) / np.arange(1, mags.size + 1)))
    return dev * np.maximum(1.0 - tau / np.maximum(mags, 1e-300), 0.0)


class _Constraints:
    """One side of a class on one grid, in the coordinates of its structure.

    The signal side holds the rasterized ``lower`` / ``upper`` bounds
    (``upper`` is None for the contamination family), the noise side either
    the power alone or the ``nominal`` centre and ``radius`` of its L1
    ball; ``power`` is the class power and ``target`` its per-node level
    ``power / channel_weight``.  Absent constraints are None;
    ``_class_constraints`` sets the present ones.  Subclasses set the
    ``shape`` and ``dtype`` of a node's coordinates and supply the
    coordinates (``coords``, ``lift``, ``slack``), the bound and ball steps
    of the projection, and the multiplier fit.
    """

    lower = upper = power = target = nominal = radius = None

    def __init__(self, name, n_lambda, channel_weight, power):
        self.name, self.n_lambda, self.cw = name, n_lambda, channel_weight
        if power is not None:
            self.power = np.broadcast_to(np.asarray(power, dtype=self.dtype), self.shape)
            self.target = self.power / channel_weight

    def rasterized(self, density):
        """A class density's coordinates on the side's grid."""
        return self.coords(as_grid(density, self.n_lambda).values)

    def project(self, values):
        """Alternate the side's step (``_shrink`` onto an L1 ball, ``_clip``
        otherwise) with the PSD clip.  A field side's step is exact, so it
        stops once the PSD clip leaves the step unchanged (on the first sweep
        the step is then the projection, always so at K = 1); a Loewner side
        once a sweep leaves the iterate unchanged.  At K >= 2 the PSD coupling
        can stop at the cap short of the projection, which warns."""
        step = self._shrink if self.radius is not None else self._clip
        out = values
        for _ in range(_PROJECTION_SWEEPS):
            stepped = step(out)
            prev = stepped if self.exact_step else out
            out = _psd_clip(stepped)
            change = np.max(np.abs(out - prev))
            level = 1e-13 * max(1.0, np.max(np.abs(out)))
            if change < level:
                return out
        warnings.warn(
            f"projection onto the {self.name} side (K={values.shape[1]}) stopped "
            f"at its {_PROJECTION_SWEEPS}-sweep cap with a last step of "
            f"{change:.3e} (stop level {level:.3e})",
            RuntimeWarning,
        )
        return out

    def gap(self, values):
        """Worst violation of the side's constraints."""
        x = self.coords(values)
        gaps = [0.0]
        if self.lower is not None:
            gaps.append(float(np.max(np.clip(-self.slack(x, self.lower), 0, None))))
        if self.upper is not None:
            gaps.append(float(np.max(np.clip(-self.slack(self.upper, x), 0, None))))
        if self.power is not None:
            gaps.append(float(np.max(np.abs(self.cw * x.mean(axis=0) - self.power))))
        if self.radius is not None:
            ell = self.cw * np.abs(x - self.nominal).mean(axis=0)
            gaps.append(float(np.max(np.clip(ell - self.radius, 0, None))))
        return max(gaps)

    def _active(self, values):
        """Masks where the lower and upper bounds are active."""
        x = self.coords(values)
        level = _ACTIVE_TOL * max(float(np.abs(x).max()), 1e-300)
        upper = None if self.upper is None else self.slack(self.upper, x) <= level
        return self.slack(x, self.lower) <= level, upper


class _FieldConstraints(_Constraints):
    """Constraints on the fields Re Tr(W_j X) of an orthogonal weight stack."""

    dtype, exact_step = float, True

    def __init__(self, weights, *side):
        self.weights = weights
        self.norm_sq = np.array([float(np.real(np.trace(W @ W))) for W in weights])
        self.shape = (len(weights),)
        super().__init__(*side)

    def coords(self, values):
        return np.einsum("jkn,tnk->tj", self.weights, values).real

    def synth(self, c):
        """sum_j c_j W_j for per-weight coefficients c of shape (..., m)."""
        return sum(c[..., j, None, None] * W for j, W in enumerate(self.weights))

    def lift(self, values, delta):
        """X + sum_j delta_j W_j / |W_j|^2, the least change moving field j by delta_j."""
        return values + self.synth(delta / self.norm_sq)

    @staticmethod
    def slack(a, b):
        return a - b

    def _clip(self, values):
        """Exact projection of each field onto its bounds and power.

        Every weight is PSD, so each field of a PSD density is nonnegative:
        zero is the lower bound of a side that has none (the power kind).
        """
        t = self.coords(values)
        lower = np.zeros_like(t) if self.lower is None else self.lower
        upper = np.full_like(t, np.inf) if self.upper is None else self.upper
        if self.target is None:
            new = np.clip(t, lower, upper)
        else:
            new = np.column_stack([
                _clipped_shift(t[:, j], lower[:, j], upper[:, j], float(self.target[j]))
                for j in range(t.shape[1])
            ])
        return self.lift(values, new - t)

    def _shrink(self, values):
        dev = self.coords(values) - self.nominal
        new = np.column_stack([
            _soft_threshold_to_radius(dev[:, j], self.radius[j] / self.cw)
            for j in range(dev.shape[1])
        ])
        return self.lift(values, new - dev)

    def fit(self, M, values):
        """Fit one scalar multiplier profile per weight to the transformed
        stationarity field M; the model is sum_j profile_j W_j.

        On the noise side, where the density sits on the positive-
        semidefinite boundary the stationarity equation relaxes to an
        inequality (the cone contributes a one-sided multiplier), so the
        fitted profile may drop below its level there.
        """
        # coefficients of M's orthogonal projection onto span{W_j}
        m = np.einsum("tkn,jkn->tj", M, self.weights.conj()).real / self.norm_sq
        columns = range(m.shape[1])
        if self.lower is not None:
            lower, upper = self._active(values)
            profiles, alpha_sq, gamma, gamma_upper = zip(*(
                _fit_scalar_profile(m[:, j], lower[:, j],
                                    None if upper is None else upper[:, j])
                for j in columns))
            mult = {"alpha_sq": _per_weight(alpha_sq), "gamma": _per_weight(gamma),
                    "active_lower_fraction": float(lower.mean())}
            if upper is not None:
                mult.update(gamma_upper=_per_weight(gamma_upper),
                            active_upper_fraction=float(upper.mean()))
            return self.synth(np.stack(profiles, axis=-1)), mult

        g = self.coords(values)
        boundary = g <= _ACTIVE_TOL * max(float(np.abs(g).max()), 1e-300)
        if self.radius is None:
            profiles, beta_sq, _, _ = zip(*(
                _fit_scalar_profile(m[:, j], boundary[:, j], None) for j in columns))
            mult = {"boundary_fraction": float(boundary.mean())}
        else:
            dev = g - self.nominal
            sign = np.where(np.abs(dev) > _ACTIVE_TOL * max(float(np.abs(dev).max()), 1e-300),
                            np.sign(dev), 0.0)
            profiles, beta_sq = zip(*(
                _fit_l1_profile(m[:, j], sign[:, j], boundary[:, j]) for j in columns))
            mult = {"sign_fraction": float(np.mean(sign != 0))}
        mult["beta_sq"] = _per_weight(beta_sq)
        return self.synth(np.stack(profiles, axis=-1)), mult


class _LoewnerConstraints(_Constraints):
    """Constraints on the matrix X itself: Loewner-order bounds, a matrix
    power and an entrywise L1 ball."""

    dtype, exact_step = complex, False

    def __init__(self, K, *side):
        self.shape = (K, K)
        super().__init__(*side)

    @staticmethod
    def coords(values):
        return values

    @staticmethod
    def lift(values, delta):
        return values + delta

    @staticmethod
    def slack(a, b):
        """Smallest eigenvalue of a - b at each node."""
        return _hermitian_eigenvalues(a - b)[:, 0]

    def _clip(self, values):
        """Clip into lower <= X <= upper in the Loewner order, then shift
        the mean onto the power target."""
        out = values if self.lower is None else self.lower + _psd_clip(values - self.lower)
        if self.upper is not None:
            out = self.upper - _psd_clip(self.upper - out)
        return out if self.target is None else out + (self.target - out.mean(axis=0))

    def _shrink(self, values):
        dev = values - self.nominal
        new_dev = dev.copy()
        K = dev.shape[1]
        for k in range(K):
            for j in range(k, K):
                shrunk = _soft_threshold_to_radius(dev[:, k, j], self.radius[k, j] / self.cw)
                new_dev[:, k, j] = shrunk
                new_dev[:, j, k] = np.conj(shrunk)
        return self.nominal + new_dev

    def fit(self, M, values):
        """Fit a constant rank-1 PSD level plus cone-constrained slack
        matrices to the transformed stationarity field M."""
        if self.lower is not None:
            lower, upper = self._active(values)
            interior = ~lower if upper is None else ~(lower | upper)
            R0 = _fit_rank1_psd(np.mean(M[interior] if interior.any() else M, axis=0))
            slack = M - R0
            gamma = np.zeros_like(M)
            mult = {"alpha_outer": R0}
            if upper is None:
                gamma[lower] = _nsd_projection(slack[lower])
                mult["gamma_max_norm"] = float(
                    np.max(np.linalg.norm(gamma, axis=(1, 2))) if lower.any() else 0.0)
            else:
                only_low, only_up, both = lower & ~upper, upper & ~lower, lower & upper
                gamma[only_low] = _nsd_projection(slack[only_low])
                gamma[only_up] = _psd_clip(slack[only_up])
                gamma[both] = slack[both]
                mult["active_upper_fraction"] = float(upper.mean())
            mult["active_lower_fraction"] = float(lower.mean())
            return R0 + gamma, mult

        if self.radius is None:
            eig_min = _hermitian_eigenvalues(values)[:, 0]
            on_edge = eig_min <= _ACTIVE_TOL * max(float(np.abs(values).max()), 1e-300)
            R0 = _fit_rank1_psd(np.mean(M[~on_edge] if (~on_edge).any() else M, axis=0))
            slack = np.zeros_like(M)
            slack[on_edge] = _nsd_projection(M[on_edge] - R0)
            return R0 + slack, {"beta_outer": R0, "boundary_fraction": float(on_edge.mean())}

        # entrywise: W_kj * phase(dev_kj) off the dead zone, magnitude capped
        # by |W_kj| on it; W = beta beta* is a constant rank-1 PSD matrix
        dev = values - self.nominal
        off_zone = np.abs(dev) > _ACTIVE_TOL * max(float(np.abs(dev).max()), 1e-300)
        sign_field = np.where(off_zone, dev / np.maximum(np.abs(dev), 1e-300), 0.0)
        ratio = np.where(off_zone, M * np.conj(sign_field), 0.0)
        counts = np.maximum(off_zone.sum(axis=0), 1)
        W = _fit_rank1_psd(ratio.sum(axis=0) / counts)
        cap = np.minimum(1.0, np.abs(W) / np.maximum(np.abs(M), 1e-300))
        model = np.where(off_zone, W * sign_field, M * cap)
        return model, {"beta_outer": W, "sign_fraction": float(off_zone.mean())}


def _side(spec, weight, n_lambda, kind, power=None):
    """One side of ``spec`` on an ``n_lambda`` grid with only its power set."""
    weights = _weight_stack(spec.variant, weight, spec.K)
    side = (f"{spec.variant} {kind}", n_lambda, spec.channel_weight, power)
    if weights is None:
        return _LoewnerConstraints(spec.K, *side)
    return _FieldConstraints(weights, *side)


def _class_constraints(spec, n_lambda, noisy):
    """Signal and noise constraints of a class, built once per grid.

    This is the one place that tells the families apart.  The noise side
    is None for noiseless specs and when ``noisy`` is False.
    """
    contamination = spec.family == "contamination"
    signal = _side(spec, spec.weight_signal, n_lambda, spec.family, spec.signal_power)
    if contamination:
        signal.lower = (1.0 - spec.epsilon) * signal.rasterized(spec.upper)
    else:
        signal.lower, signal.upper = signal.rasterized(spec.lower), signal.rasterized(spec.upper)
    if spec.noiseless or not noisy:
        return signal, None
    if contamination:
        return signal, _side(spec, spec.weight_noise, n_lambda, "power", spec.noise_power)
    noise = _side(spec, spec.weight_noise, n_lambda, "l1_ball")
    noise.nominal = noise.rasterized(spec.noise_nominal)
    noise.radius = np.broadcast_to(np.asarray(spec.noise_radius, dtype=float), noise.shape)
    return signal, noise


def _project(F, G, constraints):
    signal, noise = constraints
    f_out = SpectralDensityGrid(signal.project(F.values), check=False)
    if noise is None:
        return f_out, None
    return f_out, SpectralDensityGrid(noise.project(G.values), check=False)


def _gap(F, G, constraints):
    signal, noise = constraints
    gap = signal.gap(F.values)
    if noise is None:
        return gap
    return max(gap, noise.gap(G.values))


def project_onto_class(pair, spec):
    """Grid-L2 projection of a density pair onto the admissible class.

    ``pair`` is (F, G) on one grid (``spectral._pair_grids``); G is ignored
    for noiseless specs.  Each side alternates one exact step onto its own
    constraints (a clipped shift onto the bounds and the power, or a soft
    threshold onto the L1 ball) with the projection onto the PSD cone
    (``_Constraints.project``): a field side stops once the PSD clip leaves
    its step unchanged, a matrix side once a sweep leaves the iterate
    unchanged; feasible inputs come back untouched.  At K = 1 (one sweep), and for the diagonal iterates of
    the component variant, the result is the exact projection.  At K >= 2
    the PSD cone couples the constraints and the alternation may stop at its
    sweep cap short of the projection, with a ``RuntimeWarning`` that names
    the side, K and the last step.
    Infeasible parameter combinations raise :class:`InfeasibleClassError`.
    """
    F, G = _pair_grids(*pair)
    return _project(F, G, _class_constraints(spec, F.n_lambda, G is not None))


def feasibility_gap(pair, spec):
    """Worst violation of class constraints, for tests and diagnostics."""
    F, G = _pair_grids(*pair)
    return _gap(F, G, _class_constraints(spec, F.n_lambda, G is not None))


# ---------------------------------------------------------------------------
# robust objective and its supergradient


@dataclass
class RobustAnchor:
    """Solved reference pair and the linearization of the error there.

    At the anchor the worst-case error of its estimate is the linear
    functional mean Re Tr(grad_F F) + mean Re Tr(grad_G G) of (F, G).  The
    PSD gradient fields are sums over the channels' solved characteristics
    h: grad_F = sum conj(A - h) (A - h)^T and grad_G = sum conj(h) h^T, so
    at (F0, G0) it is the solves' error.  ``grad_G`` is kept for a
    noiseless anchor too, where it prices an added noise density.
    """

    F0: SpectralDensityGrid
    G0: SpectralDensityGrid          # None for the noiseless problem
    solutions: dict                  # key -> EstimateSolution at (F0, G0)
    grad_F: np.ndarray
    grad_G: np.ndarray
    delta: float


def build_anchor(F0, G0, functionals, window=DEFAULT_WINDOW):
    """Solve every channel at (F0, G0) and form the gradient fields.

    One ``solve_channel`` call on the pair's grids (``spectral._pair_grids``,
    so the window route) solves every channel on one B and one Cholesky
    factor; the fields are read off each solve's A - h and h.
    """
    Fg, Gg = _pair_grids(F0, G0)
    solutions = solve_channel(Fg, Gg, functionals, window=window)
    grad_F = np.zeros((Fg.n_lambda, Fg.K, Fg.K), dtype=complex)
    grad_G = np.zeros_like(grad_F)
    for key, sol in solutions.items():
        A = _functional_on_grid(functionals[key], Fg.n_lambda)
        for grad, field in ((grad_F, A - sol.h_grid), (grad_G, sol.h_grid)):
            grad += np.einsum("tk,tn->tkn", np.conj(field), field)
    return RobustAnchor(F0=Fg, G0=Gg, solutions=solutions, grad_F=grad_F, grad_G=grad_G,
                        delta=float(sum(sol.delta for sol in solutions.values())))


def evaluate_robust_objective(F, G, anchor):
    """Worst-case error of the anchored estimate under densities (F, G).

    The linear functional mean Re Tr(grad_F F) + mean Re Tr(grad_G G) of
    the anchor's gradient fields; at the anchor pair it reproduces the
    anchor's own error.  ``G`` may be None when the anchor is noiseless.
    """
    def pairing(grad, density):
        return float(np.mean(np.einsum("tkn,tnk->t", grad, density.values).real))

    F, G = _pair_grids(F, G, anchor.F0.n_lambda)
    total = pairing(anchor.grad_F, F)
    if G is not None:
        total += pairing(anchor.grad_G, G)
    return total


def _channel_functionals(functionals):
    """Channel keys to (J, K) coefficient arrays; a bare array is one channel."""
    if isinstance(functionals, np.ndarray) or not isinstance(functionals, dict):
        return {(0, 1): np.asarray(functionals)}
    return functionals


@dataclass
class LeastFavorableResult:
    F0: SpectralDensityGrid
    G0: SpectralDensityGrid
    report: object
    converged: bool
    iterations: int
    objective_history: list
    anchor: RobustAnchor             # the solved final pair


def find_least_favorable(spec, functionals, init, max_iter=500, tol=1e-6,
                         window=DEFAULT_WINDOW, n_lambda=None):
    """Projected ascent to the least favorable pair of the class.

    ``functionals`` maps channel keys to (J, K) coefficient arrays (a bare
    array is treated as a single channel); ``init`` is a density pair
    (F, G) which is projected onto the class before the first solve.  The
    objective sequence is non-decreasing: each iteration first tries the
    step ``_ASCENT_STEP0`` along the scaled gradient, and a step is
    accepted only if the re-solved error improves, with the step halved
    otherwise.  A side whose gradient field is rounding next to the
    other's (``_ROUNDING_FIELD``) takes no step.

    Returns a :class:`LeastFavorableResult` whose ``anchor`` is the solved
    final pair and whose ``report`` carries the saddle residuals there,
    fitted on the active sets read at ``_ACTIVE_TOL``; ``converged=False``
    flags a run that stalled before reaching the relative-gain tolerance.
    """
    functionals = _channel_functionals(functionals)
    F, G = init if isinstance(init, tuple) else (init, None)
    if spec.noiseless:
        G = None
    elif G is None:
        raise ValueError("noisy class needs an initial noise density")
    F, G = _pair_grids(F, G, n_lambda)
    constraints = _class_constraints(spec, F.n_lambda, G is not None)
    F, G = _project(F, G, constraints)

    anchor = build_anchor(F, G, functionals, window=window)
    history = [anchor.delta]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        norm_F, norm_G = (float(np.max(np.linalg.norm(grad, axis=(1, 2))))
                          for grad in (anchor.grad_F, anchor.grad_G))
        floor = _ROUNDING_FIELD * max(norm_F, norm_G if G is not None else 0.0)
        scale_F = max(float(np.mean(np.trace(F.values, axis1=1, axis2=2).real)), 1e-12)
        dir_F = (anchor.grad_F / norm_F * scale_F if norm_F > floor
                 else np.zeros_like(anchor.grad_F))
        if G is not None:
            scale_G = max(float(np.mean(np.trace(G.values, axis1=1, axis2=2).real)),
                          0.1 * scale_F)
            dir_G = (anchor.grad_G / norm_G * scale_G if norm_G > floor
                     else np.zeros_like(anchor.grad_G))

        step = _ASCENT_STEP0
        improved = False
        for _ in range(40):
            F_try = SpectralDensityGrid(F.values + step * dir_F, check=False)
            G_try = (SpectralDensityGrid(G.values + step * dir_G, check=False)
                     if G is not None else None)
            F_try, G_try = _project(F_try, G_try, constraints)
            try:
                trial = build_anchor(F_try, G_try, functionals, window=window)
            except (MinimalityViolation, np.linalg.LinAlgError):
                step *= 0.5
                continue
            if trial.delta > anchor.delta * (1 + 1e-14):
                improved = True
                break
            step *= 0.5
            if step < 1e-10:
                break
        if not improved:
            converged = True
            break
        gain = (trial.delta - anchor.delta) / max(abs(anchor.delta), 1e-300)
        F, G, anchor = F_try, G_try, trial
        history.append(anchor.delta)
        if gain < tol:
            converged = True
            break

    report = _saddle_report(anchor, constraints)
    if not converged:
        warnings.warn(
            f"least-favorable search did not converge in {max_iter} iterations "
            f"(last objective {history[-1]:.6g})",
            RuntimeWarning,
        )
    return LeastFavorableResult(F0=F, G0=G, report=report, converged=converged,
                                iterations=iterations, objective_history=history,
                                anchor=anchor)


# ---------------------------------------------------------------------------
# saddle-point verification


@dataclass
class SaddleReport:
    """A-posteriori stationarity check at a candidate least favorable pair."""

    objective: float
    residual_F: float
    residual_G: float                # None when the check is noiseless
    multipliers: dict


def _fit_scalar_profile(m, lower_mask, upper_mask):
    """Fit alpha^2 + (sign-constrained) slack terms to a scalar field.

    Returns (model_field, alpha_sq, gamma_low, gamma_up).  The base level
    comes from the interior (both constraints slack); slack terms live only
    on their active sets with the correct sign.
    """
    interior = ~lower_mask if upper_mask is None else ~(lower_mask | upper_mask)
    if interior.any():
        alpha_sq = max(float(m[interior].mean()), 0.0)
    else:
        alpha_sq = max(float(m.max()), 0.0)
    gamma_low = np.where(lower_mask, np.minimum(m - alpha_sq, 0.0), 0.0)
    model = alpha_sq + gamma_low
    gamma_up = None
    if upper_mask is not None:
        gamma_up = np.where(upper_mask, np.maximum(m - alpha_sq, 0.0), 0.0)
        model = model + gamma_up
    return model, alpha_sq, gamma_low, gamma_up


def _fit_l1_profile(m, sign, boundary):
    """Fit beta^2 * sign(deviation) to a scalar field, with magnitude capped
    by beta^2 on the dead zone (sign 0).

    Returns (model_field, beta_sq).  The level comes from the positive
    deviations; on the positivity boundary of the noise density the
    equation relaxes downward, so the model may drop to the field there.
    """
    plus = sign > 0
    beta_sq = max(float(m[plus].mean()) if plus.any() else float(np.abs(m).max()), 0.0)
    model = np.where(sign != 0, beta_sq * sign, np.clip(m, -beta_sq, beta_sq))
    return np.where(boundary, np.minimum(model, m), model), beta_sq


def _fit_rank1_psd(mean_matrix):
    sym = (mean_matrix + mean_matrix.conj().T) / 2
    eigvals, eigvecs = np.linalg.eigh(sym)
    mu = max(float(eigvals[-1]), 0.0)
    v = eigvecs[:, -1]
    return mu * np.outer(v, v.conj())


def _nsd_projection(values):
    return -_psd_clip(-values)


def _per_weight(items):
    """A multiplier per weight: the bare item for a single weight, the
    items stacked along a last axis for a stack."""
    return items[0] if len(items) == 1 else np.stack(items, axis=-1)


def _relative_model_residual(L, model, T, T_star):
    recon = _node_matmul(_node_matmul(T, model), T_star)
    num = float(np.max(np.linalg.norm(L - recon, axis=(1, 2))))
    den = max(float(np.max(np.linalg.norm(L, axis=(1, 2)))), 1e-300)
    return num / den


def _saddle_report(anchor, constraints):
    """Stationarity check at a solved anchor.

    Each side's multiplier model is fitted to its gradient field M; the
    defect is measured on L = T M T with T = F0 + G0, the form in which
    the stationarity equations are stated.  The noise side is checked when
    ``constraints`` carries one, else only the signal side.
    """
    signal, noise = constraints
    total = anchor.F0.values + (anchor.G0.values if anchor.G0 is not None else 0.0)
    sides = [("F", signal, anchor.grad_F, anchor.F0)]
    if noise is not None:
        sides.append(("G", noise, anchor.grad_G, anchor.G0))
    residuals, multipliers = {}, {}
    for side, constraint, M, density in sides:
        model, multipliers[side] = constraint.fit(M, density.values)
        L = _node_matmul(_node_matmul(total, M), total)
        residuals[side] = _relative_model_residual(L, model, total, total)
    return SaddleReport(objective=anchor.delta, residual_F=residuals["F"],
                        residual_G=residuals.get("G"), multipliers=multipliers)


def saddle_point_residual(F0, G0, spec, functionals, window=DEFAULT_WINDOW):
    """Check the stationarity equations of the class at (F0, G0).

    The equations are the noisy ones when ``G0`` is given, and the
    noiseless ones (the signal side alone) when it is None; a ``G0`` with a
    noiseless spec raises ``ValueError``.  The Lagrange multiplier profiles
    are fitted, subject to their sign constraints, to the gradient fields
    of the anchor solved at (F0, G0), on active sets read at
    ``_ACTIVE_TOL``; the report carries the relative sup-norm defects.
    ``factorized_saddle_residual`` is the independent reference route of
    the noiseless check.
    """
    if G0 is not None and spec.noiseless:
        raise ValueError("a noiseless class takes no noise density G0")
    Fg, Gg = _pair_grids(F0, G0)
    constraints = _class_constraints(spec, Fg.n_lambda, Gg is not None)
    anchor = build_anchor(Fg, Gg, _channel_functionals(functionals), window=window)
    return _saddle_report(anchor, constraints)


def factorized_saddle_residual(F0, spec, functionals):
    """The noiseless stationarity check written through the canonical factor.

    The independent reference route of ``saddle_point_residual`` with no
    noise density: it fits the signal side's multipliers to the field read
    off ``solve_by_factorization``'s A - h, and measures the defect on
    L = T M T* with T = P^*, P the canonical factor of F0.  Raises
    :class:`FactorizationError` when the factor of F0 misses F0 by more than
    ``FACTORIZATION_TOL`` relative or is singular at a grid node.
    """
    Fg = as_grid(F0)
    n = Fg.n_lambda
    K = Fg.K
    signal, _ = _class_constraints(spec, n, False)
    fac = _checked_factor(spectral_factorize(Fg))
    M_F = np.zeros((n, K, K), dtype=complex)
    delta = 0.0
    for a in _channel_functionals(functionals).values():
        sol = solve_by_factorization(fac, a)
        if sol.h_grid is None:
            raise FactorizationError("factor of F0 is singular at a grid node; "
                                     "the gradient field is unavailable")
        e = _functional_on_grid(a, n) - sol.h_grid
        M_F += np.einsum("tk,tn->tkn", np.conj(e), e)
        delta += sol.delta
    # the field is M = P^{-*} L P^{-1}, so L = T M T* with T = P^*
    T_star = fac.factor_grid
    T = np.conj(np.swapaxes(T_star, 1, 2))
    L_F = _node_matmul(_node_matmul(T, M_F), T_star)
    model_F, mult_F = signal.fit(M_F, Fg.values)
    return SaddleReport(objective=delta,
                        residual_F=_relative_model_residual(L_F, model_F, T, T_star),
                        residual_G=None, multipliers={"F": mult_F})


def sample_feasible(spec, rng, n_lambda):
    """Random member of the class: a random PD density projected onto it.

    The density is a degree-2 moving average with complex Gaussian
    coefficients, scaled to unit mean trace before the projection.
    """
    K = spec.K
    def random_density():
        num = rng.normal(size=(3, K, K)) + 1j * rng.normal(size=(3, K, K))
        num[0] += (1.5 + K) * np.eye(K)
        vals = RationalDensity(num).rasterize(n_lambda).values
        vals /= max(float(np.mean(np.trace(vals, axis1=1, axis2=2).real)), 1e-12)
        return SpectralDensityGrid(vals, check=False)

    F = random_density()
    G = None if spec.noiseless else random_density()
    constraints = _class_constraints(spec, n_lambda, G is not None)
    F_proj, G_proj = _project(F, G, constraints)
    gap = _gap(F_proj, G_proj, constraints)
    if gap > 1e-6:
        raise InfeasibleClassError(f"projection left a feasibility gap of {gap:.3e}")
    return F_proj, G_proj
