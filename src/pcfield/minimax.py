"""Least-favorable densities and minimax-robust spectral characteristics.

The admissible sets come in eight pairs.  The signal side is either a
contamination class (a pointwise lower bound at a ``1 - epsilon`` fraction
of a reference density, plus a fixed total power) or a band class (a
two-sided pointwise bound plus a fixed total power).  The noise side is
either a fixed-power class or an L1 ball around a nominal density.  The
four structural variants share two constraint structures.  Three of them
constrain the scalar fields Re Tr(W_j X(lambda)) of a stack of Hermitian
weights W_j:

    trace      W = [I]                            the trace field Tr X
    component  W = [e_1 e_1^T, ..., e_K e_K^T]    the K diagonal entries X_kk
    weighted   W = [B]                            the weighted field Tr(B X)

and ``matrix`` constrains the full matrix X(lambda): its bounds and power
hold in the Loewner order, its L1 ball entrywise.

The search for the least favorable pair is projected supergradient ascent
on the concave functional (F, G) -> delta(F, G): at the current anchor the
worst-case error is linear in (F, G), its gradient is an explicit pair of
PSD matrix fields, and each accepted step re-solves the anchor.  The
stationarity equations of each class then serve as an a-posteriori check:
``saddle_point_residual`` fits the (sign-constrained) Lagrange multiplier
profile by least squares and reports the relative defect.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .extrapolate import (
    DEFAULT_WINDOW,
    solve_channel,
    spectral_factorize,
    _factor_convolution,
    _pad_functional,
    _solve_assembled,
)
from .spectral import (
    MinimalityViolation,
    SpectralDensityGrid,
    as_grid,
    assemble_operators,
    evaluate_lag_series,
)

_PROJECTION_SWEEPS = 80   # cap of _Constraints.project, met only at K >= 2

SIGNAL_KINDS = ("contamination", "band")
NOISE_KINDS = ("power", "l1_ball")
VARIANTS = ("trace", "component", "weighted", "matrix")


class InfeasibleClassError(ValueError):
    """The class constraints admit no density."""


class ClassModeError(ValueError):
    """Residual mode incompatible with the class or the problem."""


@dataclass
class SignalClass:
    """Admissible set for the signal density."""

    kind: str
    variant: str
    upper: object = None        # reference density U
    lower: object = None        # lower reference V (band kind)
    epsilon: float = 0.0        # contamination fraction
    power: object = None        # scalar / (K,) vector / Hermitian matrix
    weight: np.ndarray = None   # B_1 for the weighted variant

    def __post_init__(self):
        if self.kind not in SIGNAL_KINDS:
            raise ValueError(f"unknown signal class kind {self.kind!r}")
        field_variant = _is_field_variant(self.variant, self.weight)
        if self.kind == "contamination":
            if self.upper is None:
                raise ValueError("contamination class needs a reference density")
            if not 0.0 <= self.epsilon <= 1.0:
                raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if self.kind == "band" and (self.upper is None or self.lower is None):
            raise ValueError("band class needs both lower and upper densities")
        if field_variant:
            self.power = _real_parameter(self.power, "signal power")


@dataclass
class NoiseClass:
    """Admissible set for the noise density."""

    kind: str
    variant: str
    power: object = None        # fixed power (power kind)
    nominal: object = None      # G^1 (l1_ball kind)
    radius: object = None       # epsilon / epsilon_k / epsilon_kj
    weight: np.ndarray = None   # B_2 for the weighted variant

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise class kind {self.kind!r}")
        field_variant = _is_field_variant(self.variant, self.weight)
        if self.kind == "power" and self.power is None:
            raise ValueError("power class needs the power value")
        if self.kind == "l1_ball" and (self.nominal is None or self.radius is None):
            raise ValueError("l1 class needs a nominal density and a radius")
        if field_variant:
            self.power = _real_parameter(self.power, "noise power")
        self.radius = _real_parameter(self.radius, "noise radius")


@dataclass
class DensityClassSpec:
    """One admissible pair D_F x D_G; ``noise=None`` is the noiseless case.

    ``channel_weight`` scales the power functionals; a field-level spec
    passes the harmonic multiplicity over the sphere area here, while the
    single-channel convention is weight 1.
    """

    signal: SignalClass
    noise: NoiseClass = None
    channel_weight: float = 1.0


def contamination_pair(variant, upper, epsilon, signal_power, noise_power,
                       weight_signal=None, weight_noise=None, channel_weight=1.0):
    """Contamination signal class paired with a fixed-power noise class."""
    return DensityClassSpec(
        signal=SignalClass(kind="contamination", variant=variant, upper=upper,
                           epsilon=epsilon, power=signal_power, weight=weight_signal),
        noise=NoiseClass(kind="power", variant=variant, power=noise_power,
                         weight=weight_noise),
        channel_weight=channel_weight,
    )


def band_pair(variant, lower, upper, signal_power, noise_nominal, noise_radius,
              weight_signal=None, weight_noise=None, channel_weight=1.0):
    """Band-restricted signal class paired with an L1-ball noise class."""
    return DensityClassSpec(
        signal=SignalClass(kind="band", variant=variant, lower=lower, upper=upper,
                           power=signal_power, weight=weight_signal),
        noise=NoiseClass(kind="l1_ball", variant=variant, nominal=noise_nominal,
                         radius=noise_radius, weight=weight_noise),
        channel_weight=channel_weight,
    )


def _real_parameter(value, name):
    """A real class parameter; complex input must have zero imaginary part.

    Parsed problem files deliver vectors and matrices as complex arrays, so
    the real parameters (radii, and powers of the field variants) are
    stripped of their zero imaginary parts once, here.
    """
    if value is None or not np.iscomplexobj(value):
        return value
    arr = np.asarray(value)
    if np.any(arr.imag != 0):
        raise ValueError(f"{name} must be real")
    return arr.real.copy()


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
    apart.
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


def _is_field_variant(variant, weight):
    """Validate a variant (and its weight); False for the matrix variant."""
    return _weight_stack(variant, weight, 1) is not None


def _psd_clip(values):
    values = (values + np.conj(np.swapaxes(values, 1, 2))) / 2
    if values.shape[0] == 0:
        return values
    if values.shape[1] == 1:
        return np.maximum(values.real, 0.0).astype(complex)
    eigvals, eigvecs = np.linalg.eigh(values)
    if eigvals.min() >= 0.0:
        return values
    eigvals = np.maximum(eigvals, 0.0)
    return eigvecs @ (eigvals[..., None] * np.conj(np.swapaxes(eigvecs, 1, 2)))


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
    (``upper`` is None for the contamination kind), the noise side either
    the power alone or the ``nominal`` centre and ``radius`` of its L1
    ball; ``power`` is the class power and ``target`` its per-node level
    ``power / channel_weight``.  Absent constraints are None.  Subclasses
    set the ``shape`` and ``dtype`` of a node's coordinates and supply the
    coordinates (``coords``, ``lift``, ``slack``), the bound and ball steps
    of the projection, and the multiplier fit.
    """

    def __init__(self, cls, n_lambda, channel_weight):
        def rasterized(density):
            return self.coords(as_grid(density, n_lambda).values)

        self.cw = channel_weight
        self.lower = self.upper = self.power = self.target = None
        self.nominal = self.radius = None
        if cls.kind == "contamination":
            self.lower = (1.0 - cls.epsilon) * rasterized(cls.upper)
        elif cls.kind == "band":
            self.lower, self.upper = rasterized(cls.lower), rasterized(cls.upper)
        elif cls.kind == "l1_ball":
            self.nominal = rasterized(cls.nominal)
            radius = np.asarray(cls.radius, dtype=float)
            if radius.shape != self.shape:
                radius = np.full(self.shape, float(np.ravel(radius)[0]))
            self.radius = radius
        if cls.power is not None and cls.kind != "l1_ball":
            self.power = np.broadcast_to(np.asarray(cls.power, dtype=self.dtype), self.shape)
            self.target = self.power / channel_weight

    def project(self, values):
        """Alternate the side's exact step (``_shrink`` onto an L1 ball,
        ``_clip`` otherwise) with the PSD clip until stationary: exact after
        one sweep at K = 1 and for diagonal iterates, while at K >= 2 the
        PSD coupling can stop at the cap short of the projection."""
        step = self._shrink if self.radius is not None else self._clip
        out = values
        for _ in range(_PROJECTION_SWEEPS):
            prev = out
            out = _psd_clip(step(out))
            if np.max(np.abs(out - prev)) < 1e-13 * max(1.0, np.max(np.abs(out))):
                break
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

    def _active(self, values, tol):
        """Masks where the lower and upper bounds are active."""
        x = self.coords(values)
        level = tol * max(float(np.abs(x).max()), 1e-300)
        upper = None if self.upper is None else self.slack(self.upper, x) <= level
        return self.slack(x, self.lower) <= level, upper


class _FieldConstraints(_Constraints):
    """Constraints on the fields Re Tr(W_j X) of an orthogonal weight stack."""

    dtype = float

    def __init__(self, weights, cls, n_lambda, channel_weight):
        self.weights = weights
        self.norm_sq = np.array([float(np.real(np.trace(W @ W))) for W in weights])
        self.shape = (len(weights),)
        super().__init__(cls, n_lambda, channel_weight)

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

    def fit(self, M, values, tol):
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
            lower, upper = self._active(values, tol)
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
        boundary = g <= tol * max(float(np.abs(g).max()), 1e-300)
        if self.radius is None:
            profiles, beta_sq, _, _ = zip(*(
                _fit_scalar_profile(m[:, j], boundary[:, j], None) for j in columns))
            mult = {"boundary_fraction": float(boundary.mean())}
        else:
            dev = g - self.nominal
            sign = np.where(np.abs(dev) > tol * max(float(np.abs(dev).max()), 1e-300),
                            np.sign(dev), 0.0)
            profiles, beta_sq = zip(*(
                _fit_l1_profile(m[:, j], sign[:, j], boundary[:, j]) for j in columns))
            mult = {"sign_fraction": float(np.mean(sign != 0))}
        mult["beta_sq"] = _per_weight(beta_sq)
        return self.synth(np.stack(profiles, axis=-1)), mult


class _LoewnerConstraints(_Constraints):
    """Constraints on the matrix X itself: Loewner-order bounds, a matrix
    power and an entrywise L1 ball."""

    dtype = complex

    def __init__(self, K, cls, n_lambda, channel_weight):
        self.shape = (K, K)
        super().__init__(cls, n_lambda, channel_weight)

    @staticmethod
    def coords(values):
        return values

    @staticmethod
    def lift(values, delta):
        return values + delta

    @staticmethod
    def slack(a, b):
        """Smallest eigenvalue of a - b at each node."""
        return np.linalg.eigvalsh(a - b).min(axis=1)

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

    def fit(self, M, values, tol):
        """Fit a constant rank-1 PSD level plus cone-constrained slack
        matrices to the transformed stationarity field M."""
        if self.lower is not None:
            lower, upper = self._active(values, tol)
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
            eig_min = np.linalg.eigvalsh(values).min(axis=1)
            on_edge = eig_min <= tol * max(float(np.abs(values).max()), 1e-300)
            R0 = _fit_rank1_psd(np.mean(M[~on_edge] if (~on_edge).any() else M, axis=0))
            slack = np.zeros_like(M)
            slack[on_edge] = _nsd_projection(M[on_edge] - R0)
            return R0 + slack, {"beta_outer": R0, "boundary_fraction": float(on_edge.mean())}

        # entrywise: W_kj * phase(dev_kj) off the dead zone, magnitude capped
        # by |W_kj| on it; W = beta beta* is a constant rank-1 PSD matrix
        dev = values - self.nominal
        off_zone = np.abs(dev) > tol * max(float(np.abs(dev).max()), 1e-300)
        sign_field = np.where(off_zone, dev / np.maximum(np.abs(dev), 1e-300), 0.0)
        ratio = np.where(off_zone, M * np.conj(sign_field), 0.0)
        counts = np.maximum(off_zone.sum(axis=0), 1)
        W = _fit_rank1_psd(ratio.sum(axis=0) / counts)
        cap = np.minimum(1.0, np.abs(W) / np.maximum(np.abs(M), 1e-300))
        model = np.where(off_zone, W * sign_field, M * cap)
        return model, {"beta_outer": W, "sign_fraction": float(off_zone.mean())}


def _constraints(cls, n_lambda, K, channel_weight):
    """The constraints of one class side on an ``n_lambda`` grid."""
    weights = _weight_stack(cls.variant, cls.weight, K)
    if weights is None:
        return _LoewnerConstraints(K, cls, n_lambda, channel_weight)
    return _FieldConstraints(weights, cls, n_lambda, channel_weight)


def _class_constraints(spec, n_lambda, K, noisy):
    """Signal and noise constraints of a class, built once per grid.

    The noise side is None for noiseless specs and when ``noisy`` is False.
    """
    signal = _constraints(spec.signal, n_lambda, K, spec.channel_weight)
    if not noisy or spec.noise is None:
        return signal, None
    return signal, _constraints(spec.noise, n_lambda, K, spec.channel_weight)


def _project(F, G, constraints):
    signal, noise = constraints
    f_out = SpectralDensityGrid(signal.project(F.values), check=False)
    if noise is None:
        return f_out, None
    g_vals = noise.project(as_grid(G, F.n_lambda).values)
    return f_out, SpectralDensityGrid(g_vals, check=False)


def _gap(F, G, constraints):
    signal, noise = constraints
    gap = signal.gap(F.values)
    if noise is None:
        return gap
    return max(gap, noise.gap(as_grid(G, F.n_lambda).values))


def project_onto_class(pair, spec, n_lambda=None):
    """Grid-L2 projection of a density pair onto the admissible class.

    ``pair`` is (F, G); G is ignored for noiseless specs.  Each side
    alternates one exact step onto its own constraints (a clipped shift
    onto the bounds and the power, or a soft threshold onto the L1 ball)
    with the projection onto the PSD cone, until the iterate is
    stationary; feasible inputs come back untouched.  At K = 1, and for
    the diagonal iterates of the component variant, the result is the
    exact projection.  At K >= 2 the PSD cone couples the constraints and
    the alternation may stop at its sweep cap short of the projection.
    Infeasible parameter combinations raise :class:`InfeasibleClassError`.
    """
    F, G = pair
    Fg = as_grid(F, n_lambda)
    return _project(Fg, G, _class_constraints(spec, Fg.n_lambda, Fg.K, G is not None))


def feasibility_gap(pair, spec, n_lambda=None):
    """Worst violation of class constraints, for tests and diagnostics."""
    F, G = pair
    Fg = as_grid(F, n_lambda)
    return _gap(Fg, G, _class_constraints(spec, Fg.n_lambda, Fg.K, G is not None))


# ---------------------------------------------------------------------------
# robust objective and its supergradient


@dataclass
class RobustAnchor:
    """Solved reference pair: everything needed to linearize the error."""

    F0: SpectralDensityGrid
    G0: SpectralDensityGrid          # None for the noiseless problem
    channels: dict                   # key -> dict(a, A, C, rF, rG, delta)
    inv_total: np.ndarray
    delta: float
    window: int


def build_anchor(F0, G0, functionals, window=DEFAULT_WINDOW):
    """Solve every channel at (F0, G0) and cache the linearization data.

    The operators and (F0 + G0)^{-1} are assembled once and shared by all
    channels; the grid functions A and C come from the channel solves.
    """
    Fg = as_grid(F0)
    Gg = as_grid(G0, Fg.n_lambda) if G0 is not None else None
    ops = assemble_operators(Fg, Gg, window=window)
    channels = {}
    delta = 0.0
    for key, a in functionals.items():
        sol, A, C = _solve_assembled(ops, Fg, Gg, _pad_functional(a, window, Fg.K))
        a_arr = np.atleast_2d(np.asarray(a, dtype=complex))
        if Gg is not None:
            rG = np.einsum("tk,tkn->tn", A, Gg.values) + C
        else:
            rG = C
        rF = np.einsum("tk,tkn->tn", A, Fg.values) - C
        channels[key] = {
            "a": a_arr, "A": A, "C": C, "rF": rF, "rG": rG,
            "delta": sol.delta, "solution": sol,
        }
        delta += sol.delta
    return RobustAnchor(F0=Fg, G0=Gg, channels=channels, inv_total=ops.inv_total,
                        delta=float(delta), window=window)


def evaluate_robust_objective(F, G, anchor):
    """Worst-case error of the anchored estimate under densities (F, G).

    Linear in (F, G); at the anchor pair it reproduces the anchor's own
    error.  ``G`` may be None when the anchor is noiseless.
    """
    Fg = as_grid(F, anchor.F0.n_lambda)
    Gv = as_grid(G, anchor.F0.n_lambda).values if G is not None else None
    total = 0.0
    for data in anchor.channels.values():
        uG = np.einsum("tkn,tn->tk", anchor.inv_total, np.conj(data["rG"]))
        total += float(np.mean(np.einsum(
            "tk,tkn,tn->t", np.conj(uG), Fg.values, uG).real))
        if Gv is not None:
            uF = np.einsum("tkn,tn->tk", anchor.inv_total, np.conj(data["rF"]))
            total += float(np.mean(np.einsum(
                "tk,tkn,tn->t", np.conj(uF), Gv, uF).real))
    return total


def _objective_gradients(anchor):
    """PSD matrix fields d(objective)/dF and d(objective)/dG."""
    n = anchor.F0.n_lambda
    K = anchor.F0.K
    grad_F = np.zeros((n, K, K), dtype=complex)
    grad_G = np.zeros((n, K, K), dtype=complex) if anchor.G0 is not None else None
    for data in anchor.channels.values():
        uG = np.einsum("tkn,tn->tk", anchor.inv_total, np.conj(data["rG"]))
        grad_F += np.einsum("tk,tn->tkn", uG, np.conj(uG))
        if grad_G is not None:
            uF = np.einsum("tkn,tn->tk", anchor.inv_total, np.conj(data["rF"]))
            grad_G += np.einsum("tk,tn->tkn", uF, np.conj(uF))
    return grad_F, grad_G


@dataclass
class LeastFavorableResult:
    F0: SpectralDensityGrid
    G0: SpectralDensityGrid
    report: object
    converged: bool
    iterations: int
    objective_history: list


def find_least_favorable(spec, functionals, init, max_iter=500, tol=1e-6,
                         window=DEFAULT_WINDOW, n_lambda=None, step0=1.0):
    """Projected ascent to the least favorable pair of the class.

    ``functionals`` maps channel keys to (J, K) coefficient arrays (a bare
    array is treated as a single channel); ``init`` is a density pair
    (F, G) which is projected onto the class before the first solve.  The
    objective sequence is non-decreasing: a step is accepted only if the
    re-solved error improves, with the step halved otherwise.

    Returns a :class:`LeastFavorableResult` whose ``report`` carries the
    saddle residuals at the final pair; ``converged=False`` flags a run
    that stalled before reaching the relative-gain tolerance.
    """
    if isinstance(functionals, np.ndarray) or not isinstance(functionals, dict):
        functionals = {(0, 1): np.asarray(functionals)}
    F, G = init if isinstance(init, tuple) else (init, None)
    noiseless = spec.noise is None
    if noiseless:
        G = None
    elif G is None:
        raise ValueError("noisy class needs an initial noise density")
    Fg = as_grid(F, n_lambda)
    constraints = _class_constraints(spec, Fg.n_lambda, Fg.K, G is not None)
    F, G = _project(Fg, G, constraints)

    anchor = build_anchor(F, G, functionals, window=window)
    history = [anchor.delta]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        grad_F, grad_G = _objective_gradients(anchor)
        scale_F = max(float(np.mean(np.trace(F.values, axis1=1, axis2=2).real)), 1e-12)
        norm_F = max(float(np.max(np.linalg.norm(grad_F, axis=(1, 2)))), 1e-300)
        dir_F = grad_F / norm_F * scale_F
        if G is not None:
            scale_G = max(float(np.mean(np.trace(G.values, axis1=1, axis2=2).real)),
                          0.1 * scale_F)
            norm_G = max(float(np.max(np.linalg.norm(grad_G, axis=(1, 2)))), 1e-300)
            dir_G = grad_G / norm_G * scale_G

        step = step0
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

    report = saddle_point_residual(
        F, G, spec, functionals,
        mode="noiseless" if noiseless else "noisy", window=window,
    )
    if not converged:
        warnings.warn(
            f"least-favorable search did not converge in {max_iter} iterations "
            f"(last objective {history[-1]:.6g})",
            RuntimeWarning,
        )
    return LeastFavorableResult(F0=F, G0=G, report=report, converged=converged,
                                iterations=iterations, objective_history=history)


def minimax_characteristic(F0, G0, a, window=DEFAULT_WINDOW):
    """Spectral characteristic of the robust estimate: the optimal solve at
    the least favorable pair, tagged as minimax."""
    sol = solve_channel(F0, G0, a, window=window)
    sol.diagnostics["minimax"] = True
    return sol


# ---------------------------------------------------------------------------
# saddle-point verification


@dataclass
class SaddleReport:
    """A-posteriori stationarity check at a candidate least favorable pair."""

    objective: float
    residual_F: float
    residual_G: float
    multipliers: dict
    mode: str


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
    recon = T @ model @ T_star
    num = float(np.max(np.linalg.norm(L - recon, axis=(1, 2))))
    den = max(float(np.max(np.linalg.norm(L, axis=(1, 2)))), 1e-300)
    return num / den


def saddle_point_residual(F0, G0, spec, functionals, mode="noisy",
                          window=DEFAULT_WINDOW, active_tol=1e-6):
    """Check the stationarity equations of the class at (F0, G0).

    ``mode`` selects which form of the equations is used: "noisy" for the
    full pair, "noiseless" for observation without noise, "factorized" for
    the noiseless equations written through the canonical factor.  The
    Lagrange multiplier profiles are fitted subject to their sign
    constraints; the report carries the relative sup-norm defects.
    """
    if isinstance(functionals, np.ndarray) or not isinstance(functionals, dict):
        functionals = {(0, 1): np.asarray(functionals)}
    if mode not in ("noisy", "noiseless", "factorized"):
        raise ClassModeError(f"unknown mode {mode!r}")
    if mode == "noisy" and spec.noise is None:
        raise ClassModeError("noisy mode needs a class with a noise side")
    if mode in ("noiseless", "factorized") and spec.noise is not None and G0 is not None:
        raise ClassModeError(f"{mode} mode applies to the noiseless problem only")

    Fg = as_grid(F0)
    n = Fg.n_lambda
    K = Fg.K
    signal, noise = _class_constraints(spec, n, K, mode == "noisy")

    if mode == "factorized":
        fac = spectral_factorize(Fg)
        T = np.swapaxes(fac.factor_grid, 1, 2)
        T_star = np.conj(fac.factor_grid)
        L_F = np.zeros((n, K, K), dtype=complex)
        delta = 0.0
        for a in functionals.values():
            a_arr = np.atleast_2d(np.asarray(a, dtype=complex))
            conv = _factor_convolution(fac.coefficients, a_arr)
            delta += float(np.sum(np.abs(conv) ** 2))
            S = evaluate_lag_series(conv, np.arange(a_arr.shape[0]), n)
            L_F += np.einsum("tk,tn->tkn", np.conj(S), S)
        T_inv = np.linalg.inv(T)
        M_F = T_inv @ L_F @ np.conj(np.swapaxes(T_inv, 1, 2))
        model_F, mult_F = signal.fit(M_F, Fg.values, active_tol)
        residual_F = _relative_model_residual(L_F, model_F, T, T_star)
        return SaddleReport(objective=delta, residual_F=residual_F,
                            residual_G=None, multipliers={"F": mult_F},
                            mode=mode)

    anchor = build_anchor(Fg, G0 if mode == "noisy" else None, functionals,
                          window=window)
    L_F = np.zeros((n, K, K), dtype=complex)
    L_G = np.zeros((n, K, K), dtype=complex)
    for data in anchor.channels.values():
        L_F += np.einsum("tk,tn->tkn", np.conj(data["rG"]), data["rG"])
        L_G += np.einsum("tk,tn->tkn", np.conj(data["rF"]), data["rF"])
    total = Fg.values + (anchor.G0.values if anchor.G0 is not None else 0.0)
    T_inv = anchor.inv_total
    M_F = T_inv @ L_F @ T_inv
    model_F, mult_F = signal.fit(M_F, Fg.values, active_tol)
    residual_F = _relative_model_residual(L_F, model_F, total, total)
    residual_G = None
    multipliers = {"F": mult_F}
    if mode == "noisy":
        M_G = T_inv @ L_G @ T_inv
        model_G, mult_G = noise.fit(M_G, anchor.G0.values, active_tol)
        residual_G = _relative_model_residual(L_G, model_G, total, total)
        multipliers["G"] = mult_G
    return SaddleReport(objective=anchor.delta, residual_F=residual_F,
                        residual_G=residual_G, multipliers=multipliers,
                        mode=mode)


def sample_feasible(spec, rng, n_lambda, base_scale=1.0, degree=2):
    """Random member of the class: a random PD density projected onto it."""
    K = spec.signal.upper.K if spec.signal.upper is not None else 1
    def random_density():
        from .spectral import lambda_grid

        num = rng.normal(size=(degree + 1, K, K)) + 1j * rng.normal(size=(degree + 1, K, K))
        num[0] += (1.5 + K) * np.eye(K)
        z = np.exp(-1j * lambda_grid(n_lambda))
        N = np.zeros((n_lambda, K, K), dtype=complex)
        for u in range(degree + 1):
            N += (z ** u)[:, None, None] * num[u]
        vals = N @ np.conj(np.swapaxes(N, 1, 2)) * base_scale
        vals /= max(float(np.mean(np.trace(vals, axis1=1, axis2=2).real)), 1e-12)
        return SpectralDensityGrid(vals * base_scale, check=False)

    F = random_density()
    G = random_density() if spec.noise is not None else None
    constraints = _class_constraints(spec, n_lambda, K, G is not None)
    F_proj, G_proj = _project(F, G, constraints)
    gap = _gap(F_proj, G_proj, constraints)
    if gap > 1e-6:
        raise InfeasibleClassError(f"projection left a feasibility gap of {gap:.3e}")
    return F_proj, G_proj
