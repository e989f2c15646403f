"""Least-favorable densities and minimax-robust spectral characteristics.

The admissible sets come in eight pairs.  The signal side is either a
contamination class (a pointwise lower bound at a ``1 - epsilon`` fraction
of a reference density, plus a fixed total power) or a band class (a
two-sided pointwise bound plus a fixed total power).  The noise side is
either a fixed-power class or an L1 ball around a nominal density.  Each
of the four structural variants measures the pointwise quantities
differently:

    trace      scalar trace field Tr X(lambda)
    component  the K diagonal entries X_kk(lambda)
    weighted   the weighted field <B, X(lambda)> = Tr(B X)
    matrix     the full matrix X(lambda) in the Loewner order

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
from .spectral import SpectralDensityGrid, as_grid, assemble_operators, evaluate_lag_series

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
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.kind == "contamination":
            if self.upper is None:
                raise ValueError("contamination class needs a reference density")
            if not 0.0 <= self.epsilon <= 1.0:
                raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if self.kind == "band" and (self.upper is None or self.lower is None):
            raise ValueError("band class needs both lower and upper densities")
        if self.variant != "matrix":
            self.power = _real_parameter(self.power, "signal power")
        if self.variant == "weighted":
            if self.weight is None:
                raise ValueError("weighted variant needs the weight matrix")
            self.weight = _check_weight(self.weight)


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
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.kind == "power" and self.power is None:
            raise ValueError("power class needs the power value")
        if self.kind == "l1_ball" and (self.nominal is None or self.radius is None):
            raise ValueError("l1 class needs a nominal density and a radius")
        if self.variant != "matrix":
            self.power = _real_parameter(self.power, "noise power")
        self.radius = _real_parameter(self.radius, "noise radius")
        if self.variant == "weighted":
            if self.weight is None:
                raise ValueError("weighted variant needs the weight matrix")
            self.weight = _check_weight(self.weight)


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
# pointwise fields and projections


def _field(values, variant, weight):
    """Per-node constraint field of a matrix density sample array."""
    if variant == "trace":
        return np.trace(values, axis1=1, axis2=2).real
    if variant == "component":
        return np.diagonal(values, axis1=1, axis2=2).real.copy()
    if variant == "weighted":
        return np.einsum("kn,tnk->t", weight, values).real
    return values  # matrix variant


def _apply_field_delta(values, delta, variant, weight):
    """Add the Euclidean-projection direction realizing a field change."""
    K = values.shape[1]
    if variant == "trace":
        return values + (delta / K)[:, None, None] * np.eye(K)
    if variant == "component":
        out = values.copy()
        idx = np.arange(K)
        out[:, idx, idx] += delta
        return out
    if variant == "weighted":
        norm = float(np.real(np.trace(weight @ weight)))
        return values + (delta / norm)[:, None, None] * weight
    return values + delta


def _psd_clip(values, floor=0.0):
    values = (values + np.conj(np.swapaxes(values, 1, 2))) / 2
    if values.shape[0] == 0:
        return values
    if values.shape[1] == 1:
        return np.maximum(values.real, floor).astype(complex)
    eigvals, eigvecs = np.linalg.eigh(values)
    if eigvals.min() >= floor:
        return values
    eigvals = np.maximum(eigvals, floor)
    return eigvecs @ (eigvals[..., None] * np.conj(np.swapaxes(eigvecs, 1, 2)))


def _loewner_clip_above(values, bound):
    """Project onto {X : X <= bound} in the Loewner order."""
    diff = _psd_clip(bound - values)
    return bound - diff


def _loewner_clip_below(values, bound):
    return bound + _psd_clip(values - bound)


def _clipped_shift(t, lo, hi, target_mean):
    """Project a field onto {lo <= t <= hi, mean t = target} exactly.

    The projection is a clipped constant shift; the shift is found by
    bisection on the monotone map shift -> mean(clip(t + shift, lo, hi)).
    Either bound may be infinite.
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

    def mean_at(shift):
        return float(np.clip(t + shift, lo_arr, hi_arr).mean())

    d_lo = d_hi = target_mean - float(t.mean())
    step = max(1.0, abs(d_lo))
    for _ in range(80):
        if mean_at(d_lo) <= target_mean:
            break
        d_lo -= step
        step *= 2.0
    step = max(1.0, abs(d_hi))
    for _ in range(80):
        if mean_at(d_hi) >= target_mean:
            break
        d_hi += step
        step *= 2.0
    # ~60 halvings reach double precision on any reasonable bracket
    for _ in range(60):
        mid = 0.5 * (d_lo + d_hi)
        if mean_at(mid) < target_mean:
            d_lo = mid
        else:
            d_hi = mid
        if d_hi - d_lo < 1e-15 * max(1.0, abs(d_hi) + abs(d_lo)):
            break
    return np.clip(t + 0.5 * (d_lo + d_hi), lo_arr, hi_arr)


def _soft_threshold_to_radius(dev, radius):
    """Shrink a deviation field so its grid-mean absolute value is radius."""
    mags = np.abs(dev)
    current = float(mags.mean())
    if current <= radius:
        return dev
    lo, hi = 0.0, float(mags.max())
    for _ in range(60):
        tau = 0.5 * (lo + hi)
        if np.maximum(mags - tau, 0.0).mean() > radius:
            lo = tau
        else:
            hi = tau
        if hi - lo < 1e-15 * max(hi, 1.0):
            break
    tau = 0.5 * (lo + hi)
    return dev * np.maximum(1.0 - tau / np.maximum(mags, 1e-300), 0.0)


def _signal_bounds(cls, n_lambda, K):
    """Lower / upper fields of the signal class on the grid.

    For the matrix variant the fields are the bound matrices themselves
    (Loewner-order bounds); ``upper`` is None for the contamination kind.
    """
    upper = as_grid(cls.upper, n_lambda).values if cls.upper is not None else None
    if cls.kind == "contamination":
        lower_field = (1.0 - cls.epsilon) * _field(upper, cls.variant, cls.weight)
        upper_field = None
    else:
        lower = as_grid(cls.lower, n_lambda).values
        lower_field = _field(lower, cls.variant, cls.weight)
        upper_field = _field(upper, cls.variant, cls.weight)
    return lower_field, upper_field


def _project_signal(values, cls, channel_weight, n_iter=80):
    variant = cls.variant
    K = values.shape[1]
    lower_field, upper_field = _signal_bounds(cls, values.shape[0], K)
    target = None
    if cls.power is not None:
        # the matrix variant's power is a Hermitian matrix, the others' real
        dtype = complex if variant == "matrix" else float
        target = np.asarray(cls.power, dtype=dtype) / channel_weight

    out = values.copy()
    for _ in range(n_iter):
        prev = out
        if variant == "matrix":
            out = _loewner_clip_below(out, lower_field)
            if upper_field is not None:
                out = _loewner_clip_above(out, upper_field)
            if target is not None:
                out = out + (target - np.mean(out, axis=0))
        else:
            t = _field(out, variant, cls.weight)
            hi = upper_field if upper_field is not None else np.inf
            if target is not None:
                if variant == "component":
                    new_t = np.column_stack([
                        _clipped_shift(t[:, k],
                                       lower_field[:, k] if lower_field.ndim == 2 else lower_field,
                                       hi[:, k] if np.ndim(hi) == 2 else hi,
                                       float(np.atleast_1d(target)[k]))
                        for k in range(K)
                    ])
                else:
                    new_t = _clipped_shift(t, lower_field, hi, float(target))
            else:
                new_t = np.clip(t, lower_field, hi if np.ndim(hi) else None)
            out = _apply_field_delta(out, new_t - t, variant, cls.weight)
        out = _psd_clip(out)
        if np.max(np.abs(out - prev)) < 1e-13 * max(1.0, np.max(np.abs(out))):
            break
    return out


def _project_noise(values, cls, channel_weight, n_iter=80):
    variant = cls.variant
    K = values.shape[1]
    n = values.shape[0]
    out = values.copy()
    if cls.kind == "power":
        dtype = complex if variant == "matrix" else float
        target = np.asarray(cls.power, dtype=dtype) / channel_weight
        for _ in range(n_iter):
            prev = out
            if variant == "matrix":
                out = out + (target - np.mean(out, axis=0))
            else:
                t = _field(out, variant, cls.weight)
                # constant shift of the field to hit the power target exactly
                shift = np.broadcast_to(target - t.mean(axis=0), t.shape)
                out = _apply_field_delta(out, shift, variant, cls.weight)
            out = _psd_clip(out)
            if np.max(np.abs(out - prev)) < 1e-13 * max(1.0, np.max(np.abs(out))):
                break
        return out

    nominal = as_grid(cls.nominal, n).values
    radius = np.asarray(cls.radius, dtype=float)
    if variant == "matrix":
        if radius.shape != (K, K):
            radius = np.full((K, K), float(np.ravel(radius)[0]))
    else:
        t_nom = _field(nominal, variant, cls.weight)
    for _ in range(n_iter):
        prev = out
        if variant == "matrix":
            dev = out - nominal
            new_dev = dev.copy()
            for k in range(K):
                for j in range(k, K):
                    eps = radius[k, j] / channel_weight
                    shrunk = _soft_threshold_to_radius(dev[:, k, j], eps)
                    new_dev[:, k, j] = shrunk
                    new_dev[:, j, k] = np.conj(shrunk)
            out = nominal + new_dev
        else:
            t = _field(out, variant, cls.weight)
            dev = t - t_nom
            if variant == "component":
                radii = np.broadcast_to(radius, (K,))
                new_dev = np.column_stack([
                    _soft_threshold_to_radius(dev[:, k], radii[k] / channel_weight)
                    for k in range(K)
                ])
            else:
                new_dev = _soft_threshold_to_radius(dev, float(radius) / channel_weight)
            out = _apply_field_delta(out, new_dev - dev, variant, cls.weight)
        out = _psd_clip(out)
        if np.max(np.abs(out - prev)) < 1e-13 * max(1.0, np.max(np.abs(out))):
            break
    return out


def project_onto_class(pair, spec, n_lambda=None):
    """Grid-L2 projection of a density pair onto the admissible class.

    ``pair`` is (F, G); G is ignored for noiseless specs.  Bound, power and
    positivity constraints are applied cyclically until the iterate is
    stationary, which leaves feasible inputs untouched.  Infeasible
    parameter combinations raise :class:`InfeasibleClassError`.
    """
    F, G = pair
    Fg = as_grid(F, n_lambda)
    f_vals = _project_signal(Fg.values, spec.signal, spec.channel_weight)
    f_out = SpectralDensityGrid(f_vals, check=False)
    if spec.noise is None or G is None:
        return f_out, None
    Gg = as_grid(G, Fg.n_lambda)
    g_vals = _project_noise(Gg.values, spec.noise, spec.channel_weight)
    return f_out, SpectralDensityGrid(g_vals, check=False)


def feasibility_gap(pair, spec, n_lambda=None):
    """Worst violation of class constraints, for tests and diagnostics."""
    F, G = pair
    Fg = as_grid(F, n_lambda)
    gaps = [0.0]
    cls = spec.signal
    lower_field, upper_field = _signal_bounds(cls, Fg.n_lambda, Fg.K)
    if cls.variant == "matrix":
        gaps.append(float(np.max(np.clip(
            -np.linalg.eigvalsh(Fg.values - lower_field).min(axis=1), 0, None))))
        if upper_field is not None:
            gaps.append(float(np.max(np.clip(
                -np.linalg.eigvalsh(upper_field - Fg.values).min(axis=1), 0, None))))
        if cls.power is not None:
            gaps.append(float(np.max(np.abs(
                spec.channel_weight * np.mean(Fg.values, axis=0)
                - np.asarray(cls.power, dtype=complex)))))
    else:
        t = _field(Fg.values, cls.variant, cls.weight)
        gaps.append(float(np.max(np.clip(lower_field - t, 0, None))))
        if upper_field is not None:
            gaps.append(float(np.max(np.clip(t - upper_field, 0, None))))
        if cls.power is not None:
            power = spec.channel_weight * t.mean(axis=0)
            gaps.append(float(np.max(np.abs(power - np.asarray(cls.power, dtype=float)))))
    if spec.noise is not None and G is not None:
        Gg = as_grid(G, Fg.n_lambda)
        ncls = spec.noise
        if ncls.kind == "power":
            t = _field(Gg.values, ncls.variant, ncls.weight)
            if ncls.variant == "matrix":
                gaps.append(float(np.max(np.abs(
                    spec.channel_weight * np.mean(Gg.values, axis=0)
                    - np.asarray(ncls.power, dtype=complex)))))
            else:
                power = spec.channel_weight * t.mean(axis=0)
                gaps.append(float(np.max(np.abs(power - np.asarray(ncls.power, dtype=float)))))
        else:
            nominal = as_grid(ncls.nominal, Fg.n_lambda).values
            if ncls.variant == "matrix":
                dev = np.abs(Gg.values - nominal)
                radius = np.asarray(ncls.radius, dtype=float)
                if radius.shape != dev.shape[1:]:
                    radius = np.full(dev.shape[1:], float(np.ravel(ncls.radius)[0]))
                gaps.append(float(np.max(np.clip(
                    spec.channel_weight * dev.mean(axis=0) - radius, 0, None))))
            else:
                dev = np.abs(_field(Gg.values, ncls.variant, ncls.weight)
                             - _field(nominal, ncls.variant, ncls.weight))
                ell = spec.channel_weight * dev.mean(axis=0)
                gaps.append(float(np.max(np.abs(np.clip(
                    ell - np.asarray(ncls.radius, dtype=float), 0, None)))))
    return max(gaps)


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
    F, G = project_onto_class((F, G), spec, n_lambda=n_lambda)

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
            F_try, G_try = project_onto_class((F_try, G_try), spec)
            try:
                trial = build_anchor(F_try, G_try, functionals, window=window)
            except Exception:
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


def _active_masks_signal(cls, F_values, tol):
    """Masks where the signal-side pointwise constraints are active."""
    n, K = F_values.shape[0], F_values.shape[1]
    lower_field, upper_field = _signal_bounds(cls, n, K)
    if cls.variant == "matrix":
        scale = max(float(np.abs(F_values).max()), 1e-300)
        low_gap = np.linalg.eigvalsh(F_values - lower_field).min(axis=1)
        if upper_field is None:
            return low_gap <= tol * scale, None
        up_gap = np.linalg.eigvalsh(upper_field - F_values).min(axis=1)
        return low_gap <= tol * scale, up_gap <= tol * scale
    t = _field(F_values, cls.variant, cls.weight)
    scale = max(float(np.abs(t).max()), 1e-300)
    lower_mask = t <= lower_field + tol * scale
    upper_mask = None
    if upper_field is not None:
        upper_mask = t >= upper_field - tol * scale
    return lower_mask, upper_mask


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


def _fit_rank1_psd(mean_matrix):
    sym = (mean_matrix + mean_matrix.conj().T) / 2
    eigvals, eigvecs = np.linalg.eigh(sym)
    mu = max(float(eigvals[-1]), 0.0)
    v = eigvecs[:, -1]
    return mu * np.outer(v, v.conj())


def _nsd_projection(values):
    return -_psd_clip(-values)


def _signal_model(M, cls, F_values, tol=1e-6):
    """Structured multiplier fit of the transformed F-stationarity field."""
    K = M.shape[1]
    lower_mask, upper_mask = _active_masks_signal(cls, F_values, tol)
    multipliers = {}
    if cls.variant == "matrix":
        interior = ~lower_mask if upper_mask is None else ~(lower_mask | upper_mask)
        base_pool = M[interior] if interior.any() else M
        R0 = _fit_rank1_psd(np.mean(base_pool, axis=0))
        model = np.broadcast_to(R0, M.shape).copy()
        slack = M - R0
        if upper_mask is None:
            gamma = np.zeros_like(M)
            gamma[lower_mask] = _nsd_projection(slack[lower_mask])
            model = model + gamma
            multipliers.update(alpha_outer=R0, gamma_max_norm=float(
                np.max(np.linalg.norm(gamma, axis=(1, 2))) if lower_mask.any() else 0.0))
        else:
            gamma = np.zeros_like(M)
            only_low = lower_mask & ~upper_mask
            only_up = upper_mask & ~lower_mask
            both = lower_mask & upper_mask
            gamma[only_low] = _nsd_projection(slack[only_low])
            gamma[only_up] = _psd_clip(slack[only_up])
            gamma[both] = slack[both]
            model = model + gamma
            multipliers.update(alpha_outer=R0)
        multipliers.update(active_lower_fraction=float(lower_mask.mean()))
        if upper_mask is not None:
            multipliers.update(active_upper_fraction=float(upper_mask.mean()))
        return model, multipliers

    if cls.variant == "component":
        m = np.stack([M[:, k, k].real for k in range(K)], axis=1)
        models = np.zeros_like(m)
        alpha = np.zeros(K)
        for k in range(K):
            lm = lower_mask[:, k] if lower_mask.ndim == 2 else lower_mask
            um = None if upper_mask is None else (
                upper_mask[:, k] if upper_mask.ndim == 2 else upper_mask)
            models[:, k], alpha[k], g_lo, g_up = _fit_scalar_profile(m[:, k], lm, um)
        multipliers.update(alpha_sq=alpha,
                           active_lower_fraction=float(np.mean(lower_mask)))
        model = np.zeros_like(M)
        idx = np.arange(K)
        model[:, idx, idx] = models
        return model, multipliers

    if cls.variant == "weighted":
        Bt = cls.weight.T
        denom = float(np.real(np.trace(Bt @ Bt.conj().T)))
        m = np.einsum("tkn,nk->t", M, np.conj(Bt)).real / denom
    else:
        m = np.trace(M, axis1=1, axis2=2).real / K
    model_field, alpha_sq, gamma_low, gamma_up = _fit_scalar_profile(
        m, lower_mask, upper_mask)
    multipliers.update(alpha_sq=alpha_sq, gamma=gamma_low,
                       active_lower_fraction=float(lower_mask.mean()))
    if gamma_up is not None:
        multipliers.update(gamma_upper=gamma_up,
                           active_upper_fraction=float(upper_mask.mean()))
    direction = cls.weight.T if cls.variant == "weighted" else np.eye(K)
    model = model_field[:, None, None] * direction
    return model, multipliers


def _noise_model(M, cls, G_values, channel_weight, tol=1e-6):
    """Structured multiplier fit of the transformed G-stationarity field.

    Where the noise density sits on the positive-semidefinite boundary the
    stationarity equation relaxes to an inequality (the cone contributes a
    one-sided multiplier), so the fitted profile is allowed to drop below
    its nominal level there.
    """
    K = M.shape[1]
    multipliers = {}
    g_field = _field(G_values, cls.variant if cls.variant != "matrix" else "trace",
                     cls.weight)
    g_scale = max(float(np.abs(g_field).max()), 1e-300)
    boundary = g_field <= tol * g_scale
    if cls.kind == "power":
        if cls.variant == "matrix":
            eig_min = np.linalg.eigvalsh(G_values).min(axis=1)
            on_edge = eig_min <= tol * max(float(np.abs(G_values).max()), 1e-300)
            interior = ~on_edge
            pool = M[interior] if interior.any() else M
            R0 = _fit_rank1_psd(np.mean(pool, axis=0))
            model = np.broadcast_to(R0, M.shape).copy()
            slack = np.zeros_like(M)
            slack[on_edge] = _nsd_projection(M[on_edge] - R0)
            multipliers.update(beta_outer=R0,
                               boundary_fraction=float(on_edge.mean()))
            return model + slack, multipliers
        if cls.variant == "component":
            m = np.stack([M[:, k, k].real for k in range(K)], axis=1)
            beta = np.zeros(K)
            model_field = np.zeros_like(m)
            for k in range(K):
                interior = ~boundary[:, k]
                beta[k] = max(float(m[interior, k].mean()) if interior.any()
                              else float(m[:, k].max()), 0.0)
                model_field[:, k] = beta[k] + np.where(
                    boundary[:, k], np.minimum(m[:, k] - beta[k], 0.0), 0.0)
            multipliers.update(beta_sq=beta,
                               boundary_fraction=float(boundary.mean()))
            model = np.zeros_like(M)
            idx = np.arange(K)
            model[:, idx, idx] = model_field
            return model, multipliers
        if cls.variant == "weighted":
            Bt = cls.weight.T
            denom = float(np.real(np.trace(Bt @ Bt.conj().T)))
            m = np.einsum("tkn,nk->t", M, np.conj(Bt)).real / denom
            direction = Bt
        else:
            m = np.trace(M, axis1=1, axis2=2).real / K
            direction = np.eye(K)
        interior = ~boundary
        beta_sq = max(float(m[interior].mean()) if interior.any() else float(m.max()),
                      0.0)
        model_field = beta_sq + np.where(boundary, np.minimum(m - beta_sq, 0.0), 0.0)
        multipliers.update(beta_sq=beta_sq, boundary_fraction=float(boundary.mean()))
        return model_field[:, None, None] * direction, multipliers

    # L1-ball class: multiplier profile is beta^2 * sign(deviation), with
    # magnitude capped by beta^2 on the dead zone.
    nominal = as_grid(cls.nominal, M.shape[0]).values
    if cls.variant == "matrix":
        # entrywise: W_kj * phase(dev_kj) off the dead zone, magnitude capped
        # by |W_kj| on it; W = beta beta* is a constant rank-1 PSD matrix
        dev = G_values - nominal
        scale = max(float(np.abs(dev).max()), 1e-300)
        off_zone = np.abs(dev) > tol * scale
        sign_field = np.where(off_zone, dev / np.maximum(np.abs(dev), 1e-300), 0.0)
        ratio = np.where(off_zone, M * np.conj(sign_field), 0.0)
        counts = np.maximum(off_zone.sum(axis=0), 1)
        W = _fit_rank1_psd(ratio.sum(axis=0) / counts)
        cap = np.minimum(1.0, np.abs(W) / np.maximum(np.abs(M), 1e-300))
        model = np.where(off_zone, W * sign_field, M * cap)
        multipliers.update(beta_outer=W, sign_fraction=float(off_zone.mean()))
        return model, multipliers
    if cls.variant == "component":
        m = np.stack([M[:, k, k].real for k in range(K)], axis=1)
        t = np.stack([(G_values[:, k, k] - nominal[:, k, k]).real for k in range(K)], axis=1)
    elif cls.variant == "weighted":
        Bt = cls.weight.T
        denom = float(np.real(np.trace(Bt @ Bt.conj().T)))
        m = np.einsum("tkn,nk->t", M, np.conj(Bt)).real / denom
        t = (_field(G_values, "weighted", cls.weight)
             - _field(nominal, "weighted", cls.weight))
    else:
        m = np.trace(M, axis1=1, axis2=2).real / K
        t = (_field(G_values, "trace", None) - _field(nominal, "trace", None))
    scale = max(float(np.abs(t).max()), 1e-300)
    sign = np.where(np.abs(t) > tol * scale, np.sign(t), 0.0)
    plus = sign > 0
    if plus.any():
        beta_sq = max(float(m[plus].mean()), 0.0)
    else:
        beta_sq = max(float(np.abs(m).max()), 0.0)
    model_field = np.where(sign != 0, beta_sq * sign,
                           np.clip(m, -beta_sq, beta_sq))
    # positivity boundary of the noise density relaxes the equation downward
    model_field = np.where(boundary, np.minimum(model_field, m), model_field)
    multipliers.update(beta_sq=beta_sq, sign_fraction=float(np.mean(sign != 0)))
    if cls.variant == "component":
        model = np.zeros_like(M)
        idx = np.arange(K)
        model[:, idx, idx] = model_field
    elif cls.variant == "weighted":
        model = model_field[:, None, None] * cls.weight.T
    else:
        model = model_field[:, None, None] * np.eye(K)
    return model, multipliers


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
        model_F, mult_F = _signal_model(M_F, spec.signal, Fg.values, tol=active_tol)
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
    model_F, mult_F = _signal_model(M_F, spec.signal, Fg.values, tol=active_tol)
    residual_F = _relative_model_residual(L_F, model_F, total, total)
    residual_G = None
    multipliers = {"F": mult_F}
    if mode == "noisy":
        M_G = T_inv @ L_G @ T_inv
        model_G, mult_G = _noise_model(M_G, spec.noise, anchor.G0.values,
                                       spec.channel_weight, tol=active_tol)
        residual_G = _relative_model_residual(L_G, model_G, total, total)
        multipliers["G"] = mult_G
    return SaddleReport(objective=anchor.delta, residual_F=residual_F,
                        residual_G=residual_G, multipliers=multipliers,
                        mode=mode)


def sample_feasible(spec, rng, n_lambda, base_scale=1.0, degree=2):
    """Random member of the class: a random PD density projected onto it."""
    K = as_grid(spec.signal.upper, n_lambda).K if spec.signal.upper is not None else 1
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
    F_proj, G_proj = project_onto_class((F, G), spec, n_lambda=n_lambda)
    gap = feasibility_gap((F_proj, G_proj), spec)
    if gap > 1e-6:
        raise InfeasibleClassError(f"projection left a feasibility gap of {gap:.3e}")
    return F_proj, G_proj
