"""The benchmark's workloads: seeded inputs, timed operations, their gates.

Every workload builds its inputs from the run seed alone, writes them as
problem files (or hands the program plain arrays), and exposes a list of
``Op`` objects.  An op's ``run`` is the timed call into the program; its
``check`` is the untimed correctness gate and returns a digest of what the
call produced, so the runner can require byte-identical output from every
repetition.  ``run_checks`` holds the heavier gates that are evaluated once
per run, on the first pass's output.

Program calls go through module attributes (``pcfield.cli.main``,
``pcfield.simulate_channel``, ...) so that the traced run sees them.
"""

import hashlib
import json
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

import pcfield
import pcfield.cli
from pcfield.spectral import density_to_spec

NOISE_LEVEL = 0.5


class CheckFailed(RuntimeError):
    """An operation ran but its output broke a correctness gate."""


@dataclass
class Op:
    """One timed call into the program and the gate on its output."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple]   # result -> (digest, artifact bytes)
    prepare: Callable[[], None] = lambda: None


def _cnormal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _complex_json(arr):
    arr = np.asarray(arr, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def minimal_density(rng, K, radius, degree=2):
    """Seeded rational density that is minimal by construction.

    The numerator polynomial N(l) = N_0 + sum_u N_u e^{-iul} has its tail
    scaled to half the smallest singular value of N_0, so N(l) is
    nonsingular on the whole circle and F = N N* / |den|^2 is positive
    definite.  The pole radius is given and its angle drawn: the radius sets
    how many causal factor coefficients matter, hence the filtering work,
    so workloads take radii from a fixed ladder and every seed costs the same.
    """
    n0 = (2.0 + K) * np.eye(K) + 0.3 * _cnormal(rng, (K, K))
    tail = _cnormal(rng, (degree, K, K))
    budget = 0.5 * np.linalg.svd(n0, compute_uv=False).min()
    tail *= budget / np.linalg.norm(tail, ord=2, axis=(1, 2)).sum()
    pole = radius * np.exp(1j * rng.uniform(-np.pi, np.pi))
    return pcfield.RationalDensity(np.concatenate([n0[None], tail]), [1.0, -pole])


def radius_ladder(n):
    """``n`` pole radii spread evenly over [0.3, 0.7]."""
    return np.linspace(0.3, 0.7, n) if n > 1 else np.array([0.5])


def white_density(K, level):
    return pcfield.RationalDensity(np.sqrt(level) * np.eye(K)[None])


def constant_density(matrix):
    """Rational spec of a constant Hermitian PD matrix density."""
    return pcfield.RationalDensity(np.linalg.cholesky(np.asarray(matrix, dtype=complex))[None])


def assert_minimal(F, G, n_lambda):
    for pair in ((F, G), (F, None)):
        report = pcfield.check_minimality(*pair, n_lambda=n_lambda)
        if not report.passed:
            raise CheckFailed(f"generated density is not minimal: {report}")


def _digest_dir(path):
    h = hashlib.sha256()
    total = 0
    for file in sorted(path.iterdir()):
        data = file.read_bytes()
        total += len(data)
        h.update(file.name.encode() + b"\0" + data)
    return h.hexdigest(), total


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def cli_op(name, command, problem_path, out_dir, gate, exit_codes=(0,)):
    """An op that runs one CLI command in-process on a problem file."""
    argv = [command, "--input", str(problem_path), "--output", str(out_dir)]

    def prepare():
        shutil.rmtree(out_dir, ignore_errors=True)

    def check(code):
        _require(code in exit_codes, f"{name}: exit code {code}, expected {exit_codes}")
        gate(out_dir)
        return _digest_dir(out_dir)

    return Op(name, lambda: pcfield.cli.main(argv), check, prepare)


def _write_problem(path, problem):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(problem, indent=1))
    return path


def _channel(m, l, F, G, a):
    return {"m": m, "l": l, "F": density_to_spec(F), "G": density_to_spec(G),
            "a": _complex_json(a)}


def _read_json(path):
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# solve_batch


class SolveBatch:
    """Eight noisy channels (four K=3, four K=1) at window 96, N = 4096.

    Runs CLI ``solve``, ``oracle``, ``factorize`` and ``check`` on one
    problem file.
    """

    N_LAMBDA = 4096
    WINDOW = 96
    J_PAST = 128
    ORACLE_REL = 1e-4
    FACTORIZATION_TOL = 1e-8

    def __init__(self, rng, work):
        channels = []
        self.sup_f = []
        radii = radius_ladder(4)
        for i in range(8):
            K = 3 if i < 4 else 1
            F = minimal_density(rng, K, radii[i % 4])
            G = white_density(K, NOISE_LEVEL)
            assert_minimal(F, G, self.N_LAMBDA)
            a = _cnormal(rng, (4, K))
            channels.append(_channel(1 + i // 3, 1 + i % 3, F, G, a))
            values = F.rasterize(self.N_LAMBDA).values
            self.sup_f.append(float(np.max(np.linalg.norm(values, axis=(1, 2)))))
        problem = _write_problem(work / "solve_batch.json", {
            "version": "1",
            "solver": {"window": self.WINDOW, "j_past": self.J_PAST,
                       "n_lambda": self.N_LAMBDA,
                       "tolerances": {"oracle_rel": self.ORACLE_REL,
                                      "factorization": self.FACTORIZATION_TOL}},
            "channels": channels,
        })
        self.out = {name: work / "out" / name
                    for name in ("solve", "oracle", "factorize", "check")}
        self.ops = [
            cli_op("solve", "solve", problem, self.out["solve"], self._gate_solve),
            cli_op("oracle", "oracle", problem, self.out["oracle"], self._gate_oracle),
            cli_op("factorize", "factorize", problem, self.out["factorize"],
                   self._gate_factorize),
            cli_op("check", "check", problem, self.out["check"], self._gate_check),
        ]

    def _gate_solve(self, out):
        deltas = [ch["delta"] for ch in _read_json(out / "results.json")["channels"]]
        _require(len(deltas) == 8 and all(np.isfinite(d) and d > 0 for d in deltas),
                 f"solve: bad deltas {deltas}")

    def _gate_oracle(self, out):
        solved = _read_json(self.out["solve"] / "results.json")["channels"]
        oracle = _read_json(out / "oracle.json")["channels"]
        for sol, orc in zip(solved, oracle, strict=True):
            rel = abs(sol["delta"] - orc["mse"]) / abs(orc["mse"])
            _require(rel <= self.ORACLE_REL,
                     f"oracle: channel ({sol['m']}, {sol['l']}) |delta - oracle| / "
                     f"oracle = {rel:.3e} > {self.ORACLE_REL}")

    def _gate_factorize(self, out):
        channels = _read_json(out / "factorization.json")["channels"]
        for ch, sup in zip(channels, self.sup_f, strict=True):
            rel = ch["residual"] / sup
            _require(rel <= self.FACTORIZATION_TOL,
                     f"factorize: channel ({ch['m']}, {ch['l']}) relative residual "
                     f"{rel:.3e} > {self.FACTORIZATION_TOL}")

    def _gate_check(self, out):
        _require(_read_json(out / "minimality.json")["all_passed"] is True,
                 "check: all_passed is not true")

    def run_checks(self):
        return []


# ---------------------------------------------------------------------------
# simulate_field


def _real_field_projection(values):
    """Coefficients a real field keeps for K = 3 (frequencies 0, +1, -1)."""
    out = values.copy()
    out[:, 0] = out[:, 0].real
    mean = 0.5 * (out[:, 1] + np.conj(out[:, 2]))
    out[:, 1] = mean
    out[:, 2] = np.conj(mean)
    return out


class SimulateField:
    """Monte Carlo validation plus a sphere-field round trip.

    CLI ``validate`` on two noisy channels (K=3 and K=1, 10k trials), then
    a round trip that simulates all 25 channels of degree <= 4 (K=3) over
    256 periods, synthesizes the field on a Gauss-Legendre grid, analyses
    every time sample and re-blocks every channel.
    """

    M_MAX = 4
    K = 3
    N_PERIODS = 256
    FIELD_N_LAMBDA = 1024
    VALIDATE_N_LAMBDA = 2048
    ROUNDTRIP_TOL = 1e-10
    # At 3 sigma a correct program fails one run in about 190 (two channels,
    # 0.27% each), too often for a benchmark repeated dozens of times.
    MC_SIGMAS = 4.0

    def __init__(self, rng, work):
        channels = []
        for i, K in enumerate((3, 1)):
            F = minimal_density(rng, K, radius=0.5)
            G = white_density(K, NOISE_LEVEL)
            assert_minimal(F, G, self.VALIDATE_N_LAMBDA)
            channels.append(_channel(1, 1 + i, F, G, _cnormal(rng, (4, K))))
        problem = _write_problem(work / "validate.json", {
            "version": "1",
            "solver": {"window": 96, "j_past": 96, "n_lambda": self.VALIDATE_N_LAMBDA,
                       "tolerances": {"mc_sigmas": self.MC_SIGMAS}},
            "channels": channels,
            "simulation": {"seed": int(rng.integers(2**31)), "n_trials": 10_000,
                           "n_steps": 64},
        })

        self.densities = {}
        radii = iter(radius_ladder((self.M_MAX + 1) ** 2))
        for m in range(self.M_MAX + 1):
            for l in range(1, 2 * m + 2):
                F = minimal_density(rng, self.K, next(radii))
                assert_minimal(F, None, self.FIELD_N_LAMBDA)
                self.densities[(m, l)] = F.rasterize(self.FIELD_N_LAMBDA)
        self.path_seed = int(rng.integers(2**31))
        self.blocking = pcfield.BlockingConfig(period=1.0, n_components=self.K, dt=0.125)
        self.sphere = pcfield.gauss_legendre_grid(self.M_MAX)

        self.ops = [
            cli_op("validate", "validate", problem, work / "out" / "validate",
                   self._gate_validate),
            Op("field_roundtrip", self._roundtrip, self._gate_roundtrip),
        ]

    def _gate_validate(self, out):
        report = _read_json(out / "validation.json")
        _require(report["all_ok"] is True, f"validate: not all_ok: {report['channels']}")

    def _roundtrip(self):
        paths = {key: pcfield.simulate_channel(F, self.N_PERIODS, seed=self.path_seed + i)
                 for i, (key, F) in enumerate(self.densities.items())}
        field = pcfield.synthesize_sphere_field(paths, self.blocking, self.sphere, self.M_MAX)
        coeffs = np.array([pcfield.decompose_field(sample, self.M_MAX, self.sphere)
                           for sample in field])
        blocked = {key: pcfield.block_coefficients(
                       coeffs[:, pcfield.harmonics.flat_index(*key)], self.blocking).values
                   for key in paths}
        return paths, blocked

    def _gate_roundtrip(self, result):
        paths, blocked = result
        h = hashlib.sha256()
        for key in sorted(paths):
            err = float(np.max(np.abs(blocked[key] - _real_field_projection(paths[key]))))
            _require(err <= self.ROUNDTRIP_TOL,
                     f"field_roundtrip: channel {key} error {err:.3e} > {self.ROUNDTRIP_TOL}")
            h.update(paths[key].tobytes())
            h.update(blocked[key].tobytes())
        return h.hexdigest(), 0

    def run_checks(self):
        return []


# ---------------------------------------------------------------------------
# minimax_search


def _read_matrix_grid(path, K):
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    values = (rows[:, 3] + 1j * rows[:, 4]).reshape(-1, K, K)
    return pcfield.SpectralDensityGrid(values, check=False)


class MinimaxSearch:
    """Two least-favorable searches through CLI ``minimax``.

    The K=1 contamination x power class (trace variant), run to
    convergence, and the K=2 matrix band x L1 class on a fixed budget
    of ascent steps.  The classes are fixed; the seed draws the feasible
    members of the sampled-dominance gate.
    """

    N_LAMBDA = 512
    DOMINANCE_SAMPLES = 50
    DOMINANCE_SLACK = 1e-3

    def __init__(self, rng, work):
        self.rng = rng
        n = self.N_LAMBDA
        upper = pcfield.RationalDensity.ar1(0.3)
        power = 1.2 * upper.rasterize(n).trace_integral()
        trace_problem = _write_problem(work / "minimax_trace.json", {
            "version": "1",
            "solver": {"window": 48, "n_lambda": n},
            "channels": [_channel(0, 1, white_density(1, power), white_density(1, 0.4),
                                  np.array([[1.0], [0.5]]))],
            "class_spec": {"family": "contamination", "variant": "trace",
                           "upper": density_to_spec(upper), "epsilon": 0.3,
                           "signal_power": power, "noise_power": 0.4,
                           "max_iter": 600, "tol": 1e-8},
        })
        K = 2
        nominal = white_density(K, 0.25)
        band_problem = _write_problem(work / "minimax_band.json", {
            "version": "1",
            "solver": {"window": 32, "n_lambda": n},
            "channels": [_channel(0, 1, white_density(K, 1.0), nominal,
                                  np.array([[1.0, 0.2], [0.3, -0.4]]))],
            "class_spec": {"family": "band", "variant": "matrix",
                           "lower": density_to_spec(white_density(K, 0.3)),
                           "upper": density_to_spec(constant_density(
                               [[2.0, 0.2], [0.2, 2.0]])),
                           "signal_power": np.eye(K).tolist(),
                           "noise_nominal": density_to_spec(nominal),
                           "noise_radius": np.full((K, K), 0.15).tolist(),
                           "max_iter": 8, "tol": 1e-9},
        })
        self.problems = {"minimax_trace": (trace_problem, 1),
                         "minimax_band": (band_problem, K)}
        self.out = {name: work / "out" / name for name in self.problems}
        self.ops = [
            cli_op("minimax_trace", "minimax", trace_problem,
                   self.out["minimax_trace"], self._gate_trace),
            cli_op("minimax_band", "minimax", band_problem,
                   self.out["minimax_band"], self._gate_band,
                   exit_codes=(pcfield.cli.EXIT_OK, pcfield.cli.EXIT_NOT_CONVERGED)),
        ]

    def _gate_trace(self, out):
        report = _read_json(out / "minimax.json")
        _require(report["converged"] is True, "minimax_trace: not converged")
        _require(report["residual_F"] <= 1e-3,
                 f"minimax_trace: residual_F {report['residual_F']:.3e} > 1e-3")

    def _gate_band(self, out):
        history = np.array(_read_json(out / "minimax.json")["objective_history"])
        _require(np.all(np.diff(history) >= -1e-12),
                 f"minimax_band: objective history decreases: {history.tolist()}")

    def _dominance(self, name):
        """Feasibility of the returned pair and sampled saddle dominance."""
        path, K = self.problems[name]
        problem = pcfield.cli.Problem(path)
        spec = problem.class_spec()
        F0 = _read_matrix_grid(self.out[name] / "f0.csv", K)
        G0 = _read_matrix_grid(self.out[name] / "g0.csv", K)
        gap = pcfield.feasibility_gap((F0, G0), spec)
        _require(gap < 1e-6, f"{name}: feasibility gap {gap:.3e} >= 1e-6")
        anchor = pcfield.build_anchor(F0, G0, {(0, 1): problem.channels[0]["a"]},
                                      window=problem.window)
        bound = anchor.delta * (1 + self.DOMINANCE_SLACK)
        for i in range(self.DOMINANCE_SAMPLES):
            Fs, Gs = pcfield.sample_feasible(spec, self.rng, self.N_LAMBDA)
            value = pcfield.evaluate_robust_objective(Fs, Gs, anchor)
            _require(value <= bound, f"{name}: sampled member {i} has robust "
                                     f"objective {value:.8f} > {bound:.8f}")

    def run_checks(self):
        return [(f"{name}_dominance", lambda name=name: self._dominance(name))
                for name in self.problems]


WORKLOADS = {
    "solve_batch": SolveBatch,
    "simulate_field": SimulateField,
    "minimax_search": MinimaxSearch,
}


def build(name, seed, work):
    """Generate the inputs of workload ``name`` from ``seed`` under ``work``."""
    index = list(WORKLOADS).index(name)
    rng = np.random.default_rng([seed, index])
    return WORKLOADS[name](rng, work)
