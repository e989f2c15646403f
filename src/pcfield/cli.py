"""Batch command-line front end.

Subcommands: ``solve``, ``minimax``, ``factorize``, ``simulate``,
``validate``, ``oracle``, ``check``.  Each consumes a JSON problem file and writes
result artifacts (JSON + CSV) into the output directory.  Outputs embed
the SHA-256 of the input file and every effective tolerance; identical
inputs produce byte-identical artifacts.

Exit codes: 0 success, 2 minimality or factorization failure, 3 usage
error, schema error or infeasible class, 4 least-favorable search did not
converge, 5 validation disagreement.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .blocking import BlockingConfig, functional_to_spec, read_samples_csv
from .harmonics import flat_index
from .extrapolate import (
    DEFAULT_J_PAST,
    DEFAULT_WINDOW,
    FACTORIZATION_TOL,
    FactorizationError,
    oracle_solve,
    solve_channel,
    spectral_factorize,
    _checked_factor,
)
from .minimax import DensityClassSpec, InfeasibleClassError, find_least_favorable
from .simulate import (
    PastWindowError,
    SimulationConfig,
    check_joint_size,
    empirical_lag_covariance,
    empirical_mse,
    simulate_channel,
)
from .spectral import (
    DEFAULT_COND_CEILING,
    DEFAULT_N_LAMBDA,
    MinimalityViolation,
    NonFiniteDensityError,
    check_minimality,
    complex_tensor_from_json,
    density_from_spec,
    lambda_grid,
    _pair_grids,
    _real_array_from_json,
)

EXIT_OK = 0
EXIT_MINIMALITY = 2
EXIT_SCHEMA = 3
EXIT_NOT_CONVERGED = 4
EXIT_VALIDATION = 5


class SchemaError(ValueError):
    """Problem file does not match the expected schema."""


# ---------------------------------------------------------------------------
# problem-file parsing

_TOP_KEYS = {"version", "channels", "solver", "blocking", "class_spec", "simulation"}
_CHANNEL_KEYS = {"m", "l", "F", "G", "a", "reference_F", "reference_G"}
_SOLVER_KEYS = {"window", "j_past", "n_lambda", "tolerances"}
_TOL_KEYS = {"oracle_rel", "mc_sigmas"}
_BLOCKING_KEYS = {"period", "n_components", "dt"}
# the class keys are DensityClassSpec's fields; the search reads four more
_SPEC_KEYS = tuple(f.name for f in dataclasses.fields(DensityClassSpec))
_CLASS_KEYS = {*_SPEC_KEYS, "max_iter", "tol", "init_F", "init_G"}
_SIM_KEYS = {"seed", "n_trials", "n_steps", "keep_trials"}


def _require_keys(obj, allowed, required, where, strict):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be an object")
    missing = required - set(obj)
    if missing:
        raise SchemaError(f"{where} missing required field(s) {sorted(missing)}")
    unknown = set(obj) - allowed
    if unknown and strict:
        raise SchemaError(f"{where} has unknown field(s) {sorted(unknown)}")


def _integer(obj, key, default, where, minimum=None):
    """An integer field (a JSON integer, or an integral number)."""
    value = obj.get(key, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}.{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{where}.{key} must be >= {minimum}, got {value}")
    return value


def _positive(obj, key, default, where):
    """A positive finite number field."""
    value = obj.get(key, default)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0 < value < float("inf")):
        raise SchemaError(f"{where}.{key} must be a positive number, got {value!r}")
    return float(value)


def _boolean(obj, key, where):
    """A JSON true/false field, false when absent."""
    value = obj.get(key, False)
    if not isinstance(value, bool):
        raise SchemaError(f"{where}.{key} must be true or false, got {value!r}")
    return value


def _parse_density(spec, where):
    if spec is None:
        return None
    try:
        return density_from_spec(spec)
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _parse_functional(raw, blocking, K, where):
    if isinstance(raw, dict):
        if "samples" not in raw and "samples_csv" not in raw:
            raise SchemaError(f"{where}: functional object needs 'samples' or "
                              "'samples_csv'")
        if blocking is None:
            raise SchemaError(f"{where}: sampled functional needs a blocking section")
        try:
            if "samples_csv" in raw:
                _, samples = read_samples_csv(raw["samples_csv"])
            else:
                samples = _real_array_from_json(raw["samples"], "samples")
            return functional_to_spec(samples, blocking).coefficients
        except (OSError, ValueError) as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    try:
        arr = complex_tensor_from_json(raw, base_ndim=(1, 2), where=where)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    arr = np.atleast_2d(arr)
    if arr.shape[1] != K:
        raise SchemaError(
            f"{where}: functional has {arr.shape[1]} components, density has K={K}"
        )
    return arr


class Problem:
    """Validated problem file."""

    def __init__(self, path, strict=False):
        raw_bytes = Path(path).read_bytes()
        self.sha256 = hashlib.sha256(raw_bytes).hexdigest()
        try:
            data = json.loads(raw_bytes)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
        _require_keys(data, _TOP_KEYS, {"version", "channels"}, "problem", strict)
        if str(data["version"]) != "1":
            raise SchemaError(f"unsupported version {data['version']!r}")

        solver = data.get("solver", {})
        _require_keys(solver, _SOLVER_KEYS, set(), "solver", strict)
        tols = solver.get("tolerances", {})
        _require_keys(tols, _TOL_KEYS, set(), "solver.tolerances", strict)
        self.window = _integer(solver, "window", DEFAULT_WINDOW, "solver", minimum=1)
        self.j_past = _integer(solver, "j_past", DEFAULT_J_PAST, "solver", minimum=1)
        self.n_lambda = _integer(solver, "n_lambda", DEFAULT_N_LAMBDA, "solver", minimum=1)
        if self.window >= self.n_lambda // 2:
            raise SchemaError(
                f"solver.window {self.window} too large for n_lambda {self.n_lambda} "
                f"(need window < n_lambda // 2 = {self.n_lambda // 2})"
            )
        self.tolerances = {
            "oracle_rel": _positive(tols, "oracle_rel", 1e-4, "solver.tolerances"),
            "mc_sigmas": _positive(tols, "mc_sigmas", 3.0, "solver.tolerances"),
        }

        self.blocking = None
        if "blocking" in data:
            blk = data["blocking"]
            _require_keys(blk, _BLOCKING_KEYS,
                          {"period", "n_components", "dt"}, "blocking", strict)
            fields = {"period": _positive(blk, "period", None, "blocking"),
                      "n_components": _integer(blk, "n_components", None, "blocking",
                                               minimum=1),
                      "dt": _positive(blk, "dt", None, "blocking")}
            try:
                self.blocking = BlockingConfig(**fields)
            except ValueError as exc:
                raise SchemaError(f"blocking: {exc}") from exc

        channels = data["channels"]
        if not isinstance(channels, list) or not channels:
            raise SchemaError("channels must be a non-empty list")
        self.channels = []
        seen = {}
        for i, ch in enumerate(channels):
            where = f"channels[{i}]"
            _require_keys(ch, _CHANNEL_KEYS, {"m", "l", "F", "a"}, where, strict)
            F = _parse_density(ch["F"], where + ".F")
            entry = {
                "m": _integer(ch, "m", None, where),
                "l": _integer(ch, "l", None, where),
                "F": F,
                "G": _parse_density(ch.get("G"), where + ".G"),
                "a": _parse_functional(ch["a"], self.blocking, F.K, where + ".a"),
                "reference_F": _parse_density(ch.get("reference_F"), where + ".reference_F"),
                "reference_G": _parse_density(ch.get("reference_G"), where + ".reference_G"),
            }
            key = (entry["m"], entry["l"])
            try:
                flat_index(*key)
            except ValueError as exc:
                raise SchemaError(f"{where}: {exc}") from None
            if key in seen:
                raise SchemaError(f"{where}: duplicate (m, l) = {key}, "
                                  f"already channels[{seen[key]}]")
            seen[key] = i
            support = entry["a"].shape[0]
            if support > self.window:
                raise SchemaError(
                    f"{where}.a: functional support {support} exceeds "
                    f"solver.window {self.window}"
                )
            for field in ("F", "G", "reference_F", "reference_G"):
                _check_density(entry[field], f"{where}.{field}", F.K, f"{where}.F",
                               self.n_lambda)
            self.channels.append(entry)

        self.class_spec_raw = data.get("class_spec")
        if self.class_spec_raw is not None:
            _require_keys(self.class_spec_raw, _CLASS_KEYS, {"family", "variant"},
                          "class_spec", strict)

        self.simulation = None
        self.keep_trials = False
        if "simulation" in data:
            sim = data["simulation"]
            _require_keys(sim, _SIM_KEYS, {"seed"}, "simulation", strict)
            defaults = {f.name: f.default for f in dataclasses.fields(SimulationConfig)}
            self.simulation = SimulationConfig(
                seed=_integer(sim, "seed", None, "simulation", minimum=0),
                **{name: _integer(sim, name, defaults[name], "simulation", minimum=1)
                   for name in ("n_trials", "n_steps")},
            )
            self.keep_trials = _boolean(sim, "keep_trials", "simulation")

    def class_spec(self):
        """The ``class_spec`` section as a :class:`DensityClassSpec`, built
        in one call over the parsed keys (``_class_value``)."""
        raw = self.class_spec_raw
        if raw is None:
            raise SchemaError("this command needs a class_spec section")
        parsed = {key: _class_value(raw, key) for key in _SPEC_KEYS if key in raw}
        try:
            return DensityClassSpec(**parsed)
        except (ValueError, TypeError) as exc:
            raise SchemaError(f"class_spec: {exc}") from exc


def _check_density(density, where, K, against, n_lambda):
    """The one check of a parsed density of the problem file (None passes):
    :class:`SchemaError` where its K is not ``against``'s K, or where it is a
    grid of another N than ``solver.n_lambda``."""
    if density is None:
        return
    if density.K != K:
        raise SchemaError(f"{where}: density has K={density.K}, {against} has K={K}")
    if getattr(density, "n_lambda", n_lambda) != n_lambda:
        raise SchemaError(f"{where}: grid density has n_lambda={density.n_lambda}, "
                          f"solver uses {n_lambda}")


def _class_value(raw, key):
    """One ``class_spec`` value in the spec's terms: densities parsed,
    vector and matrix values as complex arrays, scalars as written for the
    spec to check."""
    value, where = raw[key], f"class_spec.{key}"
    if key == "noiseless":
        return _boolean(raw, key, "class_spec")
    if key == "channel_weight":
        return _positive(raw, key, 1.0, "class_spec")
    if key in ("upper", "lower", "noise_nominal"):
        return _parse_density(value, where)
    weight = key.startswith("weight")
    if (value is None or key in ("family", "variant", "epsilon")
            or (not weight and isinstance(value, (int, float)))):
        return value
    try:
        return complex_tensor_from_json(value, base_ndim=(2,) if weight else (1, 2),
                                        where=where)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


# ---------------------------------------------------------------------------
# artifact writing


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _write_json(path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


_CSV_BLOCK = 1024   # rows converted to Python objects at a time


def _write_csv(path, header, columns):
    """CSV of equal-length columns, each cell the ``repr`` of its value.

    Columns go through ``tolist``, so integer columns give ints and the
    others floats; the bytes match a ``csv.writer`` (``\r\n`` line ends)
    fed ``repr(float(x))`` cells.  Rows are converted in blocks, so the
    Python objects alive at once stay few however long the file.
    """
    columns = [np.asarray(column) for column in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), _CSV_BLOCK):
            rows = zip(*(column[start:start + _CSV_BLOCK].tolist() for column in columns))
            fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def _entry_columns(values):
    """One row per entry of a complex array, in C order: its index (the
    first axis 0-based, the others 1-based), then re and im."""
    index = np.indices(values.shape).reshape(values.ndim, -1)
    index[1:] += 1
    return [*index, values.real.ravel(), values.imag.ravel()]


def _frequency_cells(n_lambda):
    """The ``repr`` of each grid frequency, formatted once per command."""
    return list(map(repr, lambda_grid(n_lambda).tolist()))


def _write_grid_csv(path, values, lam):
    """CSV of an (N, K) vector or (N, K, K) matrix grid function, one row
    per entry: lambda, k (or row, col), re, im; ``lam`` holds the N
    formatted frequencies (``_frequency_cells``).

    The bytes are those of ``_write_csv`` fed ``_entry_columns`` with the
    first index mapped to lambda, but each frequency is formatted once per
    command and each index string once per file.  Nodes are converted in
    blocks of about ``_CSV_BLOCK`` rows.
    """
    index = ["," + ",".join(str(i + 1) for i in idx) + "," for idx in np.ndindex(values.shape[1:])]
    flat = values.reshape(len(lam), -1)
    step = max(1, _CSV_BLOCK // flat.shape[1])
    names = ["k"] if values.ndim == 2 else ["row", "col"]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["lambda", *names, "re", "im"]) + "\r\n")
        for start in range(0, len(lam), step):
            block = flat[start:start + step]
            prefixes = [node + entry for node in lam[start:start + step] for entry in index]
            fh.writelines(prefix + re + "," + im + "\r\n" for prefix, re, im in zip(
                prefixes, map(repr, block.real.ravel().tolist()),
                map(repr, block.imag.ravel().tolist())))


def _meta(problem):
    # the file's two validate tolerances, and the thresholds every command applies
    return {
        "input_sha256": problem.sha256,
        "tolerances": {**problem.tolerances, "cond_ceiling": DEFAULT_COND_CEILING,
                       "factorization": FACTORIZATION_TOL},
        "window": problem.window,
        "j_past": problem.j_past,
        "n_lambda": problem.n_lambda,
        "rng": "numpy.random.default_rng (PCG64, SeedSequence substreams)",
        "package_version": __version__,
    }


def _channel_factors(problem):
    """Each channel's factor of F at ``n_lambda``; a factor that
    ``_checked_factor`` refuses stops the command before it writes a file."""
    return [_checked_factor(spectral_factorize(entry["F"], n_lambda=problem.n_lambda),
                            f"channels[{i}]: ") for i, entry in enumerate(problem.channels)]


# ---------------------------------------------------------------------------
# commands


def _checked_weights(sol, problem, i):
    """``sol``, or :class:`SchemaError` when its ``weight_tail``, the weights' energy
    share past the grid's lags, exceeds the factorization tolerance ``_meta`` records."""
    tail = sol.diagnostics.get("weight_tail", 0.0)
    limit = _meta(problem)["tolerances"]["factorization"]
    if not tail <= limit:
        raise SchemaError(
            f"channels[{i}]: solver.n_lambda {problem.n_lambda} holds the estimator's "
            f"weights to lag {problem.n_lambda // 2 - 1} only; the share {tail:.3e} of "
            f"their energy beyond exceeds {limit:.1e}")
    return sol


def cmd_solve(problem, out_dir, args):
    sols = [_checked_weights(solve_channel(entry["F"], entry["G"], entry["a"],
                                           window=problem.window, n_lambda=problem.n_lambda),
                             problem, i)
            for i, entry in enumerate(problem.channels)]
    payload = {"command": "solve", "meta": _meta(problem), "channels": []}
    total = 0.0
    for entry, sol in zip(problem.channels, sols):
        total += sol.delta
        payload["channels"].append({
            "m": entry["m"], "l": entry["l"],
            "delta": sol.delta,
            "coefficients_re": sol.coefficients.real.tolist(),
            "coefficients_im": sol.coefficients.imag.tolist(),
            "diagnostics": {k: v for k, v in sol.diagnostics.items()
                            if isinstance(v, (int, float, bool))},
        })
    payload["delta_total"] = total
    _write_json(out_dir / "results.json", payload)
    lam = _frequency_cells(problem.n_lambda)
    for entry, sol in zip(problem.channels, sols):
        _write_grid_csv(out_dir / f"h_{entry['m']}_{entry['l']}.csv", sol.h_grid, lam)
    return EXIT_OK


def _check_oracle_lags(problem):
    """The oracle's covariances reach lag j_past + support; reject lags the
    grid aliases (|lag| >= n_lambda // 2)."""
    limit = problem.n_lambda // 2
    for i, entry in enumerate(problem.channels):
        support = entry["a"].shape[0]
        if problem.j_past + support >= limit:
            raise SchemaError(
                f"channels[{i}]: solver.j_past {problem.j_past} plus functional "
                f"support {support} must stay below n_lambda // 2 = {limit}"
            )


def _check_simulation_lags(problem, cfg):
    """The Monte Carlo replay reads the estimator's weights to lag
    2 * n_steps and the joint covariances to lag n_steps + support - 1;
    reject lags the grid aliases (|lag| >= n_lambda // 2) and a joint
    vector above ``MAX_JOINT_SIZE``."""
    limit = problem.n_lambda // 2
    L = cfg.n_steps
    for i, entry in enumerate(problem.channels):
        reach = L + entry["a"].shape[0] - 1
        if max(2 * L, reach) >= limit:
            raise SchemaError(
                f"channels[{i}]: simulation.n_steps: {L} steps read the estimator's "
                f"weights to lag {2 * L} and the covariances to lag {reach}; both must "
                f"stay below n_lambda // 2 = {limit}"
            )
        try:
            check_joint_size(L, *entry["a"].shape)
        except PastWindowError as exc:
            raise SchemaError(f"channels[{i}]: simulation.n_steps: {exc}") from None


def cmd_oracle(problem, out_dir, args):
    _check_oracle_lags(problem)
    payload = {"command": "oracle", "meta": _meta(problem), "channels": []}
    total = 0.0
    for entry in problem.channels:
        mse = oracle_solve(entry["F"], entry["G"], entry["a"],
                           j_past=problem.j_past, n_lambda=problem.n_lambda)
        total += mse
        payload["channels"].append({"m": entry["m"], "l": entry["l"], "mse": mse})
    payload["mse_total"] = total
    _write_json(out_dir / "oracle.json", payload)
    return EXIT_OK


def cmd_factorize(problem, out_dir, args):
    factors = _channel_factors(problem)
    trimmed = [fac.trimmed_coefficients for fac in factors]
    payload = {"command": "factorize", "meta": _meta(problem), "channels": [
        {"m": entry["m"], "l": entry["l"], "residual": fac.residual,
         "iterations": fac.iterations, "n_coefficients": int(d.shape[0])}
        for entry, fac, d in zip(problem.channels, factors, trimmed)]}
    _write_json(out_dir / "factorization.json", payload)
    for entry, d in zip(problem.channels, trimmed):
        _write_csv(out_dir / f"factor_{entry['m']}_{entry['l']}.csv",
                   ["u", "row", "col", "re", "im"], _entry_columns(d))
    return EXIT_OK


def _simulation(problem, args):
    """The problem's simulation section with the ``--seed`` override applied."""
    if problem.simulation is None:
        raise SchemaError(f"{args.command} needs a simulation section")
    if args.seed is None:
        return problem.simulation
    return dataclasses.replace(problem.simulation, seed=args.seed)


def cmd_simulate(problem, out_dir, args):
    cfg = _simulation(problem, args)
    payload = {"command": "simulate", "meta": _meta(problem),
               "seed": cfg.seed, "n_steps": cfg.n_steps, "channels": []}
    for entry, fac in zip(problem.channels, _channel_factors(problem)):
        path = simulate_channel(fac, cfg.n_steps, seed=cfg.seed)
        cov0 = empirical_lag_covariance(path, 0)
        payload["channels"].append({
            "m": entry["m"], "l": entry["l"],
            "lag0_covariance_re": cov0.real.tolist(),
            "lag0_covariance_im": cov0.imag.tolist(),
        })
        _write_csv(out_dir / f"path_{entry['m']}_{entry['l']}.csv",
                   ["j", "k", "re", "im"], _entry_columns(path))
    _write_json(out_dir / "simulation.json", payload)
    return EXIT_OK


def cmd_validate(problem, out_dir, args):
    cfg = _simulation(problem, args)
    _check_oracle_lags(problem)
    _check_simulation_lags(problem, cfg)
    rows, draws = [], []
    for i, entry in enumerate(problem.channels):
        # the solve (which picks its route by the parsed densities), the
        # oracle and the draw share the channel's grids; a reference
        # density is rasterized apart, only when given
        F, G = _pair_grids(entry["F"], entry["G"], problem.n_lambda)
        sol = _checked_weights(solve_channel(entry["F"], entry["G"], entry["a"],
                                             window=problem.window, grids=(F, G)),
                               problem, i)
        ref_F, ref_G = entry["reference_F"], entry["reference_G"]
        F_true, G_true = _pair_grids(F if ref_F is None else ref_F,
                                     G if ref_G is None else ref_G, problem.n_lambda)
        mse_oracle = oracle_solve(F_true, G_true, entry["a"],
                                  j_past=problem.j_past, n_lambda=problem.n_lambda)
        try:
            mc = empirical_mse(sol, F_true, G_true, entry["a"], cfg,
                               keep_trials=problem.keep_trials)
        except PastWindowError as exc:
            raise SchemaError(f"channels[{i}]: simulation.n_steps: {exc}") from None
        rel = abs(sol.delta - mse_oracle) / max(abs(mse_oracle), 1e-300)
        sigmas = abs(mc.mse - sol.delta) / max(mc.stderr, 1e-300)
        rows.append({
            "m": entry["m"], "l": entry["l"],
            "delta_theory": sol.delta,
            "mse_oracle": mse_oracle,
            "oracle_rel_error": rel,
            "oracle_ok": rel <= problem.tolerances["oracle_rel"],
            "mse_empirical": mc.mse,
            "stderr": mc.stderr,
            "empirical_sigmas": sigmas,
            "empirical_ok": sigmas <= problem.tolerances["mc_sigmas"],
            "n_trials": mc.n_trials,
            "seed": mc.seed,
        })
        draws.append((entry, mc))
    # every channel is solved and checked before any file is written
    for entry, mc in draws if problem.keep_trials else []:
        realized, estimated = mc.realized, mc.estimated
        # scalar abs and pow: numpy's vectorized complex abs rounds some
        # values differently, which would change the artifact's bytes
        squared = [abs(z) ** 2 for z in (realized - estimated).tolist()]
        _write_csv(out_dir / f"trials_{entry['m']}_{entry['l']}.csv",
                   ["trial", "realized_re", "realized_im",
                    "estimated_re", "estimated_im", "squared_error"],
                   [np.arange(mc.n_trials), realized.real, realized.imag,
                    estimated.real, estimated.imag, squared])
    all_ok = all(row["oracle_ok"] and row["empirical_ok"] for row in rows)
    payload = {"command": "validate", "meta": _meta(problem),
               "channels": rows, "all_ok": all_ok}
    _write_json(out_dir / "validation.json", payload)
    if not all_ok:
        print("validate: disagreement beyond tolerance; see validation.json",
              file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _multiplier_levels(mult):
    """The scalar multipliers and per-weight levels of one side of a saddle
    report; a complex level is written as [re, im], and the per-node
    profiles (``gamma``, ``gamma_upper``) stay out of the artifact."""
    levels = {}
    for key, value in mult.items():
        if key in ("alpha_outer", "beta_outer"):
            levels[key] = [value.real, value.imag]
        elif key in ("alpha_sq", "beta_sq") or isinstance(value, (int, float, bool)):
            levels[key] = value
    return levels


def cmd_minimax(problem, out_dir, args):
    spec = problem.class_spec()
    raw = problem.class_spec_raw
    max_iter = _integer(raw, "max_iter", 500, "class_spec", minimum=1)
    tol = _positive(raw, "tol", 1e-6, "class_spec")
    for i, entry in enumerate(problem.channels):
        _check_density(entry["F"], f"channels[{i}].F", spec.K, "class_spec.upper",
                       problem.n_lambda)
    functionals = {(entry["m"], entry["l"]): entry["a"]
                   for entry in problem.channels}
    init_F = (_parse_density(raw.get("init_F"), "class_spec.init_F")
              if raw.get("init_F") is not None else problem.channels[0]["F"])
    if not spec.noiseless:
        init_G = (_parse_density(raw.get("init_G"), "class_spec.init_G")
                  if raw.get("init_G") is not None else problem.channels[0]["G"])
        if init_G is None:
            raise SchemaError("minimax with a noisy class needs init_G or channel G")
    else:
        init_G = None
    for key, density in (("upper", spec.upper), ("lower", spec.lower),
                         ("noise_nominal", spec.noise_nominal),
                         ("init_F", init_F), ("init_G", init_G)):
        _check_density(density, f"class_spec.{key}", spec.K, "class_spec.upper",
                       problem.n_lambda)
    init = _pair_grids(init_F, init_G, problem.n_lambda)
    with warnings.catch_warnings():
        # a non-converged search is reported once, by the line below
        warnings.filterwarnings("ignore", message="least-favorable search did not converge",
                                category=RuntimeWarning)
        result = find_least_favorable(
            spec, functionals, init,
            max_iter=max_iter, tol=tol,
            window=problem.window, n_lambda=problem.n_lambda,
        )
    report = result.report
    payload = {
        "command": "minimax", "meta": _meta(problem),
        "converged": result.converged,
        "status": "CONVERGED" if result.converged else "NOT_CONVERGED",
        "iterations": result.iterations,
        "objective": report.objective,
        "objective_history": result.objective_history,
        "residual_F": report.residual_F,
        "residual_G": report.residual_G,
        "multipliers": {side: _multiplier_levels(mult)
                        for side, mult in report.multipliers.items()},
    }
    _write_json(out_dir / "minimax.json", payload)
    lam = _frequency_cells(problem.n_lambda)
    _write_grid_csv(out_dir / "f0.csv", result.F0.values, lam)
    if result.G0 is not None:
        _write_grid_csv(out_dir / "g0.csv", result.G0.values, lam)
    for (m, l), sol in result.anchor.solutions.items():
        _write_grid_csv(out_dir / f"h0_{m}_{l}.csv", sol.h_grid, lam)
    if not result.converged:
        print("minimax: search did not converge; artifacts carry the best iterate",
              file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_check(problem, out_dir, args):
    payload = {"command": "check", "meta": _meta(problem), "channels": []}
    for entry in problem.channels:
        report = check_minimality(entry["F"], entry["G"], n_lambda=problem.n_lambda)
        payload["channels"].append({
            "m": entry["m"], "l": entry["l"],
            "passed": report.passed,
            "trace_integral": report.trace_integral,
            "max_condition": report.max_condition,
            "closed_loop_radius": report.closed_loop_radius,
            "singular_lambdas": report.singular_lambdas,
        })
    payload["all_passed"] = all(row["passed"] for row in payload["channels"])
    _write_json(out_dir / "minimality.json", payload)
    return EXIT_OK if payload["all_passed"] else EXIT_MINIMALITY


_COMMANDS = {
    "solve": cmd_solve,
    "minimax": cmd_minimax,
    "factorize": cmd_factorize,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
    "oracle": cmd_oracle,
    "check": cmd_check,
}


class _UsageError(Exception):
    """The command line does not parse."""


class _Parser(argparse.ArgumentParser):
    """Raises :class:`_UsageError` where argparse would exit with status 2,
    the minimality code; ``--help`` still exits 0."""

    def error(self, message):
        raise _UsageError(message)


def _seed(text):
    """A ``--seed`` value: a nonnegative decimal integer."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def main(argv=None):
    parser = _Parser(
        prog="pcfield",
        description="Optimal and minimax-robust extrapolation of periodically "
                    "correlated isotropic random fields",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--input", required=True, help="problem file (JSON)")
    parser.add_argument("--output", required=True, help="output directory")
    parser.add_argument("--seed", type=_seed, default=None,
                        help="override the simulation seed")
    parser.add_argument("--strict", action="store_true",
                        help="reject unknown fields in the problem file")
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA

    try:
        problem = Problem(args.input, strict=args.strict)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_SCHEMA

    out_dir = Path(args.output)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](problem, out_dir, args)
    except (SchemaError, NonFiniteDensityError) as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except InfeasibleClassError as exc:
        print(f"infeasible class: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except MinimalityViolation as exc:
        print(f"minimality failure: {exc}", file=sys.stderr)
        return EXIT_MINIMALITY
    except FactorizationError as exc:
        print(f"factorization failure: {exc}", file=sys.stderr)
        return EXIT_MINIMALITY


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
